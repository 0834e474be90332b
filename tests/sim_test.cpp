#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace fraudsim::sim {
namespace {

// --- Time --------------------------------------------------------------------

TEST(Time, UnitConversions) {
  EXPECT_EQ(seconds(1.5), 1500);
  EXPECT_EQ(minutes(2), 120'000);
  EXPECT_EQ(hours(1), 3'600'000);
  EXPECT_EQ(days(1), 24 * hours(1));
  EXPECT_DOUBLE_EQ(to_hours(hours(5.3)), 5.3);
  EXPECT_DOUBLE_EQ(to_days(days(2)), 2.0);
}

TEST(Time, CalendarHelpers) {
  EXPECT_EQ(day_of(0), 0);
  EXPECT_EQ(day_of(kDay - 1), 0);
  EXPECT_EQ(day_of(kDay), 1);
  EXPECT_EQ(hour_of_day(kDay + 3 * kHour + 5), 3);
  EXPECT_EQ(week_of(6 * kDay), 0);
  EXPECT_EQ(week_of(7 * kDay), 1);
}

TEST(Time, Formatting) {
  EXPECT_EQ(format_time(0), "d0 00:00:00");
  EXPECT_EQ(format_time(kDay + kHour + kMinute + kSecond), "d1 01:01:01");
}

// Regression: truncating `/` and `%` mapped t=-1 into day 0 with hour -1,
// silently merging the pre-epoch quota bucket with day 0's. Floor semantics
// keep every bucket half-open: day -1 is exactly [-kDay, 0).
TEST(Time, CalendarHelpersFloorAtNegativeTimes) {
  EXPECT_EQ(day_of(-1), -1);
  EXPECT_EQ(day_of(0), 0);
  EXPECT_EQ(day_of(kDay - 1), 0);
  EXPECT_EQ(day_of(-kDay), -1);
  EXPECT_EQ(day_of(-kDay - 1), -2);

  EXPECT_EQ(hour_of_day(-1), 23);
  EXPECT_EQ(hour_of_day(0), 0);
  EXPECT_EQ(hour_of_day(kDay - 1), 23);
  EXPECT_EQ(hour_of_day(-kDay), 0);
  EXPECT_EQ(hour_of_day(-kHour), 23);

  EXPECT_EQ(week_of(-1), -1);
  EXPECT_EQ(week_of(0), 0);
  EXPECT_EQ(week_of(kWeek - 1), 0);
  EXPECT_EQ(week_of(-kWeek), -1);

  static_assert(floor_div(-1, kDay) == -1);
  static_assert(floor_mod(-1, kDay) == kDay - 1);
  static_assert(floor_div(kDay, kDay) == 1);
  static_assert(floor_mod(kDay, kDay) == 0);
}

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng root(7);
  Rng f1 = root.fork("alpha");
  Rng f2 = Rng(7).fork("alpha");
  EXPECT_EQ(f1.uniform_int(0, 1 << 30), f2.uniform_int(0, 1 << 30));
  Rng f3 = Rng(7).fork("beta");
  EXPECT_NE(Rng(7).fork("alpha").uniform_int(0, 1 << 30), f3.uniform_int(0, 1 << 30));
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto n = rng.uniform_int(-5, 5);
    EXPECT_GE(n, -5);
    EXPECT_LE(n, 5);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(13);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.exponential(5.0);
  EXPECT_NEAR(total / n, 5.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.normal(10.0, 2.0);
  EXPECT_NEAR(total / n, 10.0, 0.1);
  EXPECT_DOUBLE_EQ(rng.normal(3.0, 0.0), 3.0);  // zero stddev is exact
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(19);
  const std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.weighted_index(weights), 1u);
  }
}

TEST(Rng, WeightedIndexDistribution) {
  Rng rng(23);
  const std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.weighted_index(weights) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.03);
}

TEST(Rng, WeightedIndexAllZeroReturnsZero) {
  Rng rng(29);
  const std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(rng.weighted_index(weights), 0u);
}

// Regression: a NaN weight used to poison the running total (std::max(NaN,
// 0.0) is NaN), dodge the `total <= 0` guard and hand NaN bounds to
// uniform_real_distribution — undefined behaviour. Non-finite weights are
// now treated as zero in both passes.
TEST(Rng, WeightedIndexIgnoresNaNWeights) {
  Rng rng(37);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> weights = {nan, 10.0, nan};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.weighted_index(weights), 1u);
  }
}

TEST(Rng, WeightedIndexIgnoresInfiniteWeights) {
  Rng rng(41);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> weights = {inf, 1.0, 3.0, -inf};
  int twos = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const std::size_t idx = rng.weighted_index(weights);
    EXPECT_TRUE(idx == 1 || idx == 2);
    if (idx == 2) ++twos;
  }
  // With inf treated as zero, the finite weights keep their 1:3 split.
  EXPECT_NEAR(static_cast<double>(twos) / n, 0.75, 0.03);
}

TEST(Rng, WeightedIndexAllNonFiniteReturnsZero) {
  Rng rng(43);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> weights = {nan, inf, -inf, nan};
  EXPECT_EQ(rng.weighted_index(weights), 0u);
}

TEST(Rng, RandomStrings) {
  Rng rng(31);
  const auto s = rng.random_lowercase(8);
  EXPECT_EQ(s.size(), 8u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
  const auto d = rng.random_digits(6);
  EXPECT_EQ(d.size(), 6u);
  for (char c : d) {
    EXPECT_GE(c, '0');
    EXPECT_LE(c, '9');
  }
}

// --- EventQueue -----------------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) {
    auto f = q.pop();
    f.fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.schedule(100, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Regression: FIFO order among equal timestamps must survive heap churn.
// Interleaved scheduling at other times, cancellations, and pops reorder the
// underlying heap; a tie-break by anything but insertion sequence scrambles
// same-timestamp batches only once the heap has been exercised — which is
// why the five-event test above is not enough.
TEST(EventQueue, EqualTimesStayFifoUnderHeapChurn) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> doomed;
  for (int i = 0; i < 64; ++i) {
    q.schedule(500, [&fired, i] { fired.push_back(i); });
    q.schedule(10 + i, [] {});  // earlier noise, popped before the batch
    doomed.push_back(q.schedule(500, [&fired] { fired.push_back(-1); }));
    q.schedule(900 - i, [] {});  // later noise, still in the heap at t=500
  }
  for (const auto id : doomed) EXPECT_TRUE(q.cancel(id));
  while (!q.empty() && q.next_time() < 500) q.pop().fn();
  fired.clear();
  while (!q.empty() && q.next_time() == 500) q.pop().fn();
  std::vector<int> expected(64);
  for (int i = 0; i < 64; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(fired, expected);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const auto id = q.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));  // double cancel fails
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelInvalidIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(99));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const auto early = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
  EXPECT_EQ(q.pending(), 1u);
}

// Regression: cancelling an id that already fired must be a clean no-op. The
// old implementation only guarded on id range and the cancelled set, so a
// fired id decremented the live count and leaked into the cancelled set — the
// queue then reported empty() while a live event still sat in the heap.
TEST(EventQueue, CancelAfterFireIsRejected) {
  EventQueue q;
  bool late_fired = false;
  const auto early = q.schedule(10, [] {});
  q.schedule(20, [&] { late_fired = true; });
  const auto fired = q.pop();
  EXPECT_EQ(fired.id, early);
  EXPECT_FALSE(q.cancel(early));  // already fired: rejected, state untouched
  EXPECT_FALSE(q.empty());        // the t=20 event is still live
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_time(), 20);
  q.pop().fn();
  EXPECT_TRUE(late_fired);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(early));  // still rejected once drained
}

TEST(EventQueue, DoubleCancelLeavesOtherEventsLive) {
  EventQueue q;
  const auto doomed = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.schedule(30, [] {});
  EXPECT_TRUE(q.cancel(doomed));
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_FALSE(q.cancel(doomed));
    EXPECT_EQ(q.pending(), 2u);  // repeated cancels never eat live events
  }
  EXPECT_EQ(q.pop().time, 20);
  EXPECT_EQ(q.pop().time, 30);
  EXPECT_TRUE(q.empty());
}

// Cancel-then-drain: interleave fires and cancels, then drain. Every live
// event is delivered exactly once, no cancelled event fires, and empty() only
// turns true once the heap holds no live entries.
TEST(EventQueue, CancelThenDrainDeliversExactlyTheLiveEvents) {
  EventQueue q;
  std::vector<EventId> ids;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(q.schedule(100 + i, [&fired, i] { fired.push_back(i); }));
  }
  // Fire the first two, then cancel a mix of fired and pending ids.
  q.pop().fn();
  q.pop().fn();
  EXPECT_FALSE(q.cancel(ids[0]));  // fired
  EXPECT_FALSE(q.cancel(ids[1]));  // fired
  EXPECT_TRUE(q.cancel(ids[3]));
  EXPECT_TRUE(q.cancel(ids[7]));
  EXPECT_FALSE(q.cancel(ids[3]));  // double cancel
  EXPECT_EQ(q.pending(), 6u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 4, 5, 6, 8, 9}));
  EXPECT_EQ(q.pending(), 0u);
}

// Regression: cancelled entries must not accumulate. Before compaction, a
// long-horizon timer cancelled early (hold-TTL sweep, retry timer behind an
// open breaker) pinned its heap entry — and its cancelled-set slot — until it
// surfaced at the heap top; over a 100M-event run the dead mass was
// unbounded. The queue now rebuilds once dead entries exceed half the heap,
// so total slots stay within 2x the live count through any churn pattern.
TEST(EventQueue, ScheduleCancelChurnKeepsHeapBounded) {
  EventQueue q;
  // A few live anchors that are never cancelled.
  for (int i = 0; i < 8; ++i) q.schedule(1'000'000 + i, [] {});
  std::size_t max_heap = 0;
  std::size_t max_cancelled = 0;
  for (int round = 0; round < 100'000; ++round) {
    // Long-horizon timer, cancelled immediately — the leak pattern: it never
    // reaches the heap top on its own.
    const auto id = q.schedule(2'000'000 + round, [] {});
    ASSERT_TRUE(q.cancel(id));
    max_heap = std::max(max_heap, q.heap_size());
    max_cancelled = std::max(max_cancelled, q.cancelled_count());
  }
  EXPECT_EQ(q.pending(), 8u);
  // Dead entries never exceed half the heap, so the heap never exceeds
  // 2x live + O(1); without compaction max_heap would be ~100'008.
  EXPECT_LE(max_heap, 2 * 8 + 2);
  EXPECT_LE(max_cancelled, max_heap / 2 + 1);
  EXPECT_LE(q.heap_size(), 2 * 8 + 2);
  // The queue still behaves: anchors drain in order, nothing cancelled fires.
  std::size_t drained = 0;
  while (!q.empty()) {
    EXPECT_GE(q.pop().time, 1'000'000);
    ++drained;
  }
  EXPECT_EQ(drained, 8u);
}

// Compaction must preserve FIFO order among equal timestamps: entries keep
// their original ids through the rebuild, and (time, id) is a total order.
TEST(EventQueue, CompactionPreservesFifoOrder) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> doomed;
  for (int i = 0; i < 32; ++i) {
    q.schedule(500, [&fired, i] { fired.push_back(i); });
    doomed.push_back(q.schedule(400 + i, [&fired] { fired.push_back(-1); }));
  }
  // Cancel every other entry — more than half the heap dies, forcing at
  // least one rebuild mid-churn.
  for (const auto id : doomed) ASSERT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().fn();
  std::vector<int> expected(32);
  for (int i = 0; i < 32; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(fired, expected);
}

// Checkpoint support: re-registering entries under their original ids after a
// restore reproduces the exact FIFO order — and the id counter continues the
// original sequence.
TEST(EventQueue, RestoreEntryReproducesOrderAndIdSequence) {
  EventQueue original;
  std::vector<int> fired;
  for (int i = 0; i < 6; ++i) {
    original.schedule(100, [&fired, i] { fired.push_back(i); });
  }
  const EventId next = original.next_id();

  // Rebuild in scrambled order, as a restore iterating workload state might.
  EventQueue restored;
  for (int i : {3, 0, 5, 2, 4, 1}) {
    ASSERT_TRUE(restored.restore_entry(100, static_cast<EventId>(i + 1),
                                       [&fired, i] { fired.push_back(i); }));
  }
  ASSERT_TRUE(restored.set_next_id(next));
  EXPECT_EQ(restored.next_id(), next);
  EXPECT_EQ(restored.pending(), 6u);
  while (!restored.empty()) restored.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  // Fresh handles continue where the original left off.
  EXPECT_EQ(restored.schedule(200, [] {}), next);
}

// Regression: restore_entry accepted an id that was already live, leaving two
// heap entries under one id with pending() == 1. After one pop, empty() was
// true while the second entry was still queued.
TEST(EventQueue, RestoreEntryRejectsALiveId) {
  EventQueue q;
  std::vector<int> fired;
  const EventId id = q.schedule(100, [&fired] { fired.push_back(1); });
  EXPECT_FALSE(q.restore_entry(200, id, [&fired] { fired.push_back(2); }));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.heap_size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heap_size(), 0u);
  EXPECT_EQ(fired, std::vector<int>{1});
}

TEST(EventQueue, RestoreEntryRejectsIdZero) {
  EventQueue q;
  EXPECT_FALSE(q.restore_entry(100, 0, [] {}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_id(), 1u);
  EXPECT_FALSE(q.set_next_id(0));
}

// Regression: set_next_id below a restored id let schedule() hand that live
// id out a second time, so cancelling one handle cancelled the other.
TEST(EventQueue, SetNextIdRejectsValuesAtOrBelowTheNewestLiveId) {
  EventQueue q;
  ASSERT_TRUE(q.restore_entry(100, 7, [] {}));
  ASSERT_TRUE(q.restore_entry(100, 3, [] {}));
  EXPECT_FALSE(q.set_next_id(3));
  EXPECT_FALSE(q.set_next_id(7));
  EXPECT_EQ(q.next_id(), 8u);
  EXPECT_TRUE(q.set_next_id(9));
  EXPECT_EQ(q.schedule(50, [] {}), 9u);
  EXPECT_EQ(q.pending(), 3u);
}

// A cancelled entry stays in the heap until it surfaces or a compaction runs.
// Reviving its id by restore must not let the dead closure fire in the new
// entry's place, at the dead entry's earlier time.
TEST(EventQueue, RestoredIdNeverFiresItsCancelledPredecessor) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(100, [&fired] { fired.push_back(1); });
  const EventId doomed = q.schedule(150, [&fired] { fired.push_back(-1); });
  q.schedule(300, [&fired] { fired.push_back(3); });
  ASSERT_TRUE(q.cancel(doomed));
  ASSERT_EQ(q.cancelled_count(), 1u);
  ASSERT_TRUE(q.restore_entry(200, doomed, [&fired] { fired.push_back(2); }));
  EXPECT_EQ(q.pending(), 3u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

// Ids decoded from a damaged checkpoint must not size the liveness window.
TEST(EventQueue, RestoreRejectsIdsThatWouldWidenTheWindowPastItsLimit) {
  EventQueue q;
  ASSERT_TRUE(q.restore_entry(100, 5, [] {}));
  const EventId far = 5 + EventQueue::kMaxRestoreSpan;
  EXPECT_FALSE(q.restore_entry(100, far, [] {}));
  EXPECT_FALSE(q.set_next_id(far + 1));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_id(), 6u);
  EXPECT_LE(q.liveness_words(), 1u);
  // The same ids are fine once nothing older is live.
  q.pop();
  EXPECT_TRUE(q.set_next_id(far + 1));
  EXPECT_EQ(q.schedule(100, [] {}), far + 1);
  EXPECT_LE(q.liveness_words(), 1u);
}

// Restored ids stay below 2^63, so the id sequence can never wrap to 0.
TEST(EventQueue, RestoreRejectsIdsPastTheIdLimit) {
  EventQueue q;
  EXPECT_FALSE(q.set_next_id(EventQueue::kMaxRestoredId + 1));
  EXPECT_FALSE(q.restore_entry(100, EventQueue::kMaxRestoredId + 1, [] {}));
  EXPECT_FALSE(q.restore_entry(100, std::numeric_limits<EventId>::max(), [] {}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_id(), 1u);
  EXPECT_TRUE(q.restore_entry(100, EventQueue::kMaxRestoredId, [] {}));
  EXPECT_EQ(q.next_id(), EventQueue::kMaxRestoredId + 1);
  EXPECT_EQ(q.schedule(200, [] {}), EventQueue::kMaxRestoredId + 1);
  EXPECT_EQ(q.pop().id, EventQueue::kMaxRestoredId);
  EXPECT_EQ(q.pop().id, EventQueue::kMaxRestoredId + 1);
}

// The node-set queue the flat queue replaced, kept as an oracle: liveness in
// two hash sets, closures inside 48-byte heap entries. It follows the same
// restore contract (the rejections, and the dead-entry purge before an id can
// be issued again) so every observable — including heap_size() — must match.
class NodeSetQueue {
 public:
  EventId schedule(SimTime at, EventFn fn) {
    const EventId id = next_id_++;
    push(at, id, std::move(fn));
    return id;
  }
  bool restore_entry(SimTime at, EventId id, EventFn fn) {
    if (id == 0 || id > EventQueue::kMaxRestoredId || pending_.contains(id)) return false;
    const EventId lo = pending_.empty() ? id : std::min(min_pending(), id);
    if (std::max(next_id_, id + 1) - lo > EventQueue::kMaxRestoreSpan) return false;
    if (id < next_id_ && !cancelled_.empty()) compact();
    push(at, id, std::move(fn));
    if (id >= next_id_) next_id_ = id + 1;
    return true;
  }
  bool set_next_id(EventId id) {
    if (id == 0 || id > EventQueue::kMaxRestoredId) return false;
    if (!pending_.empty() &&
        (id <= max_pending() || id - min_pending() > EventQueue::kMaxRestoreSpan)) {
      return false;
    }
    if (id < next_id_ && !cancelled_.empty()) compact();
    next_id_ = id;
    return true;
  }
  bool cancel(EventId id) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return false;
    pending_.erase(it);
    cancelled_.insert(id);
    if (cancelled_.size() * 2 > heap_.size()) compact();
    return true;
  }
  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }
  [[nodiscard]] std::size_t cancelled_count() const { return cancelled_.size(); }
  [[nodiscard]] EventId next_id() const { return next_id_; }
  SimTime next_time() {
    drain_cancelled_top();
    return heap_.front().time;
  }
  EventQueue::Fired pop() {
    drain_cancelled_top();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry& top = heap_.back();
    EventQueue::Fired fired{top.time, top.id, std::move(top.fn)};
    heap_.pop_back();
    pending_.erase(fired.id);
    return fired;
  }

 private:
  struct Entry {
    SimTime time;
    EventId id;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };
  void push(SimTime at, EventId id, EventFn fn) {
    heap_.push_back(Entry{at, id, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    pending_.insert(id);
  }
  void compact() {
    std::erase_if(heap_, [this](const Entry& e) { return cancelled_.contains(e.id); });
    cancelled_.clear();
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }
  void drain_cancelled_top() {
    while (!heap_.empty() && cancelled_.contains(heap_.front().id)) {
      cancelled_.erase(heap_.front().id);
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }
  [[nodiscard]] EventId min_pending() const {
    return *std::min_element(pending_.begin(), pending_.end());
  }
  [[nodiscard]] EventId max_pending() const {
    return *std::max_element(pending_.begin(), pending_.end());
  }

  std::vector<Entry> heap_;
  std::unordered_set<EventId> pending_;
  std::unordered_set<EventId> cancelled_;
  EventId next_id_ = 1;
};

// Seeded churn through the flat queue and the oracle: schedule (near and far
// future), cancel (live, fired, cancelled, never-issued ids), pop, next_time,
// restore_entry and set_next_id (accepted and rejected), with the compaction
// each cancel may trigger. Every return value, the fired (time, id, closure)
// order, pending(), heap_size() and cancelled_count() must agree after every
// operation.
TEST(EventQueue, MatchesNodeSetOracleUnderSeededChurn) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventQueue flat;
    NodeSetQueue oracle;
    std::vector<std::uint64_t> flat_log;
    std::vector<std::uint64_t> oracle_log;
    SimTime now = 0;
    std::uint64_t tag = 0;
    int restores_taken = 0, restores_refused = 0, next_ids_taken = 0, next_ids_refused = 0;
    const auto any_id = [&] {
      return static_cast<EventId>(
          rng.uniform_int(0, static_cast<std::int64_t>(oracle.next_id()) + 3));
    };
    const auto at = [&] {
      return rng.bernoulli(0.1) ? now + rng.uniform_int(10'000, 1'000'000)
                                : now + rng.uniform_int(0, 50);
    };
    for (int step = 0; step < 40'000; ++step) {
      const double op = rng.uniform();
      if (op < 0.35) {
        const SimTime t = at();
        ++tag;
        const EventId a = flat.schedule(t, [&flat_log, tag] { flat_log.push_back(tag); });
        const EventId b = oracle.schedule(t, [&oracle_log, tag] { oracle_log.push_back(tag); });
        ASSERT_EQ(a, b);
      } else if (op < 0.60) {
        const EventId id = any_id();
        ASSERT_EQ(flat.cancel(id), oracle.cancel(id)) << "cancel " << id;
      } else if (op < 0.85) {
        ASSERT_EQ(flat.empty(), oracle.empty());
        if (!oracle.empty()) {
          auto a = flat.pop();
          auto b = oracle.pop();
          ASSERT_EQ(a.time, b.time);
          ASSERT_EQ(a.id, b.id);
          now = a.time;
          a.fn();
          b.fn();
        }
      } else if (op < 0.90) {
        if (!oracle.empty()) {
          ASSERT_EQ(flat.next_time(), oracle.next_time());
        }
      } else if (op < 0.96) {
        const EventId id = any_id();
        const SimTime t = at();
        ++tag;
        const bool a =
            flat.restore_entry(t, id, [&flat_log, tag] { flat_log.push_back(tag); });
        const bool b =
            oracle.restore_entry(t, id, [&oracle_log, tag] { oracle_log.push_back(tag); });
        ASSERT_EQ(a, b) << "restore_entry " << id;
        ++(a ? restores_taken : restores_refused);
      } else {
        // Mostly near next_id, where lowering it past dead keys is legal.
        const EventId id =
            rng.bernoulli(0.3)
                ? any_id()
                : static_cast<EventId>(std::max<std::int64_t>(
                      0, static_cast<std::int64_t>(oracle.next_id()) + rng.uniform_int(-8, 8)));
        const bool a = flat.set_next_id(id);
        ASSERT_EQ(a, oracle.set_next_id(id)) << "set_next_id " << id;
        ++(a ? next_ids_taken : next_ids_refused);
      }
      ASSERT_EQ(flat.pending(), oracle.pending());
      ASSERT_EQ(flat.heap_size(), oracle.heap_size());
      ASSERT_EQ(flat.cancelled_count(), oracle.cancelled_count());
      ASSERT_EQ(flat.next_id(), oracle.next_id());
    }
    while (!oracle.empty()) {
      auto a = flat.pop();
      auto b = oracle.pop();
      ASSERT_EQ(a.id, b.id);
      a.fn();
      b.fn();
    }
    EXPECT_TRUE(flat.empty());
    EXPECT_EQ(flat_log, oracle_log);
    EXPECT_GT(flat_log.size(), 1'000u);
    EXPECT_GT(restores_taken, 100);
    EXPECT_GT(restores_refused, 100);
    EXPECT_GT(next_ids_taken, 100);
    EXPECT_GT(next_ids_refused, 100);
  }
}

// Memory bound: the liveness window holds at most one bit per id issued since
// the oldest live one. A far-future event pinned while 1M short events churn
// keeps the whole span (and no more); once it goes, the window collapses. The
// heap never holds more than the live entries plus bounded dead mass.
TEST(EventQueue, PinnedEventBoundsTheLivenessWindow) {
  EventQueue q;
  const EventId pinned = q.schedule(std::numeric_limits<SimTime>::max() / 2, [] {});
  std::size_t max_heap = 0;
  std::size_t max_words = 0;
  for (SimTime t = 0; t < 1'000'000; ++t) {
    q.schedule(t, [] {});
    const EventId doomed = q.schedule(t + 5, [] {});
    ASSERT_TRUE(q.cancel(doomed));
    ASSERT_EQ(q.pop().time, t);
    max_heap = std::max(max_heap, q.heap_size());
    max_words = std::max(max_words, q.liveness_words());
  }
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_LE(max_heap, 4u);
  const std::size_t issued = static_cast<std::size_t>(q.next_id() - pinned);
  EXPECT_LE(max_words, issued / 64 + 1);
  EXPECT_GE(max_words, issued / 64);  // the pinned id really holds the span

  ASSERT_TRUE(q.cancel(pinned));
  EXPECT_TRUE(q.empty());
  EXPECT_LE(q.liveness_words(), 1u);
  // Without a pinned event, the same churn keeps the window a few words wide.
  for (SimTime t = 0; t < 100'000; ++t) {
    q.schedule(t, [] {});
    ASSERT_TRUE(q.cancel(q.schedule(t + 5, [] {})));
    q.pop();
    max_words = q.liveness_words();
    ASSERT_LE(max_words, 2u);
  }
}

// --- Simulation ------------------------------------------------------------------

TEST(Simulation, RunUntilAdvancesClock) {
  Simulation sim;
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulation, EventsSeeCorrectNow) {
  Simulation sim;
  SimTime seen = -1;
  sim.schedule_at(500, [&] { seen = sim.now(); });
  sim.run_until(1000);
  EXPECT_EQ(seen, 500);
  EXPECT_EQ(sim.now(), 1000);
  EXPECT_EQ(sim.fired_events(), 1u);
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation sim;
  SimTime seen = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_in(50, [&] { seen = sim.now(); });
  });
  sim.run_until(1000);
  EXPECT_EQ(seen, 150);
}

TEST(Simulation, PastEventsClampToNow) {
  Simulation sim;
  sim.run_until(100);
  SimTime seen = -1;
  sim.schedule_at(10, [&] { seen = sim.now(); });  // in the past
  sim.run_until(200);
  EXPECT_EQ(seen, 100);
}

TEST(Simulation, RunUntilDoesNotFireLaterEvents) {
  Simulation sim;
  bool fired = false;
  sim.schedule_at(2000, [&] { fired = true; });
  sim.run_until(1000);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(3000);
  EXPECT_TRUE(fired);
}

TEST(Simulation, StopHaltsProcessing) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(i * 10, [&] {
      ++count;
      if (count == 3) sim.stop();
    });
  }
  sim.run_until(1000);
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(sim.stopped());
}

TEST(Simulation, CancelScheduledEvent) {
  Simulation sim;
  bool fired = false;
  const auto id = sim.schedule_at(100, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_until(200);
  EXPECT_FALSE(fired);
}

TEST(Simulation, RecurringEventChain) {
  Simulation sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 5) sim.schedule_in(10, tick);
  };
  sim.schedule_in(10, tick);
  sim.run_until(1000);
  EXPECT_EQ(ticks, 5);
}

TEST(Simulation, StepFiresOne) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(10, [&] { ++count; });
  sim.schedule_at(20, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 10);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RunAllRespectsCap) {
  Simulation sim;
  std::uint64_t fired = 0;
  std::function<void()> forever = [&] {
    ++fired;
    sim.schedule_in(1, forever);
  };
  sim.schedule_in(1, forever);
  sim.run_all(100);
  EXPECT_EQ(fired, 100u);
}

}  // namespace
}  // namespace fraudsim::sim
