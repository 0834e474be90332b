// Parameterized property sweeps (TEST_P) over the library's core invariants.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "airline/inventory.hpp"
#include "core/detect/ml.hpp"
#include "core/mitigate/rate_limit.hpp"
#include "sim/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "workload/names.hpp"
#include "workload/nip_model.hpp"

namespace fraudsim {
namespace {

// --- Inventory conservation across hold durations and capacities -------------------

// Every field is 64 bits wide so the struct has no padding: gtest prints the
// parameter as a byte dump, and that dump is part of the discovered test name,
// so padding bytes would make the names differ between builds.
struct InventoryParams {
  std::int64_t capacity;
  sim::SimDuration hold;
  std::int64_t max_nip;
  std::uint64_t seed;
};
static_assert(sizeof(InventoryParams) == 4 * sizeof(std::int64_t));

class InventoryProperty : public ::testing::TestWithParam<InventoryParams> {};

TEST_P(InventoryProperty, ConservationAndMonotonicClock) {
  const auto p = GetParam();
  airline::InventoryManager inv({p.hold, static_cast<int>(p.max_nip)}, sim::Rng(p.seed));
  const auto flight = inv.add_flight("T", 1, static_cast<int>(p.capacity), sim::days(30));
  sim::Rng rng(p.seed ^ 0xABCD);
  std::vector<std::string> pnrs;

  for (int step = 0; step < 400; ++step) {
    const sim::SimTime now = step * sim::minutes(3);
    switch (rng.uniform_int(0, 3)) {
      case 0:
      case 1: {
        const int nip = static_cast<int>(rng.uniform_int(1, 9));
        std::vector<airline::Passenger> party(
            static_cast<std::size_t>(nip),
            airline::Passenger{"A", "B", {1990, 1, 1}, ""});
        const auto outcome = inv.hold(now, flight, std::move(party), web::ActorId{1});
        if (outcome.ok) pnrs.push_back(outcome.pnr);
        // NiP cap respected.
        if (p.max_nip > 0 && nip > p.max_nip) {
          EXPECT_FALSE(outcome.ok);
        }
        break;
      }
      case 2:
        if (!pnrs.empty()) {
          (void)inv.ticket(now, rng.pick(pnrs));
        }
        break;
      default:
        if (!pnrs.empty()) {
          (void)inv.cancel(now, rng.pick(pnrs));
        }
        break;
    }
    inv.expire_due(now);

    // Invariants.
    int held = 0;
    int sold = 0;
    for (const auto& r : inv.reservations()) {
      EXPECT_LE(r.created, now);
      if (r.state == airline::ReservationState::Held) {
        EXPECT_GT(r.hold_expiry, now);
        held += r.nip();
      }
      if (r.state == airline::ReservationState::Ticketed) sold += r.nip();
      if (p.max_nip > 0) {
        EXPECT_LE(r.nip(), p.max_nip);
      }
    }
    EXPECT_EQ(inv.held_seats(flight), held);
    EXPECT_EQ(inv.sold_seats(flight), sold);
    EXPECT_LE(held + sold, p.capacity);
    EXPECT_EQ(inv.available_seats(flight), p.capacity - held - sold);
  }
  // Accounting closes: created = live-held + terminal states.
  const auto& stats = inv.stats();
  std::uint64_t live = 0;
  for (const auto& r : inv.reservations()) {
    if (r.state == airline::ReservationState::Held) ++live;
  }
  EXPECT_EQ(stats.holds_created, live + stats.expired + stats.ticketed + stats.cancelled);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InventoryProperty,
    ::testing::Values(InventoryParams{10, sim::minutes(15), 9, 1},
                      InventoryParams{50, sim::minutes(30), 9, 2},
                      InventoryParams{180, sim::hours(2), 9, 3},
                      InventoryParams{180, sim::minutes(30), 4, 4},
                      InventoryParams{5, sim::minutes(5), 2, 5},
                      InventoryParams{400, sim::hours(6), 6, 6}));

// --- Rate limiter: admitted count never exceeds limit in any window -----------------

struct RateParams {
  std::uint64_t limit;
  sim::SimDuration window;
  std::uint64_t seed;
};

class RateLimiterProperty : public ::testing::TestWithParam<RateParams> {};

TEST_P(RateLimiterProperty, WindowBoundHolds) {
  const auto p = GetParam();
  mitigate::SlidingWindowRateLimiter limiter(p.limit, p.window);
  sim::Rng rng(p.seed);
  std::vector<sim::SimTime> admitted;
  sim::SimTime now = 0;
  for (int i = 0; i < 3000; ++i) {
    now += static_cast<sim::SimDuration>(rng.exponential(static_cast<double>(p.window) / 20.0));
    if (limiter.allow(now, "k")) admitted.push_back(now);
  }
  // Property: every window of length `window` contains at most `limit`
  // admitted events.
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    std::size_t in_window = 0;
    for (std::size_t j = i; j < admitted.size() && admitted[j] < admitted[i] + p.window; ++j) {
      ++in_window;
    }
    EXPECT_LE(in_window, p.limit);
  }
  EXPECT_GT(admitted.size(), p.limit);  // the limiter admits over time
}

INSTANTIATE_TEST_SUITE_P(Sweep, RateLimiterProperty,
                         ::testing::Values(RateParams{1, sim::kMinute, 10},
                                           RateParams{5, sim::kMinute, 11},
                                           RateParams{10, sim::kHour, 12},
                                           RateParams{100, sim::kHour, 13},
                                           RateParams{3, sim::seconds(10), 14}));

// --- Levenshtein metric axioms over random name pairs --------------------------------

class LevenshteinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LevenshteinProperty, MetricAxioms) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const auto a = rng.random_lowercase(static_cast<std::size_t>(rng.uniform_int(0, 12)));
    const auto b = rng.random_lowercase(static_cast<std::size_t>(rng.uniform_int(0, 12)));
    const auto c = rng.random_lowercase(static_cast<std::size_t>(rng.uniform_int(0, 12)));
    const auto dab = util::levenshtein(a, b);
    // Identity and symmetry.
    EXPECT_EQ(util::levenshtein(a, a), 0u);
    EXPECT_EQ(dab, util::levenshtein(b, a));
    // Bounds.
    EXPECT_LE(dab, std::max(a.size(), b.size()));
    const auto size_gap = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
    EXPECT_GE(dab, size_gap);
    // Triangle inequality.
    EXPECT_LE(util::levenshtein(a, c), dab + util::levenshtein(b, c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevenshteinProperty, ::testing::Values(21, 22, 23, 24));

// --- Misspell stays within one edit across many names ----------------------------------

class MisspellProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MisspellProperty, OneEditAndNonEmpty) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const auto& name = rng.pick(workload::surname_pool());
    const auto typo = workload::misspell(rng, name);
    EXPECT_FALSE(typo.empty());
    EXPECT_TRUE(util::within_edit_distance(name, typo, 1)) << name << " -> " << typo;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MisspellProperty, ::testing::Values(31, 32, 33));

// --- NiP model under every cap ----------------------------------------------------------

class NipCapProperty : public ::testing::TestWithParam<int> {};

TEST_P(NipCapProperty, SamplesRespectCapAndFoldTail) {
  const int cap = GetParam();
  const auto model = workload::NipModel::standard();
  sim::Rng rng(static_cast<std::uint64_t>(cap) * 97 + 5);
  std::map<int, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[model.sample_with_cap(rng, cap)];
  for (const auto& [nip, c] : counts) {
    EXPECT_GE(nip, 1);
    if (cap > 0) {
      EXPECT_LE(nip, cap);
    }
    EXPECT_GT(c, 0);
  }
  if (cap > 0 && cap < 9) {
    // Probability mass is conserved: P(cap) under the cap equals the
    // original tail mass P(>= cap).
    double tail = 0.0;
    const auto& w = model.weights();
    for (int i = cap - 1; i < 9; ++i) tail += w[static_cast<std::size_t>(i)];
    EXPECT_NEAR(static_cast<double>(counts[cap]) / n, tail, 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(Caps, NipCapProperty, ::testing::Values(0, 1, 2, 4, 6, 9));

// --- Gibberish detector separation across seeds ------------------------------------------

class GibberishProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GibberishProperty, RandomStringsScoreAboveRealNames) {
  sim::Rng rng(GetParam());
  util::RunningStats real;
  util::RunningStats mash;
  for (int i = 0; i < 150; ++i) {
    real.add(util::gibberish_score(util::to_lower(rng.pick(workload::surname_pool()))));
    mash.add(util::gibberish_score(
        rng.random_lowercase(static_cast<std::size_t>(rng.uniform_int(6, 9)))));
  }
  // Distributional separation: mean gap well beyond the real-name mean.
  EXPECT_GT(mash.mean(), real.mean() + 0.25);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GibberishProperty, ::testing::Values(41, 42, 43, 44, 45));

// --- Scaler/classifier invariance -----------------------------------------------------------

class ScalerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalerProperty, TransformedTrainingDataIsStandardised) {
  sim::Rng rng(GetParam());
  std::vector<detect::FeatureRow> rows;
  for (int i = 0; i < 500; ++i) {
    rows.push_back({rng.normal(100.0, 25.0), rng.uniform(0.0, 1e-3), rng.exponential(3.0)});
  }
  detect::StandardScaler scaler;
  scaler.fit(rows);
  const auto transformed = scaler.transform(rows);
  for (std::size_t dim = 0; dim < 3; ++dim) {
    util::RunningStats stats;
    for (const auto& row : transformed) stats.add(row[dim]);
    EXPECT_NEAR(stats.mean(), 0.0, 1e-9);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalerProperty, ::testing::Values(51, 52, 53));

// --- RunningStats sharded reduction ----------------------------------------------------

// The fleet runner reduces per-seed shards with RunningStats::merge in an
// arbitrary tree. Property: however the samples are split into shards and in
// whatever order the shards are merged (including degenerate single-shard
// reductions that alias the accumulator), the result equals the stats of the
// concatenated samples.
class StatsMergeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsMergeProperty, ShardedMergeEqualsConcatenation) {
  sim::Rng rng(GetParam());
  const int shard_count = static_cast<int>(rng.uniform_int(1, 8));
  std::vector<util::RunningStats> shards(static_cast<std::size_t>(shard_count));
  util::RunningStats concatenated;
  const int samples = static_cast<int>(rng.uniform_int(0, 400));
  for (int i = 0; i < samples; ++i) {
    const double x = rng.normal(5.0, 12.0);
    shards[static_cast<std::size_t>(rng.uniform_int(0, shard_count - 1))].add(x);
    concatenated.add(x);
  }
  // Merge the shards in a random order into a single accumulator.
  util::RunningStats merged;
  while (!shards.empty()) {
    const auto pick =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(shards.size()) - 1));
    merged.merge(shards[pick]);
    shards.erase(shards.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  EXPECT_EQ(merged.count(), concatenated.count());
  EXPECT_NEAR(merged.mean(), concatenated.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), concatenated.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(merged.min(), concatenated.min());
  EXPECT_DOUBLE_EQ(merged.max(), concatenated.max());
  EXPECT_NEAR(merged.sum(), concatenated.sum(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsMergeProperty,
                         ::testing::Values(61, 62, 63, 64, 65, 66, 67, 68));

}  // namespace
}  // namespace fraudsim
