// Unit tests for the sharded deterministic engine: barrier exchange order,
// same-barrier request/reply round-trips, conservation accounting (including
// a planted message drop), injected exchange faults, and engine-level
// checkpoint/restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/fault/fault.hpp"
#include "core/invariant/invariant.hpp"
#include "sim/sharded_simulation.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "util/archive.hpp"
#include "util/hash.hpp"

namespace fraudsim {
namespace {

sim::ShardedSimulation::Config config(std::uint32_t shards, sim::SimDuration epoch) {
  sim::ShardedSimulation::Config cfg;
  cfg.shards = shards;
  cfg.epoch = epoch;
  cfg.threads = 1;
  return cfg;
}

TEST(ShardedSim, SingleShardRunsEventsAndBarriers) {
  sim::ShardedSimulation eng(config(1, sim::minutes(10)));
  std::vector<sim::SimTime> fired;
  eng.shard(0).schedule_at(sim::minutes(3), [&] { fired.push_back(sim::minutes(3)); });
  eng.shard(0).schedule_at(sim::minutes(15), [&] { fired.push_back(sim::minutes(15)); });
  eng.run_until(sim::minutes(30));
  EXPECT_EQ(fired, (std::vector<sim::SimTime>{sim::minutes(3), sim::minutes(15)}));
  EXPECT_EQ(eng.barriers_run(), 3u);
  EXPECT_EQ(eng.now(), sim::minutes(30));
  EXPECT_EQ(eng.fired_events(), 2u);
  EXPECT_EQ(eng.messages_sent(), 0u);
}

TEST(ShardedSim, ExchangeDeliversDstMajorSrcMinorFifo) {
  sim::ShardedSimulation eng(config(3, sim::minutes(10)));
  std::vector<std::pair<std::uint32_t, std::uint64_t>> got;  // (src, payload)
  eng.set_message_handler([&](std::uint32_t, const sim::ShardMessage& msg) {
    got.emplace_back(msg.src, msg.a);
  });
  // Shard 2 sends to 1 twice, shard 0 sends to 1 once and to 2 once — all in
  // the same epoch. Drain order must be dst-major (1 before 2), src-minor
  // (0's message to 1 before 2's), FIFO within a stream.
  eng.shard(2).schedule_at(1, [&] {
    eng.send(2, 1, 7, 20);
    eng.send(2, 1, 7, 21);
  });
  eng.shard(0).schedule_at(2, [&] {
    eng.send(0, 2, 7, 2);
    eng.send(0, 1, 7, 1);
  });
  eng.run_until(sim::minutes(10));
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> want = {
      {0, 1}, {2, 20}, {2, 21}, {0, 2}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(eng.messages_sent(), 4u);
  EXPECT_EQ(eng.messages_delivered(), 4u);
  EXPECT_EQ(eng.messages_in_flight(), 0u);
}

TEST(ShardedSim, RequestReplyCompletesWithinOneBarrier) {
  sim::ShardedSimulation eng(config(2, sim::minutes(10)));
  std::vector<std::uint64_t> replies;
  eng.set_message_handler([&](std::uint32_t dst, const sim::ShardMessage& msg) {
    if (msg.type == 1) {
      eng.send(dst, msg.src, 2, msg.a + 100);  // reply mid-barrier
    } else {
      replies.push_back(msg.a);
    }
  });
  eng.shard(0).schedule_at(1, [&] { eng.send(0, 1, 1, 5); });
  eng.run_until(sim::minutes(10));
  EXPECT_EQ(eng.barriers_run(), 1u);
  EXPECT_EQ(replies, std::vector<std::uint64_t>{105});
  EXPECT_EQ(eng.messages_sent(), 2u);
  EXPECT_EQ(eng.messages_delivered(), 2u);
  EXPECT_EQ(eng.messages_in_flight(), 0u);
}

TEST(ShardedSim, PlantedDropTripsShardConservation) {
  sim::ShardedSimulation eng(config(2, sim::minutes(10)));
  eng.set_message_handler([](std::uint32_t, const sim::ShardMessage&) {});
  invariant::InvariantRegistry registry;
  invariant::register_shard_invariants(registry, eng);

  eng.shard(0).schedule_at(1, [&] { eng.send(0, 1, 1, 7); });
  eng.test_drop_next_message();
  eng.run_until(sim::minutes(10));
  EXPECT_EQ(eng.messages_dropped(), 1u);
  EXPECT_EQ(eng.messages_delivered(), 0u);

  ASSERT_EQ(registry.check_all(eng.now()), 1u);
  ASSERT_EQ(registry.violations().size(), 1u);
  EXPECT_EQ(registry.violations()[0].invariant, "shard-conservation");
  EXPECT_NE(registry.violations()[0].detail.find("lost"), std::string::npos);
}

TEST(ShardedSim, CleanRunSatisfiesShardInvariants) {
  sim::ShardedSimulation eng(config(2, sim::minutes(10)));
  eng.set_message_handler([](std::uint32_t, const sim::ShardMessage&) {});
  invariant::InvariantRegistry registry;
  invariant::register_shard_invariants(registry, eng);
  eng.shard(0).schedule_at(1, [&] { eng.send(0, 1, 1, 7); });
  eng.run_until(sim::minutes(10));
  EXPECT_EQ(registry.check_all(eng.now()), 0u);
  EXPECT_TRUE(registry.clean());
}

TEST(ShardedSim, ExchangeFaultChargesRetriesNeverLosses) {
  auto& point = fault::FaultRegistry::global().point("shard.exchange");
  point.arm(fault::FaultScenario::every_nth(2));

  sim::ShardedSimulation eng(config(2, sim::minutes(10)));
  eng.set_exchange_guard([&point](sim::SimTime now) { return point.should_fail(now); });
  std::uint64_t delivered_payload = 0;
  eng.set_message_handler([&](std::uint32_t, const sim::ShardMessage& msg) {
    delivered_payload = msg.a;
  });
  invariant::InvariantRegistry registry;
  invariant::register_shard_invariants(registry, eng);

  for (int e = 0; e < 6; ++e) {
    eng.shard(0).schedule_at(sim::minutes(10) * e + 1,
                             [&eng, e] { eng.send(0, 1, 1, 40 + static_cast<std::uint64_t>(e)); });
  }
  eng.run_until(sim::hours(1));
  point.disarm();

  EXPECT_GT(eng.exchange_retries(), 0u);
  EXPECT_EQ(eng.messages_sent(), 6u);
  EXPECT_EQ(eng.messages_delivered(), 6u);
  EXPECT_EQ(delivered_payload, 45u);
  EXPECT_EQ(registry.check_all(eng.now()), 0u);
}

TEST(ShardedSim, AlwaysFaultCannotWedgeABarrier) {
  auto& point = fault::FaultRegistry::global().point("shard.exchange");
  point.arm(fault::FaultScenario::always());

  sim::ShardedSimulation eng(config(2, sim::minutes(10)));
  eng.set_exchange_guard([&point](sim::SimTime now) { return point.should_fail(now); });
  eng.set_message_handler([](std::uint32_t, const sim::ShardMessage&) {});
  eng.shard(0).schedule_at(1, [&] { eng.send(0, 1, 1, 9); });
  eng.run_until(sim::minutes(10));
  point.disarm();

  EXPECT_EQ(eng.messages_delivered(), 1u);  // retries bounded, then proceed
  EXPECT_GT(eng.exchange_retries(), 0u);
  EXPECT_EQ(eng.messages_in_flight(), 0u);
}

TEST(ShardedSim, CheckpointRestoreRoundTripsAccounting) {
  sim::ShardedSimulation eng(config(2, sim::minutes(10)));
  eng.set_message_handler([](std::uint32_t, const sim::ShardMessage&) {});
  eng.shard(0).schedule_at(1, [&] { eng.send(0, 1, 1, 3); });
  eng.shard(1).schedule_at(2, [&] { eng.send(1, 0, 1, 4); });
  eng.run_until(sim::minutes(20));

  util::ByteWriter out;
  eng.checkpoint(out);

  sim::ShardedSimulation restored(config(2, sim::minutes(10)));
  restored.set_message_handler([](std::uint32_t, const sim::ShardMessage&) {});
  util::ByteReader in(out.bytes());
  restored.restore(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.now(), eng.now());
  EXPECT_EQ(restored.barriers_run(), eng.barriers_run());
  EXPECT_EQ(restored.messages_sent(), eng.messages_sent());
  EXPECT_EQ(restored.messages_delivered(), eng.messages_delivered());
  EXPECT_EQ(restored.shard(0).now(), eng.now());
  EXPECT_EQ(restored.shard(1).now(), eng.now());

  // Both engines continue identically from the common point.
  auto drive = [](sim::ShardedSimulation& e) {
    e.shard(0).schedule_at(e.now() + 1, [&e] { e.send(0, 1, 1, 8); });
    e.run_until(e.now() + sim::minutes(10));
  };
  drive(eng);
  drive(restored);
  EXPECT_EQ(restored.messages_delivered(), eng.messages_delivered());
  EXPECT_EQ(restored.barriers_run(), eng.barriers_run());
}

TEST(ShardedSim, StablePartitionIsThreadAndCallIndependent) {
  sim::ShardedSimulation a(config(4, sim::hours(1)));
  sim::ShardedSimulation b(config(4, sim::minutes(1)));
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(a.shard_of(key), b.shard_of(key));
    EXPECT_LT(a.shard_of(key), 4u);
  }
}

// The copying exchange the engine used before swap staging, kept as an
// oracle: K serial shard loops and outboxes, and a barrier that copies every
// queued message into a round vector built afresh, delivering dst-major,
// src-minor, FIFO, in rounds until no message is left.
class CopyingEngine {
 public:
  CopyingEngine(std::uint32_t shards, sim::SimDuration epoch)
      : epoch_(epoch), sims_(shards), outbox_(shards), sent_(shards, 0) {
    for (auto& row : outbox_) row.resize(shards);
  }
  [[nodiscard]] std::uint32_t shards() const { return static_cast<std::uint32_t>(sims_.size()); }
  [[nodiscard]] sim::Simulation& shard(std::uint32_t k) { return sims_[k]; }
  [[nodiscard]] sim::SimTime now() const { return now_; }
  void send(std::uint32_t src, std::uint32_t dst, std::uint32_t type, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint64_t c = 0, std::uint64_t d = 0) {
    outbox_[src][dst].push_back(
        sim::ShardMessage{src, dst, sent_[src]++, sims_[src].now(), type, a, b, c, d});
  }
  void set_message_handler(sim::ShardedSimulation::MessageHandler h) { handler_ = std::move(h); }
  void add_barrier_hook(sim::ShardedSimulation::BarrierHook h) { hooks_.push_back(std::move(h)); }
  void test_drop_next_message() { drop_next_ = true; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }

  void run_until(sim::SimTime end) {
    while (now_ < end) {
      const sim::SimTime barrier = std::min<sim::SimTime>(now_ + epoch_, end);
      for (auto& s : sims_) s.run_before(barrier);
      exchange();
      now_ = barrier;
      for (const auto& hook : hooks_) hook(barrier);
    }
  }

 private:
  [[nodiscard]] std::size_t in_flight() const {
    std::size_t total = 0;
    for (const auto& row : outbox_) {
      for (const auto& box : row) total += box.size();
    }
    return total;
  }
  void exchange() {
    std::vector<sim::ShardMessage> round;
    while (in_flight() > 0) {
      round.clear();
      for (std::uint32_t dst = 0; dst < shards(); ++dst) {
        for (std::uint32_t src = 0; src < shards(); ++src) {
          auto& box = outbox_[src][dst];
          round.insert(round.end(), box.begin(), box.end());
          box.clear();
        }
      }
      for (const sim::ShardMessage& msg : round) {
        if (drop_next_) {
          drop_next_ = false;
          ++dropped_;
          continue;
        }
        if (handler_) handler_(msg.dst, msg);
        ++delivered_;
      }
    }
  }

  sim::SimDuration epoch_;
  std::vector<sim::Simulation> sims_;
  std::vector<std::vector<std::vector<sim::ShardMessage>>> outbox_;  // [src][dst]
  std::vector<std::uint64_t> sent_;
  sim::SimTime now_ = 0;
  sim::ShardedSimulation::MessageHandler handler_;
  std::vector<sim::ShardedSimulation::BarrierHook> hooks_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  bool drop_next_ = false;
};

struct Delivery {
  sim::SimTime barrier;
  sim::ShardMessage msg;
  bool operator==(const Delivery& o) const {
    return barrier == o.barrier && msg.src == o.msg.src && msg.dst == o.msg.dst &&
           msg.seq == o.msg.seq && msg.sent_at == o.msg.sent_at && msg.type == o.msg.type &&
           msg.a == o.msg.a && msg.b == o.msg.b && msg.c == o.msg.c && msg.d == o.msg.d;
  }
};

// What one drive_exchange run delivered. `per_dst[k]` is destination k's
// deliveries in order, which the engine guarantees at any thread count;
// `global` is the single delivery sequence, recorded only for one-thread
// engines, where it is well defined.
struct ExchangeLog {
  std::vector<Delivery> global;
  std::vector<std::vector<Delivery>> per_dst;
  std::vector<std::uint64_t> sent;  // messages sent per source shard

  // (src, seq) of every message sent but never delivered.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint64_t>> lost() const {
    std::vector<std::vector<bool>> seen(sent.size());
    for (std::size_t s = 0; s < sent.size(); ++s) seen[s].assign(sent[s], false);
    for (const auto& log : per_dst) {
      for (const Delivery& d : log) seen[d.msg.src][d.msg.seq] = true;
    }
    std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
    for (std::size_t s = 0; s < seen.size(); ++s) {
      for (std::uint64_t q = 0; q < seen[s].size(); ++q) {
        if (!seen[s][q]) out.emplace_back(static_cast<std::uint32_t>(s), q);
      }
    }
    return out;
  }
  [[nodiscard]] std::uint32_t deepest_reply() const {
    std::uint32_t deepest = 0;
    for (const auto& log : per_dst) {
      for (const Delivery& d : log) deepest = std::max(deepest, d.msg.type == 9 ? 0 : d.msg.type);
    }
    return deepest;
  }
};

// A seeded workload that touches only the acting shard's state, from event
// callbacks and from handlers alike. Each shard ticks at random intervals and
// sends 0-3 messages to random shards. A handler answers a type-t message
// (t < 3) with a type t+1 reply, so one barrier runs up to four delivery
// rounds, and sometimes schedules a follow-up send on the receiving shard for
// the next epoch. The barrier before the fourth drops the next message.
template <class Engine>
ExchangeLog drive_exchange(Engine& eng, std::uint64_t seed, bool global) {
  const std::uint32_t k = eng.shards();
  struct Ticker {
    std::uint64_t state;
    std::uint64_t next() { return state = util::splitmix64(state); }
  };
  auto tickers = std::make_shared<std::vector<Ticker>>();
  for (std::uint32_t s = 0; s < k; ++s) tickers->push_back({seed * 1000 + s});
  ExchangeLog log;
  log.per_dst.resize(k);
  log.sent.assign(k, 0);
  const auto send = [&eng, &log](std::uint32_t src, std::uint32_t dst, std::uint32_t type,
                                 std::uint64_t a, std::uint64_t b, std::uint64_t c,
                                 std::uint64_t d) {
    ++log.sent[src];
    eng.send(src, dst, type, a, b, c, d);
  };
  const auto tick = [&eng, send, tickers, k](std::uint32_t s, auto&& self) -> void {
    Ticker& t = (*tickers)[s];
    const std::uint64_t sends = t.next() % 4;
    for (std::uint64_t i = 0; i < sends; ++i) {
      const std::uint64_t r = t.next();
      send(s, static_cast<std::uint32_t>(r % k), 0, r >> 8, i, r & 0xff, 0);
    }
    eng.shard(s).schedule_in(static_cast<sim::SimDuration>(1 + t.next() % sim::seconds(30)),
                             [s, self] { self(s, self); });
  };
  for (std::uint32_t s = 0; s < k; ++s) {
    eng.shard(s).schedule_at(static_cast<sim::SimTime>(s), [s, tick] { tick(s, tick); });
  }
  eng.set_message_handler([&eng, &log, send, global](std::uint32_t dst,
                                                     const sim::ShardMessage& msg) {
    const Delivery delivery{eng.now(), msg};
    log.per_dst[dst].push_back(delivery);
    if (global) log.global.push_back(delivery);
    const std::uint64_t mix = util::splitmix64(msg.a ^ (msg.seq << 20) ^ msg.type);
    if (msg.type < 3 && mix % 3 != 0) {
      send(dst, msg.src, msg.type + 1, mix >> 4, msg.seq, msg.src, msg.type);
    }
    if (mix % 7 == 0) {
      eng.shard(dst).schedule_in(static_cast<sim::SimDuration>(mix % 5000), [&eng, send, dst, mix] {
        send(dst, static_cast<std::uint32_t>(mix % eng.shards()), 9, mix, 0, 0, 1);
      });
    }
  });
  int barriers = 0;
  eng.add_barrier_hook([&eng, &barriers](sim::SimTime) {
    if (++barriers == 3) eng.test_drop_next_message();
  });
  eng.run_until(sim::hours(2));
  return log;
}

// The swap-staged exchange delivers exactly what the copying exchange did:
// same messages, same rounds, the planted drop at the same position, for K in
// {1, 2, 3, 8}. On one thread the whole delivery sequence matches; on three,
// where destinations are delivered concurrently, each destination's sequence
// does.
TEST(ShardedSim, SwapStagedExchangeMatchesCopyingOracle) {
  for (const std::uint32_t k : {1u, 2u, 3u, 8u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "K=" << k << " seed=" << seed);
      CopyingEngine oracle(k, sim::minutes(10));
      const ExchangeLog want = drive_exchange(oracle, seed, /*global=*/true);
      ASSERT_EQ(oracle.messages_dropped(), 1u);
      EXPECT_EQ(want.deepest_reply(), 3u);  // reply chains span four delivery rounds
      EXPECT_GT(want.global.size(), 200u);
      for (const unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(threads);
        sim::ShardedSimulation::Config cfg = config(k, sim::minutes(10));
        cfg.threads = threads;
        sim::ShardedSimulation eng(cfg);
        const ExchangeLog got = drive_exchange(eng, seed, /*global=*/threads == 1);
        if (threads == 1) {
          EXPECT_TRUE(got.global == want.global);
        }
        EXPECT_TRUE(got.per_dst == want.per_dst);
        EXPECT_EQ(got.lost(), want.lost());
        EXPECT_EQ(eng.messages_dropped(), 1u);
        EXPECT_EQ(eng.messages_delivered(), oracle.messages_delivered());
        EXPECT_EQ(eng.messages_in_flight(), 0u);
      }
    }
  }
}

// Per-destination delivery on 1-4 workers: each destination's sequence, the
// totals and the planted drop are the same whatever the thread count,
// including K=3 on 2 workers (uneven shard->worker split) and K=2 on 4
// (fewer shards than threads).
TEST(ShardedSim, PerDestinationDeliveryIsThreadCountIndependent) {
  for (const std::uint32_t k : {2u, 3u, 8u}) {
    for (const std::uint64_t seed : {4u, 5u, 6u}) {
      SCOPED_TRACE(testing::Message() << "K=" << k << " seed=" << seed);
      sim::ShardedSimulation serial(config(k, sim::minutes(10)));
      const ExchangeLog want = drive_exchange(serial, seed, /*global=*/false);
      EXPECT_GE(want.deepest_reply(), 3u);
      ASSERT_EQ(serial.messages_dropped(), 1u);
      ASSERT_EQ(want.lost().size(), 1u);
      for (const unsigned threads : {2u, 3u, 4u}) {
        SCOPED_TRACE(threads);
        sim::ShardedSimulation::Config cfg = config(k, sim::minutes(10));
        cfg.threads = threads;
        sim::ShardedSimulation eng(cfg);
        const ExchangeLog got = drive_exchange(eng, seed, /*global=*/false);
        EXPECT_TRUE(got.per_dst == want.per_dst);
        EXPECT_EQ(got.lost(), want.lost());
        EXPECT_EQ(eng.messages_delivered(), serial.messages_delivered());
        EXPECT_EQ(eng.messages_dropped(), 1u);
        EXPECT_EQ(eng.messages_sent(), serial.messages_sent());
      }
    }
  }
}

sim::ShardedSimulation::Config threaded(std::uint32_t shards, unsigned threads) {
  sim::ShardedSimulation::Config cfg = config(shards, sim::minutes(10));
  cfg.threads = threads;
  return cfg;
}

// The worker pool's life cycle: an engine that never runs, a run that does
// not advance, many runs on one engine and many engines in a row must all
// finish and join their workers (the thread sanitizer job runs these).
TEST(ShardedSim, PoolEngineDestroyedWithoutRunning) {
  sim::ShardedSimulation eng(threaded(4, 4));
  EXPECT_EQ(eng.barriers_run(), 0u);
}

TEST(ShardedSim, PoolRunUntilNowIsANoOp) {
  sim::ShardedSimulation eng(threaded(4, 4));
  eng.run_until(eng.now());
  EXPECT_EQ(eng.barriers_run(), 0u);
  EXPECT_EQ(eng.now(), 0);
}

TEST(ShardedSim, PoolSurvivesManyRunsOnOneEngine) {
  sim::ShardedSimulation eng(threaded(3, 2));
  std::vector<std::uint64_t> received(3, 0);
  eng.set_message_handler([&](std::uint32_t dst, const sim::ShardMessage&) { ++received[dst]; });
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<std::uint32_t>(i % 3);
    eng.shard(src).schedule_at(eng.now() + 1, [&eng, src] { eng.send(src, (src + 1) % 3, 1); });
    eng.run_until(eng.now() + sim::minutes(10));
  }
  EXPECT_EQ(eng.barriers_run(), 200u);
  EXPECT_EQ(eng.messages_delivered(), 200u);
  EXPECT_EQ(received, (std::vector<std::uint64_t>{66, 67, 67}));
}

TEST(ShardedSim, PoolRethrowsAWorkersExceptionOnTheCallingThread) {
  sim::ShardedSimulation eng(threaded(4, 4));
  eng.set_message_handler([](std::uint32_t dst, const sim::ShardMessage&) {
    if (dst == 3) throw std::runtime_error("handler failed");
  });
  eng.shard(0).schedule_at(1, [&eng] { eng.send(0, 3, 1); });
  EXPECT_THROW(eng.run_until(sim::minutes(10)), std::runtime_error);
}

TEST(ShardedSim, PoolEnginesBuiltAndTornDownInALoop) {
  for (int i = 0; i < 50; ++i) {
    sim::ShardedSimulation eng(threaded(4, 3));
    eng.shard(0).schedule_at(1, [&eng] { eng.send(0, 3, 1); });
    eng.run_until(sim::minutes(20));
    EXPECT_EQ(eng.messages_delivered(), 1u);
  }
}

}  // namespace
}  // namespace fraudsim
