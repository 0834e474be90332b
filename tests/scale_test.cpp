// Determinism contract of the mega-scale scenario (core/scenario/scale):
//   * K=1 sharded artifacts are byte-identical to the serial reference;
//   * fixed-K artifacts are byte-identical across worker-thread counts;
//   * a run resumed from per-shard checkpoints is byte-identical to an
//     uninterrupted one, including when one shard's newest checkpoint is
//     corrupt and the fleet must roll back to an older common epoch;
//   * an injected shard.exchange fault charges retries without changing a
//     single behavioural byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/fault/fault.hpp"
#include "core/recover/manifest.hpp"
#include "core/scenario/scale_scenario.hpp"
#include "sim/time.hpp"
#include "util/hash.hpp"
#include "util/file.hpp"

namespace fraudsim {
namespace {

scenario::ScaleConfig small_config() {
  scenario::ScaleConfig cfg;
  cfg.seed = 42;
  cfg.users = 600;
  cfg.flights = 24;
  cfg.seats_per_flight = 8;
  cfg.horizon = sim::hours(8);
  cfg.epoch = sim::hours(1);
  cfg.think_min = sim::minutes(2);
  cfg.think_spread = sim::minutes(20);
  cfg.hold_ttl = sim::hours(2);
  cfg.pay_delay = sim::minutes(10);
  cfg.pay_percent = 60;
  cfg.graph_sample = 4;
  return cfg;
}

void expect_identical(const scenario::ScaleArtifacts& a, const scenario::ScaleArtifacts& b) {
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.shards_csv, b.shards_csv);
  EXPECT_EQ(a.graph_csv, b.graph_csv);
  EXPECT_EQ(a.state_digest, b.state_digest);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.activities, b.activities);
  EXPECT_EQ(a.holds, b.holds);
  EXPECT_EQ(a.denials, b.denials);
  EXPECT_EQ(a.pays, b.pays);
  EXPECT_EQ(a.pay_late, b.pay_late);
  EXPECT_EQ(a.expiries, b.expiries);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.graph_events, b.graph_events);
  EXPECT_EQ(a.invariant_report, b.invariant_report);
}

class ScopedDir {
 public:
  explicit ScopedDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path_);
  }
  ~ScopedDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Scale, SerialRunExercisesTheWholeEconomy) {
  const auto art = scenario::run_scale_serial(small_config());
  EXPECT_GT(art.activities, 0u);
  EXPECT_GT(art.holds, 0u);
  EXPECT_GT(art.pays, 0u);
  EXPECT_GT(art.expiries, 0u);  // the 40% no-intent holds age out
  EXPECT_GT(art.denials, 0u);   // 600 users vs 192 seats oversubscribes
  EXPECT_GT(art.graph_events, 0u);
  EXPECT_EQ(art.barriers, 8u);
  EXPECT_EQ(art.messages_sent, 0u);
  EXPECT_EQ(art.invariant_violations, 0u);
  EXPECT_NE(art.report.find("all invariants held"), std::string::npos);
  EXPECT_NE(art.graph_csv.find("component,"), std::string::npos);
}

TEST(Scale, ShardedK1IsByteIdenticalToSerial) {
  const auto cfg = small_config();
  const auto serial = scenario::run_scale_serial(cfg);
  auto sharded_cfg = cfg;
  sharded_cfg.shards = 1;
  const auto sharded = scenario::run_scale_sharded(sharded_cfg);
  expect_identical(serial, sharded);
}

TEST(Scale, FixedKIsByteIdenticalAcrossThreadCounts) {
  auto cfg = small_config();
  cfg.shards = 4;
  cfg.threads = 1;
  const auto one = scenario::run_scale_sharded(cfg);
  // Cross-shard traffic must actually be exercised for this to mean much.
  EXPECT_GT(one.messages_sent, 0u);
  EXPECT_EQ(one.messages_sent, one.messages_delivered);
  EXPECT_EQ(one.invariant_violations, 0u);

  cfg.threads = 2;
  expect_identical(one, scenario::run_scale_sharded(cfg));
  cfg.threads = 4;
  expect_identical(one, scenario::run_scale_sharded(cfg));
}

// Absolute pin: the tests above compare the engine only with itself, so a
// changed hold generation or a lost pay count would pass them. These
// constants were captured before per-destination delivery landed; the config
// is large enough that remote grants, remote pays and late pays all occur.
TEST(Scale, K8DigestIsPinnedAcrossThreadCounts) {
  auto cfg = small_config();
  cfg.users = 3000;
  cfg.flights = 64;
  cfg.seats_per_flight = 32;
  cfg.hold_ttl = sim::minutes(40);  // remote pays land after their hold expired
  cfg.shards = 8;
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    cfg.threads = threads;
    const auto art = scenario::run_scale_sharded(cfg);
    EXPECT_EQ(art.state_digest, 14820377383367836687u);
    EXPECT_EQ(art.messages_sent, 208644u);
    EXPECT_EQ(art.pays, 2047u);
    EXPECT_EQ(art.pay_late, 452u);
    EXPECT_EQ(util::crc32(art.report), 4041443219u);
  }
}

TEST(Scale, ShardedRunIsRerunStable) {
  auto cfg = small_config();
  cfg.shards = 3;
  const auto a = scenario::run_scale_sharded(cfg);
  const auto b = scenario::run_scale_sharded(cfg);
  expect_identical(a, b);
}

TEST(Scale, ResumeFromCheckpointsMatchesUninterruptedRun) {
  ScopedDir dir("fraudsim_scale_resume");
  auto cfg = small_config();
  cfg.shards = 3;
  cfg.checkpoint_every = 2;
  cfg.out_dir = dir.path();

  // Uninterrupted run: writes per-shard checkpoints at barriers 2, 4, 6.
  const auto full = scenario::run_scale_sharded(cfg);
  for (int k = 0; k < 3; ++k) {
    const auto shard_dir = std::filesystem::path(dir.path()) / "shards" /
                           ("shard-00" + std::to_string(k));
    EXPECT_TRUE(std::filesystem::exists(shard_dir / "MANIFEST.fsm")) << shard_dir;
    EXPECT_TRUE(std::filesystem::exists(shard_dir / "checkpoint-6.fsc")) << shard_dir;
  }

  // Resume picks barrier 6 and re-runs only the last two epochs.
  const auto resumed = scenario::resume_scale_sharded(cfg);
  expect_identical(full, resumed);
}

TEST(Scale, ResumeReinstatesPendingPayDecisions) {
  // Regression: pay decisions scheduled before a checkpoint barrier but firing
  // after it must survive a resume. A pay_delay close to the epoch length
  // guarantees nearly every grant leaves one pending at every barrier, and an
  // odd checkpoint cadence lands the resume point on such a barrier.
  ScopedDir dir("fraudsim_scale_pending_pay");
  auto cfg = small_config();
  cfg.pay_delay = sim::minutes(45);
  cfg.shards = 4;
  cfg.checkpoint_every = 3;
  cfg.out_dir = dir.path();
  const auto full = scenario::run_scale_sharded(cfg);
  EXPECT_GT(full.pays, 0u);
  const auto resumed = scenario::resume_scale_sharded(cfg);
  expect_identical(full, resumed);
}

TEST(Scale, ResumeRollsBackWhenOneShardCheckpointIsCorrupt) {
  ScopedDir dir("fraudsim_scale_rollback");
  auto cfg = small_config();
  cfg.shards = 3;
  cfg.checkpoint_every = 2;
  cfg.out_dir = dir.path();
  const auto full = scenario::run_scale_sharded(cfg);

  // Tear shard 2's newest checkpoint. Its manifest audit must reject it and
  // drag every shard back to the newest COMMON intact epoch (barrier 4).
  {
    std::ofstream torn(std::filesystem::path(dir.path()) / "shards" / "shard-002" /
                           "checkpoint-6.fsc",
                       std::ios::binary | std::ios::trunc);
    torn << "torn";
  }
  const auto resumed = scenario::resume_scale_sharded(cfg);
  expect_identical(full, resumed);
}

// A checkpoint that passes its manifest audit but names one live event id
// twice must be refused, and the resume must then start clean. Here two live
// hold expiries of shard 1 share an id: the queue refuses the second, so
// shard 1's restore fails after shard 0 has already restored its queue and
// the engine counters. Starting clean therefore means a fresh engine too; a
// fallback that kept them would re-run from barrier 6 on top of shard 0's
// restored events and diverge from the uninterrupted run.
TEST(Scale, ResumeRefusesACheckpointThatQueuesOneEventIdTwice) {
  ScopedDir dir("fraudsim_scale_dup_event");
  auto cfg = small_config();
  cfg.shards = 3;
  cfg.checkpoint_every = 2;
  cfg.out_dir = dir.path();
  const auto full = scenario::run_scale_sharded(cfg);

  const std::filesystem::path shard = std::filesystem::path(dir.path()) / "shards" / "shard-001";
  const std::string rel = "checkpoint-6.fsc";
  std::string blob(util::MappedFile::open((shard / rel).string()).value().bytes());
  const auto load_u64 = [&blob](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(blob[at + i]);
    return v;
  };
  // checkpoint_shard's layout: magic, config digest, barrier index, barrier
  // time and seven counters (shard 1 carries no engine blob), then the hold
  // count and 37-byte hold records {live u8, gen u32, user u64, flight u64,
  // expiry_event u64, expiry_at i64}.
  constexpr std::size_t kHolds = 11 * 8;
  constexpr std::size_t kRecord = 37;
  constexpr std::size_t kExpiryEvent = 1 + 4 + 8 + 8;
  std::vector<std::size_t> live;
  for (std::uint64_t i = 0; i < load_u64(kHolds); ++i) {
    const std::size_t at = kHolds + 8 + i * kRecord;
    if (blob[at] != 0) live.push_back(at + kExpiryEvent);
  }
  ASSERT_GE(live.size(), 2u);
  blob.replace(live[1], 8, blob, live[0], 8);

  auto manifest = recover::Manifest::load((shard / recover::kManifestFilename).string()).value();
  for (auto& entry : manifest.artifacts) {
    if (entry.path != rel) continue;
    entry.size = blob.size();
    entry.crc = util::crc32(blob);
  }
  ASSERT_TRUE(manifest.write(shard.string()).is_ok());
  {
    std::ofstream out(shard / rel, std::ios::binary | std::ios::trunc);
    out << blob;
  }
  const auto resumed = scenario::resume_scale_sharded(cfg);
  expect_identical(full, resumed);
}

TEST(Scale, ResumeWithNoCheckpointsFallsBackToFreshRun) {
  ScopedDir dir("fraudsim_scale_fresh");
  auto cfg = small_config();
  cfg.shards = 2;
  cfg.checkpoint_every = 2;
  cfg.out_dir = dir.path();
  const auto fresh = scenario::run_scale_sharded(cfg);
  // Same config, empty directory: resume must degrade to a fresh run.
  ScopedDir other("fraudsim_scale_fresh_other");
  auto cfg2 = cfg;
  cfg2.out_dir = other.path();
  const auto resumed = scenario::resume_scale_sharded(cfg2);
  expect_identical(fresh, resumed);
}

TEST(Scale, ResumeIgnoresCheckpointsFromADifferentConfig) {
  ScopedDir dir("fraudsim_scale_mismatch");
  auto cfg = small_config();
  cfg.shards = 2;
  cfg.checkpoint_every = 2;
  cfg.out_dir = dir.path();
  (void)scenario::run_scale_sharded(cfg);

  auto changed = cfg;
  changed.seed = 43;  // different behaviour → manifests must not match
  const auto resumed = scenario::resume_scale_sharded(changed);
  auto baseline_cfg = changed;
  baseline_cfg.out_dir.clear();
  baseline_cfg.checkpoint_every = 0;
  const auto baseline = scenario::run_scale_sharded(baseline_cfg);
  EXPECT_EQ(resumed.state_digest, baseline.state_digest);
  EXPECT_EQ(resumed.shards_csv, baseline.shards_csv);
}

TEST(Scale, ExchangeFaultChargesRetriesWithoutChangingBehaviour) {
  auto cfg = small_config();
  cfg.shards = 2;
  const auto clean = scenario::run_scale_sharded(cfg);
  ASSERT_EQ(clean.exchange_retries, 0u);

  auto& point = fault::FaultRegistry::global().point("shard.exchange");
  point.arm(fault::FaultScenario::every_nth(2));
  const auto faulted = scenario::run_scale_sharded(cfg);
  point.disarm();

  EXPECT_GT(faulted.exchange_retries, 0u);
  EXPECT_EQ(faulted.invariant_violations, 0u);
  // Retries are pure accounting: every behavioural artifact is unchanged.
  EXPECT_EQ(faulted.state_digest, clean.state_digest);
  EXPECT_EQ(faulted.shards_csv, clean.shards_csv);
  EXPECT_EQ(faulted.graph_csv, clean.graph_csv);
  EXPECT_EQ(faulted.messages_sent, clean.messages_sent);
  EXPECT_EQ(faulted.messages_delivered, clean.messages_delivered);
}

}  // namespace
}  // namespace fraudsim
