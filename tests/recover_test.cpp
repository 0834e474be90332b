// Crash-consistency & recovery subsystem: atomic artifact writes, the CRC'd
// run manifest, sidecar checkpoints, RecoveryManager repair, and the
// end-to-end guarantee — a run crashed at any I/O boundary recovers to a
// directory byte-identical to an uninterrupted one.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/fault/crash.hpp"
#include "core/fault/fault.hpp"
#include "core/journal/journal.hpp"
#include "core/recover/atomic_file.hpp"
#include "core/recover/manifest.hpp"
#include "core/recover/recovery.hpp"
#include "core/scenario/fleet.hpp"
#include "core/scenario/replay_harness.hpp"
#include "util/hash.hpp"

namespace fraudsim {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return bytes;
}

void spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Every test gets a fresh directory and a clean fault registry (crash points
// are global per thread; a scenario left armed would leak between tests).
class RecoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::global().reset();
    dir_ = fs::path(testing::TempDir()) /
           ("recover-" +
            std::string(testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fault::FaultRegistry::global().reset(); }

  fs::path dir_;
};

scenario::RecordedScenarioConfig small_config(std::uint64_t seed = 4242) {
  scenario::RecordedScenarioConfig config;
  config.seed = seed;
  config.horizon = sim::hours(6);
  config.flights = 4;
  config.capacity = 40;
  config.legit.booking_sessions_per_hour = 6;
  config.legit.browse_sessions_per_hour = 4;
  config.legit.otp_logins_per_hour = 3;
  config.attacker_start = sim::hours(1);
  config.attacker_period = sim::minutes(15);
  config.controller_fit_at = sim::hours(1);
  config.controller.sweep_interval = sim::hours(1);
  config.rate_limits.push_back(mitigate::RateLimitSpec{
      "hold-per-ip", web::Endpoint::HoldReservation, mitigate::RateKey::ByIp, 20, sim::kHour});
  config.checkpoint_every = sim::hours(2);
  return config;
}

// --- AtomicFile --------------------------------------------------------------

TEST_F(RecoverTest, AtomicWriteLandsContentAndReportsCrc) {
  const std::string content = "hello crash-consistent world\n";
  const auto written = recover::AtomicFile::write((dir_ / "a.txt").string(), content);
  ASSERT_TRUE(written.has_value());
  EXPECT_EQ(written.value().size, content.size());
  EXPECT_EQ(written.value().crc, util::crc32(content));
  EXPECT_EQ(slurp(dir_ / "a.txt"), content);
  EXPECT_FALSE(fs::exists(dir_ / ("a.txt" + std::string(recover::kTmpSuffix))));
}

TEST_F(RecoverTest, CrashDuringBodyLeavesOnlyATornTmp) {
  fault::FaultRegistry::global().arm(fault::kCrashArtifactBody,
                                     fault::FaultScenario::crash_at_hit(1));
  const std::string content(500, 'x');
  EXPECT_THROW((void)recover::AtomicFile::write((dir_ / "b.txt").string(), content),
               fault::SimCrash);
  EXPECT_FALSE(fs::exists(dir_ / "b.txt"));  // the final name never appears
  const fs::path tmp = dir_ / ("b.txt" + std::string(recover::kTmpSuffix));
  ASSERT_TRUE(fs::exists(tmp));
  EXPECT_LT(slurp(tmp).size(), content.size());  // a strict prefix landed
}

TEST_F(RecoverTest, CrashBeforeRenameLeavesACompleteTmp) {
  fault::FaultRegistry::global().arm(fault::kCrashArtifactRename,
                                     fault::FaultScenario::crash_at_hit(1));
  const std::string content = "fully flushed but never committed";
  EXPECT_THROW((void)recover::AtomicFile::write((dir_ / "c.txt").string(), content),
               fault::SimCrash);
  EXPECT_FALSE(fs::exists(dir_ / "c.txt"));
  EXPECT_EQ(slurp(dir_ / ("c.txt" + std::string(recover::kTmpSuffix))), content);
}

// --- Manifest ----------------------------------------------------------------

TEST_F(RecoverTest, ManifestRoundTripsThroughRenderAndParse) {
  recover::Manifest manifest;
  manifest.seed = 99;
  manifest.config_digest = 0xDEADBEEF;
  manifest.add("run.journal", 1234, 0xAABBCCDD);
  manifest.add("metrics.csv", 5, 0x01020304);
  const auto parsed = recover::Manifest::parse(manifest.render());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed.value().seed, 99u);
  EXPECT_EQ(parsed.value().config_digest, 0xDEADBEEFu);
  ASSERT_EQ(parsed.value().artifacts.size(), 2u);
  const auto* entry = parsed.value().find("metrics.csv");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->size, 5u);
  EXPECT_EQ(entry->crc, 0x01020304u);
}

TEST_F(RecoverTest, TornOrTamperedManifestNeverValidates) {
  recover::Manifest manifest;
  manifest.seed = 7;
  manifest.config_digest = 8;
  manifest.add("run.journal", 10, 0x11111111);
  const std::string text = manifest.render();
  // Every proper prefix must be rejected — the commit point is all-or-nothing.
  for (std::size_t cut = 1; cut < text.size(); ++cut) {
    const auto parsed = recover::Manifest::parse(text.substr(0, text.size() - cut));
    ASSERT_FALSE(parsed.has_value()) << "cut " << cut;
    EXPECT_EQ(parsed.code(), util::ErrorCode::kManifestMismatch) << "cut " << cut;
  }
  std::string flipped = text;
  flipped[text.size() / 2] = static_cast<char>(flipped[text.size() / 2] ^ 0x01);
  EXPECT_FALSE(recover::Manifest::parse(flipped).has_value());
}

TEST_F(RecoverTest, AuditFlagsMissingAndMismatchedArtifacts) {
  recover::Manifest manifest;
  const auto a = recover::AtomicFile::write((dir_ / "good.csv").string(), "good");
  const auto b = recover::AtomicFile::write((dir_ / "gone.csv").string(), "gone");
  const auto c = recover::AtomicFile::write((dir_ / "bad.csv").string(), "bad");
  manifest.add(a.value(), "good.csv");
  manifest.add(b.value(), "gone.csv");
  manifest.add(c.value(), "bad.csv");
  fs::remove(dir_ / "gone.csv");
  spit(dir_ / "bad.csv", "BAD");  // same size, different bytes

  const auto audit = recover::audit_artifacts(manifest, dir_.string());
  EXPECT_FALSE(audit.clean());
  EXPECT_EQ(audit.intact, std::vector<std::string>{"good.csv"});
  EXPECT_EQ(audit.missing, std::vector<std::string>{"gone.csv"});
  EXPECT_EQ(audit.mismatched, std::vector<std::string>{"bad.csv"});
}

// --- Sidecar checkpoints -----------------------------------------------------

TEST_F(RecoverTest, SidecarCheckpointRoundTripsAndRejectsTampering) {
  recover::SidecarCheckpoint cp;
  cp.seed = 11;
  cp.config_digest = 22;
  cp.time = sim::hours(3);
  cp.blob = std::string("\x00\x01platform-state-blob", 21);
  const std::string path = (dir_ / "cp.fsc").string();
  ASSERT_TRUE(recover::write_checkpoint_sidecar(path, cp).has_value());

  const auto read = recover::read_checkpoint_sidecar(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read.value().seed, 11u);
  EXPECT_EQ(read.value().config_digest, 22u);
  EXPECT_EQ(read.value().time, sim::hours(3));
  EXPECT_EQ(read.value().blob, cp.blob);

  std::string bytes = slurp(path);
  bytes.back() = static_cast<char>(bytes.back() ^ 0xFF);
  spit(path, bytes);
  EXPECT_EQ(recover::read_checkpoint_sidecar(path).code(),
            util::ErrorCode::kCheckpointMismatch);
  spit(path, slurp(path).substr(0, 10));
  EXPECT_FALSE(recover::read_checkpoint_sidecar(path).has_value());
}

// --- RecoveryManager ---------------------------------------------------------

TEST_F(RecoverTest, RepairQuarantinesResidueAndTruncatesTornJournal) {
  // Hand-build crash residue: a torn journal, a stray .tmp, no manifest.
  journal::JournalWriter writer;
  const fs::path journal_path = dir_ / recover::kJournalFilename;
  ASSERT_TRUE(writer.open(journal_path.string(), 1, 2).is_ok());
  util::ByteWriter fields;
  fields.str("payload");
  ASSERT_TRUE(writer.append(journal::RecordKind::Pay, 10, fields).is_ok());
  ASSERT_TRUE(writer.append(journal::RecordKind::Pay, 20, fields).is_ok());
  ASSERT_TRUE(writer.close().is_ok());
  const std::string bytes = slurp(journal_path);
  spit(journal_path, bytes.substr(0, bytes.size() - 7));
  spit(dir_ / "metrics.csv.tmp", "partial");
  // The torn tail is the whole partial final frame, not just the bytes the
  // chop removed — the frame's surviving prefix is unusable without its end.
  const auto pre = journal::scan_journal(journal_path.string());
  ASSERT_TRUE(pre.has_value());
  const std::uint64_t tail = pre.value().tail_bytes();
  EXPECT_GT(tail, 0u);

  const recover::RecoveryManager manager(dir_.string());
  // scan() is read-only: it must report the damage without touching disk.
  const auto scanned = manager.scan();
  ASSERT_TRUE(scanned.has_value());
  EXPECT_TRUE(scanned.value().journal_salvaged);
  EXPECT_EQ(scanned.value().tail_bytes_quarantined, tail);
  EXPECT_EQ(slurp(journal_path), bytes.substr(0, bytes.size() - 7));
  EXPECT_TRUE(fs::exists(dir_ / "metrics.csv.tmp"));

  const auto repaired = manager.repair();
  ASSERT_TRUE(repaired.has_value());
  EXPECT_TRUE(repaired.value().journal_salvaged);
  EXPECT_FALSE(repaired.value().run_complete);
  EXPECT_EQ(repaired.value().frames_salvaged, 2u);  // Header + first Pay
  EXPECT_EQ(repaired.value().tail_bytes_quarantined, tail);
  EXPECT_FALSE(fs::exists(dir_ / "metrics.csv.tmp"));
  EXPECT_TRUE(fs::exists(dir_ / recover::kQuarantineDir / "metrics.csv.tmp"));
  EXPECT_EQ(slurp(dir_ / recover::kQuarantineDir / "run.journal.tail").size(), tail);
  // The repaired journal is now a clean prefix.
  const auto rescan = journal::scan_journal(journal_path.string());
  ASSERT_TRUE(rescan.has_value());
  EXPECT_FALSE(rescan.value().torn_tail);

  // Idempotent: repairing a repaired directory changes nothing further.
  const auto again = manager.repair();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again.value().tail_bytes_quarantined, 0u);
  EXPECT_TRUE(again.value().quarantined.empty());
}

TEST_F(RecoverTest, MidFileCorruptionQuarantinesTheWholeJournal) {
  journal::JournalWriter writer;
  const fs::path journal_path = dir_ / recover::kJournalFilename;
  ASSERT_TRUE(writer.open(journal_path.string(), 1, 2).is_ok());
  util::ByteWriter fields;
  fields.str("payload-payload-payload");
  ASSERT_TRUE(writer.append(journal::RecordKind::Pay, 10, fields).is_ok());
  ASSERT_TRUE(writer.append(journal::RecordKind::Pay, 20, fields).is_ok());
  ASSERT_TRUE(writer.close().is_ok());
  std::string bytes = slurp(journal_path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  spit(journal_path, bytes);

  const auto repaired = recover::RecoveryManager(dir_.string()).repair();
  ASSERT_TRUE(repaired.has_value());
  EXPECT_TRUE(repaired.value().journal_corrupt_mid_file);
  EXPECT_FALSE(repaired.value().journal_salvaged);
  EXPECT_EQ(repaired.value().frames_salvaged, 0u);
  EXPECT_FALSE(fs::exists(journal_path));  // no partial trust: whole file aside
  EXPECT_TRUE(fs::exists(dir_ / recover::kQuarantineDir / recover::kJournalFilename));
}

// --- End-to-end: record_run_dir / recover_run --------------------------------

TEST_F(RecoverTest, RecordRunDirCommitsAManifestCoveringEveryArtifact) {
  const auto config = small_config();
  const auto recorded = scenario::record_run_dir(config, dir_.string());
  ASSERT_TRUE(recorded.has_value()) << recorded.error();

  const auto manifest =
      recover::Manifest::load((dir_ / recover::kManifestFilename).string());
  ASSERT_TRUE(manifest.has_value()) << manifest.error();
  EXPECT_EQ(manifest.value().seed, config.seed);
  EXPECT_EQ(manifest.value().config_digest, scenario::config_digest(config));
  EXPECT_TRUE(recover::audit_artifacts(manifest.value(), dir_.string()).clean());
  for (const char* name : {"run.journal", "metrics.csv", "weblog.csv", "soc_report.txt"}) {
    EXPECT_NE(manifest.value().find(name), nullptr) << name;
  }
  // Two embedded checkpoints (2h cadence, 6h horizon) → two sidecars.
  EXPECT_NE(manifest.value().find("checkpoints/cp-000007200000.fsc"), nullptr);

  const auto scanned = recover::RecoveryManager(dir_.string()).scan();
  ASSERT_TRUE(scanned.has_value());
  EXPECT_TRUE(scanned.value().run_complete);

  // Crash-off identity: the crash-consistency plumbing must not perturb the
  // simulation — artifact bytes equal the journal-free baseline's.
  const scenario::RunArtifacts control = scenario::baseline_run(config);
  EXPECT_EQ(recorded.value().metrics_csv, control.metrics_csv);
  EXPECT_EQ(recorded.value().weblog_csv, control.weblog_csv);
  EXPECT_EQ(recorded.value().soc_report, control.soc_report);
}

TEST_F(RecoverTest, RecoverRunReusesACompleteDirectory) {
  const auto config = small_config();
  ASSERT_TRUE(scenario::record_run_dir(config, dir_.string()).has_value());
  const std::string journal_before = slurp(dir_ / recover::kJournalFilename);

  const auto outcome = scenario::recover_run(config, dir_.string());
  ASSERT_TRUE(outcome.has_value()) << outcome.error();
  EXPECT_TRUE(outcome.value().reused_complete_run);
  EXPECT_TRUE(outcome.value().report.run_complete);
  EXPECT_EQ(slurp(dir_ / recover::kJournalFilename), journal_before);
}

TEST_F(RecoverTest, CrashAtEveryBoundaryRecoversByteIdentically) {
  const auto config = small_config();
  const fs::path baseline = dir_ / "baseline";
  fs::create_directories(baseline);
  ASSERT_TRUE(scenario::record_run_dir(config, baseline.string()).has_value());

  const struct {
    const char* label;
    const char* point;
    std::uint64_t hit;
  } cases[] = {
      {"journal-frame", fault::kCrashJournalFrame, 9},
      {"journal-checkpoint", fault::kCrashJournalCheckpoint, 1},
      {"artifact-body", fault::kCrashArtifactBody, 1},
      {"artifact-rename", fault::kCrashArtifactRename, 1},
      {"manifest", fault::kCrashManifestWrite, 1},
  };
  for (const auto& c : cases) {
    const fs::path crashed = dir_ / c.label;
    fs::create_directories(crashed);
    fault::FaultRegistry::global().reset();
    fault::FaultRegistry::global().arm(c.point, fault::FaultScenario::crash_at_hit(c.hit));

    const auto torn = scenario::record_run_dir(config, crashed.string());
    ASSERT_FALSE(torn.has_value()) << c.label;
    ASSERT_EQ(torn.code(), util::ErrorCode::kCrashInjected) << c.label;

    const auto outcome = scenario::recover_run(config, crashed.string());
    ASSERT_TRUE(outcome.has_value()) << c.label << ": " << outcome.error();
    for (const char* name :
         {"run.journal", "metrics.csv", "weblog.csv", "soc_report.txt", "MANIFEST.fsm"}) {
      EXPECT_EQ(slurp(crashed / name), slurp(baseline / name)) << c.label << "/" << name;
    }
  }
}

// The prefix proof must hold the salvaged journal as it was before the
// re-record rewrote the file. This salvaged journal keeps intact CRCs and
// passes the verification replay, but ends in one informational frame the
// deterministic re-record never writes, so the proof must refuse it.
TEST_F(RecoverTest, PrefixProofCatchesADivergentReRecord) {
  const auto config = small_config();
  fault::FaultRegistry::global().arm(fault::kCrashJournalFrame,
                                     fault::FaultScenario::crash_at_hit(40));
  const auto torn = scenario::record_run_dir(config, dir_.string());
  ASSERT_EQ(torn.code(), util::ErrorCode::kCrashInjected);
  fault::FaultRegistry::global().reset();

  const fs::path journal_path = dir_ / recover::kJournalFilename;
  ASSERT_TRUE(journal::truncate_torn_tail(journal_path.string(), dir_.string() + ".tail")
                  .has_value());
  sim::SimTime last = 0;
  {
    journal::JournalReader reader;
    ASSERT_TRUE(reader.open(journal_path.string()).is_ok());
    ASSERT_FALSE(reader.records().empty());
    last = reader.records().back().time;
  }
  util::ByteWriter payload;
  payload.u8(static_cast<std::uint8_t>(journal::RecordKind::MitigationAction));
  payload.i64(last);
  payload.str("block-ip");
  payload.str("not in the deterministic run");
  util::ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(util::crc32(payload.bytes()));
  frame.raw(payload.bytes());
  spit(journal_path, slurp(journal_path) + std::string(frame.bytes()));
  const auto scan = journal::scan_journal(journal_path.string());
  ASSERT_TRUE(scan.has_value());
  ASSERT_FALSE(scan.value().torn_tail);
  ASSERT_FALSE(scan.value().corrupt_mid_file);

  const auto outcome = scenario::recover_run(config, dir_.string());
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.code(), util::ErrorCode::kCheckpointMismatch);
  EXPECT_NE(outcome.error().find("prefix diverges"), std::string::npos) << outcome.error();
}

// --- Fleet result shards -----------------------------------------------------

TEST_F(RecoverTest, FleetRunResultRoundTripsThroughBytes) {
  scenario::FleetRunResult result;
  result.observations["requests"] = 123.5;
  result.observations["blocked"] = 7.0;
  util::RunningStats stats;
  stats.add(1.0);
  stats.add(2.5);
  stats.add(-3.0);
  result.series["latency"] = stats;
  result.confusion.add(true, true);
  result.confusion.add(true, false);
  result.confusion.add(false, true);
  obs::MetricsRegistry registry;
  registry.counter("app.requests").inc(42);
  registry.histogram("lat", {1.0, 10.0}).observe(5.0);
  result.metrics = registry.snapshot();

  util::ByteWriter out;
  result.checkpoint(out);
  util::ByteReader in(out.bytes());
  scenario::FleetRunResult restored;
  restored.restore(in);
  ASSERT_TRUE(in.exhausted());
  EXPECT_EQ(restored.observations, result.observations);
  EXPECT_EQ(restored.series["latency"].count(), 3u);
  EXPECT_EQ(restored.series["latency"].mean(), stats.mean());
  EXPECT_EQ(restored.series["latency"].min(), -3.0);
  EXPECT_EQ(restored.confusion.tp, 1u);
  EXPECT_EQ(restored.confusion.fp, 1u);
  EXPECT_EQ(restored.confusion.fn, 1u);
  EXPECT_EQ(restored.metrics.counter("app.requests"), 42u);

  // A truncated shard degrades into !ok, never garbage.
  util::ByteReader torn(std::string_view(out.bytes()).substr(0, out.size() / 2));
  scenario::FleetRunResult damaged;
  damaged.restore(torn);
  EXPECT_FALSE(torn.ok());
}

TEST_F(RecoverTest, FleetResumeHookSkipsJobsAndKeepsTheReduction) {
  const std::vector<scenario::FleetJob> jobs = scenario::cross_jobs({"v"}, {1, 2, 3, 4});
  std::atomic<int> executed{0};
  const auto run = [&](const scenario::FleetJob& job) {
    executed.fetch_add(1);
    scenario::FleetRunResult r;
    r.observations["seed"] = static_cast<double>(job.seed);
    return r;
  };
  const scenario::FleetReport full = scenario::run_fleet(jobs, run);
  ASSERT_EQ(executed.load(), 4);
  EXPECT_EQ(full.resumed, 0u);

  executed.store(0);
  scenario::FleetOptions options;
  options.resume = [&](const scenario::FleetJob& job)
      -> std::optional<scenario::FleetRunResult> {
    if (job.seed % 2 != 0) return std::nullopt;  // serve even seeds from "disk"
    scenario::FleetRunResult r;
    r.observations["seed"] = static_cast<double>(job.seed);
    return r;
  };
  const scenario::FleetReport resumed = scenario::run_fleet(jobs, run, options);
  EXPECT_EQ(executed.load(), 2);  // only the odd seeds re-ran
  EXPECT_EQ(resumed.resumed, 2u);
  // The reduction folds resumed and fresh results identically.
  EXPECT_EQ(resumed.render_table("t"), full.render_table("t"));
}

}  // namespace
}  // namespace fraudsim
