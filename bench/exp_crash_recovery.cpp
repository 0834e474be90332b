// CRASH (§robustness): crash-consistency sweep — inject a deterministic
// crash at every I/O boundary of a recorded run, recover, and prove the
// recovered directory is byte-identical to an uninterrupted one.
//
// Three gates, each a hard PASS/FAIL:
//
//   1. Crash-off identity: record_run_dir with no crash armed produces the
//      same artifact bytes as baseline_run (the crash-consistency plumbing —
//      atomic writes, sidecars, manifest — must not perturb the simulation).
//   2. Crash matrix: for each crash point (journal frame early/mid/late,
//      checkpoint frame, artifact body, artifact rename, manifest commit),
//      tear the run at that point, run scenario::recover_run, and diff every
//      recovered file (journal, CSVs, SOC report, manifest) against the
//      uninterrupted baseline byte-for-byte.
//   3. Fleet resume: kill a fleet sweep after a prefix of its jobs, resume
//      over the full job list, and require the resumed report to render
//      byte-identically to the uninterrupted fleet's — with exactly the
//      prefix jobs satisfied from disk.
//
// FRAUDSIM_BENCH_SMOKE=1 shrinks the horizon and the fleet (CI smoke).
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bench/options.hpp"
#include "core/fault/crash.hpp"
#include "core/fault/fault.hpp"
#include "core/journal/journal.hpp"
#include "core/recover/atomic_file.hpp"
#include "core/recover/manifest.hpp"
#include "core/recover/recovery.hpp"
#include "core/scenario/fleet.hpp"
#include "core/scenario/replay_harness.hpp"
#include "util/archive.hpp"
#include "util/table.hpp"

using namespace fraudsim;
namespace fs = std::filesystem;

namespace {

struct Scale {
  bool smoke = false;
  sim::SimTime horizon = sim::hours(24);
  std::size_t fleet_seeds = 3;
};

Scale detect_scale() {
  Scale s;
  if (bench::Options::env_flag("FRAUDSIM_BENCH_SMOKE")) {
    s.smoke = true;
    s.horizon = sim::hours(8);
    s.fleet_seeds = 2;
  }
  return s;
}

scenario::RecordedScenarioConfig crash_config(const Scale& scale, std::uint64_t seed) {
  scenario::RecordedScenarioConfig config;
  config.seed = seed;
  config.horizon = scale.horizon;
  config.flights = 6;
  config.capacity = 60;
  config.legit.booking_sessions_per_hour = 6;
  config.legit.browse_sessions_per_hour = 4;
  config.legit.otp_logins_per_hour = 3;
  config.attacker_start = sim::hours(2);
  config.attacker_period = sim::minutes(10);
  config.controller_fit_at = sim::hours(2);
  config.controller.sweep_interval = sim::hours(1);
  config.rate_limits.push_back(mitigate::RateLimitSpec{
      "hold-per-ip", web::Endpoint::HoldReservation, mitigate::RateKey::ByIp, 30, sim::kHour});
  config.checkpoint_every = sim::hours(3);
  return config;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Byte-compares the recovered directory against the baseline, file by file
// (quarantine/ is forensic residue and intentionally differs).
bool dirs_identical(const fs::path& baseline, const fs::path& recovered, std::string& why) {
  std::vector<fs::path> rels;
  for (const auto& entry : fs::recursive_directory_iterator(baseline)) {
    if (!entry.is_regular_file()) continue;
    rels.push_back(fs::relative(entry.path(), baseline));
  }
  for (const auto& rel : rels) {
    if (slurp(baseline / rel) != slurp(recovered / rel)) {
      why = rel.string() + " differs";
      return false;
    }
  }
  for (const auto& entry : fs::recursive_directory_iterator(recovered)) {
    if (!entry.is_regular_file()) continue;
    const fs::path rel = fs::relative(entry.path(), recovered);
    if (rel.begin() != rel.end() && *rel.begin() == recover::kQuarantineDir) continue;
    if (!fs::exists(baseline / rel)) {
      why = rel.string() + " is extra";
      return false;
    }
  }
  return true;
}

struct CrashCase {
  std::string label;
  const char* point;
  std::uint64_t hit;
};

constexpr std::uint64_t kSeed = 4242;

}  // namespace

int main() {
  const Scale scale = detect_scale();
  const auto config = crash_config(scale, kSeed);
  const fs::path root = "exp_crash_recovery.tmp";
  fs::remove_all(root);
  fs::create_directories(root);
  bool ok = true;

  // --- Gate 1: uninterrupted baseline + crash-off identity ------------------
  std::cout << "Recording uninterrupted baseline ("
            << (scale.smoke ? "smoke scale" : "24 simulated hours") << ")...\n";
  const fs::path baseline_dir = root / "baseline";
  fs::create_directories(baseline_dir);
  const auto baseline = scenario::record_run_dir(config, baseline_dir.string());
  if (!baseline.has_value()) {
    std::cerr << "FAIL: baseline record_run_dir: " << baseline.error() << "\n";
    return 1;
  }
  const scenario::RunArtifacts control = scenario::baseline_run(config);
  if (baseline.value().metrics_csv != control.metrics_csv ||
      baseline.value().weblog_csv != control.weblog_csv ||
      baseline.value().soc_report != control.soc_report) {
    std::cerr << "FAIL: crash-off record_run_dir artifacts differ from baseline_run\n";
    ok = false;
  } else {
    std::cout << "crash-off identity: record_run_dir == baseline_run (all artifacts)\n";
  }

  // Derive journal-relative crash hits from the baseline's actual frame
  // count, so "late" tears near EOF at every scale.
  const auto baseline_scan =
      journal::scan_journal((baseline_dir / recover::kJournalFilename).string());
  if (!baseline_scan.has_value() || baseline_scan.value().frames < 16) {
    std::cerr << "FAIL: baseline journal unusable for the crash matrix\n";
    return 1;
  }
  const std::uint64_t frames = baseline_scan.value().frames;
  std::size_t sidecars = 0;
  for (const auto& entry : fs::directory_iterator(baseline_dir / recover::kCheckpointDir)) {
    (void)entry;
    ++sidecars;
  }

  // --- Gate 2: the crash matrix ---------------------------------------------
  // Checkpoint frames hit crash.journal.checkpoint, not crash.journal.frame,
  // so the frame point has only (frames - sidecars) hits before EOF.
  const std::uint64_t frame_hits = frames - static_cast<std::uint64_t>(sidecars);
  const std::vector<CrashCase> cases = {
      {"journal-frame early", fault::kCrashJournalFrame, 2},
      {"journal-frame mid", fault::kCrashJournalFrame, frame_hits / 2},
      {"journal-frame late", fault::kCrashJournalFrame, frame_hits - 2},
      {"journal-checkpoint", fault::kCrashJournalCheckpoint, 1},
      {"artifact-body first sidecar", fault::kCrashArtifactBody, 1},
      {"artifact-body first csv", fault::kCrashArtifactBody,
       static_cast<std::uint64_t>(sidecars) + 1},
      {"artifact-rename", fault::kCrashArtifactRename, 1},
      {"manifest commit", fault::kCrashManifestWrite, 1},
  };

  util::AsciiTable table({"crash point", "hit", "frames salvaged", "tail bytes", "mode",
                          "byte-identical"});
  for (const auto& c : cases) {
    const fs::path dir = root / ("crash-" + std::to_string(&c - cases.data()));
    fs::create_directories(dir);

    fault::FaultRegistry::global().reset();
    fault::FaultRegistry::global().arm(c.point, fault::FaultScenario::crash_at_hit(c.hit));
    const auto torn = scenario::record_run_dir(config, dir.string());
    if (torn.has_value() || torn.code() != util::ErrorCode::kCrashInjected) {
      std::cerr << "FAIL: " << c.label << ": crash point never fired\n";
      ok = false;
      continue;
    }

    const auto outcome = scenario::recover_run(config, dir.string());
    if (!outcome.has_value()) {
      std::cerr << "FAIL: " << c.label << ": recovery: " << outcome.error() << "\n";
      ok = false;
      continue;
    }
    std::string why;
    const bool identical = dirs_identical(baseline_dir, dir, why);
    if (!identical) {
      std::cerr << "FAIL: " << c.label << ": " << why << "\n";
      ok = false;
    }
    const auto& report = outcome.value().report;
    table.add_row({c.label, std::to_string(c.hit), std::to_string(report.frames_salvaged),
                   std::to_string(report.tail_bytes_quarantined),
                   outcome.value().reused_complete_run ? "reused"
                   : outcome.value().prefix_verified  ? "prefix-verified"
                                                      : "cold re-record",
                   identical ? "yes" : "NO"});
  }
  std::cout << "\n=== CRASH: recovery matrix (seed " << kSeed << ", " << frames
            << " baseline frames) ===\n"
            << table.render() << "\n";

  // --- Gate 3: fleet prefix-crash + resume ----------------------------------
  // A fleet killed mid-sweep leaves manifests for completed jobs only. Worker
  // fault registries are thread_local, so the "kill" is simulated by running
  // a strict prefix of the job list; the resume pass then runs the full list.
  const std::vector<std::string> variants = {"defended", "undefended"};
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < scale.fleet_seeds; ++i) seeds.push_back(kSeed + i);
  const auto jobs = scenario::cross_jobs(variants, seeds);
  const fs::path fleet_dir = root / "fleet";

  const auto fleet_config = [&](const scenario::FleetJob& job) {
    auto cfg = crash_config(scale, job.seed);
    cfg.checkpoint_every = 0;
    cfg.mitigation_enabled = job.variant != "undefended";
    return cfg;
  };
  const auto run_one = [&](const scenario::FleetJob& job) {
    const auto cfg = fleet_config(job);
    const scenario::RunArtifacts artifacts = scenario::baseline_run(cfg);
    const fs::path dir = fleet_dir / job.variant / ("seed-" + std::to_string(job.seed));
    fs::create_directories(dir);

    scenario::FleetRunResult result;
    result.metrics = artifacts.metrics;
    result.observations["requests"] =
        static_cast<double>(artifacts.metrics.counter("app.requests"));
    result.observations["blocked"] =
        static_cast<double>(artifacts.metrics.counter("app.blocked"));

    util::ByteWriter shard;
    result.checkpoint(shard);
    recover::Manifest manifest;
    manifest.seed = job.seed;
    manifest.config_digest = scenario::config_digest(cfg);
    const auto emit = [&](const char* name, const std::string& content) {
      const auto written = recover::AtomicFile::write((dir / name).string(), content);
      if (written.has_value()) manifest.add(written.value(), name);
    };
    emit("metrics.csv", artifacts.metrics_csv);
    emit("result.bin", shard.take());
    if (!manifest.write(dir.string()).is_ok()) {
      throw std::runtime_error("manifest write failed for " + dir.string());
    }
    return result;
  };
  const auto resume_hook = [&](const scenario::FleetJob& job) {
    return [&]() -> std::optional<scenario::FleetRunResult> {
      const auto cfg = fleet_config(job);
      const fs::path dir = fleet_dir / job.variant / ("seed-" + std::to_string(job.seed));
      const auto manifest = recover::Manifest::load((dir / recover::kManifestFilename).string());
      if (!manifest.has_value()) return std::nullopt;
      if (manifest.value().seed != job.seed ||
          manifest.value().config_digest != scenario::config_digest(cfg)) {
        return std::nullopt;
      }
      if (!recover::audit_artifacts(manifest.value(), dir.string()).clean()) return std::nullopt;
      const std::string bytes = slurp(dir / "result.bin");
      util::ByteReader reader(bytes);
      scenario::FleetRunResult result;
      result.restore(reader);
      if (!reader.exhausted()) return std::nullopt;
      return result;
    }();
  };

  std::cout << "Fleet: uninterrupted sweep, then prefix-crash + resume...\n";
  const scenario::FleetReport full = scenario::run_fleet(jobs, run_one);
  const std::string full_table = full.render_table("fleet");
  std::ostringstream full_csv;
  full.write_csv(full_csv);

  // "Crash" after the first half of the jobs, then resume over the full list.
  fs::remove_all(fleet_dir);
  const std::vector<scenario::FleetJob> prefix(jobs.begin(),
                                               jobs.begin() + jobs.size() / 2);
  (void)scenario::run_fleet(prefix, run_one);
  scenario::FleetOptions resume_options;
  resume_options.resume = resume_hook;
  const scenario::FleetReport resumed = scenario::run_fleet(jobs, run_one, resume_options);
  std::ostringstream resumed_csv;
  resumed.write_csv(resumed_csv);

  if (resumed.resumed != prefix.size()) {
    std::cerr << "FAIL: fleet resumed " << resumed.resumed << " jobs, expected "
              << prefix.size() << "\n";
    ok = false;
  } else if (resumed.render_table("fleet") != full_table ||
             resumed_csv.str() != full_csv.str()) {
    std::cerr << "FAIL: resumed fleet report differs from uninterrupted sweep\n";
    ok = false;
  } else {
    std::cout << "fleet resume: " << resumed.resumed << "/" << jobs.size()
              << " jobs from disk, report byte-identical to uninterrupted sweep\n";
  }

  fs::remove_all(root);
  if (ok) {
    std::cout << "\nAll crash-recovery gates passed: every crash point recovered to a "
                 "byte-identical run directory.\n";
  }
  return ok ? 0 : 1;
}
