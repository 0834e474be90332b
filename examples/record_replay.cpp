// Record/replay driver for the journal subsystem (also the CI determinism
// gate): record a run to a journal file, then replay it — from t=0 or from
// the last embedded checkpoint — and write the exported artifacts to a
// directory so two runs can be compared byte-for-byte with `diff -r`.
//
//   $ ./record_replay record            out/run.journal out/recorded
//   $ ./record_replay replay            out/run.journal out/replayed
//   $ ./record_replay replay-checkpoint out/run.journal out/resumed
//
// Crash-consistency modes operate on a run DIRECTORY (journal + sidecar
// checkpoints + artifacts + manifest; see DESIGN.md §2.6) instead of a bare
// journal file, and drive the CI kill loop:
//
//   $ ./record_replay record-dir out/run                  # uninterrupted
//   $ ./record_replay crash      out/run journal-frame@7  # die mid-write (exit 3)
//   $ ./record_replay recover    out/run                  # repair + re-record
//
// `crash` arms the named point (journal-frame, journal-checkpoint,
// artifact-body, artifact-rename, manifest; optional @N picks the hit) and
// terminates the PROCESS with _Exit(3) the instant the torn write lands — no
// destructors, no flushes — so the directory is exactly what a kill -9 leaves.
//
// All modes use the same built-in smoke scenario (optional trailing
// argument overrides the seed), so the journal header's config digest always
// matches.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "core/fault/crash.hpp"
#include "core/fault/fault.hpp"
#include "core/scenario/replay_harness.hpp"

using namespace fraudsim;

namespace {

scenario::RecordedScenarioConfig smoke_config(std::uint64_t seed) {
  scenario::RecordedScenarioConfig config;
  config.seed = seed;
  config.horizon = sim::hours(12);
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
  // FRAUDSIM_GRAPH=1 switches on the incremental entity graph (admit-path
  // tap + component detector + component_id weblog column), so the CI
  // graph-determinism job reuses this driver unchanged. Default off keeps
  // the historical artifacts byte-identical.
  if (const char* flag = std::getenv("FRAUDSIM_GRAPH");
      flag != nullptr && flag[0] != '\0' && flag[0] != '0') {
    config.graph.enabled = true;
  }
  return config;
}

// Creates `dir` and any missing parents.
bool make_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "error: cannot create " << dir << ": " << ec.message() << "\n";
    return false;
  }
  return true;
}

bool write_artifact(const std::string& dir, const std::string& name,
                    const std::string& content) {
  const std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out.good()) {
    std::cerr << "error: cannot write " << path << "\n";
    return false;
  }
  return true;
}

bool write_artifacts(const std::string& dir, const scenario::RunArtifacts& artifacts) {
  return write_artifact(dir, "metrics.csv", artifacts.metrics_csv) &&
         write_artifact(dir, "weblog.csv", artifacts.weblog_csv) &&
         write_artifact(dir, "soc_report.txt", artifacts.soc_report);
}

const char* resolve_crash_point(const std::string& name) {
  if (name == "journal-frame") return fault::kCrashJournalFrame;
  if (name == "journal-checkpoint") return fault::kCrashJournalCheckpoint;
  if (name == "artifact-body") return fault::kCrashArtifactBody;
  if (name == "artifact-rename") return fault::kCrashArtifactRename;
  if (name == "manifest") return fault::kCrashManifestWrite;
  return nullptr;
}

int usage() {
  std::cerr << "usage: record_replay record|replay|replay-checkpoint"
               " <journal-file> <out-dir> [seed]\n"
               "       record_replay record-dir <run-dir> [seed]\n"
               "       record_replay crash <run-dir> <point>[@hit] [seed]\n"
               "       record_replay recover <run-dir> [seed]\n"
               "(<out-dir> and <run-dir> are created if missing;\n"
               " crash points: journal-frame journal-checkpoint artifact-body\n"
               " artifact-rename manifest)\n";
  return 2;
}

// The run-directory trio behind the CI kill loop. `crash` exits 3 via _Exit
// so on-disk state is a genuine mid-write kill; `recover` must turn that into
// a directory byte-identical to `record-dir`'s.
int run_dir_mode(const std::string& mode, int argc, char** argv) {
  const std::string run_dir = argv[2];
  const bool has_point = mode == "crash";
  if (has_point && argc < 4) return usage();
  const int seed_arg = has_point ? 4 : 3;
  if (argc > seed_arg + 1) return usage();
  const std::uint64_t seed = argc == seed_arg + 1 ? std::stoull(argv[seed_arg]) : 2024;
  const auto config = smoke_config(seed);

  if (!make_dir(run_dir)) return 1;

  if (mode == "recover") {
    const auto outcome = scenario::recover_run(config, run_dir);
    if (!outcome.has_value()) {
      std::cerr << "error: " << outcome.error() << "\n";
      return 1;
    }
    std::cout << "recover: ok (seed " << seed << ", "
              << (outcome.value().reused_complete_run ? "reused complete run"
                  : outcome.value().prefix_verified   ? "prefix-verified re-record"
                                                      : "cold re-record")
              << ")\n";
    return 0;
  }

  if (has_point) {
    std::string point_name = argv[3];
    std::uint64_t hit = 5;
    if (const auto at = point_name.find('@'); at != std::string::npos) {
      hit = std::stoull(point_name.substr(at + 1));
      point_name.resize(at);
    }
    const char* point = resolve_crash_point(point_name);
    if (point == nullptr) return usage();
    fault::FaultRegistry::global().arm(point, fault::FaultScenario::crash_at_hit(hit));
  }

  const auto recorded = scenario::record_run_dir(config, run_dir);
  if (has_point) {
    if (recorded.has_value() || recorded.code() != util::ErrorCode::kCrashInjected) {
      std::cerr << "error: armed crash point never fired\n";
      return 1;
    }
    // Torn bytes are on disk; everything else (buffered streams, destructors)
    // must die with the process, exactly like a kill at this instant.
    std::_Exit(3);
  }
  if (!recorded.has_value()) {
    std::cerr << "error: " << recorded.error() << "\n";
    return 1;
  }
  std::cout << "record-dir: ok (seed " << seed << ", run dir " << run_dir << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string mode = argv[1];
  if (mode == "record-dir" || mode == "crash" || mode == "recover") {
    return run_dir_mode(mode, argc, argv);
  }
  if (argc < 4 || argc > 5) return usage();
  const std::string journal_path = argv[2];
  const std::string out_dir = argv[3];
  const std::uint64_t seed = argc == 5 ? std::stoull(argv[4]) : 2024;
  const auto config = smoke_config(seed);
  // Before the run: the artifact directory and, when recording, the
  // journal's own directory (it need not sit beside the artifacts).
  if (!make_dir(out_dir)) return 1;
  if (mode == "record") {
    const auto journal_dir = std::filesystem::path(journal_path).parent_path();
    if (!journal_dir.empty() && !make_dir(journal_dir.string())) return 1;
  }

  util::Result<scenario::RunArtifacts> result = [&] {
    if (mode == "record") return scenario::record_run(config, journal_path);
    scenario::ReplayOptions options;
    options.from_last_checkpoint = (mode == "replay-checkpoint");
    if (mode == "replay" || mode == "replay-checkpoint") {
      return scenario::replay_run(config, journal_path, options);
    }
    return util::Result<scenario::RunArtifacts>::fail(util::ErrorCode::kInvalidArgument,
                                                      "unknown mode: " + mode);
  }();
  if (!result.has_value()) {
    if (result.error() == "unknown mode: " + mode) return usage();
    std::cerr << "error: " << result.error() << "\n";
    return 1;
  }
  if (!write_artifacts(out_dir, result.value())) return 1;
  std::cout << mode << ": ok (seed " << seed << ", artifacts in " << out_dir << ")\n";
  return 0;
}
