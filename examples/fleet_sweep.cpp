// Multi-seed fleet sweep driver (also the CI fleet-determinism gate): run the
// recorded smoke scenario across several defense postures × seeds on the
// fleet runner, write every run's artifacts plus the aggregate CSV to a
// directory, and print the cross-seed table.
//
//   $ ./fleet_sweep out/fleet            # FRAUDSIM_FLEET_THREADS or all cores
//   $ ./fleet_sweep out/fleet 4 5        # 4 threads, 5 seeds per posture
//   $ ./fleet_sweep out/fleet 4 5 --resume   # skip jobs with an intact manifest
//
// Crash consistency: each job writes its artifacts through
// recover::AtomicFile, persists its reduction shard as `result.bin`, and
// commits with a per-job MANIFEST.fsm written last. A sweep killed mid-flight
// therefore leaves every completed job certified on disk; rerunning with
// `--resume` re-executes only the jobs whose manifest is missing or fails its
// audit, and the resumed report is byte-identical to an uninterrupted one.
//
// The per-seed artifact tree (<out-dir>/<variant>/seed-<seed>/...) is
// byte-identical for any thread count, so CI compares two sweeps that differ
// only in thread count with `diff -r`.
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/recover/atomic_file.hpp"
#include "core/recover/manifest.hpp"
#include "core/scenario/fleet.hpp"
#include "core/scenario/replay_harness.hpp"
#include "util/archive.hpp"

using namespace fraudsim;

namespace {

scenario::RecordedScenarioConfig sweep_config(const std::string& variant, std::uint64_t seed) {
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
  config.checkpoint_every = 0;  // no journal attached; nothing to embed into
  if (variant == "undefended") {
    config.mitigation_enabled = false;
  } else if (variant == "defended+captcha") {
    config.challenge_mode = mitigate::ChallengeMode::SuspiciousOnly;
  }  // "defended": the config defaults
  return config;
}

std::filesystem::path job_dir(const std::filesystem::path& out_dir,
                              const scenario::FleetJob& job) {
  return out_dir / job.variant / ("seed-" + std::to_string(job.seed));
}

// A job resumes iff its manifest validates, every listed artifact audits
// clean, AND the persisted shard round-trips exactly. Anything less re-runs
// the job — resume must never trade corruption for speed.
std::optional<scenario::FleetRunResult> try_resume(const std::filesystem::path& dir,
                                                   const scenario::FleetJob& job,
                                                   std::uint64_t expected_digest) {
  const auto manifest = recover::Manifest::load((dir / recover::kManifestFilename).string());
  if (!manifest.has_value()) return std::nullopt;
  if (manifest.value().seed != job.seed || manifest.value().config_digest != expected_digest) {
    return std::nullopt;
  }
  if (!recover::audit_artifacts(manifest.value(), dir.string()).clean()) return std::nullopt;

  std::ifstream in(dir / "result.bin", std::ios::binary);
  std::ostringstream blob;
  blob << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  const std::string bytes = blob.str();
  util::ByteReader reader(bytes);
  scenario::FleetRunResult result;
  result.restore(reader);
  if (!reader.exhausted()) return std::nullopt;
  return result;
}

int usage() {
  std::cerr << "usage: fleet_sweep <out-dir> [threads] [seeds-per-variant] [--resume]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool resume = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--resume") {
      resume = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty() || positional.size() > 3) return usage();
  const std::filesystem::path out_dir = positional[0];
  scenario::FleetOptions options;
  if (positional.size() >= 2) options.threads = static_cast<unsigned>(std::stoul(positional[1]));
  const std::size_t seeds_per_variant = positional.size() == 3 ? std::stoul(positional[2]) : 3;

  const std::vector<std::string> variants = {"defended", "defended+captcha", "undefended"};
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < seeds_per_variant; ++i) seeds.push_back(9000 + i);

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create " << out_dir.string() << ": " << ec.message() << "\n";
    return 1;
  }

  std::atomic<bool> write_failed{false};
  const auto run_one = [&](const scenario::FleetJob& job) {
    const auto config = sweep_config(job.variant, job.seed);
    const scenario::RunArtifacts artifacts = scenario::baseline_run(config);

    // Distinct per-job directory: workers write concurrently, paths never
    // collide, and the tree layout is independent of scheduling.
    const std::filesystem::path dir = job_dir(out_dir, job);
    std::filesystem::create_directories(dir);

    scenario::FleetRunResult result;
    result.metrics = artifacts.metrics;
    result.observations["requests"] =
        static_cast<double>(artifacts.metrics.counter("app.requests"));
    result.observations["blocked"] =
        static_cast<double>(artifacts.metrics.counter("app.blocked"));
    result.observations["challenged"] =
        static_cast<double>(artifacts.metrics.counter("app.challenged"));
    result.observations["rate_limited"] =
        static_cast<double>(artifacts.metrics.counter("app.rate_limited"));
    result.observations["mitigation_actions"] =
        static_cast<double>(artifacts.metrics.counter("mitigate.actions"));

    util::ByteWriter shard;
    result.checkpoint(shard);

    // Atomic writes, then the manifest as the commit point: a kill anywhere
    // in this sequence leaves either a certified-complete job or residue the
    // resume path rejects and re-runs.
    recover::Manifest manifest;
    manifest.seed = job.seed;
    manifest.config_digest = scenario::config_digest(config);
    const auto emit = [&](const char* name, const std::string& content) {
      const auto written = recover::AtomicFile::write((dir / name).string(), content);
      if (!written.has_value()) {
        write_failed.store(true, std::memory_order_relaxed);
        return;
      }
      manifest.add(written.value(), name);
    };
    emit("metrics.csv", artifacts.metrics_csv);
    emit("weblog.csv", artifacts.weblog_csv);
    emit("soc_report.txt", artifacts.soc_report);
    emit("result.bin", shard.take());
    if (!manifest.write(dir.string()).is_ok()) {
      write_failed.store(true, std::memory_order_relaxed);
    }
    return result;
  };

  if (resume) {
    options.resume = [&](const scenario::FleetJob& job) {
      return try_resume(job_dir(out_dir, job), job,
                        scenario::config_digest(sweep_config(job.variant, job.seed)));
    };
  }

  // Any job that throws (simulation bug, corrupt resume residue the audit
  // missed, filesystem trouble) must fail the whole sweep loudly: CI treats
  // this binary's exit code as the fleet-determinism gate.
  scenario::FleetReport report;
  try {
    report = scenario::run_fleet(scenario::cross_jobs(variants, seeds), run_one, options);
  } catch (const std::exception& e) {
    std::cerr << "error: fleet job failed: " << e.what() << "\n";
    return 1;
  }
  if (write_failed.load()) {
    std::cerr << "error: one or more jobs failed to persist artifacts\n";
    return 1;
  }

  std::ostringstream csv;
  report.write_csv(csv);
  std::ofstream fleet_csv(out_dir / "fleet.csv", std::ios::binary | std::ios::trunc);
  fleet_csv << csv.str();
  fleet_csv.flush();
  if (!fleet_csv.good()) {
    std::cerr << "error: cannot write " << (out_dir / "fleet.csv").string() << "\n";
    return 1;
  }

  std::cout << report.render_table("Fleet sweep: smoke scenario postures") << "\n";
  std::cout << "artifacts: " << out_dir.string() << " (" << report.jobs << " runs, "
            << report.threads << " threads";
  if (report.resumed > 0) std::cout << ", " << report.resumed << " resumed";
  std::cout << ")\n";
  return 0;
}
