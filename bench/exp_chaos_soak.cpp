// CHAOS: deterministic chaos soak — campaign pass-rate, shrink quality, and
// chaos-off byte identity.
//
// Three gates, all deterministic:
//
//   1. Campaign gate. A 20 × 10 grid of generated fault schedules crossed
//      with scenario seeds (200 jobs) runs on the fleet runner under the full
//      oracle stack: every platform invariant at every epoch barrier, crash
//      recovery whenever a schedule's kill fires, and byte-identical journal
//      replay under the re-armed fault posture. Every job must pass.
//
//   2. Shrink-quality gate. A deliberately planted invariant bug (a barrier
//      hook that oversells a flight once two specific dependency faults are
//      both armed) must be caught by the seat-conservation invariant, and
//      ddmin must shrink the six-entry failing schedule to a minimal
//      reproducer of at most five entries that deterministically re-triggers
//      the violation. The minimized reproducer must round-trip through the
//      on-disk chaos_repro artifact.
//
//   3. Chaos-off gate. With no schedule armed, runs are byte-identical with
//      and without the invariant oracle attached — observing the platform
//      must never perturb it.
//
// FRAUDSIM_BENCH_SMOKE=1 keeps the same 200-job grid but shrinks the per-job
// horizon (CI smoke: same structure, less simulated time).
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/bench/options.hpp"
#include "core/chaos/chaos.hpp"
#include "core/chaos/runner.hpp"
#include "core/fault/fault.hpp"
#include "core/invariant/invariant.hpp"
#include "core/scenario/replay_harness.hpp"

using namespace fraudsim;

namespace {

bool ok = true;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::cout << "SHAPE VIOLATION: " << what << "\n";
    ok = false;
  }
}

struct Scale {
  bool smoke = false;
  sim::SimTime horizon = sim::hours(6);
};

Scale detect_scale() {
  Scale s;
  if (bench::Options::env_flag("FRAUDSIM_BENCH_SMOKE")) {
    s.smoke = true;
    s.horizon = sim::hours(2);
  }
  return s;
}

scenario::RecordedScenarioConfig soak_config(const Scale& scale) {
  scenario::RecordedScenarioConfig config;
  config.seed = 1;  // overwritten per job by the campaign grid
  config.horizon = scale.horizon;
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
  config.checkpoint_every = sim::minutes(30);
  config.invariant_barrier_every = sim::minutes(15);
  // Graph and overload control on, so every catalogue point has code to
  // fault: "graph.ingest" the graph tap, "app.request.latency" admission.
  config.graph.enabled = true;
  config.overload.enabled = true;
  return config;
}

chaos::ChaosEntry error_entry(const char* point, fault::FaultScenario scenario) {
  chaos::ChaosEntry entry;
  entry.point = point;
  entry.scenario = scenario;
  return entry;
}

void run_campaign_gate(const Scale& scale, const std::filesystem::path& work_dir) {
  chaos::ChaosCampaignConfig campaign;
  campaign.base = soak_config(scale);
  campaign.generator = chaos::default_generator_config(scale.horizon);
  campaign.generator.max_entries = 4;
  for (std::uint64_t s = 1; s <= 20; ++s) campaign.schedule_seeds.push_back(s);
  for (std::uint64_t s = 101; s <= 110; ++s) campaign.scenario_seeds.push_back(s);
  campaign.work_dir = (work_dir / "campaign").string();

  const auto report = chaos::run_chaos_campaign(campaign);
  std::cout << "\n=== CHAOS: campaign gate (" << report.jobs << " schedule x seed jobs) ===\n"
            << report.render() << "\n";
  expect(report.jobs == 200, "campaign ran the full 200-job grid");
  expect(report.all_passed(), "every chaos job passes the full oracle stack");
  expect(report.faults_injected > 0, "the campaign actually injected faults");
  expect(report.invariant_checks > 0, "the invariant oracle ran at epoch barriers");
  expect(report.crashed > 0, "some schedules exercised the crash-recovery oracle");
  expect(report.recovered == report.crashed, "every crashed job recovered to a verified state");
  for (const auto& failure : report.failures) {
    std::cout << "  FAILURE schedule-seed=" << failure.schedule_seed
              << " scenario-seed=" << failure.scenario_seed << ": " << failure.detail << "\n"
              << "  minimized: " << failure.minimized.describe() << "\n";
  }
}

void run_shrink_gate(const Scale& scale, const std::filesystem::path& work_dir) {
  // Six entries, of which exactly two (the error scenarios on sms.carrier.send
  // and detect.sweep.run) arm the planted oversell; the rest are decoys the
  // shrinker must discard.
  chaos::ChaosSchedule schedule;
  schedule.seed = 77;
  schedule.entries.push_back(error_entry(
      "otp.deliver", fault::FaultScenario::window(sim::minutes(10), sim::minutes(40))));
  schedule.entries.push_back(
      error_entry("sms.carrier.send", fault::FaultScenario::every_nth(4)));
  chaos::ChaosEntry crowd;
  crowd.kind = chaos::ChaosEntry::Kind::FlashCrowd;
  crowd.from = sim::minutes(30);
  crowd.to = sim::minutes(60);
  crowd.intensity = 2.5;
  schedule.entries.push_back(crowd);
  schedule.entries.push_back(
      error_entry("fp.store.record", fault::FaultScenario::every_nth(9)));
  schedule.entries.push_back(
      error_entry("detect.sweep.run", fault::FaultScenario::every_nth(2)));
  chaos::ChaosEntry latency = error_entry(
      "app.request.latency", fault::FaultScenario::every_nth(5).with_latency(sim::seconds(2)));
  schedule.entries.push_back(latency);

  const auto job_for = [&](const chaos::ChaosSchedule& candidate, const char* dir) {
    chaos::ChaosJobConfig job;
    job.scenario = soak_config(scale);
    job.scenario.seed = 4242;
    job.schedule = candidate;
    job.run_dir = (work_dir / dir).string();
    job.plant_oversell_bug = true;
    return job;
  };
  const auto seat_conservation_fails = [&](const chaos::ChaosJobResult& result) {
    for (const auto& v : result.violations) {
      if (v.invariant == "seat-conservation") return true;
    }
    return false;
  };

  const auto full = chaos::run_chaos_job(job_for(schedule, "shrink-full"));
  expect(!full.passed(), "planted oversell bug fails the chaos job");
  expect(seat_conservation_fails(full), "the oversell is caught by seat-conservation");

  std::size_t probes = 0;
  const auto minimized = chaos::shrink_schedule(schedule, [&](const chaos::ChaosSchedule& cand) {
    ++probes;
    std::error_code ec;
    std::filesystem::remove_all(work_dir / "shrink-probe", ec);
    return seat_conservation_fails(chaos::run_chaos_job(job_for(cand, "shrink-probe")));
  });
  std::cout << "\n=== CHAOS: shrink gate ===\n"
            << "  failing schedule: " << schedule.entries.size() << " entries\n"
            << "  minimized:        " << minimized.entries.size() << " entries (" << probes
            << " ddmin probes)\n"
            << "  " << minimized.describe() << "\n";
  expect(minimized.entries.size() <= 5, "ddmin shrinks the reproducer to <= 5 entries");
  expect(minimized.entries.size() == 2, "ddmin lands exactly on the two trigger entries");
  expect(minimized.arms("sms.carrier.send", fault::FaultKind::kError),
         "minimized schedule keeps the sms.carrier.send trigger");
  expect(minimized.arms("detect.sweep.run", fault::FaultKind::kError),
         "minimized schedule keeps the detect.sweep.run trigger");

  // The minimized reproducer must re-trigger deterministically, twice.
  for (int round = 0; round < 2; ++round) {
    std::error_code ec;
    std::filesystem::remove_all(work_dir / "shrink-repro", ec);
    expect(seat_conservation_fails(chaos::run_chaos_job(job_for(minimized, "shrink-repro"))),
           "minimized reproducer deterministically re-triggers the violation");
  }

  // And it must survive the on-disk artifact round trip.
  chaos::ChaosRepro repro;
  repro.scenario_seed = 4242;
  repro.schedule = minimized;
  const std::string repro_path = (work_dir / "chaos_repro_gate.fsc").string();
  expect(chaos::write_chaos_repro(repro_path, repro).is_ok(), "chaos_repro artifact writes");
  const auto loaded = chaos::read_chaos_repro(repro_path);
  expect(loaded.has_value(), "chaos_repro artifact reads back");
  if (loaded.has_value()) {
    expect(loaded.value().scenario_seed == 4242, "repro round-trips the scenario seed");
    expect(loaded.value().schedule.entries.size() == minimized.entries.size(),
           "repro round-trips the minimized schedule");
  }
}

void run_chaos_off_gate(const Scale& scale, const std::filesystem::path& work_dir) {
  auto config = soak_config(scale);
  config.seed = 31337;

  const auto plain = scenario::baseline_run(config);
  invariant::InvariantRegistry registry;
  config.invariants = &registry;
  const auto observed = scenario::baseline_run(config);

  std::cout << "\n=== CHAOS: chaos-off byte-identity gate ===\n"
            << "  invariant checks under the oracle: " << observed.invariant_checks << "\n";
  expect(observed.invariant_checks > 0, "the oracle ran during the observed run");
  expect(observed.violations.empty(), "a clean run violates no invariant");
  expect(plain.metrics_csv == observed.metrics_csv,
         "metrics are byte-identical with and without the oracle");
  expect(plain.weblog_csv == observed.weblog_csv,
         "weblog is byte-identical with and without the oracle");
  expect(plain.soc_report == observed.soc_report,
         "SOC report is byte-identical with and without the oracle");

  // An empty schedule through the full chaos runner is just a recorded run:
  // it must pass, verify replay, and inject nothing.
  chaos::ChaosJobConfig job;
  job.scenario = config;
  job.scenario.invariants = nullptr;  // the runner owns its oracle
  job.schedule.seed = 0;
  job.run_dir = (work_dir / "chaos-off").string();
  const auto result = chaos::run_chaos_job(job);
  expect(result.passed(), "empty-schedule chaos job passes");
  expect(result.replay_verified, "empty-schedule chaos job replays byte-identically");
  expect(result.faults_injected == 0, "empty schedule injects no faults");
}

}  // namespace

int main() {
  const Scale scale = detect_scale();
  const std::filesystem::path work_dir =
      std::filesystem::temp_directory_path() / "fraudsim_exp_chaos_soak";
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create " << work_dir.string() << ": " << ec.message() << "\n";
    return 1;
  }

  std::cout << "Running chaos soak (200-job campaign + shrink + chaos-off gates"
            << (scale.smoke ? ", smoke scale" : "") << ")...\n";
  run_campaign_gate(scale, work_dir);
  run_shrink_gate(scale, work_dir);
  run_chaos_off_gate(scale, work_dir);

  std::filesystem::remove_all(work_dir, ec);
  std::cout << (ok ? "\nCHAOS SHAPE: OK\n" : "\nCHAOS SHAPE: FAILED\n");
  return ok ? 0 : 1;
}
