// detect_window: the SOC batch view.
//
// Set-up simulates one day at four times the default legitimate demand with
// the soc_day attack mix (seat-spinning bot, SMS pump, 16-member ring) and no
// entity graph, then arms the detection pipeline: NiP baseline, navigation
// model and behaviour classifier fitted on the clean-ish first six hours, IP
// reputation on. The timed part is DetectionPipeline::run over [6 h, 24 h).
//
// The traced run times one more DetectionPipeline::run with the platform's
// wall-clock profiler switched on: the pipeline already wraps every family in
// a profiler phase named "detect.<family>", so the per-family figures come
// from the same code path the untraced runs time.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "case_study.hpp"
#include "core/detect/pipeline.hpp"
#include "core/invariant/invariant.hpp"
#include "core/obs/profile.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace fraudsim;

constexpr double kDemand = 4;  // times the default legitimate demand
constexpr sim::SimTime kFrom = sim::hours(6);

struct Platform {
  Platform(std::uint64_t seed, sim::SimTime horizon)
      : env(case_study_config(seed, kDemand)),
        target(add_case_study_flights(env, case_study_config(seed, kDemand), horizon)) {}

  scenario::Env env;
  airline::FlightId target;
  detect::DetectionPipeline pipeline;
  std::uint64_t violations = 0;
};

// Simulates the input day and arms the pipeline.
std::unique_ptr<Platform> build(std::uint64_t seed, sim::SimTime horizon) {
  auto p = std::make_unique<Platform>(seed, horizon);
  scenario::Env& env = p->env;
  invariant::InvariantRegistry invariants;
  invariant::register_platform_invariants(invariants, env.app, &env.engine);

  AttackMix attacks(env, p->target, horizon);
  env.start_background(horizon);
  attacks.start(env, horizon);
  for (sim::SimTime t = sim::kHour; t <= horizon; t += sim::kHour) {
    env.run_until(t);
    invariants.check_all(t);
  }
  p->violations = invariants.violations().size();

  p->pipeline.fit_nip_baseline(env.app, 0, kFrom);
  p->pipeline.fit_navigation(env.app, 0, kFrom);
  sim::Rng train_rng = env.rng.fork("classifier");
  p->pipeline.train_behavior(env.app, env.actors, 0, kFrom, train_rng);
  p->pipeline.enable_ip_reputation(env.geo);
  p->pipeline.bind_obs(&env.app.obs());
  return p;
}

std::uint64_t alert_digest(const detect::AlertSink& alerts) {
  Digest d;
  for (const detect::Alert& a : alerts.alerts()) {
    d.add(a.detector);
    d.add(static_cast<std::uint64_t>(a.time));
    d.add(a.explanation);
    d.add(a.session ? a.session->value() : 0);
    d.add(a.pnr.value_or(""));
  }
  return d.h;
}

}  // namespace

Result run_detect_window(const Options& options) {
  const sim::SimTime horizon = options.smoke ? sim::hours(10) : sim::days(1);
  constexpr int kSetups = 5;
  Result r;

  // Set up several times; keep the last platform for the timed part.
  std::vector<double> setup;
  std::unique_ptr<Platform> p;
  std::uint64_t violations = 0;
  for (int i = 0; i < kSetups; ++i) {
    p.reset();
    const std::int64_t s0 = now_ns();
    p = build(options.seed, horizon);
    setup.push_back(static_cast<double>(now_ns() - s0) / 1e9);
    violations += p->violations;
  }
  const app::Application& app = p->env.app;

  std::vector<double> run_s;
  std::vector<std::uint64_t> digests;
  std::size_t sessions = 0;
  std::size_t alerts = 0;
  std::size_t skipped = 0;
  // One unmeasured run warms the caches; its alerts join the digest check.
  digests.push_back(alert_digest(p->pipeline.run(app, p->env.actors, kFrom, horizon).alerts));
  const int n = repeat_for(options.seconds, 2, 64, [&](int) {
    const std::int64_t t0 = now_ns();
    const detect::PipelineResult result = p->pipeline.run(app, p->env.actors, kFrom, horizon);
    run_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    digests.push_back(alert_digest(result.alerts));
    sessions = result.sessions.size();
    alerts = result.alerts.alerts().size();
    skipped = result.skipped.size();
  });
  bool digests_equal = true;
  for (const std::uint64_t d : digests) digests_equal = digests_equal && d == digests.front();
  r.attempted = static_cast<std::uint64_t>(n) * sessions;
  r.failed = static_cast<std::uint64_t>(n) * skipped + violations;

  if (options.trace) {
    Tracer tracer;
    obs::Profiler& profiler = obs::Profiler::instance();
    std::size_t traced_sessions = 0;
    {
      const Scope sessionize(&tracer, "detect.sessionize");
      const web::Sessionizer sessionizer(p->pipeline.config().session_timeout);
      traced_sessions = sessionizer.sessionize(app.weblog().range(kFrom, horizon)).size();
    }
    profiler.reset();
    profiler.set_enabled(true);
    const std::int64_t t0 = now_ns();
    const detect::PipelineResult traced = [&] {
      const Scope run(&tracer, "detect.run");
      return p->pipeline.run(app, p->env.actors, kFrom, horizon);
    }();
    const double traced_s = static_cast<double>(now_ns() - t0) / 1e9;
    profiler.set_enabled(false);
    digests_equal = digests_equal && alert_digest(traced.alerts) == digests.front();

    std::map<std::string, obs::Profiler::PhaseTotals> phases;
    for (obs::Profiler::PhaseTotals& t : profiler.totals()) phases[t.name] = std::move(t);
    const double per_session = static_cast<double>(std::max<std::size_t>(1, traced.sessions.size()));
    std::uint64_t family_ns = 0;
    bool every_family_once = true;
    for (const auto& det : p->pipeline.build_detectors()) {
      const std::string name = std::string("detect.") + det->name();
      const auto it = phases.find(name);
      every_family_once = every_family_once && it != phases.end() && it->second.calls == 1;
      if (it == phases.end()) continue;
      family_ns += it->second.total_ns;
      r.metrics[name + ".ns_per_session"] = static_cast<double>(it->second.total_ns) / per_session;
    }
    r.check("profiler timed every detector family once", every_family_once);
    r.check("sessionizing the window alone gives the pipeline's sessions",
            traced_sessions == traced.sessions.size());

    const auto layers = tracer.layer_times();
    r.metrics["detect.sessionize_ms"] =
        static_cast<double>(layers.at("detect.sessionize").total_ns) / 1e6;
    r.metrics["detect.sessions"] = static_cast<double>(traced.sessions.size());
    r.metrics["detect.alerts"] = static_cast<double>(traced.alerts.alerts().size());
    r.metrics["detect.skipped"] = static_cast<double>(traced.skipped.size());
    r.metrics["trace.overhead"] = traced_s / median(run_s) - 1.0;
    r.metrics["trace.named_share"] = static_cast<double>(family_ns) / (traced_s * 1e9);
    r.metrics["trace.spans"] = static_cast<double>(tracer.spans().size());
    r.check("tracer spans balanced", tracer.balanced());
    r.check("span dump written",
            tracer.dump(options.out_dir + "/spans-detect_window.jsonl", "detect_window"));
  } else {
    r.metrics["setup_s"] = median(setup);
    r.metrics["ops_per_sec"] = static_cast<double>(sessions) / median(run_s);
    r.metrics["op_p50_us"] = percentile(run_s, 50) * 1e6;
    r.metrics["op_p99_us"] = percentile(run_s, 99) * 1e6;
  }

  const detect::PipelineStats stats = p->pipeline.stats();
  r.check("sessions_in == sessions_scored + sessions_skipped",
          stats.sessions_in == stats.sessions_scored + stats.sessions_skipped);
  r.check("alert digest equal on every repetition", digests_equal);
  r.check("no detector family skipped", skipped == 0);
  r.check("zero platform invariant violations", violations == 0);
  r.check("window holds sessions and alerts", sessions > 0 && alerts > 0);
  r.facts["repetitions"] = std::to_string(n) + " measured + 1 warm-up";
  r.facts["run_s_by_repetition"] = join(run_s);
  r.facts["setups"] = std::to_string(kSetups);
  r.facts["sessions"] = std::to_string(sessions);
  r.facts["alerts"] = std::to_string(alerts);
  r.facts["latency_samples"] = std::to_string(run_s.size());
  r.facts["threads"] = "1";
  r.facts["ops"] = "sessions analysed";
  return r;
}

}  // namespace perfbench
