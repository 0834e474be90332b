// PERF: google-benchmark microbenchmarks of the pipeline's hot paths, plus —
// when FRAUDSIM_PROFILE=1 — an end-to-end profiled scenario that prints the
// wall-clock phase breakdown (event loop, per detector family, mitigation
// sweep) and optionally dumps the platform metrics registry as JSON lines to
// $FRAUDSIM_METRICS_OUT.
//
// `perf_core --gate [--out PATH] [--smoke]` runs the perf GATEKEEPER instead:
// a fixed deterministic workload measured with warmup + median-of-N, written
// as flat JSON (default BENCH_core.json). The committed copy at the repo root
// pins the perf trajectory; bench/perf_compare judges a fresh run against it
// with per-metric tolerances. Metrics:
//   sim_events_per_sec      simulated events through the event loop / sec
//   ns_admit_full           wall ns per request through Application::admit
//                           with the paper's five §V rate limits active
//   ns_score_<family>       wall ns per session-score for each detector
//   ns_score_view           wall ns per session to derive the window facts
//                           the families share (the detect.view phase)
//   ns_rate_limit_allow     wall ns per SlidingWindowRateLimiter::allow:
//                           four limiters fed identities rotating over
//                           100k keys, each key stale by its next visit
//   ns_name_patterns_per_reservation
//                           wall ns per reservation through
//                           NamePatternAnalyzer::analyze on a 4,000-reservation
//                           window with planted misspelling clusters
//   ns_checkpoint_frame_per_kib
//                           wall ns per KiB of blob to checkpoint the 6 h
//                           gate scenario's platform from scratch and append
//                           the blob as a Checkpoint frame to a journal
//   ns_checkpoint_repeat_per_kib
//                           the same for the platform's later restore
//                           points, which re-encode only what the web log
//                           and biometric log gained since the last one
//   ns_exchange_per_message wall ns per message through a K=8 barrier
//                           exchange of 1M queued messages plus replies,
//                           delivered on one thread
//   ns_exchange_parallel_per_message
//                           the same exchange delivered per destination on
//                           min(4, nproc) worker threads
//   ns_crc32_per_kib        wall ns per KiB for util::crc32 over 4 MiB
//   ns_sessionize_per_request
//                           wall ns per request to sessionize the 6 h gate
//                           scenario's web log over the detection window,
//                           read in place as DetectionPipeline::run does
//   arena_allocs_per_admit / arena_bytes_per_admit
//                           per-request rate-key arena traffic
//   arena_chunk_allocs      heap chunks the key arena ever acquired (steady
//                           state: a handful, regardless of request count)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bench/options.hpp"
#include "core/detect/behavior.hpp"
#include "core/detect/name_patterns.hpp"
#include "core/detect/pipeline.hpp"
#include "core/journal/recording.hpp"
#include "core/mitigate/controller.hpp"
#include "core/mitigate/rate_limit.hpp"
#include "core/mitigate/rules.hpp"
#include "core/obs/profile.hpp"
#include "core/scenario/env.hpp"
#include "core/scenario/fleet.hpp"
#include "core/scenario/replay_harness.hpp"
#include "fingerprint/population.hpp"
#include "sim/sharded_simulation.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"
#include "web/features.hpp"
#include "web/session.hpp"
#include "workload/names.hpp"

using namespace fraudsim;

namespace {

void BM_FingerprintHash(benchmark::State& state) {
  fp::PopulationModel population;
  sim::Rng rng(1);
  const auto fingerprint = population.sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fingerprint.hash());
  }
}
BENCHMARK(BM_FingerprintHash);

void BM_PopulationSample(benchmark::State& state) {
  fp::PopulationModel population;
  sim::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(population.sample(rng));
  }
}
BENCHMARK(BM_PopulationSample);

std::vector<web::HttpRequest> make_requests(std::size_t sessions, std::size_t per_session) {
  std::vector<web::HttpRequest> requests;
  sim::Rng rng(3);
  for (std::size_t s = 0; s < sessions; ++s) {
    sim::SimTime t = static_cast<sim::SimTime>(s) * sim::kMinute;
    for (std::size_t i = 0; i < per_session; ++i) {
      web::HttpRequest r;
      r.time = t += rng.uniform_int(1000, 30000);
      r.session = web::SessionId{s + 1};
      r.endpoint = static_cast<web::Endpoint>(rng.uniform_int(0, 13));
      r.method = rng.bernoulli(0.2) ? web::HttpMethod::Post : web::HttpMethod::Get;
      requests.push_back(r);
    }
  }
  return requests;
}

void BM_Sessionize(benchmark::State& state) {
  const auto requests = make_requests(static_cast<std::size_t>(state.range(0)), 12);
  const web::Sessionizer sessionizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sessionizer.sessionize(requests));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_Sessionize)->Arg(100)->Arg(1000);

void BM_FeatureExtraction(benchmark::State& state) {
  const auto requests = make_requests(200, 12);
  const web::Sessionizer sessionizer;
  const auto sessions = sessionizer.sessionize(requests);
  for (auto _ : state) {
    benchmark::DoNotOptimize(web::extract_features(sessions));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sessions.size()));
}
BENCHMARK(BM_FeatureExtraction);

void BM_RuleEngineEvaluate(benchmark::State& state) {
  sim::Simulation sim;
  mitigate::RuleEngine engine(sim);
  engine.add_rate_limit({"ip", std::nullopt, mitigate::RateKey::ByIp, 1000, sim::kHour});
  engine.add_rate_limit({"bp", web::Endpoint::BoardingPassSms, mitigate::RateKey::ByBookingRef,
                         10, sim::kDay});
  engine.set_challenge_mode(mitigate::ChallengeMode::SuspiciousOnly);
  for (std::uint64_t i = 0; i < 500; ++i) engine.blocklist().block(fp::FpHash{i + 1}, 0, "x");

  app::ClientContext ctx;
  fp::derive_rendering_hashes(ctx.fingerprint);
  web::HttpRequest request;
  request.endpoint = web::Endpoint::HoldReservation;
  request.fp_hash = ctx.fingerprint.hash();
  request.ip = *net::IpV4::parse("16.0.0.1");
  std::uint64_t session = 0;
  for (auto _ : state) {
    request.session = web::SessionId{++session};
    benchmark::DoNotOptimize(engine.evaluate(request, ctx));
  }
}
BENCHMARK(BM_RuleEngineEvaluate);

void BM_RateLimiterAllow(benchmark::State& state) {
  mitigate::SlidingWindowRateLimiter limiter(100, sim::kHour);
  sim::SimTime now = 0;
  std::uint64_t key = 0;
  for (auto _ : state) {
    now += 10;
    benchmark::DoNotOptimize(limiter.allow(now, std::to_string(++key % 1000)));
  }
}
BENCHMARK(BM_RateLimiterAllow);

void BM_GibberishScore(benchmark::State& state) {
  sim::Rng rng(4);
  std::vector<std::string> names;
  for (int i = 0; i < 256; ++i) names.push_back(rng.random_lowercase(8));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::gibberish_score(names[++i % names.size()]));
  }
}
BENCHMARK(BM_GibberishScore);

void BM_Levenshtein(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::levenshtein("martinez", "martinze"));
  }
}
BENCHMARK(BM_Levenshtein);

// Fleet scaling: a fixed batch of smoke-scale scenario runs pushed through
// the fleet runner at 1/2/4 threads. Thread count changes nothing about the
// work — each job is an independent simulation — so on an N-core machine the
// wall-clock time (UseRealTime; CPU time would stay flat by construction)
// should drop near-linearly until N saturates the batch.
void BM_FleetSmokeScaling(benchmark::State& state) {
  const auto run_one = [](const scenario::FleetJob& job) {
    scenario::RecordedScenarioConfig config;
    config.seed = job.seed;
    config.horizon = sim::hours(4);
    config.flights = 4;
    config.capacity = 60;
    config.legit.booking_sessions_per_hour = 6;
    config.legit.browse_sessions_per_hour = 4;
    config.legit.otp_logins_per_hour = 3;
    config.attacker_start = sim::hours(1);
    config.attacker_period = sim::minutes(10);
    config.controller_fit_at = sim::hours(1);
    config.controller.sweep_interval = sim::hours(1);
    config.checkpoint_every = 0;
    const scenario::RunArtifacts artifacts = scenario::baseline_run(config);

    scenario::FleetRunResult out;
    out.metrics = artifacts.metrics;
    out.observations["requests"] =
        static_cast<double>(artifacts.metrics.counter("app.requests"));
    return out;
  };

  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 8; ++s) seeds.push_back(100 + s);
  const auto jobs = scenario::cross_jobs({"smoke"}, seeds);
  scenario::FleetOptions options;
  options.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scenario::run_fleet(jobs, run_one, options));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_FleetSmokeScaling)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_NamePatternAnalysis(benchmark::State& state) {
  sim::Rng rng(5);
  std::vector<airline::Reservation> reservations;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    airline::Reservation r;
    r.pnr = "P" + std::to_string(i);
    r.passengers = workload::random_party(rng, 2);
    reservations.push_back(std::move(r));
  }
  const detect::NamePatternAnalyzer analyzer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(reservations));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NamePatternAnalysis)->Arg(200)->Arg(1000)->Arg(4000);

// End-to-end phase breakdown: a small scenario driven with profiling on, so
// the report covers the simulation event loop, every detector family, and the
// mitigation sweep — not just the microbenchmark kernels above.
void run_profiled_scenario(const std::string& metrics_out) {
  const sim::SimTime horizon = sim::hours(6);
  scenario::EnvConfig config;
  config.seed = 7;
  scenario::Env env(config);
  env.add_flights("FS", 4, 180, sim::days(10));
  mitigate::MitigationController controller(env.app, env.engine, mitigate::ControllerConfig{});
  controller.start(horizon);
  env.start_background(horizon);
  env.run_until(horizon);

  detect::DetectionPipeline pipeline;
  pipeline.bind_obs(&env.app.obs());
  const auto result = pipeline.run(env.app, env.actors, 0, horizon);

  std::cout << "\n=== FRAUDSIM_PROFILE phase breakdown ===\n"
            << obs::Profiler::instance().report()
            << "sessions analysed: " << result.sessions.size()
            << ", alerts: " << result.alerts.alerts().size() << "\n";

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    env.app.metrics().snapshot().write_jsonl(out);
    std::cout << "metrics registry written to " << metrics_out << "\n";
  }
}

// ---------------------------------------------------------------------------
// Gatekeeper mode (--gate): deterministic workload, warmup + median-of-N,
// flat JSON out. Numbers are wall-clock and therefore machine-dependent; the
// committed baseline pins the trajectory on the reference runner and
// perf_compare applies per-metric tolerances, so only real regressions trip.

using GateClock = std::chrono::steady_clock;

double elapsed_ns(GateClock::time_point from, GateClock::time_point to) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Repeats `sample` (one full fresh measurement) and takes the median — the
// robust location estimate under the one-sided noise wall clocks produce.
double median_of(int reps, const std::function<double()>& sample) {
  std::vector<double> runs;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) runs.push_back(sample());
  return median(std::move(runs));
}

// Simulated events pushed through the event loop per wall second, on the
// same seeded scenario every run (legit traffic + expiry sweeps, no attack).
double measure_events_per_sec(bool smoke) {
  const sim::SimTime horizon = smoke ? sim::hours(2) : sim::hours(6);
  scenario::EnvConfig config;
  config.seed = 7;
  scenario::Env env(config);
  env.add_flights("FS", 4, 180, sim::days(10));
  env.start_background(horizon);
  const auto t0 = GateClock::now();
  env.run_until(horizon);
  const auto t1 = GateClock::now();
  return static_cast<double>(env.sim.fired_events()) / (elapsed_ns(t0, t1) / 1e9);
}

// Wall ns per request through Application::admit (cheapest endpoint, so the
// admission machinery — weblog, overload gate, policy, counters — dominates).
// The request stream churns sessions and IPs deterministically so rate-limit
// keys exercise the key store, not one hot deque. Arena stats from the
// measured window land in arena_out.
double measure_ns_admit(std::size_t requests, util::Arena::Stats& arena_out) {
  scenario::EnvConfig config;
  config.seed = 11;
  scenario::Env env(config);
  mitigate::RuleEngine engine(env.sim);
  // The paper's §V posture: global, per-IP, per-session, per-fingerprint and
  // per-booking limits all active at once. Limits are set high enough that
  // nothing denies (the denial early-out would hide the key-construction
  // cost this metric exists to measure).
  engine.add_rate_limit({"global", std::nullopt, mitigate::RateKey::Global, 1u << 30, sim::kHour});
  engine.add_rate_limit({"ip", std::nullopt, mitigate::RateKey::ByIp, 1u << 30, sim::kHour});
  engine.add_rate_limit(
      {"session", std::nullopt, mitigate::RateKey::BySession, 1u << 30, sim::kHour});
  engine.add_rate_limit(
      {"fp", std::nullopt, mitigate::RateKey::ByFingerprint, 1u << 30, sim::kHour});
  engine.add_rate_limit({"booking", std::nullopt, mitigate::RateKey::ByBookingRef, 1u << 30,
                         sim::kDay});
  engine.bind_metrics(&env.app.metrics());
  env.app.set_policy(&engine);

  app::ClientContext ctx;
  fp::derive_rendering_hashes(ctx.fingerprint);
  // Sim time advances ~1s per request so the limiter's amortised stale-key
  // sweep actually runs and key state churns (insert + evict + id recycling),
  // like production traffic — not one warmed-up map probed forever.
  sim::SimTime t = 0;
  std::size_t seq = 0;
  const auto drive = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i, ++seq) {
      if (seq % 64 == 0) {
        t += sim::seconds(64);
        env.sim.run_until(t);
      }
      ctx.session = web::SessionId{seq + 1};  // every session key is fresh
      ctx.ip = net::IpV4{0x10000000u + static_cast<std::uint32_t>(seq % 2048)};
      (void)env.app.browse(ctx, web::Endpoint::SearchFlights, web::HttpMethod::Get);
    }
  };
  drive(requests / 4);  // warmup: fault the key stores and arena chunks in
  const util::Arena::Stats before = engine.key_arena().stats();
  const auto t0 = GateClock::now();
  drive(requests);
  const auto t1 = GateClock::now();
  arena_out = engine.key_arena().stats();
  arena_out.allocations -= before.allocations;
  arena_out.bytes -= before.bytes;
  return elapsed_ns(t0, t1) / static_cast<double>(requests);
}

// Wall ns per SlidingWindowRateLimiter::allow on the rotation path: four
// limiters (one per keying the admit path limits on) each take one call per
// step, keys cycling over 100k identities with sim time advancing 1 ms per
// step. A key returns after 100 s, past the one-minute window, so each call
// interns into an id the stale-key sweep recycled, and each sweep evicts a
// minute's worth of keys. The first full rotation warms the tables up.
double measure_ns_rate_limit_allow(bool smoke, int reps) {
  constexpr std::size_t kKeys = 100'000;
  constexpr std::size_t kLimiters = 4;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) keys.push_back("10." + std::to_string(i));
  const std::size_t steps = smoke ? 100'000 : 500'000;
  const auto sample = [&] {
    std::vector<mitigate::SlidingWindowRateLimiter> limiters(
        kLimiters, mitigate::SlidingWindowRateLimiter(1u << 30, sim::kMinute));
    sim::SimTime now = 0;
    std::size_t allowed = 0;
    const auto drive = [&](std::size_t from, std::size_t to) {
      for (std::size_t s = from; s < to; ++s) {
        now += 1;
        for (auto& limiter : limiters) allowed += limiter.allow(now, keys[s % kKeys]) ? 1 : 0;
      }
    };
    drive(0, kKeys);
    const auto t0 = GateClock::now();
    drive(kKeys, kKeys + steps);
    const auto t1 = GateClock::now();
    benchmark::DoNotOptimize(allowed);
    return elapsed_ns(t0, t1) / static_cast<double>(steps * kLimiters);
  };
  return median_of(reps, sample);
}

// Per-detector wall ns per analysed session, read off the profiler phases the
// pipeline already wraps every family in. One seeded scenario provides the
// log; the pipeline re-runs `reps` times over the same window.
std::vector<std::pair<std::string, double>> measure_detector_ns(bool smoke) {
  const sim::SimTime horizon = smoke ? sim::hours(3) : sim::hours(6);
  scenario::EnvConfig config;
  config.seed = 7;
  scenario::Env env(config);
  env.add_flights("FS", 4, 180, sim::days(10));
  env.start_background(horizon);
  env.run_until(horizon);

  detect::DetectionPipeline pipeline;
  pipeline.enable_ip_reputation(env.geo);
  auto& profiler = obs::Profiler::instance();
  const bool was_enabled = profiler.enabled();
  profiler.set_enabled(true);
  profiler.reset();
  const int reps = smoke ? 3 : 5;
  std::size_t sessions = 0;
  for (int r = 0; r < reps; ++r) {
    sessions = pipeline.run(env.app, env.actors, 0, horizon).sessions.size();
  }
  std::vector<std::pair<std::string, double>> out;
  const double denom = static_cast<double>(reps) * static_cast<double>(std::max<std::size_t>(1, sessions));
  for (const auto& phase : profiler.totals()) {
    if (phase.name.rfind("detect.", 0) != 0) continue;
    std::string name = "ns_score_" + phase.name.substr(7);
    std::replace(name.begin(), name.end(), '.', '_');
    out.emplace_back(std::move(name), static_cast<double>(phase.total_ns) / denom);
  }
  profiler.reset();
  profiler.set_enabled(was_enabled);
  std::sort(out.begin(), out.end());
  return out;
}

// Wall ns per reservation through NamePatternAnalyzer::analyze. The window
// is large enough for misspelling clustering to face thousands of distinct
// name keys: seeded random_party traffic, plus eight hand-typed campaign
// identities whose lead passenger recurs in a tenth of the bookings, half of
// the time with a one-character surname typo.
double measure_ns_name_patterns(int reps) {
  constexpr int kReservations = 4000;
  sim::Rng rng(13);
  std::vector<airline::Passenger> campaigns;
  for (int i = 0; i < 8; ++i) campaigns.push_back(workload::random_passenger(rng));
  std::vector<airline::Reservation> reservations;
  for (int i = 0; i < kReservations; ++i) {
    airline::Reservation r;
    r.pnr = "N";
    r.pnr += std::to_string(i);  // "N" + to_string trips gcc 12's -Wrestrict false positive
    r.passengers = workload::random_party(rng, 2);
    if (rng.bernoulli(0.1)) {
      airline::Passenger lead = rng.pick(campaigns);
      if (rng.bernoulli(0.5)) lead.surname = workload::misspell(rng, lead.surname);
      r.passengers.front() = std::move(lead);
    }
    reservations.push_back(std::move(r));
  }
  const detect::NamePatternAnalyzer analyzer;
  const auto sample = [&] {
    const auto t0 = GateClock::now();
    const auto findings = analyzer.analyze(reservations);
    const auto t1 = GateClock::now();
    benchmark::DoNotOptimize(findings);
    return elapsed_ns(t0, t1) / kReservations;
  };
  (void)sample();  // warmup
  return median_of(reps, sample);
}

// Wall ns per request to sessionize the detection window measure_detector_ns
// scores, [0, horizon) of the gate scenario's web log, read in place.
double measure_ns_sessionize(bool smoke, int reps) {
  const sim::SimTime horizon = smoke ? sim::hours(3) : sim::hours(6);
  scenario::EnvConfig config;
  config.seed = 7;
  scenario::Env env(config);
  env.add_flights("FS", 4, 180, sim::days(10));
  env.start_background(horizon);
  env.run_until(horizon);

  const web::Sessionizer sessionizer;
  const auto requests = env.app.weblog().all();
  const auto sample = [&] {
    const auto t0 = GateClock::now();
    const auto sessions = sessionizer.sessionize(requests, 0, horizon);
    const auto t1 = GateClock::now();
    benchmark::DoNotOptimize(sessions);
    return elapsed_ns(t0, t1) / static_cast<double>(std::max<std::size_t>(1, requests.size()));
  };
  (void)sample();  // warmup
  return median_of(reps, sample);
}

sim::SimTime gate_horizon(bool smoke) { return smoke ? sim::hours(2) : sim::hours(6); }

// The gate scenario built with traffic until its horizon, run to `until`.
std::unique_ptr<scenario::Env> gate_scenario(bool smoke, sim::SimTime until) {
  scenario::EnvConfig config;
  config.seed = 7;
  auto env = std::make_unique<scenario::Env>(config);
  env->add_flights("FS", 4, 180, sim::days(10));
  env->start_background(gate_horizon(smoke));
  env->run_until(until);
  return env;
}

// Wall ns per KiB of blob to write one restore point of `env`'s platform
// (actors, application, rule engine) as a Checkpoint frame.
double time_checkpoint_frame(scenario::Env& env, journal::RecordingJournal& recording) {
  const auto t0 = GateClock::now();
  util::ByteWriter state;
  env.actors.checkpoint(state);
  env.app.checkpoint(state);
  env.engine.checkpoint(state);
  recording.checkpoint_blob(env.sim.now(), state.bytes());
  const auto t1 = GateClock::now();
  return elapsed_ns(t0, t1) / (static_cast<double>(state.size()) / 1024.0);
}

// Opens a gate journal in the temp directory, hands it to `body`, then
// closes and removes it; any journal error exits the gate.
double with_gate_journal(const std::function<double(journal::RecordingJournal&)>& body) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "fraudsim-gate-checkpoint.journal").string();
  const auto check = [&path](const util::Status& status) {
    if (status.is_ok()) return;
    std::cerr << "[gate] checkpoint frame: " << status.error() << " (" << path << ")\n";
    std::exit(1);
  };
  journal::JournalWriter writer;
  check(writer.open(path, 7, 0));
  journal::RecordingJournal recording(writer);
  const double ns = body(recording);
  check(recording.status());
  check(writer.close());
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return ns;
}

// Wall ns per KiB of blob on the defence loop's restore-point path: the
// 6 h gate scenario's platform serialised from scratch and appended as a
// Checkpoint frame. Each sample first restores the platform from its own
// blob, outside the timer, so the append-only logs keep no encoding.
double measure_ns_checkpoint_frame(bool smoke, int reps) {
  const auto env = gate_scenario(smoke, gate_horizon(smoke));
  util::ByteWriter state;
  env->actors.checkpoint(state);
  env->app.checkpoint(state);
  env->engine.checkpoint(state);
  const std::string blob = state.take();
  return with_gate_journal([&](journal::RecordingJournal& recording) {
    const auto sample = [&] {
      util::ByteReader in(blob);
      env->actors.restore(in);
      env->app.restore(in);
      env->engine.restore(in);
      if (!in.exhausted()) {
        std::cerr << "[gate] checkpoint frame: platform restore failed\n";
        std::exit(1);
      }
      return time_checkpoint_frame(*env, recording);
    };
    (void)sample();  // warmup
    return median_of(reps, sample);
  });
}

// Wall ns per KiB of blob for the second and later restore points of one
// platform: the gate scenario checkpointed at its midpoint, then at `reps`
// even steps to its end. Each of those re-encodes only the requests and
// biometric records appended since the previous one.
double measure_ns_checkpoint_repeat(bool smoke, int reps) {
  const sim::SimTime horizon = gate_horizon(smoke);
  const auto env = gate_scenario(smoke, horizon / 2);
  return with_gate_journal([&](journal::RecordingJournal& recording) {
    (void)time_checkpoint_frame(*env, recording);  // the first restore point
    const sim::SimDuration step = (horizon - horizon / 2) / reps;
    return median_of(reps, [&] {
      env->run_until(env->sim.now() + step);
      return time_checkpoint_frame(*env, recording);
    });
  });
}

// Wall ns per delivered message through ShardedSimulation's barrier
// exchange: K=8 shards, a fixed mix of 1M messages queued between random
// shard pairs, and a handler that answers one in four with a reply delivered
// in a second round. The handler does fixed work per message (kHashRounds
// hashes), standing in for the state a real handler updates: a handler that
// does nothing is bound by reading the queued messages, and the parallel
// metric could not tell parallel delivery from serial. The work is sized so
// one barrier takes about half a second on one thread, long enough that
// waking the pool's parked workers does not decide the parallel figure on a
// host whose idle cores are slow to wake. Sends are queued
// outside the timer; the timed barrier drains empty shard queues, so the
// exchange is nearly all it measures. The engine is reused across samples, as
// a run reuses it across barriers, and the handler touches only its
// destination's sink, as the engine's handler contract requires once
// destinations are delivered on several threads.
double measure_ns_exchange_per_message(bool smoke, int reps, unsigned threads) {
  constexpr std::uint32_t kShards = 8;
  const std::uint64_t messages = smoke ? 100'000 : 1'000'000;
  sim::ShardedSimulation::Config config;
  config.shards = kShards;
  config.epoch = sim::kHour;
  config.threads = threads;
  sim::ShardedSimulation engine(config);
  struct alignas(64) Sink {
    std::uint64_t sum = 0;
  };
  std::vector<Sink> sink(kShards);
  constexpr int kHashRounds = 100;
  engine.set_message_handler([&](std::uint32_t dst, const sim::ShardMessage& msg) {
    std::uint64_t h = msg.a;
    for (int i = 0; i < kHashRounds; ++i) h = util::splitmix64(h ^ msg.b);
    sink[dst].sum += h;
    if (msg.type == 0 && (msg.a & 3) == 0) engine.send(dst, msg.src, 1, msg.a >> 2);
  });
  const auto sample = [&] {
    for (std::uint64_t i = 0; i < messages; ++i) {
      const std::uint64_t r = util::splitmix64(i);
      engine.send(static_cast<std::uint32_t>(r % kShards),
                  static_cast<std::uint32_t>((r >> 8) % kShards), 0, r >> 16, i);
    }
    const std::uint64_t before = engine.messages_delivered();
    const auto t0 = GateClock::now();
    engine.run_until(engine.now() + sim::kHour);
    const auto t1 = GateClock::now();
    return elapsed_ns(t0, t1) / static_cast<double>(engine.messages_delivered() - before);
  };
  (void)sample();  // warmup
  const double ns = median_of(reps, sample);
  benchmark::DoNotOptimize(sink.data());
  return ns;
}

// Wall ns per KiB for util::crc32 over a 4 MiB buffer (journal frames are
// checksummed whole, checkpoints being the large ones).
double measure_ns_crc32(int reps) {
  std::string bytes(std::size_t{4} << 20, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(util::splitmix64(i / 8) >> (8 * (i % 8)));
  }
  const auto sample = [&] {
    const auto t0 = GateClock::now();
    const std::uint32_t crc = util::crc32(bytes);
    const auto t1 = GateClock::now();
    benchmark::DoNotOptimize(crc);
    return elapsed_ns(t0, t1) / (static_cast<double>(bytes.size()) / 1024.0);
  };
  (void)sample();  // warmup
  return median_of(reps, sample);
}

int run_gate(const bench::Options& options) {
  const bool smoke = options.smoke;
  const int reps = smoke ? 3 : 5;
  const std::size_t admits = smoke ? 20'000 : 200'000;
  std::vector<std::pair<std::string, double>> metrics;

  std::cerr << "[gate] sim loop throughput...\n";
  metrics.emplace_back("sim_events_per_sec",
                       median_of(reps, [&] { return measure_events_per_sec(smoke); }));

  std::cerr << "[gate] admit path...\n";
  util::Arena::Stats arena{};
  metrics.emplace_back("ns_admit_full",
                       median_of(reps, [&] { return measure_ns_admit(admits, arena); }));
  metrics.emplace_back("arena_allocs_per_admit",
                       static_cast<double>(arena.allocations) / static_cast<double>(admits));
  metrics.emplace_back("arena_bytes_per_admit",
                       static_cast<double>(arena.bytes) / static_cast<double>(admits));
  metrics.emplace_back("arena_chunk_allocs", static_cast<double>(arena.chunk_allocs));

  std::cerr << "[gate] rate limiter...\n";
  metrics.emplace_back("ns_rate_limit_allow", measure_ns_rate_limit_allow(smoke, reps));

  std::cerr << "[gate] detector scoring...\n";
  for (auto& m : measure_detector_ns(smoke)) metrics.push_back(std::move(m));

  std::cerr << "[gate] name patterns at window scale...\n";
  metrics.emplace_back("ns_name_patterns_per_reservation", measure_ns_name_patterns(reps));

  std::cerr << "[gate] checkpoint frame...\n";
  metrics.emplace_back("ns_checkpoint_frame_per_kib", measure_ns_checkpoint_frame(smoke, reps));
  metrics.emplace_back("ns_checkpoint_repeat_per_kib", measure_ns_checkpoint_repeat(smoke, reps));

  std::cerr << "[gate] barrier exchange...\n";
  metrics.emplace_back("ns_exchange_per_message",
                       measure_ns_exchange_per_message(smoke, reps, /*threads=*/1));
  const unsigned exchange_threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  metrics.emplace_back("ns_exchange_parallel_per_message",
                       measure_ns_exchange_per_message(smoke, reps, exchange_threads));

  std::cerr << "[gate] crc32...\n";
  metrics.emplace_back("ns_crc32_per_kib", measure_ns_crc32(reps));

  std::cerr << "[gate] sessionize...\n";
  metrics.emplace_back("ns_sessionize_per_request", measure_ns_sessionize(smoke, reps));

  const std::string path = options.out_dir.empty() ? "BENCH_core.json" : options.out_dir;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return 1;
  }
  out << "{\n  \"schema\": \"fraudsim.bench.core.v1\",\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << "    \"" << metrics[i].first << "\": " << util::format_general(metrics[i].second, 6)
        << (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  out << "  },\n  \"meta\": {\n    \"smoke\": " << (smoke ? 1 : 0) << ",\n    \"reps\": " << reps
      << ",\n    \"admit_requests\": " << admits << "\n  }\n}\n";
  out.close();

  std::cout << "perf gate written to " << path << "\n";
  for (const auto& [name, value] : metrics) {
    std::printf("  %-28s %14.2f\n", name.c_str(), value);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::Options::parse(argc, argv);
  const bool gate = std::find(options.positional.begin(), options.positional.end(), "--gate") !=
                    options.positional.end();
  if (gate) return run_gate(options);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (obs::Profiler::instance().enabled()) run_profiled_scenario(options.metrics_out);
  return 0;
}
