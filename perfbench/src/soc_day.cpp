// soc_day: the paper's live case-study loop over one simulated day.
//
// scenario::Env at twice the default legitimate demand, plus a seat-spinning
// bot, an SMS-pumping bot and a 16-member organised ring. The entity graph is
// the admit-path tap and a RecordingJournal records every call. The benchmark
// drives the day in sim-hour slices; at each slice boundary it fits (6 h) or
// sweeps the mitigation controller and checkpoints the whole platform; the
// platform invariants are checked after each slice, outside its timing. After
// the day it reads the journal back and restores the last checkpoint into a
// freshly built platform.
#include <algorithm>
#include <array>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "case_study.hpp"
#include "core/detect/graph/entity_graph.hpp"
#include "core/detect/graph/graph_ingest.hpp"
#include "core/invariant/invariant.hpp"
#include "core/journal/recording.hpp"
#include "core/mitigate/controller.hpp"
#include "decorators.hpp"

namespace perfbench {
namespace {

using namespace fraudsim;

constexpr double kDemand = 2;  // times the default legitimate demand
constexpr sim::SimTime kFitAt = sim::hours(6);
enum Part : std::size_t { kActors, kApplication, kRules, kController, kGraph };

mitigate::ControllerConfig controller_config() {
  mitigate::ControllerConfig config;
  config.impose_nip_cap = true;
  config.disable_sms_on_path_trip = true;
  return config;
}

// The platform without its traffic: what a checkpoint covers. Built the same
// way for the live day and for the restore target.
struct Platform {
  Platform(std::uint64_t seed, sim::SimTime horizon)
      : env(case_study_config(seed, kDemand)),
        controller(env.app, env.engine, controller_config()),
        target(add_case_study_flights(env, case_study_config(seed, kDemand), horizon)) {}

  // Per-component blobs in restore order (kActors .. kGraph); the platform
  // checkpoint is their concatenation.
  std::array<std::string, 5> parts() const {
    std::array<util::ByteWriter, 5> out;
    env.actors.checkpoint(out[0]);
    env.app.checkpoint(out[1]);
    env.engine.checkpoint(out[2]);
    controller.checkpoint(out[3]);
    graph.checkpoint(out[4]);
    std::array<std::string, 5> blobs;
    for (std::size_t i = 0; i < out.size(); ++i) blobs[i] = out[i].take();
    return blobs;
  }
  std::string checkpoint() const {
    std::string blob;
    for (const std::string& part : parts()) blob += part;
    return blob;
  }
  bool restore(const std::string& blob) {
    util::ByteReader in(blob);
    env.actors.restore(in);
    env.app.restore(in);
    env.engine.restore(in);
    controller.restore(in);
    graph.restore(in);
    return in.exhausted();
  }

  scenario::Env env;
  mitigate::MitigationController controller;
  airline::FlightId target;
  detect::graph::EntityGraph graph;
};

struct Rep {
  SlicedRun timing;  // the live day by sim-hour, invariant checks excluded
  std::uint64_t calls = 0;
  std::uint64_t digest = 0;
  bool well_formed = false;
  bool journal_ok = false;
  bool frames_match = false;
  bool checkpoint_exact = false;
  bool checkpoint_equivalent = false;
  std::uint64_t violations = 0;
  std::uint64_t frames_read = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t denials = 0;
  std::uint64_t holds_ok = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t actions = 0;
  std::uint64_t events = 0;
  detect::graph::GraphStats graph_stats;
  std::size_t graph_nodes = 0;
  std::size_t graph_edges = 0;
  bool tracer_balanced = true;
};

Rep run_rep(const Options& options, sim::SimTime horizon, Tracer* tracer) {
  Rep rep;
  auto platform = std::make_unique<Platform>(options.seed, horizon);
  scenario::Env& env = platform->env;

  const std::string journal_path = options.out_dir + "/soc_day.fsj";
  journal::JournalWriter writer;
  const util::Status opened = writer.open(journal_path, options.seed, 0);
  journal::RecordingJournal recording(writer);
  std::uint64_t harness_records = 0;
  env.actors.set_observer([&](web::ActorId id, app::ActorKind kind) {
    recording.actor_registered(env.sim.now(), id, kind);
    ++harness_records;
  });

  Digest digest;
  CallWindow window(tracer);
  TimedPolicy policy(env.engine, tracer, &window);
  TimedJournal journal(recording, "journal.append", tracer, &digest);
  detect::graph::GraphIngest ingest(platform->graph);
  TimedJournal tap(ingest, "graph.ingest", tracer, nullptr, &window);
  env.app.set_policy(&policy);
  env.app.set_journal(&journal);
  env.app.set_tap(&tap);

  invariant::InvariantRegistry invariants;
  invariant::register_platform_invariants(invariants, env.app, &env.engine);
  invariant::register_graph_invariants(invariants, platform->graph, &env.app);

  AttackMix attacks(env, platform->target, horizon);

  // Traffic and the minute expiry sweep run as simulation events.
  env.legit->start(horizon);
  std::function<void()> expiry = [&] {
    recording.expiry_sweep(env.sim.now());
    ++harness_records;
    {
      const Scope sweep(tracer, "airline.expiry_sweep");
      env.apply_expiry_sweep();
    }
    if (env.sim.now() + sim::kMinute <= horizon) env.sim.schedule_in(sim::kMinute, expiry);
  };
  env.sim.schedule_in(sim::kMinute, expiry);
  attacks.start(env, horizon);

  // Each sim-hour is timed from the slice's first event to its checkpoint;
  // the benchmark's own invariant checks run after the timer stops.
  std::string last_checkpoint;
  for (sim::SimTime t = sim::kHour; t <= horizon; t += sim::kHour) {
    const std::int64_t h0 = now_ns();
    {
      const Scope slice(tracer, "sim.run_until");
      env.sim.run_until(t);
    }
    if (t == kFitAt) {
      recording.controller_fit(t, 0, t);
      ++harness_records;
      platform->controller.fit_nip_baseline(0, t);
    } else if (t > kFitAt) {
      recording.mitigation_sweep(t);
      ++harness_records;
      const std::size_t before = platform->controller.actions().size();
      {
        const Scope sweep(tracer, "mitigate.sweep");
        platform->controller.sweep();
      }
      for (std::size_t i = before; i < platform->controller.actions().size(); ++i) {
        const auto& action = platform->controller.actions()[i];
        recording.mitigation_action(action.time, action.kind, action.detail);
        ++harness_records;
      }
    }
    {
      const Scope write(tracer, "checkpoint.write");
      last_checkpoint = platform->checkpoint();
    }
    {
      const Scope frame(tracer, "journal.checkpoint_frame");
      recording.checkpoint_blob(t, last_checkpoint);
    }
    ++harness_records;
    const auto hour_ns = static_cast<double>(now_ns() - h0);
    const std::vector<double>& latency = window.latency_us();
    rep.timing.latency_us.insert(
        rep.timing.latency_us.end(),
        latency.begin() + static_cast<std::ptrdiff_t>(rep.timing.latency_us.size()), latency.end());
    rep.timing.end_slice(hour_ns);
    const Scope check(tracer, "invariant.check");
    invariants.check_all(t);
  }

  rep.calls = window.calls();
  rep.digest = digest.h;
  rep.well_formed = window.well_formed() && journal.calls() == rep.calls && tap.calls() == rep.calls;
  rep.violations = invariants.violations().size();
  rep.evaluations = policy.evaluations();
  rep.denials = policy.denials();
  rep.holds_ok = journal.holds_ok();
  rep.checkpoint_bytes = last_checkpoint.size();
  rep.sweeps = platform->controller.sweeps();
  rep.actions = platform->controller.actions().size();
  rep.events = env.sim.fired_events();
  rep.graph_stats = platform->graph.stats();
  rep.graph_nodes = platform->graph.node_count();
  rep.graph_edges = platform->graph.edge_count();

  const util::Status closed = writer.close();
  rep.journal_ok = opened.is_ok() && closed.is_ok() && recording.status().is_ok();
  {
    const Scope read(tracer, "journal.read");
    journal::JournalReader reader;
    rep.journal_ok = reader.open(journal_path).is_ok() && rep.journal_ok;
    rep.frames_read = reader.records().size();
  }
  rep.frames_match = rep.frames_read == journal.calls() + harness_records;
  std::error_code ec;
  rep.journal_bytes = std::filesystem::file_size(journal_path, ec);
  std::filesystem::remove(journal_path, ec);

  // checkpoint -> restore into a fresh platform -> checkpoint. Actors,
  // controller and graph must come back byte for byte. The application and
  // the rule engine serialise hash containers in bucket order (issued PNRs,
  // boarding-SMS counts per PNR, the fingerprint blocklist), which a restore
  // does not reproduce; for those the check is the same bytes in some order.
  auto fresh = std::make_unique<Platform>(options.seed, horizon);
  bool restored = false;
  {
    const Scope restore(tracer, "checkpoint.restore");
    restored = fresh->restore(last_checkpoint);
  }
  auto before = platform->parts();
  auto after = fresh->parts();
  rep.checkpoint_exact = restored;
  rep.checkpoint_equivalent = restored;
  for (const std::size_t i : {kActors, kController, kGraph}) {
    rep.checkpoint_exact = rep.checkpoint_exact && before[i] == after[i];
  }
  for (const std::size_t i : {kApplication, kRules}) {
    std::sort(before[i].begin(), before[i].end());
    std::sort(after[i].begin(), after[i].end());
    rep.checkpoint_equivalent = rep.checkpoint_equivalent && before[i] == after[i];
  }
  if (tracer != nullptr) rep.tracer_balanced = tracer->balanced();
  return rep;
}

}  // namespace

Result run_soc_day(const Options& options) {
  const sim::SimTime horizon = options.smoke ? sim::hours(8) : sim::days(1);
  // One build takes about 1 ms, too short to time alone: each set-up sample
  // is the mean of a batch of builds, and setup_s the median batch.
  constexpr int kSetupBatches = 9;
  constexpr int kBuildsPerBatch = 40;
  Result r;

  // Set-up time: building the platform (environment, schedule, controller,
  // graph) and the attackers.
  std::vector<double> setup;
  for (int b = 0; b < kSetupBatches; ++b) {
    const std::int64_t s0 = now_ns();
    for (int i = 0; i < kBuildsPerBatch; ++i) {
      const auto platform = std::make_unique<Platform>(options.seed, horizon);
      const AttackMix attacks(platform->env, platform->target, horizon);
    }
    setup.push_back(static_cast<double>(now_ns() - s0) / 1e9 / kBuildsPerBatch);
  }
  // No warm-up day: a cold first pass only loses the fastest-hour choice to
  // the later ones.
  std::vector<Rep> reps;
  const int n = repeat_for(options.seconds, 4, 16,
                           [&](int) { reps.push_back(run_rep(options, horizon, nullptr)); });

  std::vector<double> throughput;  // per repetition, for the report
  std::vector<const SlicedRun*> measured;
  bool digests_equal = true;
  bool well_formed = true;
  bool journal_ok = true;
  bool frames_match = true;
  bool exact = true;
  bool equivalent = true;
  std::uint64_t violations = 0;
  const auto tally = [&](const Rep& rep) {
    digests_equal = digests_equal && rep.digest == reps.front().digest;
    well_formed = well_formed && rep.well_formed;
    journal_ok = journal_ok && rep.journal_ok;
    frames_match = frames_match && rep.frames_match;
    exact = exact && rep.checkpoint_exact;
    equivalent = equivalent && rep.checkpoint_equivalent;
    violations += rep.violations;
  };
  for (const Rep& rep : reps) {
    tally(rep);
    r.attempted += rep.calls;
    r.failed += rep.violations + (rep.journal_ok ? 0 : 1);
    throughput.push_back(static_cast<double>(rep.calls) / rep.timing.seconds());
    measured.push_back(&rep.timing);
  }
  const SlicedRun fastest = fastest_slices(measured);

  if (options.trace) {
    Tracer tracer;
    const Rep traced = run_rep(options, horizon, &tracer);
    tally(traced);
    const auto layers = tracer.layer_times();
    const auto layer = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? Tracer::LayerTime{} : it->second;
    };
    const auto mean_ns = [&](const char* name) {
      const auto t = layer(name);
      return t.calls == 0 ? 0.0 : static_cast<double>(t.total_ns) / static_cast<double>(t.calls);
    };
    std::vector<double> sweeps_ms;
    for (const Span& s : tracer.spans()) {
      if (std::string_view(s.name) == "mitigate.sweep") {
        sweeps_ms.push_back(static_cast<double>(s.end - s.start) / 1e6);
      }
    }
    const auto call = layer("app.call");
    r.metrics["app.self_ns"] =
        call.calls == 0 ? 0.0 : static_cast<double>(call.self_ns) / static_cast<double>(call.calls);
    r.metrics["mitigate.evaluate_ns"] = mean_ns("mitigate.evaluate");
    r.metrics["mitigate.evaluations"] = static_cast<double>(traced.evaluations);
    r.metrics["mitigate.deny_ratio"] = static_cast<double>(traced.denials) /
                                       static_cast<double>(std::max<std::uint64_t>(1, traced.evaluations));
    r.metrics["airline.expiry_sweep_ms"] = mean_ns("airline.expiry_sweep") / 1e6;
    r.metrics["airline.holds_ok"] = static_cast<double>(traced.holds_ok);
    r.metrics["journal.append_ns"] = mean_ns("journal.append");
    r.metrics["journal.bytes_per_call"] =
        static_cast<double>(traced.journal_bytes) / static_cast<double>(traced.frames_read + 1);
    r.metrics["journal.read_ms"] = mean_ns("journal.read") / 1e6;
    r.metrics["journal.frames"] = static_cast<double>(traced.frames_read);
    r.metrics["graph.ingest_ns"] = mean_ns("graph.ingest");
    r.metrics["graph.nodes"] = static_cast<double>(traced.graph_nodes);
    r.metrics["graph.edges"] = static_cast<double>(traced.graph_edges);
    r.metrics["graph.nodes_evicted"] = static_cast<double>(traced.graph_stats.nodes_evicted);
    r.metrics["graph.maintenance_runs"] = static_cast<double>(traced.graph_stats.maintenance_runs);
    r.metrics["mitigate.sweep_ms"] = median(sweeps_ms);
    r.metrics["mitigate.sweeps"] = static_cast<double>(traced.sweeps);
    r.metrics["mitigate.actions"] = static_cast<double>(traced.actions);
    r.metrics["checkpoint.write_ms"] = mean_ns("checkpoint.write") / 1e6;
    r.metrics["checkpoint.bytes"] = static_cast<double>(traced.checkpoint_bytes);
    r.metrics["checkpoint.restore_ms"] = mean_ns("checkpoint.restore") / 1e6;
    r.metrics["sim.self_s"] = static_cast<double>(layer("sim.run_until").self_ns) / 1e9;
    r.metrics["sim.events"] = static_cast<double>(traced.events);

    std::vector<double> days;
    for (const SlicedRun* run : measured) days.push_back(run->seconds());
    r.metrics["trace.overhead"] = traced.timing.seconds() / median(days) - 1.0;
    std::int64_t top = 0;
    for (const Span& s : tracer.spans()) {
      const std::string_view name(s.name);
      if (s.parent < 0 && name != "journal.read" && name != "checkpoint.restore" &&
          name != "invariant.check") {
        top += s.end - s.start;
      }
    }
    r.metrics["trace.named_share"] = static_cast<double>(top) / (traced.timing.seconds() * 1e9);
    r.metrics["trace.spans"] = static_cast<double>(tracer.spans().size());
    r.check("tracer spans balanced", traced.tracer_balanced);
    r.check("span dump written", tracer.dump(options.out_dir + "/spans-soc_day.jsonl", "soc_day"));
  } else {
    r.metrics["setup_s"] = median(setup);
    r.metrics["ops_per_sec"] = static_cast<double>(fastest.latency_us.size()) / fastest.seconds();
    r.metrics["op_p50_us"] = percentile(fastest.latency_us, 50);
    r.metrics["op_p99_us"] = percentile(fastest.latency_us, 99);
  }

  r.check("outcome digest equal on every repetition", digests_equal);
  r.check("policy and hooks bracket every facade call once", well_formed);
  r.check("journal status ok", journal_ok);
  r.check("journal frames == calls + harness records", frames_match);
  r.check("checkpoint -> restore -> checkpoint: actors, controller, graph byte-identical", exact);
  r.check("checkpoint -> restore -> checkpoint: application, rules same bytes up to hash order",
          equivalent);
  r.check("zero platform and graph invariant violations", violations == 0);
  r.facts["repetitions"] = std::to_string(n);
  r.facts["ops_per_sec_by_repetition"] = join(throughput);
  r.facts["setups"] = std::to_string(kSetupBatches) + " batches of " + std::to_string(kBuildsPerBatch);
  r.facts["setup_s_by_batch"] = join(setup);
  r.facts["sim_hours"] = std::to_string(horizon / sim::kHour);
  r.facts["calls_per_repetition"] = std::to_string(reps.front().calls);
  r.facts["latency_samples"] = std::to_string(fastest.latency_us.size());
  r.facts["threads"] = "1";
  r.facts["ops"] = "facade requests";
  return r;
}

}  // namespace perfbench
