#include "core/scenario/replay_harness.hpp"

#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "app/export.hpp"
#include "core/detect/graph/graph_ingest.hpp"
#include "core/detect/pipeline.hpp"
#include "core/fault/crash.hpp"
#include "core/fault/fault.hpp"
#include "core/journal/recording.hpp"
#include "core/recover/manifest.hpp"
#include "core/scenario/soc_report.hpp"
#include "util/file.hpp"
#include "util/hash.hpp"

namespace fraudsim::scenario {

namespace {

// Everything one mode needs: the platform plus its mitigation controller,
// wired exactly the same way in record, replay and rescore.
struct Platform {
  std::unique_ptr<Env> env;
  std::unique_ptr<mitigate::MitigationController> controller;
  std::vector<airline::FlightId> flights;
  // Flash-crowd surge generators (live modes only; owned here so their
  // scheduled arrivals stay valid for the whole run).
  std::vector<std::unique_ptr<workload::LegitTraffic>> surges;
  // Entity graph + its admit-path tap (config.graph.enabled only). Attached
  // in EVERY mode — record, replay, rescore, baseline — so the graph grows
  // from the identical facade-event stream live and during a journal walk.
  std::unique_ptr<detect::graph::EntityGraph> graph;
  std::unique_ptr<detect::graph::GraphIngest> graph_ingest;
};

Platform build_platform(const RecordedScenarioConfig& config,
                        const RescoreCandidate* candidate = nullptr) {
  EnvConfig env_config;
  env_config.seed = config.seed;
  env_config.legit = config.legit;
  env_config.application.overload = config.overload;
  Platform p;
  p.env = std::make_unique<Env>(env_config);
  p.flights = p.env->add_flights("FS", config.flights, config.capacity, config.departure);
  for (const auto& spec : config.rate_limits) p.env->engine.add_rate_limit(spec);
  p.env->engine.set_challenge_mode(config.challenge_mode);
  mitigate::ControllerConfig controller_config = config.controller;
  if (candidate != nullptr && candidate->controller) controller_config = *candidate->controller;
  p.controller = std::make_unique<mitigate::MitigationController>(p.env->app, p.env->engine,
                                                                  controller_config);
  if (candidate != nullptr && candidate->configure_engine) {
    candidate->configure_engine(p.env->engine);
  }
  if (config.graph.enabled) {
    p.graph = std::make_unique<detect::graph::EntityGraph>(config.graph.graph);
    p.graph_ingest = std::make_unique<detect::graph::GraphIngest>(*p.graph);
    p.env->app.set_tap(p.graph_ingest.get());
  }
  return p;
}

// The scripted seat-spin attacker: waves of bulk holds that are never paid,
// starting on a naive instrumented browser (automation artifacts visible)
// and rotating to spoofed population look-alikes once blocked — the §IV-A
// adaptation loop, scripted so the whole run is journalable.
class SeatSpinScript {
 public:
  SeatSpinScript(Env& env, const RecordedScenarioConfig& config,
                 std::vector<airline::FlightId> flights)
      : env_(env),
        config_(config),
        flights_(std::move(flights)),
        rng_(env.rng.fork("seat-spin-script")),
        actor_(env.actors.register_actor(app::ActorKind::SeatSpinBot)) {
    rotate_identity();
  }

  void start() {
    env_.sim.schedule_at(config_.attacker_start, [this] { wave(); });
  }

 private:
  void wave() {
    for (int i = 0; i < config_.attacker_holds_per_wave; ++i) {
      const auto flight =
          flights_[static_cast<std::size_t>(rng_.uniform_int(
              0, static_cast<std::int64_t>(flights_.size()) - 1))];
      const app::ClientContext ctx = context();
      (void)env_.app.browse(ctx, web::Endpoint::SearchFlights);
      (void)env_.app.quote_fare(ctx, flight);
      const auto result = env_.app.hold(ctx, flight, make_party());
      if (result.status == app::CallStatus::Blocked ||
          result.status == app::CallStatus::RateLimited) {
        rotate_identity();
      }
    }
    if (env_.sim.now() + config_.attacker_period < config_.horizon) {
      env_.sim.schedule_in(config_.attacker_period, [this] { wave(); });
    }
  }

  [[nodiscard]] app::ClientContext context() const {
    app::ClientContext ctx;
    ctx.ip = ip_;
    ctx.session = session_;
    ctx.fingerprint = fingerprint_;
    ctx.actor = actor_;
    return ctx;
  }

  void rotate_identity() {
    fingerprint_ = rotations_ == 0 ? env_.population.sample_naive_bot(rng_)
                                   : env_.population.sample_spoofed(rng_, fp::SpoofOptions{});
    ip_ = net::IpV4{static_cast<std::uint32_t>(0x2D000000u) +
                    static_cast<std::uint32_t>(rng_.uniform_int(0, 0xFFFF))};
    // High session band: never collides with the legit generator's ids.
    session_ = web::SessionId{0x0100'0000'0000'0000ull + ++rotations_};
  }

  [[nodiscard]] std::vector<airline::Passenger> make_party() {
    std::vector<airline::Passenger> party;
    party.reserve(static_cast<std::size_t>(config_.attacker_party));
    for (int i = 0; i < config_.attacker_party; ++i) {
      airline::Passenger p;
      p.first_name = rng_.random_lowercase(6);
      p.surname = rng_.random_lowercase(8);
      p.birthdate = airline::Date{1970 + static_cast<int>(rng_.uniform_int(0, 35)),
                                  1 + static_cast<int>(rng_.uniform_int(0, 11)),
                                  1 + static_cast<int>(rng_.uniform_int(0, 27))};
      p.email = p.first_name + "@spin.example";
      party.push_back(std::move(p));
    }
    return party;
  }

  Env& env_;
  const RecordedScenarioConfig& config_;
  std::vector<airline::FlightId> flights_;
  sim::Rng rng_;
  web::ActorId actor_;
  fp::Fingerprint fingerprint_;
  net::IpV4 ip_;
  web::SessionId session_;
  std::uint64_t rotations_ = 0;
};

void schedule_expiry_loop(Env& env, const RecordedScenarioConfig& config,
                          journal::RecordingJournal* recording, sim::SimDuration period) {
  if (env.sim.now() + period > config.horizon) return;
  env.sim.schedule_in(period, [&env, &config, recording, period] {
    if (recording != nullptr) recording->expiry_sweep(env.sim.now());
    env.apply_expiry_sweep();
    schedule_expiry_loop(env, config, recording, period);
  });
}

void run_recorded_sweep(Env& env, mitigate::MitigationController& controller,
                        journal::RecordingJournal* recording) {
  if (recording != nullptr) recording->mitigation_sweep(env.sim.now());
  const std::size_t before = controller.actions().size();
  controller.sweep();
  if (recording != nullptr) {
    for (std::size_t i = before; i < controller.actions().size(); ++i) {
      const auto& action = controller.actions()[i];
      recording->mitigation_action(action.time, action.kind, action.detail);
    }
  }
}

void schedule_sweep_loop(Env& env, mitigate::MitigationController& controller,
                         const RecordedScenarioConfig& config,
                         journal::RecordingJournal* recording) {
  if (env.sim.now() + config.controller.sweep_interval > config.horizon) return;
  env.sim.schedule_in(config.controller.sweep_interval,
                      [&env, &controller, &config, recording] {
                        run_recorded_sweep(env, controller, recording);
                        schedule_sweep_loop(env, controller, config, recording);
                      });
}

void schedule_mitigation(Env& env, mitigate::MitigationController& controller,
                         const RecordedScenarioConfig& config,
                         journal::RecordingJournal* recording) {
  env.sim.schedule_at(config.controller_fit_at, [&env, &controller, &config, recording] {
    const sim::SimTime now = env.sim.now();
    if (recording != nullptr) recording->controller_fit(now, 0, now);
    controller.fit_nip_baseline(0, now);
    schedule_sweep_loop(env, controller, config, recording);
  });
}

// Full platform state, in one fixed order for the checkpoints a recording
// embeds and the restore replay anchors on. The fault registry rides along
// so armed chaos schedules (and their EveryNth / OnNth / Burst cursors)
// survive a checkpoint-anchored restore exactly like every other piece of
// platform state.
template <class Ar>
void visit_platform(Platform& p, Ar& ar) {
  ar(p.env->actors, p.env->app, p.env->engine, *p.controller, fault::FaultRegistry::global());
  // Graph state rides last, and ONLY when the subsystem is enabled: the
  // default-off blob layout stays byte-identical to pre-graph journals.
  if (p.graph != nullptr) ar(*p.graph);
}

// `on_checkpoint` runs after the blob is journalled — the hook record_run_dir
// uses to duplicate each checkpoint as an atomic sidecar.
void schedule_checkpoint_loop(
    Platform& p, const RecordedScenarioConfig& config, journal::RecordingJournal& recording,
    const std::function<void(sim::SimTime, const std::string&)>& on_checkpoint) {
  Env& env = *p.env;
  if (config.checkpoint_every <= 0) return;
  if (env.sim.now() + config.checkpoint_every > config.horizon) return;
  env.sim.schedule_in(config.checkpoint_every,
                      [&p, &env, &config, &recording, on_checkpoint] {
                        util::ByteWriter state;
                        visit_platform(p, state);
                        const std::string blob = state.take();
                        recording.checkpoint_blob(env.sim.now(), blob);
                        on_checkpoint(env.sim.now(), blob);
                        schedule_checkpoint_loop(p, config, recording, on_checkpoint);
                      });
}

// Artifact production must be one code path for every mode: record and
// replay call exactly this, so "byte-identical artifacts" compares the runs,
// not the exporters.
RunArtifacts make_artifacts(Platform& p, const RecordedScenarioConfig& config) {
  RunArtifacts artifacts;
  artifacts.metrics = p.env->app.metrics().snapshot();
  std::ostringstream metrics;
  artifacts.metrics.write_csv(metrics);
  artifacts.metrics_csv = metrics.str();

  // Graph-off artifacts must stay byte-identical to a build without the
  // subsystem: no component column, no SOC section, default pipeline.
  std::ostringstream weblog;
  if (p.graph != nullptr) {
    const detect::graph::EntityGraph& graph = *p.graph;
    (void)app::export_weblog_csv(weblog, p.env->app.weblog().all(),
                                 [&graph](const web::HttpRequest& r) -> std::uint64_t {
                                   const auto id = graph.find(
                                       detect::graph::NodeType::Session, r.session.str());
                                   return id == 0 ? 0 : graph.component_of(id);
                                 });
  } else {
    (void)app::export_weblog_csv(weblog, p.env->app.weblog().all());
  }
  artifacts.weblog_csv = weblog.str();

  detect::PipelineConfig pipeline_config;  // defaults, untrained: deterministic
  pipeline_config.graph = config.graph.detector;
  detect::DetectionPipeline pipeline(pipeline_config);
  std::unique_ptr<detect::graph::GraphDetector> graph_view;
  if (p.graph != nullptr) {
    pipeline.enable_graph(*p.graph);
    // A second instance over the same graph + config scores components
    // identically to the pipeline's own detector; the report only reads it.
    graph_view = std::make_unique<detect::graph::GraphDetector>(*p.graph,
                                                                config.graph.detector);
  }
  const auto detection = pipeline.run(p.env->app, p.env->actors, 0, config.horizon);
  artifacts.soc_report = render_soc_report(SocReportInputs{
      p.env->app, p.env->actors, detection, 0, config.horizon, p.controller->actions(),
      graph_view.get()});
  return artifacts;
}

// Live runs own invariant binding: the registry is reset and the standard
// platform conditions are registered against THIS run's application, so a
// recovery re-record (second live run on one registry) never double-counts or
// dangles into the previous platform instance.
void begin_live_invariants(Platform& p, const RecordedScenarioConfig& config) {
  if (config.invariants == nullptr) return;
  config.invariants->reset();
  invariant::register_platform_invariants(*config.invariants, p.env->app, &p.env->engine);
  if (p.graph != nullptr) {
    // The tap is attached before any traffic starts, so full event
    // reconciliation against the application's request counter applies.
    invariant::register_graph_invariants(*config.invariants, *p.graph, &p.env->app);
  }
}

// Epoch barriers: at a fixed cadence the (optional) test hook runs, then every
// registered invariant is evaluated. Checks are pure observers, so the extra
// events never change the run they are judging.
void schedule_barrier_loop(Env& env, const RecordedScenarioConfig& config) {
  if (config.invariants == nullptr || config.invariant_barrier_every <= 0) return;
  if (env.sim.now() + config.invariant_barrier_every > config.horizon) return;
  env.sim.schedule_in(config.invariant_barrier_every, [&env, &config] {
    if (config.barrier_hook) config.barrier_hook(env.app, env.sim.now());
    (void)config.invariants->check_all(env.sim.now());
    schedule_barrier_loop(env, config);
  });
}

// End-of-run barrier + violation export into the artifacts. Runs after
// make_artifacts so a hook-corrupted final state never shifts the exported
// metrics — only the verdict.
void finish_live_invariants(Platform& p, const RecordedScenarioConfig& config,
                            RunArtifacts& artifacts) {
  if (config.invariants == nullptr) return;
  if (config.barrier_hook) config.barrier_hook(p.env->app, config.horizon);
  (void)config.invariants->check_all(config.horizon);
  artifacts.violations = config.invariants->violations();
  artifacts.invariant_checks = config.invariants->checks_run();
}

void start_traffic(Platform& p, const RecordedScenarioConfig& config,
                   std::unique_ptr<SeatSpinScript>& attacker,
                   journal::RecordingJournal* recording) {
  Env& env = *p.env;
  schedule_expiry_loop(env, config, recording, sim::minutes(1));
  if (config.mitigation_enabled) {
    schedule_mitigation(env, *p.controller, config, recording);
  }
  if (config.legit_enabled) env.legit->start(config.horizon);
  if (config.attacker_enabled) {
    attacker = std::make_unique<SeatSpinScript>(env, config, p.flights);
    attacker->start();
  }
  // Flash-crowd phases: extra legit generators scaled from the baseline
  // demand, each on its own forked stream (forking consumes no parent-stream
  // state, so configs without phases stay byte-identical).
  for (std::size_t i = 0; i < config.traffic_phases.size(); ++i) {
    const auto& phase = config.traffic_phases[i];
    if (phase.from >= config.horizon || phase.to <= phase.from) continue;
    workload::LegitTrafficConfig surge_config = config.legit;
    surge_config.booking_sessions_per_hour *= phase.intensity;
    surge_config.browse_sessions_per_hour *= phase.intensity;
    surge_config.otp_logins_per_hour *= phase.intensity;
    auto surge = std::make_unique<workload::LegitTraffic>(
        env.app, env.geo, env.actors, surge_config,
        env.rng.fork("chaos-crowd-" + std::to_string(i)));
    workload::LegitTraffic* raw = surge.get();
    const sim::SimTime until = phase.to < config.horizon ? phase.to : config.horizon;
    env.sim.schedule_at(phase.from, [raw, until] { raw->start(until); });
    p.surges.push_back(std::move(surge));
  }
  schedule_barrier_loop(env, config);
}

[[nodiscard]] bool denied(app::CallStatus status) {
  return status == app::CallStatus::Blocked || status == app::CallStatus::Challenged ||
         status == app::CallStatus::RateLimited || status == app::CallStatus::Overloaded;
}

// What replaying one record saw: the actor; for a call that was served or
// denied (a verdict), whether the recording and the replay denied it; and
// the first outcome field that differs from the recording ("" when none).
struct Replayed {
  web::ActorId actor;
  bool verdict = false;
  bool was_denied = false;
  bool now_denied = false;
  std::string mismatch;
};

// The one replay dispatcher: decodes `record`, re-invokes the platform as the
// live run did and reports what it saw in `seen`; false when the payload does
// not decode. The caller has already advanced sim time to record.time.
// replay_run (and through it recover_run) fails on a mismatch;
// shadow_rescore scores the verdicts.
[[nodiscard]] bool replay_record(Platform& p, const journal::Record& record, Replayed& seen) {
  Env& env = *p.env;
  util::ByteReader in(record.fields);
  const auto read = [&in](auto& fields) {
    in(fields);
    return in.ok();
  };
  const auto verdict = [&seen](web::ActorId actor, bool was_denied, bool now_denied) {
    seen.actor = actor;
    seen.verdict = true;
    seen.was_denied = was_denied;
    seen.now_denied = now_denied;
  };
  switch (record.kind) {
    case journal::RecordKind::ActorRegistered: {
      journal::ActorRecord r{};
      if (!read(r)) break;
      seen.actor = r.id;
      if (const auto id = env.actors.register_actor(r.kind); id != r.id) {
        seen.mismatch = "actor id " + id.str() + " != recorded " + r.id.str();
      }
      break;
    }
    case journal::RecordKind::Browse: {
      journal::BrowseRecord r{};
      if (!read(r)) break;
      const auto status = env.app.browse(r.ctx, r.endpoint, r.method);
      verdict(r.ctx.actor, denied(r.result), denied(status));
      if (status != r.result) seen.mismatch = "browse status differs";
      break;
    }
    case journal::RecordKind::Hold: {
      journal::HoldRecord r{};
      if (!read(r)) break;
      const auto result = env.app.hold(r.ctx, r.flight, std::move(r.passengers));
      // A decoyed hold is neutralised even though the caller saw success.
      verdict(r.ctx.actor, denied(r.status) || r.decoy, denied(result.status) || result.decoy);
      if (result.status != r.status || result.pnr != r.pnr || result.decoy != r.decoy) {
        seen.mismatch = "hold outcome differs (pnr " + result.pnr + " vs " + r.pnr + ")";
      }
      break;
    }
    case journal::RecordKind::QuoteFare: {
      journal::QuoteFareRecord r{};
      if (!read(r)) break;
      if (env.app.quote_fare(r.ctx, r.flight) != r.fare) seen.mismatch = "fare quote differs";
      break;
    }
    case journal::RecordKind::Pay: {
      journal::PayRecord r{};
      if (!read(r)) break;
      const auto status = env.app.pay(r.ctx, r.pnr);
      verdict(r.ctx.actor, denied(r.result), denied(status));
      if (status != r.result) seen.mismatch = "pay status differs";
      break;
    }
    case journal::RecordKind::RequestOtp: {
      journal::RequestOtpRecord r{};
      if (!read(r)) break;
      const auto result = env.app.request_otp(r.ctx, r.account, r.number);
      verdict(r.ctx.actor, denied(r.status), denied(result.status));
      if (result.status != r.status || result.code != r.code) {
        seen.mismatch = "otp request differs";
      }
      break;
    }
    case journal::RecordKind::VerifyOtp: {
      journal::VerifyOtpRecord r{};
      if (!read(r)) break;
      if (env.app.verify_otp(r.ctx, r.account, r.code) != r.result) {
        seen.mismatch = "otp verify differs";
      }
      break;
    }
    case journal::RecordKind::RetrieveBooking: {
      journal::RetrieveBookingRecord r{};
      if (!read(r)) break;
      const auto view = env.app.retrieve_booking(r.ctx, r.pnr);
      if (view.found != r.found || view.held != r.held || view.ticketed != r.ticketed) {
        seen.mismatch = "booking view differs";
      }
      break;
    }
    case journal::RecordKind::BoardingSms: {
      journal::BoardingSmsRecord r{};
      if (!read(r)) break;
      const auto result = env.app.request_boarding_sms(r.ctx, r.pnr, r.number);
      verdict(r.ctx.actor, denied(r.status), denied(result.status));
      if (result.status != r.status || result.detail != r.detail) {
        seen.mismatch = "boarding sms differs";
      }
      break;
    }
    case journal::RecordKind::BoardingEmail: {
      journal::BoardingEmailRecord r{};
      if (!read(r)) break;
      const auto status = env.app.request_boarding_email(r.ctx, r.pnr);
      verdict(r.ctx.actor, denied(r.result), denied(status));
      if (status != r.result) seen.mismatch = "boarding email differs";
      break;
    }
    case journal::RecordKind::ExpirySweep:
      env.apply_expiry_sweep();
      break;
    case journal::RecordKind::MitigationSweep:
      run_recorded_sweep(env, *p.controller, nullptr);
      break;
    case journal::RecordKind::ControllerFit: {
      journal::ControllerFitRecord r{};
      if (!read(r)) break;
      p.controller->fit_nip_baseline(r.from, r.to);
      break;
    }
    case journal::RecordKind::MitigationAction:  // informational ledger copy
    case journal::RecordKind::Checkpoint:        // restore point, not an event
    case journal::RecordKind::Header:
      break;
  }
  return in.ok();
}

// The live-recording body record_run and record_run_dir share: runs `config`
// with every call journalled to `journal_path` and hands each embedded
// checkpoint to `on_checkpoint` (may be null). Fails with the first failure
// the hook returned, after the journal is closed and before any artifact is
// made.
using CheckpointHook = std::function<util::Status(sim::SimTime, const std::string&)>;

util::Result<RunArtifacts> record_live(const RecordedScenarioConfig& config,
                                       const std::string& journal_path,
                                       const CheckpointHook& on_checkpoint) {
  using R = util::Result<RunArtifacts>;
  Platform p = build_platform(config);
  begin_live_invariants(p, config);
  Env& env = *p.env;

  journal::JournalWriter writer;
  if (auto s = writer.open(journal_path, config.seed, config_digest(config)); !s.is_ok()) {
    return R::fail(s.code(), s.error());
  }
  journal::RecordingJournal recording(writer);
  env.app.set_journal(&recording);
  env.actors.set_observer([&env, &recording](web::ActorId id, app::ActorKind kind) {
    recording.actor_registered(env.sim.now(), id, kind);
  });

  std::unique_ptr<SeatSpinScript> attacker;
  start_traffic(p, config, attacker, &recording);
  util::Status hook_status = util::Status::ok();
  schedule_checkpoint_loop(p, config, recording,
                           [&on_checkpoint, &hook_status](sim::SimTime now,
                                                          const std::string& blob) {
                             if (!on_checkpoint) return;
                             util::Status s = on_checkpoint(now, blob);
                             if (hook_status.is_ok()) hook_status = std::move(s);
                           });
  env.run_until(config.horizon);

  env.app.set_journal(nullptr);
  env.actors.set_observer(nullptr);
  if (!recording.status().is_ok()) {
    return R::fail(recording.status().code(), recording.status().error());
  }
  if (auto s = writer.close(); !s.is_ok()) return R::fail(s.code(), s.error());
  if (!hook_status.is_ok()) return R::fail(hook_status.code(), hook_status.error());
  RunArtifacts artifacts = make_artifacts(p, config);
  finish_live_invariants(p, config, artifacts);
  return R::ok(std::move(artifacts));
}

// replay_run's body over an opened reader whose header matched `config`.
util::Result<RunArtifacts> replay_records(const RecordedScenarioConfig& config,
                                          const journal::JournalReader& reader,
                                          ReplayOptions options) {
  using R = util::Result<RunArtifacts>;
  Platform p = build_platform(config);
  Env& env = *p.env;
  const auto& records = reader.records();

  std::size_t start = 0;
  if (options.from_last_checkpoint) {
    for (std::size_t i = records.size(); i-- > 0;) {
      if (records[i].kind != journal::RecordKind::Checkpoint) continue;
      env.sim.run_until(records[i].time);
      journal::CheckpointRecord checkpoint{};
      util::ByteReader fields(records[i].fields);
      fields(checkpoint);
      util::ByteReader state(checkpoint.blob);
      visit_platform(p, state);
      if (!state.ok()) {
        return R::fail(util::ErrorCode::kJournalCorrupt, "replay: checkpoint blob truncated");
      }
      start = i + 1;
      break;
    }
  }

  for (std::size_t i = start; i < records.size(); ++i) {
    const auto& record = records[i];
    env.sim.run_until(record.time);
    Replayed seen;
    if (!replay_record(p, record, seen)) {
      return R::fail(util::ErrorCode::kJournalCorrupt,
                     "replay: undecodable payload in record " + std::to_string(i));
    }
    if (!seen.mismatch.empty()) {
      return R::fail(util::ErrorCode::kCheckpointMismatch,
                     "replay diverged at record " + std::to_string(i) + " (" +
                         journal::to_string(record.kind) + ", t=" + std::to_string(record.time) +
                         "): " + seen.mismatch);
    }
  }
  env.sim.run_until(config.horizon);
  return R::ok(make_artifacts(p, config));
}

}  // namespace

std::uint64_t config_digest(const RecordedScenarioConfig& config) {
  util::ByteWriter w;
  w.u64(config.seed);
  w.i64(config.horizon);
  w.i64(static_cast<std::int64_t>(config.flights));
  w.i64(static_cast<std::int64_t>(config.capacity));
  w.i64(config.departure);
  w.boolean(config.legit_enabled);
  w.f64(config.legit.booking_sessions_per_hour);
  w.f64(config.legit.browse_sessions_per_hour);
  w.f64(config.legit.otp_logins_per_hour);
  w.f64(config.legit.p_convert);
  w.i64(config.legit.mean_pay_delay);
  w.f64(config.legit.p_boarding_sms);
  w.f64(config.legit.p_boarding_email);
  w.f64(config.legit.p_solve_captcha);
  w.f64(config.legit.diurnal_amplitude);
  w.boolean(config.attacker_enabled);
  w.i64(config.attacker_start);
  w.i64(config.attacker_period);
  w.i64(static_cast<std::int64_t>(config.attacker_party));
  w.i64(static_cast<std::int64_t>(config.attacker_holds_per_wave));
  w.boolean(config.mitigation_enabled);
  w.i64(config.controller_fit_at);
  w.i64(config.controller.sweep_interval);
  w.i64(config.controller.analysis_window);
  w.boolean(config.controller.block_flagged_fingerprints);
  w.boolean(config.controller.block_artifact_fingerprints);
  w.u64(config.controller.min_flagged_pnrs);
  w.boolean(config.controller.impose_nip_cap);
  w.i64(static_cast<std::int64_t>(config.controller.nip_cap_value));
  w.boolean(config.controller.disable_sms_on_path_trip);
  w.boolean(config.controller.block_biometric_flagged);
  w.u64(config.controller.min_biometric_hits);
  w.u8(static_cast<std::uint8_t>(config.challenge_mode));
  w.u64(config.rate_limits.size());
  for (const auto& spec : config.rate_limits) {
    w.str(spec.name);
    w.boolean(spec.endpoint.has_value());
    if (spec.endpoint) w.u8(static_cast<std::uint8_t>(*spec.endpoint));
    w.u8(static_cast<std::uint8_t>(spec.key));
    w.u64(spec.limit);
    w.i64(spec.window);
  }
  w.i64(config.checkpoint_every);
  // Overload posture is appended ONLY when enabled: the default-off shape
  // keeps the digest every pre-overload journal was recorded under.
  if (config.overload.enabled) {
    const auto& o = config.overload;
    w.boolean(o.enabled);
    w.i64(static_cast<std::int64_t>(o.servers));
    w.i64(o.cost_browse);
    w.i64(o.cost_transactional);
    w.boolean(o.shedding_enabled);
    w.i64(o.max_wait_priority);
    w.i64(o.max_wait_anonymous);
    w.boolean(o.priority_scheduling);
    w.i64(o.deadline_browse);
    w.i64(o.deadline_transactional);
    w.boolean(o.brownout.enabled);
    w.f64(o.brownout.alpha);
    w.i64(o.brownout.elevated_wait);
    w.i64(o.brownout.brownout_wait);
    w.i64(o.brownout.shed_wait);
    w.i64(o.brownout.elevated_latency);
    w.i64(o.brownout.brownout_latency);
    w.i64(o.brownout.shed_latency);
    w.f64(o.brownout.exit_fraction);
    w.i64(o.brownout.min_dwell);
    for (std::size_t i = 0; i < overload::kBrownoutStates; ++i) {
      w.f64(o.brownout.rate_limit_scale[i]);
      w.i64(static_cast<std::int64_t>(o.brownout.detector_stride[i]));
      w.i64(static_cast<std::int64_t>(o.brownout.nip_cap[i]));
      w.f64(o.brownout.anonymous_watermark_scale[i]);
      w.f64(o.brownout.hold_ttl_scale[i]);
    }
  }
  // Entity-graph posture: same convention as overload — appended only when
  // enabled, so every pre-graph journal keeps its digest.
  if (config.graph.enabled) {
    const auto& g = config.graph;
    w.boolean(g.enabled);
    w.u64(g.graph.max_nodes);
    w.u64(g.graph.max_edges);
    w.u64(g.graph.component_cap);
    w.i64(g.graph.node_ttl);
    w.i64(g.graph.edge_ttl);
    w.i64(g.graph.maintenance_every);
    w.i64(g.graph.signal_half_life);
    w.u64(g.detector.min_sessions);
    w.f64(g.detector.min_sharing);
    w.f64(g.detector.signal_threshold);
    w.f64(g.detector.weight_requests);
    w.f64(g.detector.weight_holds);
    w.f64(g.detector.weight_sms);
    w.f64(g.detector.weight_pays);
  }
  return util::crc32(w.bytes());
}

RunArtifacts baseline_run(const RecordedScenarioConfig& config) {
  Platform p = build_platform(config);
  begin_live_invariants(p, config);
  std::unique_ptr<SeatSpinScript> attacker;
  start_traffic(p, config, attacker, nullptr);
  p.env->run_until(config.horizon);
  RunArtifacts artifacts = make_artifacts(p, config);
  finish_live_invariants(p, config, artifacts);
  return artifacts;
}

util::Result<RunArtifacts> record_run(const RecordedScenarioConfig& config,
                                      const std::string& journal_path) {
  return record_live(config, journal_path, nullptr);
}

util::Result<RunArtifacts> record_run_dir(const RecordedScenarioConfig& config,
                                          const std::string& run_dir) {
  using R = util::Result<RunArtifacts>;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(fs::path(run_dir) / recover::kCheckpointDir, ec);
  if (ec) {
    return R::fail(util::ErrorCode::kIoWriteFailed,
                   "record: cannot create run directory " + run_dir + ": " + ec.message());
  }
  const std::string journal_path = (fs::path(run_dir) / recover::kJournalFilename).string();
  const std::uint64_t digest = config_digest(config);

  try {
    // Each journalled checkpoint is duplicated as an atomic sidecar so
    // recovery can anchor on it even when the crash tore the journal frame
    // that embedded the very same blob.
    std::vector<std::pair<std::string, recover::WrittenArtifact>> sidecars;
    const auto write_sidecar = [&run_dir, &config, digest, &sidecars](
                                   sim::SimTime now, const std::string& blob) -> util::Status {
      recover::SidecarCheckpoint cp;
      cp.seed = config.seed;
      cp.config_digest = digest;
      cp.time = now;
      cp.blob = blob;
      const std::string path = recover::checkpoint_sidecar_path(run_dir, now);
      auto written = recover::write_checkpoint_sidecar(path, cp);
      if (!written) return util::Status::fail(written.code(), written.error());
      const std::string rel = std::string(recover::kCheckpointDir) + "/" +
                              fs::path(path).filename().string();
      sidecars.emplace_back(rel, written.value());
      return util::Status::ok();
    };
    auto recorded = record_live(config, journal_path, write_sidecar);
    if (!recorded) return recorded;
    RunArtifacts& artifacts = recorded.value();

    // Manifest entries in layout order: journal, sidecars, then artifacts.
    recover::Manifest manifest;
    manifest.seed = config.seed;
    manifest.config_digest = digest;
    {
      const std::optional<std::string> journal_bytes = util::read_file(journal_path);
      if (!journal_bytes) {
        return R::fail(util::ErrorCode::kIoWriteFailed, "record: cannot re-read the journal");
      }
      manifest.add(recover::kJournalFilename, journal_bytes->size(),
                   util::crc32(*journal_bytes));
    }
    for (const auto& [rel, written] : sidecars) manifest.add(written, rel);

    const std::pair<const char*, const std::string*> outputs[] = {
        {"metrics.csv", &artifacts.metrics_csv},
        {"weblog.csv", &artifacts.weblog_csv},
        {"soc_report.txt", &artifacts.soc_report}};
    for (const auto& [rel, content] : outputs) {
      auto written = recover::AtomicFile::write((fs::path(run_dir) / rel).string(), *content,
                                                config.horizon);
      if (!written) return R::fail(written.code(), written.error());
      manifest.add(written.value(), rel);
    }

    // The commit point: only now does the directory count as a complete run.
    if (auto s = manifest.write(run_dir, config.horizon); !s.is_ok()) {
      return R::fail(s.code(), s.error());
    }
    return R::ok(std::move(artifacts));
  } catch (const fault::SimCrash& crash) {
    // The simulated kill: whatever reached disk stays exactly as a real
    // process death would leave it; the caller recovers via recover_run.
    return R::fail(util::ErrorCode::kCrashInjected, crash.what());
  }
}

util::Result<RecoverOutcome> recover_run(const RecordedScenarioConfig& config,
                                         const std::string& run_dir) {
  using R = util::Result<RecoverOutcome>;
  namespace fs = std::filesystem;

  recover::RecoveryManager manager(run_dir);
  auto repaired = manager.repair();
  if (!repaired) return R::fail(repaired.code(), repaired.error());

  // Snapshot the caller's fault posture. Verification replays below restore
  // the registry from mid-run checkpoint blobs (so the salvaged suffix
  // re-fires its faults exactly), which would otherwise leave the re-record
  // starting from mid-run cursors instead of the posture the original run
  // started under — and the salvaged-prefix comparison would fail for any
  // schedule with error faults.
  util::ByteWriter fault_snapshot_writer;
  fault::FaultRegistry::global().checkpoint(fault_snapshot_writer);
  const std::string fault_snapshot = fault_snapshot_writer.take();
  const auto restore_fault_posture = [&fault_snapshot] {
    util::ByteReader in(fault_snapshot);
    fault::FaultRegistry::global().restore(in);
  };

  RecoverOutcome outcome;
  outcome.report = repaired.value();
  const std::string journal_path = (fs::path(run_dir) / recover::kJournalFilename).string();
  const std::uint64_t digest = config_digest(config);

  if (outcome.report.run_complete) {
    // Nothing to repair — but "complete" is only trusted after the journal
    // replays clean, which also regenerates the in-memory artifacts.
    auto replayed = replay_run(config, journal_path);
    restore_fault_posture();
    if (!replayed) return R::fail(replayed.code(), replayed.error());
    outcome.artifacts = replayed.value();
    outcome.reused_complete_run = true;
    return R::ok(std::move(outcome));
  }

  // Salvage verification: prove the surviving prefix is a faithful record of
  // this scenario before re-recording over it. One reader holds the salvaged
  // journal for the header check, the verification replay, the sidecar
  // comparison and the prefix proof.
  journal::JournalReader reader;
  std::string_view salvaged_bytes;
  if (outcome.report.journal_salvaged && outcome.report.frames_salvaged > 0) {
    if (auto s = reader.open(journal_path); !s.is_ok()) {
      return R::fail(s.code(), "recover: repaired journal failed to open: " + s.error());
    }
    salvaged_bytes = reader.bytes();
    if (reader.seed() != config.seed || reader.config_digest() != digest) {
      return R::fail(util::ErrorCode::kManifestMismatch,
                     "recover: journal belongs to a different scenario config");
    }
    // Checkpoint-anchored verification replay of the salvaged records.
    auto verified = replay_records(config, reader, {/*from_last_checkpoint=*/true});
    if (!verified) {
      return R::fail(verified.code(),
                     "recover: salvaged journal failed verification replay: " + verified.error());
    }
    // Cross-check the newest intact sidecar against its embedded twin (when
    // the twin's frame survived): both copies of a checkpoint must agree.
    if (!outcome.report.checkpoint_used.empty()) {
      auto cp = recover::read_checkpoint_sidecar(
          (fs::path(run_dir) / outcome.report.checkpoint_used).string());
      if (cp) {
        if (cp.value().seed != config.seed || cp.value().config_digest != digest) {
          return R::fail(util::ErrorCode::kManifestMismatch,
                         "recover: sidecar checkpoint belongs to a different scenario");
        }
        for (const auto& record : reader.records()) {
          if (record.kind != journal::RecordKind::Checkpoint ||
              record.time != cp.value().time) {
            continue;
          }
          journal::CheckpointRecord embedded{};
          util::ByteReader in(record.fields);
          in(embedded);
          if (embedded.blob != cp.value().blob) {
            return R::fail(util::ErrorCode::kCheckpointMismatch,
                           "recover: sidecar and embedded checkpoint blobs differ at t=" +
                               std::to_string(record.time));
          }
        }
      }
    }
  }

  // Deterministic re-record: same config + seed + fault posture reproduces
  // the interrupted run byte-for-byte, which the salvaged prefix then proves.
  restore_fault_posture();
  auto rerecorded = record_run_dir(config, run_dir);
  if (!rerecorded) return R::fail(rerecorded.code(), rerecorded.error());
  outcome.artifacts = rerecorded.value();

  if (!salvaged_bytes.empty()) {
    const std::string fresh = util::read_file(journal_path).value_or(std::string());
    if (!std::string_view(fresh).starts_with(salvaged_bytes)) {
      return R::fail(util::ErrorCode::kCheckpointMismatch,
                     "recover: salvaged journal prefix diverges from the deterministic "
                     "re-record");
    }
    outcome.prefix_verified = true;
  }
  return R::ok(std::move(outcome));
}

util::Result<RunArtifacts> replay_run(const RecordedScenarioConfig& config,
                                      const std::string& journal_path, ReplayOptions options) {
  using R = util::Result<RunArtifacts>;
  journal::JournalReader reader;
  if (auto s = reader.open(journal_path); !s.is_ok()) return R::fail(s.code(), s.error());
  if (reader.seed() != config.seed || reader.config_digest() != config_digest(config)) {
    return R::fail(util::ErrorCode::kCheckpointMismatch,
                   "replay: journal header does not match this scenario config");
  }
  return replay_records(config, reader, options);
}

util::Result<RescoreReport> shadow_rescore(const RecordedScenarioConfig& config,
                                           const std::string& journal_path,
                                           const RescoreCandidate& candidate) {
  using R = util::Result<RescoreReport>;
  journal::JournalReader reader;
  if (auto s = reader.open(journal_path); !s.is_ok()) return R::fail(s.code(), s.error());
  if (reader.seed() != config.seed || reader.config_digest() != config_digest(config)) {
    return R::fail(util::ErrorCode::kCheckpointMismatch,
                   "rescore: journal header does not match this scenario config");
  }

  Platform p = build_platform(config, &candidate);
  Env& env = *p.env;
  RescoreReport report;
  for (const auto& record : reader.records()) {
    env.sim.run_until(record.time);
    Replayed seen;
    if (!replay_record(p, record, seen)) {
      return R::fail(util::ErrorCode::kJournalCorrupt, "rescore: undecodable record payload");
    }
    if (!seen.verdict) continue;
    ++report.requests;
    if (seen.was_denied == seen.now_denied) continue;
    ++report.verdict_changes;
    // The registry holds the journalled ground truth: every recorded actor
    // was re-registered with its kind.
    const bool abuser = env.actors.abuser(seen.actor);
    if (seen.now_denied) {
      abuser ? ++report.newly_caught : ++report.newly_blocked_legit;
    } else {
      abuser ? ++report.newly_missed : ++report.newly_allowed_legit;
    }
  }
  return R::ok(report);
}

std::string render_rescore_report(const std::string& candidate_name,
                                  const RescoreReport& report) {
  std::ostringstream out;
  out << "shadow rescore: " << candidate_name << "\n"
      << "  requests replayed     " << report.requests << "\n"
      << "  verdict changes       " << report.verdict_changes << "\n"
      << "  newly caught (abuse)  " << report.newly_caught << "\n"
      << "  newly missed (abuse)  " << report.newly_missed << "\n"
      << "  blocked legit (new)   " << report.newly_blocked_legit << "\n"
      << "  allowed legit (new)   " << report.newly_allowed_legit << "\n";
  return out.str();
}

}  // namespace fraudsim::scenario
