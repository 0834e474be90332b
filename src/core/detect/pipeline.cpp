#include "core/detect/pipeline.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "core/fault/fault.hpp"
#include "core/obs/profile.hpp"

namespace fraudsim::detect {
namespace {

// Modeled analysis cost per session of each DetectorCost class, in ms.
constexpr sim::SimDuration kCheapCost = 1;
constexpr sim::SimDuration kExpensiveCost = 5;

// Adapter wrapping one concrete analyzer into the uniform Detector interface.
// The pipeline composes its family list from these; no analyzer needs to know
// about analysis costs, fault points, or observability.
class FunctionDetector final : public Detector {
 public:
  using Fn = std::function<void(const RequestView&, AlertSink&)>;

  FunctionDetector(const char* name, const char* fault_point, DetectorCost cost, Fn fn)
      : name_(name), fault_point_(fault_point), cost_(cost), fn_(std::move(fn)) {}

  [[nodiscard]] const char* name() const override { return name_; }
  [[nodiscard]] const char* fault_point() const override { return fault_point_; }
  [[nodiscard]] DetectorCost cost() const override { return cost_; }
  void evaluate(const RequestView& view, AlertSink& alerts) override { fn_(view, alerts); }

 private:
  const char* name_;
  const char* fault_point_;
  DetectorCost cost_;
  Fn fn_;
};

}  // namespace

std::vector<const airline::Reservation*> reservations_in(
    const std::vector<airline::Reservation>& log, sim::SimTime from, sim::SimTime to) {
  std::vector<const airline::Reservation*> window;
  for (const auto& r : log) {
    if (r.created >= from && r.created < to) window.push_back(&r);
  }
  return window;
}

RequestView::RequestView(const app::Application& application, sim::SimTime from, sim::SimTime to,
                         const std::vector<web::Session>& sessions)
    : application(application),
      from(from),
      to(to),
      sessions(sessions),
      features(web::extract_features(sessions)),
      reservations(reservations_in(application.inventory().reservations(), from, to)) {
  for (const auto& s : sessions) {
    if (!s.requests.empty()) first_session.emplace(s.requests.front().fp_hash, &s);
  }
}

const DetectorReport* PipelineResult::report_for(const std::string& detector) const {
  for (const auto& r : reports) {
    if (r.detector == detector) return &r;
  }
  return nullptr;
}

bool PipelineResult::skipped_family(const std::string& family) const {
  for (const auto& s : skipped) {
    if (s.family == family) return true;
  }
  return false;
}

DetectionPipeline::DetectionPipeline(PipelineConfig config)
    : config_(config), nip_(config.nip) {}

PipelineView DetectionPipeline::view() const {
  return PipelineView(obs_ != nullptr ? &obs_->metrics : nullptr);
}

namespace {
std::string family_metric(std::string_view family, const char* suffix) {
  std::string name = "detect.";
  name += family;
  name += suffix;
  return name;
}
}  // namespace

PipelineStats PipelineView::stats() const {
  PipelineStats s;
  if (metrics_ == nullptr) return s;
  s.runs = metrics_->counter_value("detect.batch.runs");
  s.sessions_in = metrics_->counter_value("detect.batch.sessions_in");
  s.sessions_scored = metrics_->counter_value("detect.batch.sessions_scored");
  s.sessions_skipped = metrics_->counter_value("detect.batch.sessions_skipped");
  return s;
}

std::uint64_t PipelineView::family_runs(std::string_view family) const {
  return metrics_ == nullptr ? 0 : metrics_->counter_value(family_metric(family, ".runs"));
}

std::uint64_t PipelineView::family_skips(std::string_view family) const {
  return metrics_ == nullptr ? 0 : metrics_->counter_value(family_metric(family, ".skipped"));
}

std::uint64_t PipelineView::family_alerts(std::string_view family) const {
  return metrics_ == nullptr ? 0 : metrics_->counter_value(family_metric(family, ".alerts"));
}

std::vector<std::pair<std::string, std::uint64_t>> PipelineView::skips_by_family() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  if (metrics_ == nullptr) return out;
  constexpr std::string_view kSuffix = ".skipped";
  for (auto& [name, value] : metrics_->counters_with_prefix("detect.")) {
    if (name.size() <= kSuffix.size() + 7 || !name.ends_with(kSuffix)) continue;
    // "detect.<family>.skipped" -> family
    out.emplace_back(name.substr(7, name.size() - 7 - kSuffix.size()), value);
  }
  return out;
}

DetectionPipeline::FamilyHandles& DetectionPipeline::family_handles(const char* family) const {
  const std::string_view key(family);
  const auto it = family_handles_.find(key);
  if (it != family_handles_.end()) return it->second;
  FamilyHandles h;
  h.profile_phase = family_metric(key, "");
  if (obs_ != nullptr) {
    h.runs = obs_->metrics.counter(family_metric(key, ".runs"));
    h.skipped = obs_->metrics.counter(family_metric(key, ".skipped"));
    h.alerts = obs_->metrics.counter(family_metric(key, ".alerts"));
  }
  return family_handles_.emplace(std::string(key), std::move(h)).first->second;
}

const DetectionPipeline::BatchHandles& DetectionPipeline::batch_handles() const {
  if (!batch_handles_.bound) {
    if (obs_ != nullptr) {
      batch_handles_.runs = obs_->metrics.counter("detect.batch.runs");
      batch_handles_.sessions_in = obs_->metrics.counter("detect.batch.sessions_in");
      batch_handles_.sessions_scored = obs_->metrics.counter("detect.batch.sessions_scored");
      batch_handles_.sessions_skipped = obs_->metrics.counter("detect.batch.sessions_skipped");
    }
    batch_handles_.bound = true;
  }
  return batch_handles_;
}

void DetectionPipeline::fit_nip_baseline(const app::Application& application, sim::SimTime from,
                                         sim::SimTime to) {
  nip_.fit_baseline(application.inventory().reservations(), from, to);
}

void DetectionPipeline::fit_navigation(const app::Application& application, sim::SimTime from,
                                       sim::SimTime to) {
  const web::Sessionizer sessionizer(config_.session_timeout);
  navigation_.fit(sessionizer.sessionize(application.weblog().all(), from, to));
}

void DetectionPipeline::train_behavior(const app::Application& application,
                                       const app::ActorRegistry& registry, sim::SimTime from,
                                       sim::SimTime to, sim::Rng& rng) {
  train_behavior(application, from, to, rng,
                 [&registry](web::ActorId actor) { return registry.automated(actor) ? 1 : 0; });
}

void DetectionPipeline::train_behavior(const app::Application& application, sim::SimTime from,
                                       sim::SimTime to, sim::Rng& rng, const LabelFn& label_fn) {
  const web::Sessionizer sessionizer(config_.session_timeout);
  const auto sessions = sessionizer.sessionize(application.weblog().all(), from, to);
  std::vector<web::SessionFeatures> features;
  std::vector<int> labels;
  for (const auto& s : sessions) {
    features.push_back(web::extract_features(s));
    labels.push_back(label_fn(s.actor));
  }
  classifier_.train(features, labels, rng);
}

std::vector<std::unique_ptr<Detector>> DetectionPipeline::build_detectors() const {
  std::vector<std::unique_ptr<Detector>> detectors;
  auto add = [&detectors](const char* name, const char* point, DetectorCost cost,
                          FunctionDetector::Fn fn) {
    detectors.push_back(std::make_unique<FunctionDetector>(name, point, cost, std::move(fn)));
  };

  // Behaviour-based.
  add("behavior.volume", "detect.volume.run", DetectorCost::Cheap,
      [this](const RequestView& view, AlertSink& alerts) {
        VolumeThresholdDetector volume(config_.volume);
        volume.analyze(view.sessions, view.features, alerts);
      });
  if (classifier_.trained()) {
    add("behavior.classifier", "detect.behavior.run", DetectorCost::Expensive,
        [this](const RequestView& view, AlertSink& alerts) {
          classifier_.analyze(view.sessions, view.features, alerts);
        });
  }
  if (navigation_.fitted()) {
    add("behavior.navigation", "detect.navigation.run", DetectorCost::Expensive,
        [this](const RequestView& view, AlertSink& alerts) {
          navigation_.analyze(view.sessions, alerts);
        });
  }

  // Network reputation (enabled once a geo database is supplied).
  if (geo_ != nullptr) {
    add("ip.reputation", "detect.ip.run", DetectorCost::Cheap,
        [this](const RequestView& view, AlertSink& alerts) {
          IpReputationDetector ip_detector(*geo_, config_.ip_reputation);
          ip_detector.analyze(view.sessions, alerts);
        });
  }

  // Pointer biometrics (§V): judge every sample captured in the window.
  if (config_.biometrics_enabled) {
    add("biometric.pointer", "detect.biometric.run", DetectorCost::Expensive,
        [this](const RequestView& view, AlertSink& alerts) {
          biometrics::BiometricDetector biometric(config_.biometric_thresholds);
          for (const auto& record : view.application.biometric_log()) {
            if (record.time < view.from || record.time >= view.to) continue;
            std::string reason;
            if (!biometric.observe(record.features, &reason)) continue;
            Alert alert;
            alert.time = record.time;
            alert.detector = "biometric.pointer";
            alert.severity = Severity::Warning;
            alert.explanation = reason;
            alert.session = record.session;
            alert.actor = record.actor;
            alerts.emit(std::move(alert));
          }
        });
  }

  // Knowledge-based.
  add("fingerprint.artifact", "detect.artifact.run", DetectorCost::Cheap,
      [](const RequestView& view, AlertSink& alerts) {
        ArtifactDetector artifacts;
        artifacts.analyze(view.application.fingerprints(), view.first_session, alerts);
      });
  add("fingerprint.consistency", "detect.consistency.run", DetectorCost::Cheap,
      [](const RequestView& view, AlertSink& alerts) {
        ConsistencyDetector consistency;
        consistency.analyze(view.application.fingerprints(), view.first_session, alerts);
      });
  add("fingerprint.rarity", "detect.rarity.run", DetectorCost::Cheap,
      [this](const RequestView& view, AlertSink& alerts) {
        RarityDetector rarity(config_.rarity_frequency, config_.rarity_min_observations);
        rarity.analyze(view.application.fingerprints(), alerts);
      });

  // Feature-level (the paper's advanced detectors).
  add("nip.anomaly", "detect.nip.run", DetectorCost::Cheap,
      [this](const RequestView& view, AlertSink& alerts) {
        nip_.analyze(view.reservations, view.to, alerts);
      });
  add("name.patterns", "detect.names.run", DetectorCost::Cheap,
      [this](const RequestView& view, AlertSink& alerts) {
        NamePatternAnalyzer names(config_.names);
        names.analyze(view.reservations, alerts);
      });
  add("sms.anomaly", "detect.sms.run", DetectorCost::Cheap,
      [this](const RequestView& view, AlertSink& alerts) {
        SmsAnomalyDetector sms(config_.sms);
        // SMS surge baselines on the pre-window period of equal length.
        const sim::SimTime baseline_from =
            std::max<sim::SimTime>(0, view.from - (view.to - view.from));
        sms.analyze(view.application.sms_gateway(), baseline_from, view.from, view.from, view.to,
                    alerts);
      });

  // Structural (component-level) ring amplification over the entity graph.
  // The only family implemented as a dedicated Detector subclass: the SOC
  // report and the ring bench also read its per-component verdicts.
  if (graph_ != nullptr) {
    detectors.push_back(std::make_unique<graph::GraphDetector>(*graph_, config_.graph));
  }
  return detectors;
}

PipelineResult DetectionPipeline::run(const app::Application& application,
                                      const app::ActorRegistry& registry, sim::SimTime from,
                                      sim::SimTime to) const {
  PipelineResult result;
  const web::Sessionizer sessionizer(config_.session_timeout);
  result.sessions = sessionizer.sessionize(application.weblog().all(), from, to);
  const RequestView view(application, from, to, result.sessions);

  // Modeled analysis clock: the span times of the run's trace.
  sim::SimTime analysis_now = to;

  obs::TraceContext trace;
  if (obs_ != nullptr) {
    trace = obs_->traces.start_trace("detect.pipeline", to);
    trace.annotate("sessions", std::to_string(result.sessions.size()));
  }

  const BatchHandles& batch = batch_handles();
  batch.runs.inc();

  // The interface layer: one loop applies cost accounting, fault-point
  // guarding, exception containment, per-family metrics/spans/profiling to
  // every family uniformly. An injected outage or a thrown exception records
  // the family as skipped; the run always finishes the remaining families —
  // detection never takes the SOC report down with it.
  for (const auto& det : build_detectors()) {
    const char* family = det->name();
    const FamilyHandles& handles = family_handles(family);
    const std::uint64_t family_sessions = view.sessions.size();
    const sim::SimDuration cost =
        static_cast<sim::SimDuration>(family_sessions) *
        (det->cost() == DetectorCost::Expensive ? kExpensiveCost : kCheapCost);
    batch.sessions_in.inc(family_sessions);
    const obs::TraceContext span = trace.child(family, analysis_now);
    span.annotate("cost", to_string(det->cost()));

    auto skip = [&](std::string reason) {
      result.degraded = true;
      span.annotate("skip", reason);
      span.set_outcome("skipped");
      span.finish(analysis_now);
      handles.skipped.inc();
      batch.sessions_skipped.inc(family_sessions);
      result.skipped.push_back(SkippedDetector{family, std::move(reason)});
    };

    if (fault::FaultRegistry::global().point(det->fault_point()).should_fail(to)) {
      skip("fault-injected outage");
      continue;
    }
    const std::size_t alerts_before = result.alerts.alerts().size();
    try {
      const obs::ScopedTimer timer(obs::Profiler::instance().phase(handles.profile_phase));
      det->evaluate(view, result.alerts);
      analysis_now += cost;
    } catch (const std::exception& e) {
      skip(std::string("exception: ") + e.what());
      continue;
    } catch (...) {
      skip("unknown exception");
      continue;
    }
    const auto emitted =
        static_cast<std::uint64_t>(result.alerts.alerts().size() - alerts_before);
    handles.runs.inc();
    handles.alerts.inc(emitted);
    batch.sessions_scored.inc(family_sessions);
    span.annotate("alerts", std::to_string(emitted));
    span.set_outcome("ok");
    span.finish(analysis_now);
  }

  // Score per detector family at the actor level: one pass counts each
  // family's alerts and collects the actors it flagged, in detector-name order.
  struct Flagged {
    std::size_t alerts = 0;
    std::unordered_set<web::ActorId> actors;
  };
  std::map<std::string_view, Flagged> by_detector;
  for (const auto& a : result.alerts.alerts()) {
    Flagged& f = by_detector[a.detector];
    ++f.alerts;
    if (a.actor) f.actors.insert(*a.actor);
  }
  const auto universe = actors_of(result.sessions);
  for (const auto& [detector, flagged] : by_detector) {
    DetectorReport report;
    report.detector = detector;
    report.alerts = flagged.alerts;
    report.score = score_actors(flagged.actors, universe, registry, TruthCriterion::Abuser);
    result.reports.push_back(std::move(report));
  }
  trace.annotate("alerts", std::to_string(result.alerts.alerts().size()));
  trace.set_outcome(result.degraded ? "degraded" : "ok");
  trace.finish(analysis_now);
  return result;
}

}  // namespace fraudsim::detect
