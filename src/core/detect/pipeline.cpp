#include "core/detect/pipeline.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <span>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "core/fault/fault.hpp"
#include "core/obs/profile.hpp"

namespace fraudsim::detect {
namespace {

// Adapter wrapping one concrete analyzer into the uniform Detector interface.
// The pipeline composes its family list from these; no analyzer needs to know
// about budgets, fault points, brownout strides, or observability. Families
// with a vectorized multi-epoch implementation supply `batch` as well; the
// rest inherit the base-class adapter (evaluate per epoch).
class FunctionDetector final : public Detector {
 public:
  using Fn = std::function<void(const RequestView&, AlertSink&)>;
  using BatchFn =
      std::function<void(std::span<const RequestView>, std::span<BatchScore>, AlertSink&)>;

  FunctionDetector(const char* name, const char* fault_point, DetectorCost cost, Fn fn,
                   BatchFn batch = nullptr)
      : name_(name),
        fault_point_(fault_point),
        cost_(cost),
        fn_(std::move(fn)),
        batch_(std::move(batch)) {}

  [[nodiscard]] const char* name() const override { return name_; }
  [[nodiscard]] const char* fault_point() const override { return fault_point_; }
  [[nodiscard]] DetectorCost cost() const override { return cost_; }
  void evaluate(const RequestView& view, AlertSink& alerts) override { fn_(view, alerts); }
  void score_batch(std::span<const RequestView> views, std::span<BatchScore> scores,
                   AlertSink& alerts) override {
    if (batch_) {
      batch_(views, scores, alerts);
      return;
    }
    Detector::score_batch(views, scores, alerts);
  }

 private:
  const char* name_;
  const char* fault_point_;
  DetectorCost cost_;
  Fn fn_;
  BatchFn batch_;
};

}  // namespace

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
  s.epochs = metrics_->counter_value("detect.batch.epochs");
  s.sessions_in = metrics_->counter_value("detect.batch.sessions_in");
  s.sessions_scored = metrics_->counter_value("detect.batch.sessions_scored");
  s.sessions_skipped = metrics_->counter_value("detect.batch.sessions_skipped");
  s.batch_fallbacks = metrics_->counter_value("detect.batch.fallbacks");
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
      batch_handles_.epochs = obs_->metrics.counter("detect.batch.epochs");
      batch_handles_.sessions_in = obs_->metrics.counter("detect.batch.sessions_in");
      batch_handles_.sessions_scored = obs_->metrics.counter("detect.batch.sessions_scored");
      batch_handles_.sessions_skipped = obs_->metrics.counter("detect.batch.sessions_skipped");
      batch_handles_.fallbacks = obs_->metrics.counter("detect.batch.fallbacks");
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
                          FunctionDetector::Fn fn, FunctionDetector::BatchFn batch = nullptr) {
    detectors.push_back(
        std::make_unique<FunctionDetector>(name, point, cost, std::move(fn), std::move(batch)));
  };

  // Behaviour-based.
  add("behavior.volume", "detect.volume.run", DetectorCost::Cheap,
      [this](const RequestView& view, AlertSink& alerts) {
        VolumeThresholdDetector volume(config_.volume);
        volume.analyze(view.sessions, alerts);
      });
  if (classifier_.trained()) {
    add("behavior.classifier", "detect.behavior.run", DetectorCost::Expensive,
        [this](const RequestView& view, AlertSink& alerts) {
          classifier_.analyze(view.sampled_sessions, alerts);
        });
  }
  if (navigation_.fitted()) {
    add("behavior.navigation", "detect.navigation.run", DetectorCost::Expensive,
        [this](const RequestView& view, AlertSink& alerts) {
          navigation_.analyze(view.sampled_sessions, alerts);
        });
  }

  // Network reputation (enabled once a geo database is supplied).
  if (geo_ != nullptr) {
    add("ip.reputation", "detect.ip.run", DetectorCost::Cheap,
        [this](const RequestView& view, AlertSink& alerts) {
          IpReputationDetector ip_detector(*geo_, config_.ip_reputation);
          ip_detector.analyze(view.sessions, alerts);
        },
        [this](std::span<const RequestView> views, std::span<BatchScore> scores,
               AlertSink& alerts) {
          if (views.empty()) return;
          IpReputationDetector ip_detector(*geo_, config_.ip_reputation);
          std::vector<const std::vector<web::Session>*> sets;
          sets.reserve(views.size());
          for (const auto& v : views) sets.push_back(&v.sessions);
          std::vector<std::size_t> counts;
          ip_detector.analyze_many(sets, alerts, &counts);
          for (std::size_t i = 0; i < views.size(); ++i) {
            scores[i] = {views[i].sessions.size(), counts[i]};
          }
        });
  }

  // Pointer biometrics (§V): judge every sample captured in the window
  // (every stride-th sample under brownout).
  if (config_.biometrics_enabled) {
    add("biometric.pointer", "detect.biometric.run", DetectorCost::Expensive,
        [this](const RequestView& view, AlertSink& alerts) {
          biometrics::BiometricDetector biometric(config_.biometric_thresholds);
          std::size_t sample_idx = 0;
          for (const auto& record : view.application.biometric_log()) {
            if (record.time < view.from || record.time >= view.to) continue;
            if (view.stride > 1 &&
                (sample_idx++ % static_cast<std::size_t>(view.stride)) != 0) {
              continue;
            }
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

  // Knowledge-based. Session-set pointers for the batched fingerprint paths.
  auto session_sets = [](std::span<const RequestView> views) {
    std::vector<const std::vector<web::Session>*> sets;
    sets.reserve(views.size());
    for (const auto& v : views) sets.push_back(&v.sessions);
    return sets;
  };
  add("fingerprint.artifact", "detect.artifact.run", DetectorCost::Cheap,
      [](const RequestView& view, AlertSink& alerts) {
        ArtifactDetector artifacts;
        artifacts.analyze(view.application.fingerprints(), view.sessions, alerts);
      },
      [session_sets](std::span<const RequestView> views, std::span<BatchScore> scores,
                     AlertSink& alerts) {
        if (views.empty()) return;
        ArtifactDetector artifacts;
        std::vector<std::size_t> counts;
        artifacts.analyze_many(views.front().application.fingerprints(), session_sets(views),
                               alerts, &counts);
        for (std::size_t i = 0; i < views.size(); ++i) {
          scores[i] = {views[i].sessions.size(), counts[i]};
        }
      });
  add("fingerprint.consistency", "detect.consistency.run", DetectorCost::Cheap,
      [](const RequestView& view, AlertSink& alerts) {
        ConsistencyDetector consistency;
        consistency.analyze(view.application.fingerprints(), view.sessions, alerts);
      },
      [session_sets](std::span<const RequestView> views, std::span<BatchScore> scores,
                     AlertSink& alerts) {
        if (views.empty()) return;
        ConsistencyDetector consistency;
        std::vector<std::size_t> counts;
        consistency.analyze_many(views.front().application.fingerprints(), session_sets(views),
                                 alerts, &counts);
        for (std::size_t i = 0; i < views.size(); ++i) {
          scores[i] = {views[i].sessions.size(), counts[i]};
        }
      });
  add("fingerprint.rarity", "detect.rarity.run", DetectorCost::Cheap,
      [this](const RequestView& view, AlertSink& alerts) {
        RarityDetector rarity(config_.rarity_frequency, config_.rarity_min_observations);
        rarity.analyze(view.application.fingerprints(), alerts);
      },
      [this](std::span<const RequestView> views, std::span<BatchScore> scores,
             AlertSink& alerts) {
        if (views.empty()) return;
        RarityDetector rarity(config_.rarity_frequency, config_.rarity_min_observations);
        std::vector<std::size_t> counts;
        rarity.analyze_repeated(views.front().application.fingerprints(), views.size(), alerts,
                                &counts);
        for (std::size_t i = 0; i < views.size(); ++i) {
          scores[i] = {views[i].sessions.size(), counts[i]};
        }
      });

  // Feature-level (the paper's advanced detectors).
  add("nip.anomaly", "detect.nip.run", DetectorCost::Cheap,
      [this](const RequestView& view, AlertSink& alerts) {
        nip_.analyze(view.application.inventory().reservations(), view.from, view.to, alerts);
      },
      [this](std::span<const RequestView> views, std::span<BatchScore> scores,
             AlertSink& alerts) {
        if (views.empty()) return;
        std::vector<NipAnomalyDetector::Window> windows;
        windows.reserve(views.size());
        for (const auto& v : views) windows.push_back({v.from, v.to});
        std::vector<std::size_t> counts;
        nip_.analyze_windows(views.front().application.inventory().reservations(), windows,
                             alerts, &counts);
        for (std::size_t i = 0; i < views.size(); ++i) {
          scores[i] = {views[i].sessions.size(), counts[i]};
        }
      });
  add("name.patterns", "detect.names.run", DetectorCost::Cheap,
      [this](const RequestView& view, AlertSink& alerts) {
        NamePatternAnalyzer names(config_.names);
        // Window-scope the reservations for identity analysis.
        std::vector<const airline::Reservation*> window;
        for (const auto& r : view.application.inventory().reservations()) {
          if (r.created >= view.from && r.created < view.to) window.push_back(&r);
        }
        names.analyze(window, alerts);
      });
  add("sms.anomaly", "detect.sms.run", DetectorCost::Cheap,
      [this](const RequestView& view, AlertSink& alerts) {
        SmsAnomalyDetector sms(config_.sms);
        // SMS surge baselines on the pre-window period of equal length.
        const sim::SimTime baseline_from =
            std::max<sim::SimTime>(0, view.from - (view.to - view.from));
        sms.analyze(view.application.sms_gateway(), baseline_from, view.from, view.from, view.to,
                    alerts);
      },
      [this](std::span<const RequestView> views, std::span<BatchScore> scores,
             AlertSink& alerts) {
        if (views.empty()) return;
        SmsAnomalyDetector sms(config_.sms);
        std::vector<SmsAnomalyDetector::Window> windows;
        windows.reserve(views.size());
        for (const auto& v : views) {
          const sim::SimTime baseline_from =
              std::max<sim::SimTime>(0, v.from - (v.to - v.from));
          windows.push_back({baseline_from, v.from, v.from, v.to});
        }
        std::vector<std::size_t> counts;
        sms.analyze_windows(views.front().application.sms_gateway(), windows, alerts, &counts);
        for (std::size_t i = 0; i < views.size(); ++i) {
          scores[i] = {views[i].sessions.size(), counts[i]};
        }
      });

  // Structural (component-level) ring amplification over the entity graph.
  // The only family implemented as a dedicated Detector subclass: it owns
  // graph-wide state sharing across epochs that the FunctionDetector lambda
  // shape cannot express.
  if (graph_ != nullptr) {
    detectors.push_back(std::make_unique<graph::GraphDetector>(*graph_, config_.graph));
  }
  return detectors;
}

PipelineResult DetectionPipeline::run(const app::Application& application,
                                      const app::ActorRegistry& registry, sim::SimTime from,
                                      sim::SimTime to,
                                      overload::Deadline analysis_budget) const {
  PipelineResult result;
  const web::Sessionizer sessionizer(config_.session_timeout);
  result.sessions = sessionizer.sessionize(application.weblog().all(), from, to);

  // Brownout degradation: under pressure the expensive families analyse only
  // every stride-th session. Stride 1 (or no controller) is the full view.
  const int stride =
      brownout_ != nullptr && brownout_->enabled() ? brownout_->detector_stride() : 1;

  // Epoch partition. The default (batch_epoch == 0) is ONE epoch spanning the
  // whole window — verdicts identical to the pre-batching pipeline. An opt-in
  // positive batch_epoch slices the window into at most max_batch_epochs
  // views; BOTH execution modes iterate the identical partition, so batched
  // vs scalar stays a pure execution difference.
  struct Epoch {
    sim::SimTime from = 0;
    sim::SimTime to = 0;
  };
  std::vector<Epoch> epochs;
  if (config_.batch_epoch > 0 && to > from && config_.max_batch_epochs > 0) {
    const sim::SimDuration span = to - from;
    auto slices = static_cast<std::size_t>((span + config_.batch_epoch - 1) / config_.batch_epoch);
    slices = std::clamp<std::size_t>(slices, 1, config_.max_batch_epochs);
    const auto slice =
        static_cast<sim::SimDuration>((span + static_cast<sim::SimDuration>(slices) - 1) /
                                      static_cast<sim::SimDuration>(slices));
    for (std::size_t k = 0; k < slices; ++k) {
      const sim::SimTime e_from = from + static_cast<sim::SimDuration>(k) * slice;
      if (e_from >= to) break;
      epochs.push_back(Epoch{e_from, std::min<sim::SimTime>(to, e_from + slice)});
    }
  } else {
    epochs.push_back(Epoch{from, to});
  }

  // One RequestView per epoch. The single-epoch fast path references
  // result.sessions directly; multi-epoch buckets sessions by start time.
  std::vector<web::Session> sampled;                  // single-epoch stride storage
  std::vector<std::vector<web::Session>> per_epoch;   // multi-epoch session storage
  std::vector<std::vector<web::Session>> per_epoch_sampled;
  std::vector<RequestView> views;
  views.reserve(epochs.size());
  if (epochs.size() == 1) {
    if (stride > 1) {
      for (std::size_t i = 0; i < result.sessions.size(); i += static_cast<std::size_t>(stride)) {
        sampled.push_back(result.sessions[i]);
      }
    }
    views.push_back(RequestView{application, epochs[0].from, epochs[0].to, result.sessions,
                                stride > 1 ? sampled : result.sessions, stride});
  } else {
    per_epoch.resize(epochs.size());
    per_epoch_sampled.resize(epochs.size());
    for (const auto& s : result.sessions) {
      std::size_t idx = 0;
      while (idx + 1 < epochs.size() && s.start() >= epochs[idx].to) ++idx;
      per_epoch[idx].push_back(s);
    }
    for (std::size_t e = 0; e < epochs.size(); ++e) {
      if (stride > 1) {
        for (std::size_t i = 0; i < per_epoch[e].size(); i += static_cast<std::size_t>(stride)) {
          per_epoch_sampled[e].push_back(per_epoch[e][i]);
        }
      }
      views.push_back(RequestView{application, epochs[e].from, epochs[e].to, per_epoch[e],
                                  stride > 1 ? per_epoch_sampled[e] : per_epoch[e], stride});
    }
  }

  // Modeled analysis clock, charged against the optional deadline budget.
  // Costs sum over the epoch partition, so they match the single-window
  // totals exactly in the default configuration.
  sim::SimTime analysis_now = to;
  std::uint64_t total_sessions = 0;
  std::uint64_t total_sampled = 0;
  for (const auto& v : views) {
    total_sessions += v.sessions.size();
    total_sampled += v.sampled_sessions.size();
  }
  const sim::SimDuration cheap_cost =
      static_cast<sim::SimDuration>(total_sessions) * config_.analysis_cost_cheap;
  const sim::SimDuration expensive_cost =
      static_cast<sim::SimDuration>(total_sampled) * config_.analysis_cost_expensive;

  obs::TraceContext trace;
  if (obs_ != nullptr) {
    trace = obs_->traces.start_trace("detect.pipeline", to);
    trace.annotate("sessions", std::to_string(result.sessions.size()));
    if (stride > 1) trace.annotate("stride", std::to_string(stride));
    if (views.size() > 1) trace.annotate("epochs", std::to_string(views.size()));
  }

  // The "detect.batch.run" fault point demotes a run to the scalar adapter
  // path (verdicts unchanged — that IS the reference implementation). It is
  // consulted exactly once per run, so injected fault schedules advance
  // deterministically, and each demoted run ticks the fallback counter.
  const bool use_batch =
      !fault::FaultRegistry::global().point("detect.batch.run").should_fail(to);
  const BatchHandles& batch = batch_handles();
  batch.runs.inc();
  batch.epochs.inc(views.size());
  if (!use_batch) batch.fallbacks.inc();

  // The interface layer: one loop applies budget accounting, fault-point
  // guarding, exception containment, per-family metrics/spans/profiling to
  // every family uniformly. An injected outage or a thrown exception records
  // the family as skipped; the run always finishes the remaining families —
  // detection never takes the SOC report down with it.
  for (const auto& det : build_detectors()) {
    const char* family = det->name();
    const FamilyHandles& handles = family_handles(family);
    const sim::SimDuration cost =
        det->cost() == DetectorCost::Expensive ? expensive_cost : cheap_cost;
    const std::uint64_t family_sessions =
        det->cost() == DetectorCost::Expensive ? total_sampled : total_sessions;
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

    if (analysis_budget.expired(analysis_now)) {
      skip("analysis budget exhausted");
      continue;
    }
    if (fault::FaultRegistry::global().point(det->fault_point()).should_fail(to)) {
      skip("fault-injected outage");
      continue;
    }
    const std::size_t alerts_before = result.alerts.alerts().size();
    std::vector<BatchScore> scores(views.size());
    try {
      const obs::ScopedTimer timer(obs::Profiler::instance().phase(handles.profile_phase));
      if (use_batch) {
        det->score_batch(views, scores, result.alerts);
      } else {
        // Scalar reference: the base-class adapter, bypassing any override.
        det->Detector::score_batch(views, scores, result.alerts);
      }
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
