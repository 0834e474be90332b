// Detection pipeline: runs every detector family over the application's
// telemetry for an analysis window and scores the result against ground
// truth. This is the batch "SOC view" benches and examples use.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "app/actors.hpp"
#include "app/application.hpp"
#include "biometrics/detector.hpp"
#include "core/detect/behavior.hpp"
#include "core/detect/detector.hpp"
#include "core/detect/fingerprint_detect.hpp"
#include "core/detect/graph/graph_detector.hpp"
#include "core/detect/ip_reputation.hpp"
#include "core/detect/labels.hpp"
#include "core/detect/name_patterns.hpp"
#include "core/detect/navigation.hpp"
#include "core/detect/nip_anomaly.hpp"
#include "core/detect/sms_anomaly.hpp"
#include "core/obs/metrics.hpp"
#include "core/overload/brownout.hpp"
#include "core/overload/overload.hpp"
#include "web/session.hpp"

namespace fraudsim::detect {

struct PipelineConfig {
  VolumeThresholds volume;
  NipAnomalyConfig nip;
  NamePatternConfig names;
  SmsAnomalyConfig sms;
  double rarity_frequency = 1e-4;
  std::uint64_t rarity_min_observations = 30;
  sim::SimDuration session_timeout = sim::minutes(30);
  // §V future directions, implemented: pointer biometrics and graph-based
  // navigation analysis.
  bool biometrics_enabled = true;
  biometrics::BiometricThresholds biometric_thresholds;
  IpReputationConfig ip_reputation;
  // Component-level ring amplification (active once enable_graph is called).
  graph::GraphDetectorConfig graph;
  // Modeled batch-analysis cost per session, charged against the optional
  // analysis deadline budget passed to run(): cheap families advance the
  // modeled analysis clock by `analysis_cost_cheap` ms per session, the
  // expensive ones (classifier, navigation, biometrics) by
  // `analysis_cost_expensive`.
  sim::SimDuration analysis_cost_cheap = 1;
  sim::SimDuration analysis_cost_expensive = 5;
  // Batched evaluation epochs. 0 (the default) evaluates the whole [from,to)
  // window as ONE epoch — verdicts identical to the pre-batching pipeline.
  // A positive duration slices the window into bounded epoch batches (at
  // most `max_batch_epochs`; wider slices if needed) and every detector
  // scores all epochs through one score_batch call. Window statistics are
  // then per-epoch, so this is an opt-in analysis granularity, not a pure
  // execution detail.
  sim::SimDuration batch_epoch = 0;
  std::size_t max_batch_epochs = 16;
};

struct DetectorReport {
  std::string detector;
  std::size_t alerts = 0;
  ActorScore score;  // actor-level P/R against abuser ground truth
};

// A detector family the pipeline had to skip: either its fault point fired
// (injected outage) or the detector threw. The run always completes — a
// faulting detector degrades the SOC view, it never takes the pipeline down.
struct SkippedDetector {
  std::string family;  // detector family label, e.g. "behavior.classifier"
  std::string reason;  // why it was blind for this window
};

struct PipelineResult {
  AlertSink alerts;
  std::vector<web::Session> sessions;
  std::vector<DetectorReport> reports;
  // Degraded-mode bookkeeping: which detector families were blind and why.
  bool degraded = false;
  std::vector<SkippedDetector> skipped;

  [[nodiscard]] const DetectorReport* report_for(const std::string& detector) const;
  [[nodiscard]] bool skipped_family(const std::string& family) const;
};

// Batch-accounting totals a pipeline has recorded into its bound metrics
// registry. Path-independent by construction: a run demoted to the scalar
// adapter by the "detect.batch.run" fault point ticks the same values as a
// batched run (plus batch_fallbacks). Conservation law (checked by the
// "detect-batch-conservation" platform invariant): sessions_in ==
// sessions_scored + sessions_skipped.
struct PipelineStats {
  std::uint64_t runs = 0;              // pipeline run() calls
  std::uint64_t epochs = 0;            // epoch views evaluated across runs
  std::uint64_t sessions_in = 0;       // per-family session-views offered
  std::uint64_t sessions_scored = 0;   // ... actually analysed
  std::uint64_t sessions_skipped = 0;  // ... skipped (budget/fault/exception)
  std::uint64_t batch_fallbacks = 0;   // runs forced onto the scalar adapter
};

// Typed read-only accessor over the pipeline counters in a MetricsRegistry.
// This is the one sanctioned way to read pipeline stats — there is no
// struct-copy stats path inside the pipeline anymore.
class PipelineView {
 public:
  PipelineView() = default;
  explicit PipelineView(const obs::MetricsRegistry* metrics) : metrics_(metrics) {}

  [[nodiscard]] PipelineStats stats() const;
  [[nodiscard]] std::uint64_t family_runs(std::string_view family) const;
  [[nodiscard]] std::uint64_t family_skips(std::string_view family) const;
  [[nodiscard]] std::uint64_t family_alerts(std::string_view family) const;
  // Every "detect.<family>.skipped" counter, in name order.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> skips_by_family() const;
  [[nodiscard]] bool bound() const { return metrics_ != nullptr; }

 private:
  const obs::MetricsRegistry* metrics_ = nullptr;
};

class DetectionPipeline {
 public:
  explicit DetectionPipeline(PipelineConfig config = {});

  // Fit the NiP baseline from a clean reference window.
  void fit_nip_baseline(const app::Application& application, sim::SimTime from, sim::SimTime to);

  // Fit the navigation model on a clean reference window's sessions.
  void fit_navigation(const app::Application& application, sim::SimTime from, sim::SimTime to);

  // Enable IP-reputation checks against the given geo database (off until
  // called — the detector needs the address plan to classify origins).
  void enable_ip_reputation(const net::GeoDb& geo) { geo_ = &geo; }

  // Enable the component-level ring detector over the platform's entity
  // graph (off until called — the graph is fed inline on the admit path via
  // Application::set_tap, so the pipeline only reads it). Non-owning.
  void enable_graph(const graph::EntityGraph& graph) { graph_ = &graph; }

  // Optionally train the supervised behaviour classifier on labelled history.
  // The default labelling (every automated actor = 1) is an *oracle* upper
  // bound; real deployments only have labels from past incidents — pass a
  // custom `label_fn` (e.g. scraper incidents only) for the honest setting.
  using LabelFn = std::function<int(web::ActorId)>;
  void train_behavior(const app::Application& application, const app::ActorRegistry& registry,
                      sim::SimTime from, sim::SimTime to, sim::Rng& rng);
  void train_behavior(const app::Application& application, sim::SimTime from, sim::SimTime to,
                      sim::Rng& rng, const LabelFn& label_fn);

  // Runs all detectors over [from, to) and scores them. Each detector family
  // is guarded by a "detect.<family>.run" fault point (evaluated at `to`,
  // the batch-analysis time) and by a catch-all: a faulting detector is
  // recorded in PipelineResult::skipped with degraded=true, and the run
  // completes with the remaining families. Never throws for a single
  // detector failure.
  //
  // Every family scores through its score_batch entry point. A firing
  // "detect.batch.run" fault point demotes the whole run to the base-class
  // scalar adapter (verdicts, artifacts and metrics unchanged, plus one
  // detect.batch.fallbacks tick) — the one way to reach the scalar
  // reference path, which tests use as the batched path's oracle.
  //
  // `analysis_budget` is a deadline on the modeled analysis clock (which
  // starts at `to` and advances per family by its per-session cost):
  // families that would start past the budget are skipped, so an overloaded
  // window degrades the SOC view instead of blowing the analysis window.
  // Unbounded by default.
  [[nodiscard]] PipelineResult run(const app::Application& application,
                                   const app::ActorRegistry& registry, sim::SimTime from,
                                   sim::SimTime to,
                                   overload::Deadline analysis_budget = {}) const;

  // Attach the platform's brownout controller (non-owning; nullptr detaches).
  // Under BROWNOUT/SHED the expensive detector families analyse every
  // stride-th session instead of all of them — detection quality is traded
  // for analysis cost while the platform is hot.
  void set_brownout(const overload::BrownoutController* brownout) { brownout_ = brownout; }

  // Attach the platform's observability context (non-owning; nullptr
  // detaches). When bound, every run records per-family counters
  // ("detect.<family>.{runs,skipped,alerts}") and the path-independent batch
  // counters ("detect.batch.*") in the registry, and one "detect.pipeline"
  // trace with a child span per detector family.
  void bind_obs(obs::Observability* obs) {
    obs_ = obs;
    family_handles_.clear();
    batch_handles_ = BatchHandles{};
  }

  // Typed stats access over the bound registry (unbound pipelines read zeros).
  [[nodiscard]] PipelineView view() const;
  [[nodiscard]] PipelineStats stats() const { return view().stats(); }

  // The detector families a run() would execute right now, in execution
  // order, honouring what has been fitted/trained/enabled. Each element is a
  // uniform Detector — the pipeline has no per-family branches left.
  [[nodiscard]] std::vector<std::unique_ptr<Detector>> build_detectors() const;

  [[nodiscard]] const PipelineConfig& config() const { return config_; }
  [[nodiscard]] const BehaviorClassifier& classifier() const { return classifier_; }

 private:
  // Pre-resolved per-family metric handles, registered on first use and
  // reused across runs — the hot loop never builds a metric name string.
  struct FamilyHandles {
    obs::Counter runs;
    obs::Counter skipped;
    obs::Counter alerts;
    std::string profile_phase;  // "detect.<family>"
  };
  struct BatchHandles {
    obs::Counter runs;
    obs::Counter epochs;
    obs::Counter sessions_in;
    obs::Counter sessions_scored;
    obs::Counter sessions_skipped;
    obs::Counter fallbacks;
    bool bound = false;
  };
  FamilyHandles& family_handles(const char* family) const;
  const BatchHandles& batch_handles() const;

  PipelineConfig config_;
  NipAnomalyDetector nip_;
  BehaviorClassifier classifier_;
  NavigationModel navigation_;
  const net::GeoDb* geo_ = nullptr;
  const graph::EntityGraph* graph_ = nullptr;
  const overload::BrownoutController* brownout_ = nullptr;
  obs::Observability* obs_ = nullptr;
  mutable std::map<std::string, FamilyHandles, std::less<>> family_handles_;
  mutable BatchHandles batch_handles_;
};

}  // namespace fraudsim::detect
