// Component-level amplification detector over the entity graph.
//
// The amplification rule (PAPERS.md, Grab): sum the weak per-member signals
// over each connected component and flag the component when the aggregate
// crosses bands no single member crossed. Structure gates the rule — a
// component must both share infrastructure (many sessions per fingerprint /
// exit IP / payment token) and carry enough aggregate signal mass, so a busy
// but diverse legitimate component (one popular /16) never fires while a
// coordinated ring that rotates through a small shared pool does.
//
// A first-class detect::Detector: registered by DetectionPipeline::
// build_detectors() once a graph is attached (enable_graph), guarded by the
// "detect.graph.run" fault point. `evaluate` scores the components once at
// the view's end and alerts every session of a flagged component.
#pragma once

#include <cstdint>
#include <vector>

#include "core/detect/detector.hpp"
#include "core/detect/graph/entity_graph.hpp"

namespace fraudsim::detect::graph {

struct GraphDetectorConfig {
  // Structural gate: a component is only a candidate with at least this many
  // session nodes...
  std::size_t min_sessions = 8;
  // ...re-using infrastructure at this sharing factor (sessions per distinct
  // fingerprint, exit IP, or payment token — the max of the three ratios).
  double min_sharing = 3.0;
  // Amplification gate: weighted decayed signal mass summed over the
  // component. Tuned so a single account's activity stays far below it.
  double signal_threshold = 40.0;
  double weight_requests = 0.2;
  double weight_holds = 2.0;
  double weight_sms = 2.0;
  double weight_pays = 3.0;
};

class GraphDetector final : public Detector {
 public:
  GraphDetector(const EntityGraph& graph, GraphDetectorConfig config = {})
      : graph_(graph), config_(config) {}

  [[nodiscard]] const char* name() const override { return "graph.ring"; }
  [[nodiscard]] const char* fault_point() const override { return "detect.graph.run"; }
  [[nodiscard]] DetectorCost cost() const override { return DetectorCost::Cheap; }

  void evaluate(const RequestView& view, AlertSink& alerts) override;

  // Component verdicts at `at` (signals decayed to that instant), ordered by
  // canonical component id. Exposed for the SOC report, the bench and tests.
  struct ComponentVerdict {
    ComponentSummary summary;
    double sharing = 0.0;
    double signal_mass = 0.0;
    double score = 0.0;
    bool flagged = false;
  };
  [[nodiscard]] std::vector<ComponentVerdict> scored_components(sim::SimTime at) const;

  [[nodiscard]] const GraphDetectorConfig& config() const { return config_; }
  [[nodiscard]] const EntityGraph& graph() const { return graph_; }

 private:
  const EntityGraph& graph_;
  GraphDetectorConfig config_;
};

}  // namespace fraudsim::detect::graph
