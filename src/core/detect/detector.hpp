// The uniform detector-family interface.
//
// Every detection family the pipeline runs — behaviour, network reputation,
// fingerprint knowledge, feature-level anomaly — implements this interface,
// so the pipeline iterates one vector instead of hand-written per-family
// branches. The interface layer (DetectionPipeline::run) owns everything a
// family used to hand-roll: fault-point guarding, modeled analysis-cost
// accounting, skip-reason bookkeeping, per-family metrics and trace spans. A
// family has one entry point, `evaluate`, which the pipeline calls once per
// run on the run's single window view.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/detect/alert.hpp"
#include "sim/time.hpp"
#include "web/features.hpp"
#include "web/session.hpp"

namespace fraudsim::app {
class Application;
}

namespace fraudsim::airline {
struct Reservation;
}

namespace fraudsim::detect {

// Modeled batch-analysis cost class: cheap families advance the pipeline's
// analysis clock by 1 ms per session, expensive ones (classifier, navigation,
// biometrics) by 5 ms.
enum class DetectorCost : std::uint8_t { Cheap, Expensive };

[[nodiscard]] constexpr const char* to_string(DetectorCost c) {
  return c == DetectorCost::Expensive ? "expensive" : "cheap";
}

// The first session of each fingerprint in a window, in session order.
using FirstSessionByFp = std::unordered_map<fp::FpHash, const web::Session*>;

// Reservations created in [from, to), in log order.
[[nodiscard]] std::vector<const airline::Reservation*> reservations_in(
    const std::vector<airline::Reservation>& log, sim::SimTime from, sim::SimTime to);

// Read-only view of one analysis window, shared by every family in a run.
// The constructor derives, once, each fact that two or more families read;
// a fact only one family reads stays inside that family.
struct RequestView {
  RequestView(const app::Application& application, sim::SimTime from, sim::SimTime to,
              const std::vector<web::Session>& sessions);

  const app::Application& application;
  sim::SimTime from;
  sim::SimTime to;
  const std::vector<web::Session>& sessions;
  // features[i] are the features of sessions[i] (volume, classifier).
  std::vector<web::SessionFeatures> features;
  // Fingerprint alerts take their session keys from here (artifact,
  // consistency).
  FirstSessionByFp first_session;
  // The window's reservations (NiP, names).
  std::vector<const airline::Reservation*> reservations;
};

class Detector {
 public:
  virtual ~Detector() = default;

  // Family label, e.g. "behavior.volume" (alert attribution + reports).
  [[nodiscard]] virtual const char* name() const = 0;
  // Fault point guarding this family, e.g. "detect.volume.run".
  [[nodiscard]] virtual const char* fault_point() const = 0;
  [[nodiscard]] virtual DetectorCost cost() const = 0;

  // Analyses the window and emits alerts. May throw: the pipeline catches
  // and records the family as skipped — one faulting family never takes the
  // run down.
  virtual void evaluate(const RequestView& view, AlertSink& alerts) = 0;
};

}  // namespace fraudsim::detect
