// Behaviour-based bot detection over session features (§III-A).
//
// Two families:
//   * VolumeThresholdDetector — the simple heuristics production WAFs ship
//     with (requests/session, requests/minute, trap hits, machine pacing).
//   * BehaviorClassifier — L2-regularised logistic regression trained on
//     labelled session features.
//
// The paper's central claim, which bench/exp_detection_comparison reproduces,
// is that both families catch scrapers but are structurally blind to
// low-volume DoI / SMS-pumping sessions.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "core/detect/alert.hpp"
#include "core/detect/ml.hpp"
#include "web/features.hpp"

namespace fraudsim::detect {

struct VolumeThresholds {
  double max_requests_per_session = 120;
  double max_requests_per_minute = 30;
  double min_mean_interarrival_seconds = 2.0;  // faster than this looks robotic
  double max_search_requests = 80;
  bool trap_file_is_bot = true;
};

class VolumeThresholdDetector {
 public:
  explicit VolumeThresholdDetector(VolumeThresholds thresholds = {});

  // True if the session trips any threshold; fills `reason`.
  [[nodiscard]] bool is_bot(const web::SessionFeatures& features, std::string* reason) const;

  // Emits one alert per flagged session; features[i] are sessions[i]'s.
  void analyze(const std::vector<web::Session>& sessions,
               const std::vector<web::SessionFeatures>& features, AlertSink& sink) const;

  [[nodiscard]] const VolumeThresholds& thresholds() const { return thresholds_; }

 private:
  VolumeThresholds thresholds_;
};

// Supervised behaviour classifier with standardised features.
class BehaviorClassifier {
 public:
  // Labels: 1 = automated. Trains scaler + model.
  void train(const std::vector<web::SessionFeatures>& features, const std::vector<int>& labels,
             sim::Rng& rng);

  [[nodiscard]] double score(const web::SessionFeatures& features) const;  // P(bot)
  [[nodiscard]] bool is_bot(const web::SessionFeatures& features, double threshold = 0.5) const;

  // Emits one alert per session scoring at least `threshold`; features[i]
  // are sessions[i]'s.
  void analyze(const std::vector<web::Session>& sessions,
               const std::vector<web::SessionFeatures>& features, AlertSink& sink,
               double threshold = 0.5) const;

  [[nodiscard]] bool trained() const { return trained_; }

 private:
  StandardScaler scaler_;
  LogisticRegression logistic_;
  bool trained_ = false;
};

// Converts SessionFeatures into ml rows.
[[nodiscard]] FeatureRow to_row(const web::SessionFeatures& features);

}  // namespace fraudsim::detect
