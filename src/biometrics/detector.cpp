#include "biometrics/detector.hpp"

namespace fraudsim::biometrics {

BiometricDetector::BiometricDetector(BiometricThresholds thresholds)
    : thresholds_(thresholds) {}

bool BiometricDetector::is_scripted(const TrajectoryFeatures& features,
                                    std::string* reason) const {
  auto set_reason = [&](const char* r) {
    if (reason != nullptr) *reason = r;
  };
  if (features.duration_ms < thresholds_.min_duration_ms) {
    set_reason("pointer teleport (sub-human duration)");
    return true;
  }
  if (features.path_efficiency > thresholds_.max_path_efficiency &&
      features.speed_cv < thresholds_.min_speed_cv) {
    set_reason("geometrically perfect, uniform-speed movement");
    return true;
  }
  if (features.speed_cv < thresholds_.min_speed_cv / 2.0) {
    set_reason("machine-uniform speed profile");
    return true;
  }
  return false;
}

bool BiometricDetector::observe(const TrajectoryFeatures& features, std::string* reason) {
  if (is_scripted(features, reason)) return true;
  const auto count = ++digest_counts_[features.digest];
  if (count >= thresholds_.replay_threshold) {
    ++replays_;
    if (reason != nullptr) *reason = "replayed trajectory (geometry digest recurs)";
    return true;
  }
  return false;
}

}  // namespace fraudsim::biometrics
