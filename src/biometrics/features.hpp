// Trajectory feature extraction for biometric bot detection.
#pragma once

#include <cstdint>
#include <optional>

#include "biometrics/mouse.hpp"

namespace fraudsim::biometrics {

struct TrajectoryFeatures {
  double path_efficiency = 0;   // straight-line distance / travelled distance
  double mean_speed = 0;        // px/ms
  double speed_cv = 0;          // coefficient of variation of segment speeds
  double mean_curvature = 0;    // mean absolute heading change per segment (rad)
  double pause_fraction = 0;    // time in >60 ms inter-point gaps / duration
  double point_count = 0;
  double duration_ms = 0;
  std::uint64_t digest = 0;     // geometry digest (for replay detection)

  [[nodiscard]] std::vector<double> as_vector() const {
    return {path_efficiency, mean_speed, speed_cv, mean_curvature, pause_fraction,
            point_count, duration_ms};
  }

  // Wire field list (journal records, state checkpoints; util/archive.hpp).
  template <class Ar>
  void visit(Ar& ar) {
    ar(path_efficiency, mean_speed, speed_cv, mean_curvature, pause_fraction, point_count,
       duration_ms, digest);
  }
};

// Extracts features; trajectories with < 2 points yield nullopt.
[[nodiscard]] std::optional<TrajectoryFeatures> extract(const MouseTrajectory& trajectory);

}  // namespace fraudsim::biometrics
