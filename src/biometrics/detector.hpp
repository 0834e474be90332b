// Biometric bot detection over trajectory features.
//
// Two signals:
//   * kinematic implausibility — scripted movement is too straight, too
//     uniform, or instantaneous compared to the human envelope
//   * replay — the same geometry digest recurring across interactions
//     (recorded-human evasion)
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "biometrics/features.hpp"
#include "util/archive.hpp"

namespace fraudsim::biometrics {

struct BiometricThresholds {
  // Humans rarely exceed 0.97 efficiency over non-trivial distances.
  double max_path_efficiency = 0.97;
  // Human segment speeds vary a lot (speed_cv typically 0.3-1.0).
  double min_speed_cv = 0.12;
  // Sub-human durations (teleports) are instant giveaways.
  double min_duration_ms = 80.0;
  // Digest seen at least this many times counts as a replay.
  std::uint64_t replay_threshold = 3;
};

class BiometricDetector : public util::Checkpointed<BiometricDetector> {
 public:
  explicit BiometricDetector(BiometricThresholds thresholds = {});

  // Kinematic check only (stateless).
  [[nodiscard]] bool is_scripted(const TrajectoryFeatures& features, std::string* reason) const;

  // Stateful check: records the digest and reports replay once the same
  // geometry recurs. Combines with the kinematic check.
  [[nodiscard]] bool observe(const TrajectoryFeatures& features, std::string* reason);

  [[nodiscard]] std::uint64_t replays_detected() const { return replays_; }

  // Checkpoint support (replay digests accumulate across sweeps).
  template <class Ar>
  void visit(Ar& ar) {
    ar(replays_, digest_counts_);
  }

 private:
  BiometricThresholds thresholds_;
  std::unordered_map<std::uint64_t, std::uint64_t> digest_counts_;
  std::uint64_t replays_ = 0;
};

}  // namespace fraudsim::biometrics
