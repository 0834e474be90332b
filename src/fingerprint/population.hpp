// Fingerprint population model.
//
// Samples fingerprints with realistic marginals (browser market share, OS
// conditioned on browser, device-typical screens/hardware). Rendering hashes
// derive deterministically from the software/hardware stack, so popular
// configurations are shared by many users — the property that rarity-based
// detection exploits and that attackers exploit in reverse by spoofing
// common configurations (paper §III-B).
#pragma once

#include <cstdint>

#include "fingerprint/fingerprint.hpp"
#include "sim/rng.hpp"

namespace fraudsim::fp {

struct SpoofOptions {
  // Clear navigator.webdriver and headless tells (anti-detection patches).
  bool hide_automation = true;
  // Probability that the spoof introduces a cross-attribute inconsistency
  // (e.g. iOS claiming 16 cores, Safari on Windows). Sophisticated kits keep
  // this near 0; naive spoofers leak inconsistencies.
  double inconsistency_prob = 0.0;
};

class PopulationModel {
 public:
  PopulationModel() = default;

  // A fingerprint drawn from the legitimate-user population.
  [[nodiscard]] Fingerprint sample(sim::Rng& rng) const;

  // A bot fingerprint produced by an instrumentation framework with no
  // spoofing: carries webdriver/headless artifacts on a default stack.
  [[nodiscard]] Fingerprint sample_naive_bot(sim::Rng& rng) const;

  // A spoofed fingerprint that mimics the population (used for rotation).
  [[nodiscard]] Fingerprint sample_spoofed(sim::Rng& rng, const SpoofOptions& opts) const;

 private:
  [[nodiscard]] Fingerprint sample_base(sim::Rng& rng) const;
};

// The rendering digests a fingerprint's stack attributes imply (browser,
// version, OS, screen). Allocates nothing.
struct RenderingHashes {
  std::uint64_t canvas = 0;
  std::uint64_t webgl = 0;
  std::uint64_t fonts = 0;
};
[[nodiscard]] RenderingHashes rendering_hashes(const Fingerprint& fp);

// Recomputes rendering digests from the stack attributes; call after any
// manual attribute edits to keep the fingerprint self-consistent.
void derive_rendering_hashes(Fingerprint& fp);

}  // namespace fraudsim::fp
