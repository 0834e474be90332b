// PNR record locators.
#pragma once

#include <string>
#include <unordered_set>

#include "sim/rng.hpp"

namespace fraudsim::airline {

// Generates unique 6-character record locators (uppercase letters and digits,
// first character alphabetic — the GDS convention).
class PnrGenerator : public util::Checkpointed<PnrGenerator> {
 public:
  explicit PnrGenerator(sim::Rng rng);

  [[nodiscard]] std::string next();
  [[nodiscard]] std::size_t issued() const { return issued_.size(); }

  // Checkpoint support: RNG stream plus the issued set, so restored
  // generators continue the original locator sequence without collisions.
  template <class Ar>
  void visit(Ar& ar) {
    ar(rng_, issued_);
  }

 private:
  sim::Rng rng_;
  std::unordered_set<std::string> issued_;
};

}  // namespace fraudsim::airline
