// Cross-attribute fingerprint consistency checking.
//
// Spoofing kits that assemble fingerprints attribute-by-attribute leak
// impossible combinations (Safari on Windows, iOS with 16 cores, a desktop
// with a phone screen, a claimed stack whose rendering hash doesn't match).
// This is the "FP-inconsistent" family of detectors referenced in §III-B.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "fingerprint/fingerprint.hpp"

namespace fraudsim::fp {

// Rule id and reason, both static text.
struct ConsistencyViolation {
  std::string_view rule;
  std::string_view detail;
};

class ConsistencyChecker {
 public:
  // All violated rules; empty = consistent.
  [[nodiscard]] std::vector<ConsistencyViolation> check(const Fingerprint& fp) const;

  // How many rules `fp` violates, without allocating. When `first` is given
  // and the count is positive, it receives the first violation check() lists.
  [[nodiscard]] std::size_t count_violations(const Fingerprint& fp,
                                             ConsistencyViolation* first = nullptr) const;

  // Convenience: score in [0,1]; 0 = consistent, grows with violation count.
  [[nodiscard]] double inconsistency_score(const Fingerprint& fp) const;
  // The score of a given violation count.
  [[nodiscard]] static double score(std::size_t violations);
};

}  // namespace fraudsim::fp
