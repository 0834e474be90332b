// Passenger-identity pattern analysis (§IV-B).
//
// The detectors that actually caught the case-study attacks:
//   * gibberish identities        ("affjgdui ddfjrei")
//   * repeated identities         (same name across many reservations)
//   * birthdate rotation          (same name, systematically varied birthdate)
//   * permuted fixed sets         (same people, shuffled order across PNRs)
//   * misspelling clusters        (hand-typed variants within edit distance 1,
//                                  found through a one-byte-deletion index)
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "airline/inventory.hpp"
#include "core/detect/alert.hpp"

namespace fraudsim::detect {

struct NamePatternConfig {
  double gibberish_threshold = 0.55;   // mean party gibberish score
  // Same full identity (name AND birthdate) across >= N reservations. Name
  // alone is not an identity: large airlines carry many distinct "J. Smith"s.
  std::uint64_t repeat_threshold = 4;
  std::uint64_t birthdate_variants = 4;  // same name with >= N distinct birthdates
  std::uint64_t party_repeat_threshold = 4;  // same party multiset across >= N PNRs
  std::uint64_t misspell_cluster_size = 4;   // names within 1 edit of a frequent key
  // Scale guard for the name-keyed signals (birthdate rotation, misspelling
  // clusters): the name must also account for at least this share of all
  // passenger-name instances in the analysed set. Ordinary popular names
  // stay far below it at airline scale; a campaign hammering one identity
  // towers above it.
  double name_share_threshold = 0.005;
};

struct NamePatternFindings {
  // PNRs flagged per signal.
  std::set<std::string> gibberish;
  std::set<std::string> repeated_identity;
  std::set<std::string> birthdate_rotation;
  std::set<std::string> permuted_party;
  std::set<std::string> misspelling_cluster;

  [[nodiscard]] std::set<std::string> all_flagged() const;
};

class NamePatternAnalyzer {
 public:
  explicit NamePatternAnalyzer(NamePatternConfig config = {});

  // Analyzes all reservations (typically: one flight's, or a time window's).
  [[nodiscard]] NamePatternFindings analyze(
      const std::vector<const airline::Reservation*>& reservations) const;
  [[nodiscard]] NamePatternFindings analyze(
      const std::vector<airline::Reservation>& reservations) const;

  // Emits one alert per flagged PNR.
  void analyze(const std::vector<const airline::Reservation*>& reservations,
               AlertSink& sink) const;
  void analyze(const std::vector<airline::Reservation>& reservations, AlertSink& sink) const;

  [[nodiscard]] const NamePatternConfig& config() const { return config_; }

 private:
  NamePatternConfig config_;
};

}  // namespace fraudsim::detect
