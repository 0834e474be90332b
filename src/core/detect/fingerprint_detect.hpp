// Knowledge-based (fingerprint) detection (§III-B).
//
// Four detectors mirroring the techniques the paper reviews:
//   * ArtifactDetector     — navigator.webdriver / headless tells
//   * ConsistencyDetector  — impossible attribute combinations
//   * RarityDetector       — fingerprints never seen in the population
//   * FingerprintBlocklist — operational blocking built from incidents;
//                            the thing rotation defeats
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "app/fp_store.hpp"
#include "core/detect/alert.hpp"
#include "core/detect/detector.hpp"
#include "fingerprint/consistency.hpp"
#include "web/session.hpp"

namespace fraudsim::detect {

// Both rule detectors emit one alert per stored fingerprint the rule flags,
// keyed by the first session that carried it in the window (if any).
class ArtifactDetector {
 public:
  [[nodiscard]] bool is_bot(const fp::Fingerprint& fingerprint, std::string* reason) const;
  void analyze(const app::FingerprintStore& store, const FirstSessionByFp& first_session,
               AlertSink& sink) const;
};

class ConsistencyDetector {
 public:
  explicit ConsistencyDetector(double min_score = 0.3);
  [[nodiscard]] bool is_bot(const fp::Fingerprint& fingerprint, std::string* reason) const;
  void analyze(const app::FingerprintStore& store, const FirstSessionByFp& first_session,
               AlertSink& sink) const;

 private:
  fp::ConsistencyChecker checker_;
  double min_score_;
};

// Flags fingerprints whose population frequency is below `rare_frequency`
// despite `min_observations` sightings (one-off fingerprints are normal; a
// busy client with a never-seen-before stack is what stands out).
class RarityDetector {
 public:
  RarityDetector(double rare_frequency = 1e-4, std::uint64_t min_observations = 30);
  void analyze(const app::FingerprintStore& store, AlertSink& sink) const;
  [[nodiscard]] bool is_rare(const app::FingerprintStore& store, fp::FpHash hash) const;

 private:
  double rare_frequency_;
  std::uint64_t min_observations_;
};

// Operational blocklist. The mitigation controller adds hashes here; the
// rule engine consults it at ingress. Tracks when each hash was added and
// when it last matched so rotation dynamics can be measured.
class FingerprintBlocklist : public util::Checkpointed<FingerprintBlocklist> {
 public:
  void block(fp::FpHash hash, sim::SimTime when, std::string reason);
  [[nodiscard]] bool contains(fp::FpHash hash) const;
  void note_hit(fp::FpHash hash, sim::SimTime when);

  struct Entry {
    sim::SimTime added = 0;
    sim::SimTime last_hit = -1;
    std::string reason;
    std::uint64_t hits = 0;

    template <class Ar>
    void visit(Ar& ar) {
      ar(added, last_hit, reason, hits);
    }
  };
  [[nodiscard]] const std::unordered_map<fp::FpHash, Entry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  // How long each blocked fingerprint kept appearing after being blocked
  // (last_hit - added), hours; the effectiveness window of each rule.
  [[nodiscard]] std::vector<double> effectiveness_windows_hours() const;

  template <class Ar>
  void visit(Ar& ar) {
    ar(entries_);
  }

 private:
  std::unordered_map<fp::FpHash, Entry> entries_;
};

}  // namespace fraudsim::detect
