// Observed-fingerprint store.
//
// Server-side record of every fingerprint presented to the application:
// the raw attribute vector (for consistency checks) plus observation counts
// (for rarity scoring). Keyed by the fingerprint digest.
//
// The "fp.store.record" fault point models telemetry loss (dropped beacons,
// ingest backlog): observations hit while the point fires are silently
// discarded — the knowledge-based detectors go partially blind, which is
// exactly the degradation window an attacker exploits. dropped() counts the
// loss so the SOC can see the gap.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "core/fault/fault.hpp"
#include "fingerprint/fingerprint.hpp"
#include "sim/time.hpp"
#include "util/archive.hpp"

namespace fraudsim::app {

class FingerprintStore : public util::Checkpointed<FingerprintStore> {
 public:
  FingerprintStore();

  void observe(const fp::Fingerprint& fingerprint, sim::SimTime now = 0);

  [[nodiscard]] std::uint64_t observations(fp::FpHash hash) const;
  [[nodiscard]] std::uint64_t total_observations() const { return total_; }
  [[nodiscard]] std::size_t distinct() const { return entries_.size(); }
  [[nodiscard]] const fp::Fingerprint* find(fp::FpHash hash) const;

  // Fraction of all observations carrying this hash (population frequency).
  [[nodiscard]] double frequency(fp::FpHash hash) const;

  // Observations lost to injected telemetry faults.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [hash, entry] : entries_) fn(hash, entry.fingerprint, entry.count);
  }

  template <class Ar>
  void visit(Ar& ar) {
    ar(total_, dropped_, entries_);
  }

 private:
  struct Entry {
    fp::Fingerprint fingerprint;
    std::uint64_t count = 0;

    template <class Ar>
    void visit(Ar& ar) {
      ar(count, fingerprint);
    }
  };
  std::unordered_map<fp::FpHash, Entry> entries_;
  std::uint64_t total_ = 0;
  fault::FaultPoint& record_fault_;
  std::uint64_t dropped_ = 0;
};

}  // namespace fraudsim::app
