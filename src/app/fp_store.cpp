#include "app/fp_store.hpp"

namespace fraudsim::app {

FingerprintStore::FingerprintStore()
    : record_fault_(fault::FaultRegistry::global().point("fp.store.record")) {}

void FingerprintStore::observe(const fp::Fingerprint& fingerprint, fp::FpHash hash,
                               sim::SimTime now) {
  if (record_fault_.should_fail(now)) {
    ++dropped_;
    return;
  }
  auto& entry = entries_[hash];
  if (entry.count == 0) entry.fingerprint = fingerprint;
  ++entry.count;
  ++total_;
}

std::uint64_t FingerprintStore::observations(fp::FpHash hash) const {
  const auto it = entries_.find(hash);
  return it == entries_.end() ? 0 : it->second.count;
}

const fp::Fingerprint* FingerprintStore::find(fp::FpHash hash) const {
  const auto it = entries_.find(hash);
  return it == entries_.end() ? nullptr : &it->second.fingerprint;
}

double FingerprintStore::frequency(fp::FpHash hash) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(observations(hash)) / static_cast<double>(total_);
}

}  // namespace fraudsim::app
