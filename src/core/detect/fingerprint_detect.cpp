#include "core/detect/fingerprint_detect.hpp"

#include <utility>
#include <vector>

namespace fraudsim::detect {

namespace {

template <class Rule>
void flag_fingerprints(const Rule& rule, const char* detector, const app::FingerprintStore& store,
                       const FirstSessionByFp& first_session, AlertSink& sink) {
  store.for_each([&](fp::FpHash hash, const fp::Fingerprint& fingerprint, std::uint64_t) {
    std::string reason;
    if (!rule.is_bot(fingerprint, &reason)) return;
    Alert alert;
    alert.detector = detector;
    alert.explanation = std::move(reason);
    alert.fingerprint = hash;
    if (const auto it = first_session.find(hash); it != first_session.end()) {
      alert.time = it->second->end();
      alert.session = it->second->id;
      alert.actor = it->second->actor;
    }
    sink.emit(std::move(alert));
  });
}

}  // namespace

bool ArtifactDetector::is_bot(const fp::Fingerprint& fingerprint, std::string* reason) const {
  if (fingerprint.webdriver_flag) {
    if (reason != nullptr) *reason = "navigator.webdriver exposed";
    return true;
  }
  if (fingerprint.headless_hint) {
    if (reason != nullptr) *reason = "headless browser token in user agent";
    return true;
  }
  return false;
}

void ArtifactDetector::analyze(const app::FingerprintStore& store,
                               const FirstSessionByFp& first_session, AlertSink& sink) const {
  flag_fingerprints(*this, "fingerprint.artifact", store, first_session, sink);
}

ConsistencyDetector::ConsistencyDetector(double min_score) : min_score_(min_score) {}

bool ConsistencyDetector::is_bot(const fp::Fingerprint& fingerprint, std::string* reason) const {
  fp::ConsistencyViolation first;
  const std::size_t violations = checker_.count_violations(fingerprint, &first);
  if (fp::ConsistencyChecker::score(violations) < min_score_) return false;
  if (reason != nullptr && violations > 0) {
    reason->assign(first.rule).append(": ").append(first.detail);
  }
  return true;
}

void ConsistencyDetector::analyze(const app::FingerprintStore& store,
                                  const FirstSessionByFp& first_session, AlertSink& sink) const {
  flag_fingerprints(*this, "fingerprint.consistency", store, first_session, sink);
}

RarityDetector::RarityDetector(double rare_frequency, std::uint64_t min_observations)
    : rare_frequency_(rare_frequency), min_observations_(min_observations) {}

bool RarityDetector::is_rare(const app::FingerprintStore& store, fp::FpHash hash) const {
  const auto observations = store.observations(hash);
  if (observations < min_observations_) return false;
  return store.frequency(hash) < rare_frequency_;
}

void RarityDetector::analyze(const app::FingerprintStore& store, AlertSink& sink) const {
  store.for_each([&](fp::FpHash hash, const fp::Fingerprint&, std::uint64_t count) {
    if (count < min_observations_) return;
    if (store.frequency(hash) >= rare_frequency_) return;
    Alert alert;
    alert.detector = "fingerprint.rarity";
    alert.severity = Severity::Info;
    alert.explanation = "busy but rare fingerprint (" + std::to_string(count) + " observations)";
    alert.fingerprint = hash;
    sink.emit(std::move(alert));
  });
}

void FingerprintBlocklist::block(fp::FpHash hash, sim::SimTime when, std::string reason) {
  auto& entry = entries_[hash];
  if (entry.hits == 0 && entry.added == 0) {
    entry.added = when;
    entry.reason = std::move(reason);
  }
}

bool FingerprintBlocklist::contains(fp::FpHash hash) const { return entries_.contains(hash); }

void FingerprintBlocklist::note_hit(fp::FpHash hash, sim::SimTime when) {
  const auto it = entries_.find(hash);
  if (it == entries_.end()) return;
  it->second.last_hit = when;
  ++it->second.hits;
}

std::vector<double> FingerprintBlocklist::effectiveness_windows_hours() const {
  std::vector<double> out;
  for (const auto& [hash, entry] : entries_) {
    (void)hash;
    if (entry.last_hit < 0) continue;  // blocked pre-emptively, never seen again
    out.push_back(sim::to_hours(entry.last_hit - entry.added));
  }
  return out;
}

}  // namespace fraudsim::detect
