#include "core/detect/fingerprint_detect.hpp"

#include <vector>

namespace fraudsim::detect {

namespace {

// Finds one representative session per fingerprint so alerts can carry
// session/actor keys for scoring.
std::unordered_map<fp::FpHash, const web::Session*> sessions_by_fp(
    const std::vector<web::Session>& sessions) {
  std::unordered_map<fp::FpHash, const web::Session*> out;
  for (const auto& s : sessions) {
    if (s.requests.empty()) continue;
    out.emplace(s.requests.front().fp_hash, &s);
  }
  return out;
}

void emit_fp_alert(AlertSink& sink, const std::string& detector, const std::string& reason,
                   fp::FpHash hash, const web::Session* session) {
  Alert alert;
  alert.detector = detector;
  alert.severity = Severity::Warning;
  alert.explanation = reason;
  alert.fingerprint = hash;
  if (session != nullptr) {
    alert.time = session->end();
    alert.session = session->id;
    alert.actor = session->actor;
  }
  sink.emit(std::move(alert));
}

// The memoized half of the batched artifact/consistency path: judge every
// stored fingerprint once (in for_each order — the order analyze emits in),
// keeping only the flagged ones.
struct FlaggedFp {
  fp::FpHash hash;
  std::string reason;
};

template <typename IsBot>
std::vector<FlaggedFp> flag_store(const app::FingerprintStore& store, const IsBot& is_bot) {
  std::vector<FlaggedFp> out;
  store.for_each([&](fp::FpHash hash, const fp::Fingerprint& fingerprint, std::uint64_t) {
    std::string reason;
    if (!is_bot(fingerprint, &reason)) return;
    out.push_back(FlaggedFp{hash, std::move(reason)});
  });
  return out;
}

// Replays one flagged-fingerprint list against each session set in order.
void emit_flagged(const std::vector<FlaggedFp>& flagged, const std::string& detector,
                  SessionSets session_sets, AlertSink& sink,
                  std::vector<std::size_t>* alerts_per_set) {
  if (alerts_per_set != nullptr) alerts_per_set->assign(session_sets.size(), 0);
  for (std::size_t i = 0; i < session_sets.size(); ++i) {
    const auto by_fp = sessions_by_fp(*session_sets[i]);
    for (const auto& f : flagged) {
      const auto it = by_fp.find(f.hash);
      emit_fp_alert(sink, detector, f.reason, f.hash, it == by_fp.end() ? nullptr : it->second);
    }
    if (alerts_per_set != nullptr) (*alerts_per_set)[i] = flagged.size();
  }
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
                               const std::vector<web::Session>& sessions, AlertSink& sink) const {
  const auto by_fp = sessions_by_fp(sessions);
  store.for_each([&](fp::FpHash hash, const fp::Fingerprint& fingerprint, std::uint64_t) {
    std::string reason;
    if (!is_bot(fingerprint, &reason)) return;
    const auto it = by_fp.find(hash);
    emit_fp_alert(sink, "fingerprint.artifact", reason, hash,
                  it == by_fp.end() ? nullptr : it->second);
  });
}

void ArtifactDetector::analyze_many(const app::FingerprintStore& store, SessionSets session_sets,
                                    AlertSink& sink,
                                    std::vector<std::size_t>* alerts_per_set) const {
  const auto flagged = flag_store(
      store, [this](const fp::Fingerprint& f, std::string* r) { return is_bot(f, r); });
  emit_flagged(flagged, "fingerprint.artifact", session_sets, sink, alerts_per_set);
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
                                  const std::vector<web::Session>& sessions,
                                  AlertSink& sink) const {
  const auto by_fp = sessions_by_fp(sessions);
  store.for_each([&](fp::FpHash hash, const fp::Fingerprint& fingerprint, std::uint64_t) {
    std::string reason;
    if (!is_bot(fingerprint, &reason)) return;
    const auto it = by_fp.find(hash);
    emit_fp_alert(sink, "fingerprint.consistency", reason, hash,
                  it == by_fp.end() ? nullptr : it->second);
  });
}

void ConsistencyDetector::analyze_many(const app::FingerprintStore& store,
                                       SessionSets session_sets, AlertSink& sink,
                                       std::vector<std::size_t>* alerts_per_set) const {
  const auto flagged = flag_store(
      store, [this](const fp::Fingerprint& f, std::string* r) { return is_bot(f, r); });
  emit_flagged(flagged, "fingerprint.consistency", session_sets, sink, alerts_per_set);
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

void RarityDetector::analyze_repeated(const app::FingerprintStore& store, std::size_t repeats,
                                      AlertSink& sink,
                                      std::vector<std::size_t>* alerts_per_repeat) const {
  if (alerts_per_repeat != nullptr) alerts_per_repeat->assign(repeats, 0);
  if (repeats == 0) return;
  // One scan; the verdict list has no window dependence, so later epochs
  // replay it verbatim.
  std::vector<std::pair<fp::FpHash, std::uint64_t>> rare;
  store.for_each([&](fp::FpHash hash, const fp::Fingerprint&, std::uint64_t count) {
    if (count < min_observations_) return;
    if (store.frequency(hash) >= rare_frequency_) return;
    rare.emplace_back(hash, count);
  });
  for (std::size_t i = 0; i < repeats; ++i) {
    for (const auto& [hash, count] : rare) {
      Alert alert;
      alert.detector = "fingerprint.rarity";
      alert.severity = Severity::Info;
      alert.explanation =
          "busy but rare fingerprint (" + std::to_string(count) + " observations)";
      alert.fingerprint = hash;
      sink.emit(std::move(alert));
    }
    if (alerts_per_repeat != nullptr) (*alerts_per_repeat)[i] = rare.size();
  }
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
