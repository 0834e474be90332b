#include "core/detect/name_patterns.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/hash.hpp"
#include "util/strings.hpp"

namespace fraudsim::detect {

NamePatternAnalyzer::NamePatternAnalyzer(NamePatternConfig config) : config_(config) {}

std::set<std::string> NamePatternFindings::all_flagged() const {
  std::set<std::string> all;
  all.insert(gibberish.begin(), gibberish.end());
  all.insert(repeated_identity.begin(), repeated_identity.end());
  all.insert(birthdate_rotation.begin(), birthdate_rotation.end());
  all.insert(permuted_party.begin(), permuted_party.end());
  all.insert(misspelling_cluster.begin(), misspelling_cluster.end());
  return all;
}

namespace {

using Reservations = std::vector<const airline::Reservation*>;

// The bookings carrying one name key, also split by birthdate. A birthdate
// string never holds '|', so one by_birthdate entry groups exactly the
// bookings that share a Passenger::identity_key() (name AND birthdate).
struct NameGroup {
  Reservations reservations;
  std::map<std::string, Reservations> by_birthdate;
};
using NameGroups = std::unordered_map<std::string, NameGroup>;

// Hashes of {key, key with byte j deleted for every j}. Bytes, not code
// points, exactly as util::levenshtein counts edits. FNV-1a reads bytes in
// order, so a deletion's hash is the prefix state fed the suffix: the same
// string hashes the same whichever key and position it came from.
void deletion_hashes(std::string_view key, std::vector<std::uint64_t>& out) {
  out.clear();
  out.push_back(util::fnv1a(key));
  std::uint64_t prefix = util::fnv1a({});
  for (std::size_t j = 0; j < key.size(); ++j) {
    out.push_back(util::fnv1a_append(prefix, key.substr(j + 1)));
    prefix = util::fnv1a_append(prefix, key.substr(j, 1));
  }
}

// The deletion hashes of a set of keys, bucketed by hash (a counting sort
// into a power-of-two table at least as large as the entry count), so a
// lookup scans about one entry.
class DeletionIndex {
 public:
  void add(std::uint64_t hash, std::uint32_t key) { entries_.push_back({hash, key}); }

  void build() {
    shift_ = 64 - std::max(1, static_cast<int>(std::bit_width(entries_.size())));
    start_.assign((std::size_t{1} << (64 - shift_)) + 1, 0);
    for (const Entry& e : entries_) ++start_[bucket(e.hash) + 1];
    std::partial_sum(start_.begin(), start_.end(), start_.begin());
    std::vector<Entry> sorted(entries_.size());
    std::vector<std::uint32_t> next(start_.begin(), start_.end() - 1);
    for (const Entry& e : entries_) sorted[next[bucket(e.hash)]++] = e;
    entries_ = std::move(sorted);
  }

  // Appends every key added with `hash`.
  void find(std::uint64_t hash, std::vector<std::uint32_t>& keys) const {
    const std::size_t b = bucket(hash);
    for (std::uint32_t i = start_[b]; i < start_[b + 1]; ++i) {
      if (entries_[i].hash == hash) keys.push_back(entries_[i].key);
    }
  }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::uint32_t key = 0;
  };
  [[nodiscard]] std::size_t bucket(std::uint64_t hash) const {
    return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  int shift_ = 63;
  std::vector<std::uint32_t> start_;
  std::vector<Entry> entries_;
};

}  // namespace

NamePatternFindings NamePatternAnalyzer::analyze(const Reservations& reservations) const {
  NamePatternFindings findings;

  // Pass 1: global aggregation. Each passenger's name key is built once and
  // reused for the identity and party groupings.
  NameGroups by_name_key;
  std::unordered_map<std::string, Reservations> by_party_key;
  std::size_t total_name_instances = 0;

  std::vector<std::string> party;
  for (const auto* r : reservations) {
    party.clear();
    for (const auto& p : r->passengers) {
      std::string key = p.name_key();
      auto& group = by_name_key[key];
      group.reservations.push_back(r);
      group.by_birthdate[p.birthdate.str()].push_back(r);
      party.push_back(std::move(key));
      ++total_name_instances;
    }
    by_party_key[airline::party_key(std::move(party))].push_back(r);
  }
  const double share_floor =
      config_.name_share_threshold * static_cast<double>(total_name_instances);

  // Gibberish: per-reservation mean score over the party's names.
  for (const auto* r : reservations) {
    double total = 0.0;
    std::size_t n = 0;
    for (const auto& p : r->passengers) {
      total += util::gibberish_score(p.first_name);
      total += util::gibberish_score(p.surname);
      n += 2;
    }
    if (n > 0 && total / static_cast<double>(n) >= config_.gibberish_threshold) {
      findings.gibberish.insert(r->pnr);
    }
  }

  // Repeated identities: the same person (name AND birthdate) across many
  // distinct reservations — rare for genuine travellers within one window.
  for (const auto& [key, group] : by_name_key) {
    (void)key;
    for (const auto& [birthdate, rs] : group.by_birthdate) {
      (void)birthdate;
      if (rs.size() < config_.repeat_threshold) continue;
      for (const auto* r : rs) findings.repeated_identity.insert(r->pnr);
    }
  }

  // Birthdate rotation: one NAME dominating the window while cycling through
  // many birthdates (Airline B's fixed-name signature). The share floor keeps
  // genuinely popular names from firing at airline scale.
  for (const auto& [key, group] : by_name_key) {
    (void)key;
    const auto& rs = group.reservations;
    if (rs.size() < config_.repeat_threshold) continue;
    if (static_cast<double>(rs.size()) < share_floor) continue;
    if (group.by_birthdate.size() >= config_.birthdate_variants) {
      for (const auto* r : rs) findings.birthdate_rotation.insert(r->pnr);
    }
  }

  // Permuted parties: the same multiset of people across many reservations.
  for (const auto& [key, rs] : by_party_key) {
    (void)key;
    if (rs.size() < config_.party_repeat_threshold) continue;
    for (const auto* r : rs) findings.permuted_party.insert(r->pnr);
  }

  // Misspelling clusters: name keys within edit distance 1 of a key that
  // repeats. Hand-typed variants land here even when exact repetition stays
  // below threshold. Two byte strings are within one edit exactly when their
  // {self, one-byte deletions} sets share an entry, so an index of the
  // repeated keys' entries yields every candidate, and within_edit_distance
  // confirms it: a transposition shares a deletion at distance 2, and a hash
  // collision shares an entry by accident.
  std::vector<const NameGroups::value_type*> keys;
  std::vector<std::uint32_t> repeated;  // positions in keys of names seen repeatedly
  keys.reserve(by_name_key.size());
  for (const auto& entry : by_name_key) {
    if (entry.second.reservations.size() >= 2) {
      repeated.push_back(static_cast<std::uint32_t>(keys.size()));
    }
    keys.push_back(&entry);
  }
  std::vector<std::uint64_t> hashes;
  DeletionIndex index;
  for (std::uint32_t i = 0; i < repeated.size(); ++i) {
    deletion_hashes(keys[repeated[i]]->first, hashes);
    for (const std::uint64_t h : hashes) index.add(h, i);
  }
  index.build();

  std::vector<std::size_t> variant_bookings(repeated.size());
  std::vector<std::vector<std::uint32_t>> variants(repeated.size());
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t k = 0; k < keys.size(); ++k) {
    const std::string& other = keys[k]->first;
    deletion_hashes(other, hashes);
    candidates.clear();
    for (const std::uint64_t h : hashes) index.find(h, candidates);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
    for (const std::uint32_t i : candidates) {
      if (repeated[i] == k) continue;
      if (!util::within_edit_distance(keys[repeated[i]]->first, other, 1)) continue;
      variant_bookings[i] += keys[k]->second.reservations.size();
      variants[i].push_back(k);
    }
  }
  for (std::uint32_t i = 0; i < repeated.size(); ++i) {
    const auto& rs = keys[repeated[i]]->second.reservations;
    const std::size_t cluster = rs.size() + variant_bookings[i];
    if (variants[i].empty() || cluster < config_.misspell_cluster_size) continue;
    // Scale guard: distinct real people can carry near-identical names; a
    // hand-typed campaign's cluster dominates the window instead.
    if (static_cast<double>(cluster) < share_floor) continue;
    for (const auto* r : rs) findings.misspelling_cluster.insert(r->pnr);
    for (const std::uint32_t v : variants[i]) {
      for (const auto* r : keys[v]->second.reservations) {
        findings.misspelling_cluster.insert(r->pnr);
      }
    }
  }

  return findings;
}

NamePatternFindings NamePatternAnalyzer::analyze(
    const std::vector<airline::Reservation>& reservations) const {
  std::vector<const airline::Reservation*> ptrs;
  ptrs.reserve(reservations.size());
  for (const auto& r : reservations) ptrs.push_back(&r);
  return analyze(ptrs);
}

void NamePatternAnalyzer::analyze(const std::vector<airline::Reservation>& reservations,
                                  AlertSink& sink) const {
  std::vector<const airline::Reservation*> ptrs;
  ptrs.reserve(reservations.size());
  for (const auto& r : reservations) ptrs.push_back(&r);
  analyze(ptrs, sink);
}

void NamePatternAnalyzer::analyze(const std::vector<const airline::Reservation*>& reservations,
                                  AlertSink& sink) const {
  const auto findings = analyze(reservations);
  std::unordered_map<std::string, const airline::Reservation*> by_pnr;
  for (const auto* r : reservations) by_pnr[r->pnr] = r;

  auto emit = [&](const std::set<std::string>& pnrs, const char* signal) {
    for (const auto& pnr : pnrs) {
      const auto it = by_pnr.find(pnr);
      if (it == by_pnr.end()) continue;
      Alert alert;
      alert.time = it->second->created;
      alert.detector = std::string("name.") + signal;
      alert.severity = Severity::Warning;
      alert.explanation = std::string("identity pattern: ") + signal;
      alert.pnr = pnr;
      alert.fingerprint = it->second->source_fp;
      alert.ip = it->second->source_ip;
      alert.actor = it->second->actor;
      sink.emit(std::move(alert));
    }
  };
  emit(findings.gibberish, "gibberish");
  emit(findings.repeated_identity, "repeated");
  emit(findings.birthdate_rotation, "birthdate-rotation");
  emit(findings.permuted_party, "permuted-party");
  emit(findings.misspelling_cluster, "misspelling-cluster");
}

}  // namespace fraudsim::detect
