#include "core/detect/name_patterns.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/hash.hpp"
#include "util/intern.hpp"
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

// Hashes of {key, key with byte j deleted for every j}. Bytes, not code
// points, exactly as util::levenshtein counts edits. Each is a polynomial
// hash of the resulting string alone (whichever key and position it came
// from), mixed with its length. With prefix hashes from the front and suffix
// hashes from the back, every deletion costs O(1).
void deletion_hashes(std::string_view key, std::vector<std::uint64_t>& out) {
  constexpr std::uint64_t kBase = 0x100000001b3ULL;
  const auto byte = [&key](std::size_t i) {
    return static_cast<std::uint64_t>(static_cast<unsigned char>(key[i])) + 1;
  };
  const std::size_t n = key.size();
  out.assign(n + 1, 0);
  // out[j + 1] = hash of key[0, j) for now; out[0] = hash of key.
  std::uint64_t prefix = 0;
  for (std::size_t j = 0; j < n; ++j) {
    out[j + 1] = prefix;
    prefix = prefix * kBase + byte(j);
  }
  out[0] = util::splitmix64(prefix ^ n);
  std::uint64_t suffix = 0;  // hash of key[j + 1, n)
  std::uint64_t power = 1;   // kBase^(n - 1 - j)
  for (std::size_t j = n; j-- > 0;) {
    out[j + 1] = util::splitmix64((out[j + 1] * power + suffix) ^ (n - 1));
    suffix += byte(j) * power;
    power *= kBase;
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

// One passenger of the window: name id, birthdate, booking position.
struct NameRow {
  std::uint32_t name = 0;
  airline::Date birthdate;
  std::uint32_t booking = 0;
};

}  // namespace

NamePatternFindings NamePatternAnalyzer::analyze(const Reservations& reservations) const {
  NamePatternFindings findings;
  const auto flag = [&reservations](std::set<std::string>& signal, std::uint32_t booking) {
    signal.insert(reservations[booking]->pnr);
  };

  // Pass 1: every passenger's name key and every party key, interned once.
  // Interned ids start at 1; names and parties are numbered from 0 here.
  util::InternTable names;
  util::InternTable parties;
  const auto key = [&names](std::uint32_t name) { return names.str(name + 1); };
  std::vector<NameRow> rows;
  std::vector<std::uint32_t> party_of(reservations.size());
  std::vector<std::string_view> party;
  std::string party_text;
  for (std::uint32_t b = 0; b < reservations.size(); ++b) {
    const std::size_t party_begin = rows.size();
    for (const auto& p : reservations[b]->passengers) {
      rows.push_back({names.intern(p.name_key()) - 1, p.birthdate, b});
    }
    // Views into `names` last only until its next intern.
    party.clear();
    for (std::size_t i = party_begin; i < rows.size(); ++i) party.push_back(key(rows[i].name));
    airline::party_key(party, party_text);
    party_of[b] = parties.intern(party_text) - 1;
  }
  const double share_floor = config_.name_share_threshold * static_cast<double>(rows.size());

  // Rows grouped by name with a counting sort: by_name[start[n], start[n + 1])
  // are the rows of name n, later sorted by birthdate so that each birthdate
  // run is one identity (name AND birthdate).
  std::vector<std::uint32_t> start(names.size() + 1, 0);
  for (const NameRow& row : rows) ++start[row.name + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<NameRow> by_name(rows.size());
  {
    std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
    for (const NameRow& row : rows) by_name[next[row.name]++] = row;
  }
  const auto bookings = [&](std::uint32_t name) {
    return std::span<NameRow>(by_name).subspan(start[name], start[name + 1] - start[name]);
  };

  // Gibberish: per-reservation mean score over the party's names. Each
  // distinct name is scored once.
  util::InternTable scored;
  std::vector<double> scores;  // by interned id - 1
  const auto gibberish = [&](std::string_view name) {
    const std::uint32_t id = scored.intern(name);
    if (id > scores.size()) scores.push_back(util::gibberish_score(name));
    return scores[id - 1];
  };
  for (std::uint32_t b = 0; b < reservations.size(); ++b) {
    double total = 0.0;
    std::size_t n = 0;
    for (const auto& p : reservations[b]->passengers) {
      total += gibberish(p.first_name);
      total += gibberish(p.surname);
      n += 2;
    }
    if (n > 0 && total / static_cast<double>(n) >= config_.gibberish_threshold) {
      flag(findings.gibberish, b);
    }
  }

  for (std::uint32_t name = 0; name < names.size(); ++name) {
    const std::span<NameRow> rs = bookings(name);
    std::sort(rs.begin(), rs.end(), [](const NameRow& x, const NameRow& y) {
      return x.birthdate != y.birthdate ? x.birthdate < y.birthdate : x.booking < y.booking;
    });
    // Repeated identities: the same person (name AND birthdate) across many
    // distinct reservations — rare for genuine travellers within one window.
    std::size_t birthdates = 0;
    for (std::size_t i = 0; i < rs.size();) {
      std::size_t j = i + 1;
      while (j < rs.size() && rs[j].birthdate == rs[i].birthdate) ++j;
      if (j - i >= config_.repeat_threshold) {
        for (std::size_t k = i; k < j; ++k) flag(findings.repeated_identity, rs[k].booking);
      }
      ++birthdates;
      i = j;
    }
    // Birthdate rotation: one NAME dominating the window while cycling through
    // many birthdates (Airline B's fixed-name signature). The share floor
    // keeps genuinely popular names from firing at airline scale.
    if (rs.size() >= config_.repeat_threshold && static_cast<double>(rs.size()) >= share_floor &&
        birthdates >= config_.birthdate_variants) {
      for (const NameRow& row : rs) flag(findings.birthdate_rotation, row.booking);
    }
  }

  // Permuted parties: the same multiset of people across many reservations.
  std::vector<std::uint32_t> party_size(parties.size(), 0);
  for (const std::uint32_t id : party_of) ++party_size[id];
  for (std::uint32_t b = 0; b < reservations.size(); ++b) {
    if (party_size[party_of[b]] >= config_.party_repeat_threshold) {
      flag(findings.permuted_party, b);
    }
  }

  // Misspelling clusters: name keys within edit distance 1 of a key that
  // repeats. Hand-typed variants land here even when exact repetition stays
  // below threshold. Two byte strings are within one edit exactly when their
  // {self, one-byte deletions} sets share an entry, so an index of the
  // repeated keys' entries yields every candidate, and within_edit_distance
  // confirms it: a transposition shares a deletion at distance 2, and a hash
  // collision shares an entry by accident.
  std::vector<std::uint32_t> repeated;  // names seen repeatedly
  for (std::uint32_t name = 0; name < names.size(); ++name) {
    if (bookings(name).size() >= 2) repeated.push_back(name);
  }
  std::vector<std::uint64_t> hashes;
  DeletionIndex index;
  for (std::uint32_t i = 0; i < repeated.size(); ++i) {
    deletion_hashes(key(repeated[i]), hashes);
    for (const std::uint64_t h : hashes) index.add(h, i);
  }
  index.build();

  std::vector<std::size_t> variant_bookings(repeated.size());
  std::vector<std::vector<std::uint32_t>> variants(repeated.size());
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t name = 0; name < names.size(); ++name) {
    const std::string_view other = key(name);
    deletion_hashes(other, hashes);
    candidates.clear();
    for (const std::uint64_t h : hashes) index.find(h, candidates);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
    for (const std::uint32_t i : candidates) {
      if (repeated[i] == name) continue;
      if (!util::within_edit_distance(key(repeated[i]), other, 1)) continue;
      variant_bookings[i] += bookings(name).size();
      variants[i].push_back(name);
    }
  }
  for (std::uint32_t i = 0; i < repeated.size(); ++i) {
    const std::size_t cluster = bookings(repeated[i]).size() + variant_bookings[i];
    if (variants[i].empty() || cluster < config_.misspell_cluster_size) continue;
    // Scale guard: distinct real people can carry near-identical names; a
    // hand-typed campaign's cluster dominates the window instead.
    if (static_cast<double>(cluster) < share_floor) continue;
    for (const NameRow& row : bookings(repeated[i])) {
      flag(findings.misspelling_cluster, row.booking);
    }
    for (const std::uint32_t v : variants[i]) {
      for (const NameRow& row : bookings(v)) flag(findings.misspelling_cluster, row.booking);
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

void NamePatternAnalyzer::analyze(const std::vector<const airline::Reservation*>& reservations,
                                  AlertSink& sink) const {
  const auto findings = analyze(reservations);
  std::unordered_map<std::string, const airline::Reservation*> by_pnr;
  for (const auto* r : reservations) by_pnr[r->pnr] = r;

  auto emit = [&](const std::set<std::string>& pnrs, const char* signal) {
    for (const auto& pnr : pnrs) {
      const auto it = by_pnr.find(pnr);
      if (it == by_pnr.end()) continue;
      const airline::Reservation& r = *it->second;
      sink.emit(reservation_alert(r, r.created, std::string("name.") + signal,
                                  std::string("identity pattern: ") + signal));
    }
  };
  emit(findings.gibberish, "gibberish");
  emit(findings.repeated_identity, "repeated");
  emit(findings.birthdate_rotation, "birthdate-rotation");
  emit(findings.permuted_party, "permuted-party");
  emit(findings.misspelling_cluster, "misspelling-cluster");
}

}  // namespace fraudsim::detect
