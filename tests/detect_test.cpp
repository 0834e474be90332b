#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fingerprint/population.hpp"

#include "core/detect/behavior.hpp"
#include "core/detect/fingerprint_detect.hpp"
#include "core/detect/labels.hpp"
#include "core/detect/name_patterns.hpp"
#include "core/detect/nip_anomaly.hpp"
#include "core/detect/sms_anomaly.hpp"
#include "util/strings.hpp"
#include "workload/names.hpp"

namespace fraudsim::detect {
namespace {

web::Session make_session(std::uint64_t id, std::uint64_t actor, int requests,
                          sim::SimDuration gap, web::Endpoint endpoint = web::Endpoint::SearchFlights) {
  web::Session s;
  s.id = web::SessionId{id};
  s.actor = web::ActorId{actor};
  for (int i = 0; i < requests; ++i) {
    web::HttpRequest r;
    r.time = i * gap;
    r.session = s.id;
    r.actor = s.actor;
    r.endpoint = endpoint;
    s.requests.push_back(r);
  }
  return s;
}

// --- Volume thresholds -------------------------------------------------------------

TEST(VolumeDetector, FlagsScraperVolume) {
  VolumeThresholdDetector detector;
  const auto scraper = make_session(1, 1, 300, sim::seconds(2));
  std::string reason;
  EXPECT_TRUE(detector.is_bot(web::extract_features(scraper), &reason));
  EXPECT_FALSE(reason.empty());
}

TEST(VolumeDetector, MissesLowVolumeDoISession) {
  // A seat-spin bot session: a handful of requests at human-ish pace — the
  // §III-A blind spot.
  VolumeThresholdDetector detector;
  const auto doi = make_session(2, 2, 6, sim::seconds(35), web::Endpoint::HoldReservation);
  std::string reason;
  EXPECT_FALSE(detector.is_bot(web::extract_features(doi), &reason));
}

TEST(VolumeDetector, FlagsMachinePacing) {
  VolumeThresholdDetector detector;
  const auto fast = make_session(3, 3, 25, sim::seconds(1));
  EXPECT_TRUE(detector.is_bot(web::extract_features(fast), nullptr));
}

TEST(VolumeDetector, TrapFileIsInstantFlag) {
  VolumeThresholdDetector detector;
  auto s = make_session(4, 4, 3, sim::seconds(30));
  s.requests.push_back(s.requests.back());
  s.requests.back().endpoint = web::Endpoint::TrapFile;
  EXPECT_TRUE(detector.is_bot(web::extract_features(s), nullptr));
}

TEST(VolumeDetector, AnalyzeEmitsAlertsWithKeys) {
  VolumeThresholdDetector detector;
  AlertSink sink;
  detector.analyze({make_session(5, 9, 300, sim::seconds(1))}, sink);
  ASSERT_EQ(sink.count(), 1u);
  const auto& alert = sink.alerts().front();
  EXPECT_EQ(alert.detector, "behavior.volume");
  EXPECT_EQ(alert.actor, web::ActorId{9});
  EXPECT_EQ(alert.session, web::SessionId{5});
}

// --- Behaviour classifier -------------------------------------------------------------

TEST(BehaviorClassifier, LearnsScraperVsHuman) {
  std::vector<web::SessionFeatures> features;
  std::vector<int> labels;
  sim::Rng rng(1);
  for (int i = 0; i < 150; ++i) {
    features.push_back(web::extract_features(make_session(
        static_cast<std::uint64_t>(i), 1, static_cast<int>(rng.uniform_int(4, 15)),
        sim::seconds(rng.uniform_int(15, 60)))));
    labels.push_back(0);
    features.push_back(web::extract_features(make_session(
        static_cast<std::uint64_t>(1000 + i), 2, static_cast<int>(rng.uniform_int(150, 400)),
        sim::seconds(1) + rng.uniform_int(0, 1500))));
    labels.push_back(1);
  }
  for (auto kind : {ClassifierKind::Logistic, ClassifierKind::NaiveBayes}) {
    BehaviorClassifier classifier(kind);
    classifier.train(features, labels, rng);
    EXPECT_TRUE(classifier.trained());
    const auto human = web::extract_features(make_session(1, 1, 8, sim::seconds(30)));
    const auto scraper = web::extract_features(make_session(2, 2, 250, sim::seconds(1)));
    EXPECT_FALSE(classifier.is_bot(human)) << static_cast<int>(kind);
    EXPECT_TRUE(classifier.is_bot(scraper)) << static_cast<int>(kind);
  }
}

// --- Fingerprint detectors -----------------------------------------------------------

TEST(ArtifactDetector, FlagsWebdriverAndHeadless) {
  ArtifactDetector detector;
  fp::Fingerprint fp;
  std::string reason;
  EXPECT_FALSE(detector.is_bot(fp, &reason));
  fp.webdriver_flag = true;
  EXPECT_TRUE(detector.is_bot(fp, &reason));
  fp.webdriver_flag = false;
  fp.headless_hint = true;
  EXPECT_TRUE(detector.is_bot(fp, &reason));
}

TEST(RarityDetector, FlagsBusyRareFingerprints) {
  app::FingerprintStore store;
  fp::PopulationModel population;
  sim::Rng rng(2);
  // A large population of normal users.
  for (int i = 0; i < 20000; ++i) {
    const fp::Fingerprint print = population.sample(rng);
    store.observe(print, print.hash());
  }
  // One odd stack hammering the site.
  fp::Fingerprint odd;
  odd.browser = fp::Browser::Other;
  odd.screen_width = 801;
  fp::derive_rendering_hashes(odd);
  for (int i = 0; i < 100; ++i) store.observe(odd, odd.hash());

  // 100 / 20100 observations ~ 0.5%: busy, yet far rarer than any popular
  // stack (the heaviest configurations carry several percent each).
  RarityDetector detector(0.01, 30);
  EXPECT_TRUE(detector.is_rare(store, odd.hash()));
  AlertSink sink;
  detector.analyze(store, sink);
  bool found = false;
  for (const auto& a : sink.alerts()) {
    if (a.fingerprint == odd.hash()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RarityDetector, IgnoresOneOffFingerprints) {
  app::FingerprintStore store;
  fp::Fingerprint once;
  once.screen_width = 999;
  fp::derive_rendering_hashes(once);
  store.observe(once, once.hash());
  RarityDetector detector(1e-3, 30);
  EXPECT_FALSE(detector.is_rare(store, once.hash()));
}

TEST(Blocklist, TracksEffectivenessWindows) {
  FingerprintBlocklist blocklist;
  const fp::FpHash h{123};
  blocklist.block(h, sim::hours(10), "test");
  EXPECT_TRUE(blocklist.contains(h));
  EXPECT_FALSE(blocklist.contains(fp::FpHash{456}));
  blocklist.note_hit(h, sim::hours(12));
  blocklist.note_hit(h, sim::hours(15));  // last sighting 5h after the rule
  const auto windows = blocklist.effectiveness_windows_hours();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_NEAR(windows[0], 5.0, 1e-9);
  EXPECT_EQ(blocklist.entries().at(h).hits, 2u);
}

TEST(Blocklist, NeverHitRulesExcludedFromWindows) {
  FingerprintBlocklist blocklist;
  blocklist.block(fp::FpHash{1}, 0, "preemptive");
  EXPECT_TRUE(blocklist.effectiveness_windows_hours().empty());
}

// --- NiP anomaly -------------------------------------------------------------------------

std::vector<airline::Reservation> make_reservations(
    const std::vector<std::pair<int, int>>& nip_counts, sim::SimTime at, sim::Rng& rng) {
  std::vector<airline::Reservation> out;
  int pnr = 0;
  for (const auto& [nip, count] : nip_counts) {
    for (int i = 0; i < count; ++i) {
      airline::Reservation r;
      r.pnr = "P" + std::to_string(pnr++) + "@" + std::to_string(at);
      r.created = at + (pnr % 1000);
      for (int p = 0; p < nip; ++p) {
        r.passengers.push_back(workload::random_passenger(rng));
      }
      r.actor = web::ActorId{static_cast<std::uint64_t>(100 + nip)};
      out.push_back(std::move(r));
    }
  }
  return out;
}

TEST(NipAnomaly, QuietWeekIsNormal) {
  sim::Rng rng(3);
  auto baseline = make_reservations({{1, 540}, {2, 290}, {3, 75}, {4, 45}, {5, 22}, {6, 13}},
                                    0, rng);
  auto week = make_reservations({{1, 530}, {2, 300}, {3, 70}, {4, 50}, {5, 20}, {6, 12}},
                                sim::kWeek, rng);
  NipAnomalyDetector detector;
  detector.fit_baseline(baseline, 0, sim::kWeek);
  std::vector<airline::Reservation> all = baseline;
  all.insert(all.end(), week.begin(), week.end());
  const auto verdict = detector.evaluate_window(all, sim::kWeek, 2 * sim::kWeek);
  EXPECT_FALSE(verdict.anomalous);
}

TEST(NipAnomaly, AttackWaveAtNipSixFires) {
  sim::Rng rng(4);
  auto baseline = make_reservations({{1, 540}, {2, 290}, {3, 75}, {4, 45}, {5, 22}, {6, 13}},
                                    0, rng);
  auto attack = make_reservations({{1, 540}, {2, 290}, {3, 75}, {4, 45}, {5, 22}, {6, 400}},
                                  sim::kWeek, rng);
  NipAnomalyDetector detector;
  detector.fit_baseline(baseline, 0, sim::kWeek);
  std::vector<airline::Reservation> all = baseline;
  all.insert(all.end(), attack.begin(), attack.end());
  const auto verdict = detector.evaluate_window(all, sim::kWeek, 2 * sim::kWeek);
  ASSERT_TRUE(verdict.anomalous);
  ASSERT_EQ(verdict.anomalous_nips.size(), 1u);
  EXPECT_EQ(verdict.anomalous_nips.front(), 6);

  AlertSink sink;
  detector.analyze(all, sim::kWeek, 2 * sim::kWeek, sink);
  // One summary alert + one per flagged reservation.
  EXPECT_GT(sink.count(), 300u);
  std::size_t with_pnr = 0;
  for (const auto& a : sink.alerts()) {
    if (a.pnr) ++with_pnr;
  }
  EXPECT_EQ(with_pnr, 400u);
}

TEST(NipAnomaly, SmallWindowsAreNotJudged) {
  sim::Rng rng(5);
  auto baseline = make_reservations({{1, 500}, {2, 300}}, 0, rng);
  auto tiny = make_reservations({{6, 10}}, sim::kWeek, rng);
  NipAnomalyDetector detector;
  detector.fit_baseline(baseline, 0, sim::kWeek);
  std::vector<airline::Reservation> all = baseline;
  all.insert(all.end(), tiny.begin(), tiny.end());
  EXPECT_FALSE(detector.evaluate_window(all, sim::kWeek, 2 * sim::kWeek).anomalous);
}

// --- Name patterns -----------------------------------------------------------------------

airline::Reservation reservation_with(const std::vector<airline::Passenger>& party,
                                      const std::string& pnr, std::uint64_t actor = 1) {
  airline::Reservation r;
  r.pnr = pnr;
  r.passengers = party;
  r.actor = web::ActorId{actor};
  return r;
}

TEST(NamePatterns, FlagsGibberishParties) {
  std::vector<airline::Reservation> reservations;
  reservations.push_back(reservation_with(
      {{"affjgdui", "ddfjrei", {1990, 1, 1}, "x@y.example"}}, "GIB001"));
  sim::Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    reservations.push_back(
        reservation_with({workload::random_passenger(rng)}, "OK" + std::to_string(i)));
  }
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(reservations);
  EXPECT_TRUE(findings.gibberish.contains("GIB001"));
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(findings.gibberish.contains("OK" + std::to_string(i)));
  }
}

TEST(NamePatterns, FlagsBirthdateRotation) {
  // Airline B: fixed first passenger name, rotating birthdate. Mixed with
  // background traffic — the rotating name still dominates its share.
  std::vector<airline::Reservation> reservations;
  for (int i = 0; i < 8; ++i) {
    airline::Passenger lead{"Ivan", "Petrov", {1985, 3, 1 + i}, "i@p.example"};
    reservations.push_back(reservation_with({lead}, "ROT" + std::to_string(i)));
  }
  sim::Rng rng(21);
  for (int i = 0; i < 40; ++i) {
    reservations.push_back(
        reservation_with({workload::random_passenger(rng)}, "BG" + std::to_string(i)));
  }
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(reservations);
  EXPECT_EQ(findings.birthdate_rotation.size(), 8u);
  // Distinct birthdates = distinct identities, so the repeated-identity
  // signal stays silent here; birthdate rotation is the right detector.
  EXPECT_TRUE(findings.repeated_identity.empty());
}

TEST(NamePatterns, FlagsRepeatedFullIdentity) {
  // The same person (name AND birthdate) across many reservations.
  std::vector<airline::Reservation> reservations;
  const airline::Passenger person{"Ivan", "Petrov", {1985, 3, 7}, "i@p.example"};
  for (int i = 0; i < 5; ++i) {
    reservations.push_back(reservation_with({person}, "REP" + std::to_string(i)));
  }
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(reservations);
  EXPECT_EQ(findings.repeated_identity.size(), 5u);
}

TEST(NamePatterns, PopularNamesDoNotRotateAtScale) {
  // Many DIFFERENT travellers legitimately named "James Smith": distinct
  // birthdates, but the name is a tiny share of a big window -> no flag.
  sim::Rng rng(22);
  std::vector<airline::Reservation> reservations;
  for (int i = 0; i < 6; ++i) {
    airline::Passenger p{"James", "Smith", airline::random_birthdate(rng), "j@s.example"};
    reservations.push_back(reservation_with({p}, "JS" + std::to_string(i)));
  }
  for (int i = 0; i < 3000; ++i) {
    reservations.push_back(
        reservation_with({workload::random_passenger(rng)}, "BGX" + std::to_string(i)));
  }
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(reservations);
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(findings.birthdate_rotation.contains("JS" + std::to_string(i)));
  }
}

TEST(NamePatterns, FlagsPermutedFixedSet) {
  // Airline C: same people, different order across bookings.
  const airline::Passenger a{"Lena", "Koch", {1990, 1, 1}, ""};
  const airline::Passenger b{"Max", "Braun", {1991, 2, 2}, ""};
  const airline::Passenger c{"Tom", "Vogel", {1992, 3, 3}, ""};
  std::vector<airline::Reservation> reservations;
  reservations.push_back(reservation_with({a, b, c}, "PERM1"));
  reservations.push_back(reservation_with({c, a, b}, "PERM2"));
  reservations.push_back(reservation_with({b, c, a}, "PERM3"));
  reservations.push_back(reservation_with({a, c, b}, "PERM4"));
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(reservations);
  EXPECT_EQ(findings.permuted_party.size(), 4u);
}

TEST(NamePatterns, FlagsMisspellingClusters) {
  // The same surname with hand-typo variants across bookings. A transposed
  // surname is two edits away and stays out of the cluster.
  std::vector<airline::Reservation> reservations;
  reservations.push_back(reservation_with({{"Anna", "Martinez", {1990, 1, 1}, ""}}, "MS1"));
  reservations.push_back(reservation_with({{"Anna", "Martinez", {1990, 1, 1}, ""}}, "MS2"));
  reservations.push_back(reservation_with({{"Anna", "Martines", {1990, 1, 1}, ""}}, "MS3"));
  reservations.push_back(reservation_with({{"Anna", "Martinex", {1990, 1, 1}, ""}}, "MS4"));
  reservations.push_back(reservation_with({{"Anna", "Matrinez", {1990, 1, 1}, ""}}, "MS5"));
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(reservations);
  EXPECT_EQ(findings.misspelling_cluster, (std::set<std::string>{"MS1", "MS2", "MS3", "MS4"}));
}

// Reference analyzer for the property test below: every name key compared
// with every key that repeats (R x K edit-distance checks), and every key
// rebuilt from the passenger at each use.
NamePatternFindings brute_force_findings(const std::vector<airline::Reservation>& reservations) {
  const NamePatternConfig config;
  NamePatternFindings findings;
  std::unordered_map<std::string, std::vector<const airline::Reservation*>> by_name_key;
  std::unordered_map<std::string, std::vector<const airline::Reservation*>> by_identity_key;
  std::unordered_map<std::string, std::set<std::string>> birthdates_by_name;
  std::unordered_map<std::string, std::vector<const airline::Reservation*>> by_party_key;
  std::size_t total_name_instances = 0;
  for (const auto& r : reservations) {
    for (const auto& p : r.passengers) {
      by_name_key[p.name_key()].push_back(&r);
      by_identity_key[p.identity_key()].push_back(&r);
      birthdates_by_name[p.name_key()].insert(p.birthdate.str());
      ++total_name_instances;
    }
    by_party_key[airline::party_key(r.passengers)].push_back(&r);
  }
  const double share_floor =
      config.name_share_threshold * static_cast<double>(total_name_instances);

  for (const auto& r : reservations) {
    double total = 0.0;
    std::size_t n = 0;
    for (const auto& p : r.passengers) {
      total += util::gibberish_score(p.first_name);
      total += util::gibberish_score(p.surname);
      n += 2;
    }
    if (n > 0 && total / static_cast<double>(n) >= config.gibberish_threshold) {
      findings.gibberish.insert(r.pnr);
    }
  }
  for (const auto& [key, rs] : by_identity_key) {
    if (rs.size() < config.repeat_threshold) continue;
    for (const auto* r : rs) findings.repeated_identity.insert(r->pnr);
  }
  for (const auto& [key, rs] : by_name_key) {
    if (rs.size() < config.repeat_threshold) continue;
    if (static_cast<double>(rs.size()) < share_floor) continue;
    if (birthdates_by_name[key].size() >= config.birthdate_variants) {
      for (const auto* r : rs) findings.birthdate_rotation.insert(r->pnr);
    }
  }
  for (const auto& [key, rs] : by_party_key) {
    if (rs.size() < config.party_repeat_threshold) continue;
    for (const auto* r : rs) findings.permuted_party.insert(r->pnr);
  }

  std::vector<std::string> keys;
  keys.reserve(by_name_key.size());
  for (const auto& [key, rs] : by_name_key) keys.push_back(key);
  for (const auto& [key, rs] : by_name_key) {
    if (rs.size() < 2) continue;
    std::size_t cluster = rs.size();
    std::vector<const std::string*> variants;
    for (const auto& other : keys) {
      if (other == key) continue;
      if (util::within_edit_distance(key, other, 1)) {
        cluster += by_name_key[other].size();
        variants.push_back(&other);
      }
    }
    if (variants.empty() || cluster < config.misspell_cluster_size) continue;
    if (static_cast<double>(cluster) < share_floor) continue;
    for (const auto* r : rs) findings.misspelling_cluster.insert(r->pnr);
    for (const auto* v : variants) {
      for (const auto* r : by_name_key[*v]) findings.misspelling_cluster.insert(r->pnr);
    }
  }
  return findings;
}

// One byte-level edit of `s` at `pos`: 0 substitutes, 1 inserts before,
// 2 deletes, 3 swaps with the next byte (two edits unless the bytes match).
std::string edit_at(std::string s, std::size_t pos, int op, char c) {
  if (s.empty()) return op == 1 ? std::string(1, c) : s;
  pos = std::min(pos, s.size() - 1);
  switch (op) {
    case 0: s[pos] = s[pos] == c ? static_cast<char>(c + 1) : c; break;
    case 1: s.insert(pos, 1, c); break;
    case 2: s.erase(pos, 1); break;
    default:
      if (pos + 1 == s.size()) pos = pos == 0 ? 0 : pos - 1;
      if (pos + 1 < s.size()) std::swap(s[pos], s[pos + 1]);
      break;
  }
  return s;
}

// A seeded window of `n` reservations: pooled background parties, campaign
// bases repeated and hand-edited at their first, middle and last byte
// (transpositions included), UTF-8 and empty names, and a dense region of
// 0-3 byte names where nearly every key neighbours another.
std::vector<airline::Reservation> random_name_window(std::uint64_t seed, int n) {
  sim::Rng rng(seed);
  std::vector<airline::Passenger> bases = {
      {"José", "Müller", {1980, 5, 5}, ""}, {"李", "王", {1981, 6, 6}, ""},
      {"", "", {1982, 7, 7}, ""},           {"a", "", {1983, 8, 8}, ""},
      {"", "b", {1984, 9, 9}, ""},          {"Zoë", "Ångström", {1985, 10, 10}, ""}};
  for (int i = 0; i < 1 + n / 200; ++i) bases.push_back(workload::random_passenger(rng));
  const auto planted = [&]() -> airline::Passenger {
    airline::Passenger p = bases[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bases.size()) - 1))];
    if (rng.bernoulli(0.3)) p.birthdate = airline::random_birthdate(rng);
    if (rng.bernoulli(0.4)) return p;  // exact repeat
    std::string& field = rng.bernoulli(0.5) ? p.first_name : p.surname;
    const std::size_t len = field.size();
    const std::size_t positions[] = {0, len / 2, len == 0 ? 0 : len - 1, len};
    const std::size_t pos = positions[rng.uniform_int(0, 3)];
    const int op = static_cast<int>(rng.uniform_int(0, 3));
    field = edit_at(field, pos, op, static_cast<char>('a' + rng.uniform_int(0, 25)));
    if (rng.bernoulli(0.1)) field = util::to_upper(field);
    return p;
  };
  const auto dense = [&]() -> airline::Passenger {
    std::string first;
    for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i) {
      first += rng.bernoulli(0.5) ? 'a' : 'b';
    }
    return {first, "", airline::random_birthdate(rng), ""};
  };
  std::vector<airline::Reservation> reservations;
  for (int i = 0; i < n; ++i) {
    std::vector<airline::Passenger> party;
    const double kind = rng.uniform();
    if (kind < 0.5) {
      party = workload::random_party(rng, static_cast<int>(rng.uniform_int(1, 3)));
    } else {
      for (std::int64_t j = rng.uniform_int(1, 3); j > 0; --j) {
        party.push_back(kind < 0.9 ? planted() : dense());
      }
    }
    reservations.push_back(reservation_with(party, "W" + std::to_string(i)));
  }
  return reservations;
}

TEST(NamePatterns, MisspellingIndexMatchesBruteForce) {
  const NamePatternAnalyzer analyzer;
  std::size_t clustered = 0;
  for (const int n : {50, 120, 300, 700, 1500, 3000}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      const auto window = random_name_window(seed * 7919 + static_cast<std::uint64_t>(n), n);
      const NamePatternFindings expected = brute_force_findings(window);
      const NamePatternFindings actual = analyzer.analyze(window);
      EXPECT_EQ(actual.gibberish, expected.gibberish);
      EXPECT_EQ(actual.repeated_identity, expected.repeated_identity);
      EXPECT_EQ(actual.birthdate_rotation, expected.birthdate_rotation);
      EXPECT_EQ(actual.permuted_party, expected.permuted_party);
      EXPECT_EQ(actual.misspelling_cluster, expected.misspelling_cluster);
      clustered += expected.misspelling_cluster.size();
    }
  }
  EXPECT_GT(clustered, 0u);  // the planted clusters fire
}

TEST(NamePatterns, CleanTrafficStaysClean) {
  sim::Rng rng(7);
  std::vector<airline::Reservation> reservations;
  for (int i = 0; i < 200; ++i) {
    reservations.push_back(reservation_with(workload::random_party(rng, 2),
                                            "CLEAN" + std::to_string(i)));
  }
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(reservations);
  // Pool collisions can produce a few repeats, but the flag rate stays tiny.
  EXPECT_LT(findings.all_flagged().size(), 20u);
  EXPECT_TRUE(findings.gibberish.empty());
}

// --- SMS anomaly ---------------------------------------------------------------------------

class SmsAnomalyTest : public ::testing::Test {
 protected:
  SmsAnomalyTest()
      : network_(sms::TariffTable::standard(), sms::CarrierPolicy{}),
        gateway_(network_, sms::GatewayConfig{}) {}

  void send_daily(net::CountryCode country, int per_day, int days, sim::SimTime from,
                  const char* pnr = nullptr) {
    for (int d = 0; d < days; ++d) {
      for (int i = 0; i < per_day; ++i) {
        gateway_.send(from + d * sim::kDay + i * sim::kMinute,
                      sms::PhoneNumber{country, "123456789"}, sms::SmsType::BoardingPass,
                      web::ActorId{1}, pnr ? std::optional<std::string>(pnr) : std::nullopt);
      }
    }
  }

  sms::CarrierNetwork network_;
  sms::SmsGateway gateway_;
};

TEST_F(SmsAnomalyTest, CountrySurgesRankByIncreaseThenVolume) {
  const net::CountryCode uz{'U', 'Z'};
  const net::CountryCode gb{'G', 'B'};
  // Baseline week: GB busy, UZ silent. Attack week: UZ explodes, GB grows 50%.
  send_daily(gb, 20, 7, 0);
  send_daily(gb, 30, 7, sim::kWeek);
  send_daily(uz, 300, 7, sim::kWeek);

  SmsAnomalyDetector detector;
  const auto surges = detector.country_surges(gateway_, 0, sim::kWeek, sim::kWeek,
                                              2 * sim::kWeek, sms::SmsType::BoardingPass);
  ASSERT_EQ(surges.size(), 2u);
  EXPECT_EQ(surges[0].country, uz);
  // UZ: 300/day against the 0.05/day floor -> enormous but finite.
  EXPECT_GT(surges[0].surge_fraction, 1000.0);
  EXPECT_LT(surges[0].surge_fraction, 1e6);
  EXPECT_EQ(surges[1].country, gb);
  EXPECT_NEAR(surges[1].surge_fraction, 0.5, 0.05);
}

TEST_F(SmsAnomalyTest, PathLimitTripsAtTheRightMoment) {
  SmsAnomalyConfig config;
  config.path_daily_limit = 100;
  SmsAnomalyDetector detector(config);
  // 90/day: never trips.
  send_daily(net::CountryCode{'F', 'R'}, 90, 2, 0);
  EXPECT_FALSE(detector.path_limit_trip_time(gateway_).has_value());
  // A sustained day-2 burst (one per minute, 150 total) crosses 100 within
  // the rolling day.
  send_daily(net::CountryCode{'F', 'R'}, 150, 1, 2 * sim::kDay);
  const auto trip = detector.path_limit_trip_time(gateway_);
  ASSERT_TRUE(trip.has_value());
  EXPECT_GE(*trip, 2 * sim::kDay);
  EXPECT_LT(*trip, 3 * sim::kDay);
}

TEST_F(SmsAnomalyTest, PerBookingLimitCatchesRepeats) {
  SmsAnomalyConfig config;
  config.per_booking_limit = 5;
  SmsAnomalyDetector detector(config);
  // Five sends on one PNR: at the limit, no trip.
  send_daily(net::CountryCode{'U', 'Z'}, 5, 1, 0, "AAA111");
  EXPECT_FALSE(detector.per_booking_trip_time(gateway_).has_value());
  // The sixth send trips it.
  send_daily(net::CountryCode{'U', 'Z'}, 1, 1, sim::kHour, "AAA111");
  ASSERT_TRUE(detector.per_booking_trip_time(gateway_).has_value());
  // Different PNRs never aggregate.
  sms::SmsGateway fresh(network_, sms::GatewayConfig{});
  for (int i = 0; i < 20; ++i) {
    fresh.send(i, sms::PhoneNumber{net::CountryCode{'U', 'Z'}, "1"}, sms::SmsType::BoardingPass,
               web::ActorId{1}, "PNR" + std::to_string(i));
  }
  EXPECT_FALSE(detector.per_booking_trip_time(fresh).has_value());
}

TEST_F(SmsAnomalyTest, AnalyzeEmitsSurgeAndRateAlerts) {
  SmsAnomalyConfig config;
  config.path_daily_limit = 200;
  config.per_booking_limit = 10;
  SmsAnomalyDetector detector(config);
  send_daily(net::CountryCode{'G', 'B'}, 10, 7, 0);
  send_daily(net::CountryCode{'U', 'Z'}, 300, 2, sim::kWeek, "AAA111");

  AlertSink sink;
  detector.analyze(gateway_, 0, sim::kWeek, sim::kWeek, sim::kWeek + 2 * sim::kDay, sink);
  EXPECT_FALSE(sink.by_detector("sms.country-surge").empty());
  EXPECT_FALSE(sink.by_detector("sms.path-rate").empty());
  EXPECT_FALSE(sink.by_detector("sms.per-booking-rate").empty());
}

// --- Labels / scoring ----------------------------------------------------------------------

TEST(Labels, ScoreActorsComputesConfusion) {
  app::ActorRegistry registry;
  const auto human1 = registry.register_actor(app::ActorKind::Human);
  const auto human2 = registry.register_actor(app::ActorKind::Human);
  const auto bot = registry.register_actor(app::ActorKind::SeatSpinBot);
  const auto manual = registry.register_actor(app::ActorKind::ManualSpinner);

  std::unordered_set<web::ActorId> flagged = {bot, human1};
  const auto score = score_actors(flagged, {human1, human2, bot, manual}, registry,
                                  TruthCriterion::Abuser);
  EXPECT_EQ(score.confusion.tp, 1u);   // bot
  EXPECT_EQ(score.confusion.fp, 1u);   // human1
  EXPECT_EQ(score.confusion.fn, 1u);   // manual missed
  EXPECT_EQ(score.confusion.tn, 1u);   // human2
  ASSERT_EQ(score.missed.size(), 1u);
  EXPECT_EQ(score.missed.front(), manual);

  // Under the Automated criterion the manual spinner is a true negative.
  const auto auto_score = score_actors(flagged, {human1, human2, bot, manual}, registry,
                                       TruthCriterion::Automated);
  EXPECT_EQ(auto_score.confusion.fn, 0u);
}

}  // namespace
}  // namespace fraudsim::detect
