// Locale-independence regression suite.
//
// The determinism contract says artifact and checkpoint bytes are a pure
// function of (seed, config) — the host's global locale must not leak in.
// These tests install a grouping locale (thousands separator '.', decimal
// comma, groups of three — the classic European formatting that shook out
// the original bugs) via a custom numpunct facet, so they run everywhere
// without depending on named locales being compiled into the image.
#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdio>
#include <limits>
#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include "app/export.hpp"
#include "core/detect/behavior.hpp"
#include "core/detect/navigation.hpp"
#include "core/detect/nip_anomaly.hpp"
#include "core/obs/metrics.hpp"
#include "sim/rng.hpp"
#include "util/archive.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"

namespace fraudsim {
namespace {

// A numpunct facet with aggressive grouping: 1234567.5 streams as
// "1.234.567,5". Installed globally so freshly-constructed streams pick it
// up — exactly how a host locale infects library code.
class GroupingPunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

// RAII: swap in the grouping global locale, restore the previous one on exit
// so a failing test cannot poison the rest of the suite.
class ScopedGroupingLocale {
 public:
  ScopedGroupingLocale()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new GroupingPunct))) {}
  ~ScopedGroupingLocale() { std::locale::global(previous_); }

 private:
  std::locale previous_;
};

TEST(Locale, GroupingFacetActuallyBites) {
  const ScopedGroupingLocale guard;
  std::ostringstream os;  // inherits the poisoned global locale
  os << 1234567;
  EXPECT_EQ(os.str(), "1.234.567");  // sanity: the hazard is real
}

TEST(Format, FixedMatchesPrintfInClassicLocale) {
  // The test binary runs under the default "C" locale here, so snprintf is
  // the reference implementation format_fixed must reproduce.
  const double values[] = {0.0,     -0.0,   1.5,      -1.5,     1234567.890625,
                           0.00015, -7.25e8, 3.141592, 1e15,    -42.0};
  for (double v : values) {
    for (int prec : {0, 1, 2, 4, 6}) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
      EXPECT_EQ(util::format_fixed(v, prec), buf) << "v=" << v << " prec=" << prec;
    }
  }
}

TEST(Format, GeneralMatchesPrintfInClassicLocale) {
  const double values[] = {0.0, 1.5, 1234567.890625, 0.00015, -7.25e8, 3.141592, 123456789.0};
  for (double v : values) {
    for (int prec : {1, 3, 6, 10}) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
      EXPECT_EQ(util::format_general(v, prec), buf) << "v=" << v << " prec=" << prec;
    }
  }
}

TEST(Format, NonFiniteRendering) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(util::format_fixed(nan, 2), "nan");
  EXPECT_EQ(util::format_fixed(inf, 2), "inf");
  EXPECT_EQ(util::format_fixed(-inf, 2), "-inf");
  EXPECT_EQ(util::format_general(nan, 6), "nan");
}

TEST(Format, OutputIdenticalUnderGroupingLocale) {
  const std::string classic_fixed = util::format_fixed(1234567.890625, 4);
  const std::string classic_general = util::format_general(1234567.890625, 6);
  const ScopedGroupingLocale guard;
  EXPECT_EQ(util::format_fixed(1234567.890625, 4), classic_fixed);
  EXPECT_EQ(util::format_general(1234567.890625, 6), classic_general);
  EXPECT_EQ(classic_fixed, "1234567.8906");  // no separators, '.' decimal point
}

// Regression: Rng::checkpoint streams mt19937_64 through an ostringstream.
// Un-imbued, a grouping locale writes the engine words as "4.294.967.295",
// corrupting the checkpoint; restore on a plain-"C" host then fails to
// parse. Checkpoint bytes must be identical under any global locale, and a
// grouping-locale restore must continue the exact draw sequence.
TEST(Locale, RngCheckpointBytesAreLocaleIndependent) {
  sim::Rng rng(20260808);
  for (int i = 0; i < 50; ++i) rng.uniform();  // advance off the seed state

  util::ByteWriter classic_bytes;
  rng.checkpoint(classic_bytes);

  util::ByteWriter grouped_bytes;
  {
    const ScopedGroupingLocale guard;
    rng.checkpoint(grouped_bytes);
  }
  ASSERT_EQ(classic_bytes.bytes(), grouped_bytes.bytes());
}

TEST(Locale, RngRestoreUnderGroupingLocaleContinuesDrawSequence) {
  sim::Rng rng(77);
  for (int i = 0; i < 10; ++i) rng.uniform();
  util::ByteWriter bytes;
  rng.checkpoint(bytes);

  sim::Rng restored(0);
  {
    const ScopedGroupingLocale guard;
    util::ByteReader in(bytes.bytes());
    restored.restore(in);
    EXPECT_TRUE(in.ok());
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_int(0, 1'000'000), restored.uniform_int(0, 1'000'000));
  }
}

// Regression: artifact CSVs are diffed byte-for-byte by the fleet oracle and
// CI determinism jobs; a grouping locale must not reformat them.
TEST(Locale, MetricsCsvBytesAreLocaleIndependent) {
  obs::MetricsRegistry registry;
  auto requests = registry.counter("requests.total");
  auto load = registry.gauge("load.fraction");
  auto latency = registry.histogram("latency.ms", {1.0, 10.0, 100.0});
  requests.inc(1'234'567);
  load.set(1234567.890625);
  for (int i = 0; i < 100; ++i) latency.observe(0.5 + 3.25 * i);

  const obs::MetricsSnapshot snap = registry.snapshot();
  std::ostringstream classic_csv;
  snap.write_csv(classic_csv);
  ASSERT_NE(classic_csv.str().find("1234567"), std::string::npos);

  const ScopedGroupingLocale guard;
  std::ostringstream grouped_csv;  // freshly constructed → grouping locale
  snap.write_csv(grouped_csv);
  EXPECT_EQ(classic_csv.str(), grouped_csv.str());
}

// RAII: points the C library's LC_NUMERIC (what printf and std::to_string
// read) at a named locale, restoring the previous one on exit. active() is
// false when the host has no such locale.
class ScopedNumericLocale {
 public:
  explicit ScopedNumericLocale(const char* name)
      : previous_(std::setlocale(LC_NUMERIC, nullptr)),
        active_(std::setlocale(LC_NUMERIC, name) != nullptr) {}
  ~ScopedNumericLocale() { std::setlocale(LC_NUMERIC, previous_.c_str()); }
  ScopedNumericLocale(const ScopedNumericLocale&) = delete;
  ScopedNumericLocale& operator=(const ScopedNumericLocale&) = delete;
  [[nodiscard]] bool active() const { return active_; }

 private:
  std::string previous_;
  bool active_;
};

web::Session path_session(std::uint64_t id, const std::vector<web::Endpoint>& path) {
  web::Session s;
  s.id = web::SessionId{id};
  s.actor = web::ActorId{id};
  sim::SimTime t = 0;
  for (const auto endpoint : path) {
    web::HttpRequest r;
    r.time = t += sim::seconds(20);
    r.session = s.id;
    r.endpoint = endpoint;
    s.requests.push_back(r);
  }
  return s;
}

// Every double the overload CSV and the classifier, navigation and NiP
// alert explanations print, as those exporters and detectors print them.
std::string decimal_outputs() {
  using E = web::Endpoint;
  std::ostringstream out;
  overload::OverloadSnapshot snapshot;
  snapshot.cls[0].p50_latency_ms = 12.5;
  snapshot.cls[0].p99_latency_ms = 250.125;
  EXPECT_TRUE(app::export_overload_csv(out, snapshot).is_ok());

  detect::AlertSink sink;
  const std::vector<web::Session> loop = {
      path_session(9, {E::SeatMap, E::HoldReservation, E::HoldReservation, E::HoldReservation})};
  detect::BehaviorClassifier{}.analyze(loop, sink, 0.0);
  std::vector<web::Session> clean;
  for (std::uint64_t i = 1; i <= 40; ++i) {
    clean.push_back(path_session(i, {E::Home, E::SearchFlights, E::FlightDetails, E::SeatMap,
                                     E::HoldReservation, E::Payment}));
  }
  detect::NavigationModel navigation;
  navigation.fit(clean);
  navigation.analyze(loop, sink);

  analytics::CategoricalHistogram<int> baseline;
  for (int nip = 1; nip <= 6; ++nip) baseline.add(nip, nip == 1 ? 500 : 100);
  detect::NipAnomalyDetector nip_detector;
  nip_detector.fit_baseline(baseline);
  std::vector<airline::Reservation> reservations;
  for (int i = 0; i < 400; ++i) {
    airline::Reservation r;
    r.created = sim::minutes(i);
    r.passengers.resize(i % 2 == 0 ? 6 : 1);
    reservations.push_back(std::move(r));
  }
  nip_detector.analyze(reservations, 0, sim::days(1), sink);

  for (const auto& alert : sink.alerts()) {
    out << alert.detector << ": " << alert.explanation << "\n";
  }
  return out.str();
}

// Regression: std::to_string(double) formats through the C library's
// LC_NUMERIC, so an embedding program that sets a decimal-comma locale
// turned "12.500000" into "12,500000" in the overload CSV and in alert
// explanations. Needs a compiled de_DE.UTF-8 (CI generates it).
TEST(Locale, DecimalOutputsIgnoreCNumericLocale) {
  const std::string classic = decimal_outputs();
  ASSERT_NE(classic.find(",12.500000,250.125000,"), std::string::npos) << classic;
  for (const char* detector : {"behavior.classifier: classifier score 0.000000",
                               "behavior.navigation: navigation likelihood ",
                               "nip.anomaly: NiP=6 volume far above baseline (chi2="}) {
    ASSERT_NE(classic.find(detector), std::string::npos) << detector << "\n" << classic;
  }
  const ScopedNumericLocale comma("de_DE.UTF-8");
  if (!comma.active()) GTEST_SKIP() << "locale de_DE.UTF-8 is not installed";
  char probe[16];
  std::snprintf(probe, sizeof(probe), "%.1f", 0.5);
  ASSERT_STREQ(probe, "0,5");  // the hazard is live
  EXPECT_EQ(decimal_outputs(), classic);
}

// Text classes come from no locale at all: name scoring must give the same
// verdicts whatever an embedding program passes to setlocale. The class and
// case mapping of every byte is pinned here as literals, 64 bytes per row.
TEST(Locale, AsciiClassesPinnedForEveryByte) {
  const std::string alpha =  // 'A' = letter, '.' = not
      "................................................................"
      ".AAAAAAAAAAAAAAAAAAAAAAAAAA......AAAAAAAAAAAAAAAAAAAAAAAAAA....."
      "................................................................"
      "................................................................";
  // Bytes 0x40-0x7F; every byte outside this row maps to itself.
  const std::string lower_row =
      "@abcdefghijklmnopqrstuvwxyz[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~\x7f";
  const std::string upper_row =
      "@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`ABCDEFGHIJKLMNOPQRSTUVWXYZ{|}~\x7f";
  ASSERT_EQ(alpha.size(), 256u);
  std::string every_byte;
  std::string want_lower;
  std::string want_upper;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool in_row = b >= 0x40 && b < 0x80;
    every_byte += c;
    want_lower += in_row ? lower_row[static_cast<std::size_t>(b - 0x40)] : c;
    want_upper += in_row ? upper_row[static_cast<std::size_t>(b - 0x40)] : c;
    EXPECT_EQ(util::is_alpha(c), alpha[static_cast<std::size_t>(b)] == 'A') << "byte " << b;
    EXPECT_EQ(util::lower(c), want_lower.back()) << "byte " << b;
    EXPECT_EQ(util::upper(c), want_upper.back()) << "byte " << b;
  }
  EXPECT_EQ(util::to_lower(every_byte), want_lower);
  EXPECT_EQ(util::to_upper(every_byte), want_upper);
}

}  // namespace
}  // namespace fraudsim
