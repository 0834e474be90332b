#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/archive.hpp"
#include "util/hash.hpp"
#include "util/ids.hpp"
#include "util/intern.hpp"
#include "util/money.hpp"
#include "util/result.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace fraudsim::util {
namespace {

// --- StrongId ---------------------------------------------------------------

struct TestTag {};
using TestId = StrongId<TestTag>;

TEST(StrongId, DefaultIsInvalid) {
  TestId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), 0u);
}

TEST(StrongId, ComparesByValue) {
  EXPECT_EQ(TestId{3}, TestId{3});
  EXPECT_NE(TestId{3}, TestId{4});
  EXPECT_LT(TestId{3}, TestId{4});
  EXPECT_GE(TestId{4}, TestId{4});
}

TEST(StrongId, GeneratorIsMonotonicFromOne) {
  IdGenerator<TestId> gen;
  EXPECT_EQ(gen.next().value(), 1u);
  EXPECT_EQ(gen.next().value(), 2u);
  EXPECT_EQ(gen.issued(), 2u);
}

// --- InternTable ------------------------------------------------------------
// (Core recycling + checkpoint contracts are pinned in perf_api_test; this
// pins the multi-erase free-list ORDER the entity graph's eviction relies on.)

TEST(InternTable, MultiEraseRecyclesStrictlyLifo) {
  InternTable table;
  const auto a = table.intern("a");
  const auto b = table.intern("b");
  const auto c = table.intern("c");
  table.erase(a);
  table.erase(c);
  table.erase(b);
  // Freed a, c, b — reissued b, c, a. Capacity (high-water ids) is unchanged:
  // churn does not grow the table.
  EXPECT_EQ(table.intern("x"), b);
  EXPECT_EQ(table.intern("y"), c);
  EXPECT_EQ(table.intern("z"), a);
  EXPECT_EQ(table.capacity(), 3u);
  // Double-erase and erase(0) are harmless no-ops.
  table.erase(0);
  const auto x = table.find("x");
  table.erase(x);
  table.erase(x);
  EXPECT_EQ(table.size(), 2u);
}

TEST(StrongId, HashableInUnorderedContainers) {
  std::unordered_map<TestId, int> map;
  map[TestId{7}] = 1;
  EXPECT_EQ(map.count(TestId{7}), 1u);
  EXPECT_EQ(map.count(TestId{8}), 0u);
}

// --- Result / Status ---------------------------------------------------------

TEST(Result, OkCarriesValue) {
  auto r = Result<int>::ok(42);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, FailCarriesError) {
  auto r = Result<int>::fail("boom");
  EXPECT_FALSE(r);
  EXPECT_EQ(r.error(), "boom");
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Status, OkAndFail) {
  EXPECT_TRUE(Status::ok());
  auto s = Status::fail("nope");
  EXPECT_FALSE(s);
  EXPECT_EQ(s.error(), "nope");
}

// --- Hashing ------------------------------------------------------------------

TEST(Hash, Fnv1aIsStable) {
  // Known FNV-1a vector: empty string hashes to the offset basis.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), fnv1a("a"));
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
}

TEST(Hash, AppendMatchesConcatenation) {
  const auto direct = fnv1a("hello world");
  const auto appended = fnv1a_append(fnv1a("hello"), " world");
  EXPECT_EQ(direct, appended);
}

TEST(Hash, SplitmixAvalanches) {
  EXPECT_NE(splitmix64(1), splitmix64(2));
  EXPECT_NE(splitmix64(0), 0u);
}

TEST(Hash, CombineIsOrderDependent) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

// --- Strings ---------------------------------------------------------------------

TEST(Strings, CaseConversion) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_EQ(to_upper("aBc"), "ABC");
}

TEST(Strings, SplitAndJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, "-"), "a-b--c");
}

TEST(Strings, SplitWithoutSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, EntropyOfUniformString) {
  EXPECT_DOUBLE_EQ(shannon_entropy("aaaa"), 0.0);
  EXPECT_NEAR(shannon_entropy("ab"), 1.0, 1e-9);
  EXPECT_NEAR(shannon_entropy("abcd"), 2.0, 1e-9);
}

TEST(Strings, VowelRatio) {
  EXPECT_NEAR(vowel_ratio("aeiou"), 1.0, 1e-9);
  EXPECT_NEAR(vowel_ratio("bcdfg"), 0.0, 1e-9);
  EXPECT_NEAR(vowel_ratio("mario"), 0.6, 1e-9);
}

TEST(Strings, LevenshteinBasics) {
  EXPECT_EQ(levenshtein("", ""), 0u);
  EXPECT_EQ(levenshtein("abc", ""), 3u);
  EXPECT_EQ(levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(levenshtein("smith", "smyth"), 1u);
}

TEST(Strings, LevenshteinIsSymmetric) {
  EXPECT_EQ(levenshtein("garcia", "gracia"), levenshtein("gracia", "garcia"));
}

TEST(Strings, WithinEditDistanceEarlyOut) {
  EXPECT_TRUE(within_edit_distance("smith", "smyth", 1));
  EXPECT_FALSE(within_edit_distance("smith", "garcia", 1));
  EXPECT_FALSE(within_edit_distance("ab", "abcdef", 2));  // length gap early-out
}

TEST(Strings, GibberishScoreSeparatesNamesFromMash) {
  // Real names score low.
  EXPECT_LT(gibberish_score("martinez"), 0.4);
  EXPECT_LT(gibberish_score("johnson"), 0.4);
  EXPECT_LT(gibberish_score("tanaka"), 0.4);
  // Keyboard mash scores high.
  EXPECT_GT(gibberish_score("ddfjrei"), 0.5);
  EXPECT_GT(gibberish_score("affjgdui"), 0.5);
  EXPECT_GT(gibberish_score("xqzkvwpt"), 0.5);
}

TEST(Strings, GibberishScoreShortStringsNeutral) {
  EXPECT_DOUBLE_EQ(gibberish_score("ab"), 0.0);
}

// --- Stats ------------------------------------------------------------------------

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 10; ++i) {
    const double x = i * 1.7 - 3;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

// Regression: merge(*this) used to read other's moments mid-mutation through
// the alias. Self-merge must equal merging with an identical copy — i.e. the
// stats of the data concatenated with itself.
TEST(RunningStats, SelfMergeEqualsMergingACopy) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 5.0, 7.0, 9.5}) s.add(x);
  RunningStats expected = s;
  const RunningStats copy = s;
  expected.merge(copy);

  s.merge(s);
  EXPECT_EQ(s.count(), expected.count());
  EXPECT_DOUBLE_EQ(s.mean(), expected.mean());
  EXPECT_DOUBLE_EQ(s.variance(), expected.variance());
  EXPECT_DOUBLE_EQ(s.sum(), expected.sum());
  EXPECT_DOUBLE_EQ(s.min(), expected.min());
  EXPECT_DOUBLE_EQ(s.max(), expected.max());

  RunningStats empty;
  empty.merge(empty);  // self-merge of an empty shard stays empty
  EXPECT_EQ(empty.count(), 0u);
}

TEST(ConfusionCounts, MergeSumsCells) {
  ConfusionCounts a;
  a.add(true, true);
  a.add(true, false);
  ConfusionCounts b;
  b.add(false, true);
  b.add(false, false);
  b.add(true, true);
  ConfusionCounts all = a;
  all.merge(b);
  EXPECT_EQ(all.tp, 2u);
  EXPECT_EQ(all.fp, 1u);
  EXPECT_EQ(all.fn, 1u);
  EXPECT_EQ(all.tn, 1u);
  EXPECT_EQ(all.total(), a.total() + b.total());

  ConfusionCounts doubled = a;
  doubled.merge(doubled);  // self-merge doubles every cell
  EXPECT_EQ(doubled.tp, 2 * a.tp);
  EXPECT_EQ(doubled.fp, 2 * a.fp);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
}

TEST(Stats, PercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  // Single sample: every percentile is that sample.
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 1.0), 7.0);
  // Out-of-range and NaN p clamp instead of indexing out of bounds.
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 1.5), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, std::numeric_limits<double>::quiet_NaN()), 1.0);
}

TEST(RunningStats, EmptyAndSingleSample) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  s.add(4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);  // sample variance undefined for n=1
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Stats, ChiSquareZeroForIdenticalDistributions) {
  EXPECT_DOUBLE_EQ(chi_square({10, 20, 30}, {10, 20, 30}), 0.0);
  EXPECT_DOUBLE_EQ(chi_square({10, 20, 30}, {1, 2, 3}), 0.0);  // scale-invariant
}

TEST(Stats, ChiSquareGrowsWithDeviation) {
  const double small = chi_square({11, 19, 30}, {10, 20, 30});
  const double large = chi_square({40, 10, 10}, {10, 20, 30});
  EXPECT_GT(large, small);
}

TEST(Stats, ChiSquareTailBehaviour) {
  EXPECT_NEAR(chi_square_tail(0.0, 5), 1.0, 1e-12);
  // P(X^2_1 >= 3.84) ~ 0.05.
  EXPECT_NEAR(chi_square_tail(3.84, 1), 0.05, 0.02);
  EXPECT_LT(chi_square_tail(100.0, 5), 1e-6);
}

TEST(Stats, KlDivergenceProperties) {
  EXPECT_NEAR(kl_divergence({1, 1, 1}, {1, 1, 1}), 0.0, 1e-6);
  EXPECT_GT(kl_divergence({100, 1, 1}, {1, 1, 100}), 1.0);
}

TEST(Stats, JsDivergenceSymmetricAndBounded) {
  const std::vector<double> p = {100, 1, 1};
  const std::vector<double> q = {1, 1, 100};
  EXPECT_NEAR(js_divergence(p, q), js_divergence(q, p), 1e-12);
  EXPECT_LE(js_divergence(p, q), 1.0);
  EXPECT_GE(js_divergence(p, q), 0.0);
}

TEST(ConfusionCounts, Metrics) {
  ConfusionCounts c;
  // 8 TP, 2 FP, 88 TN, 2 FN
  for (int i = 0; i < 8; ++i) c.add(true, true);
  for (int i = 0; i < 2; ++i) c.add(true, false);
  for (int i = 0; i < 88; ++i) c.add(false, false);
  for (int i = 0; i < 2; ++i) c.add(false, true);
  EXPECT_DOUBLE_EQ(c.precision(), 0.8);
  EXPECT_DOUBLE_EQ(c.recall(), 0.8);
  EXPECT_DOUBLE_EQ(c.f1(), 0.8);
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.96);
  EXPECT_NEAR(c.false_positive_rate(), 2.0 / 90.0, 1e-12);
}

TEST(ConfusionCounts, EmptyIsZero) {
  ConfusionCounts c;
  EXPECT_DOUBLE_EQ(c.precision(), 0.0);
  EXPECT_DOUBLE_EQ(c.recall(), 0.0);
  EXPECT_DOUBLE_EQ(c.f1(), 0.0);
}

// --- Money ------------------------------------------------------------------------

TEST(Money, ConstructionAndArithmetic) {
  const auto a = Money::from_cents(150);
  const auto b = Money::from_units(2);
  EXPECT_EQ((a + b).micros(), 3'500'000);
  EXPECT_EQ((b - a).micros(), 500'000);
  EXPECT_EQ((a * 3).micros(), 4'500'000);
  EXPECT_EQ((-a).micros(), -1'500'000);
}

TEST(Money, FractionalScalingRounds) {
  const auto m = Money::from_units(10) * 0.15;
  EXPECT_EQ(m.micros(), 1'500'000);
  const auto tiny = Money::from_micros(3) * 0.5;
  EXPECT_EQ(tiny.micros(), 2);  // llround(1.5) = 2
}

TEST(Money, Ordering) {
  EXPECT_LT(Money::from_cents(99), Money::from_units(1));
  EXPECT_GE(Money::from_units(1), Money::from_cents(100));
}

TEST(Money, Formatting) {
  EXPECT_EQ(Money::from_units(12).str(), "$12");
  EXPECT_EQ(Money::from_cents(1234).str(), "$12.34");
  EXPECT_EQ(Money::from_double(-0.002).str(), "-$0.002");
}

TEST(Money, FromDoubleRoundTrips) {
  EXPECT_NEAR(Money::from_double(1.234567).to_double(), 1.234567, 1e-6);
}

// --- Tables -----------------------------------------------------------------------

TEST(AsciiTable, RendersHeadersAndRows) {
  AsciiTable t({"Country", "Increase"});
  t.add_row({"Uzbekistan", "160,209%"});
  t.add_row({"Iran", "66,095%"});
  const auto s = t.render();
  EXPECT_NE(s.find("Country"), std::string::npos);
  EXPECT_NE(s.find("Uzbekistan"), std::string::npos);
  EXPECT_NE(s.find("160,209%"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(AsciiTable, PadsShortRows) {
  AsciiTable t({"A", "B", "C"});
  t.add_row({"x"});
  EXPECT_NE(t.render().find("x"), std::string::npos);
}

TEST(Format, Count) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(160209), "160,209");
  EXPECT_EQ(format_count(1234567), "1,234,567");
}

TEST(Format, SurgePercent) {
  EXPECT_EQ(format_surge_percent(1602.09), "160,209%");
  EXPECT_EQ(format_surge_percent(0.44), "44%");
  EXPECT_EQ(format_surge_percent(0.0), "0%");
}

TEST(Format, Percent) {
  EXPECT_EQ(format_percent(0.123, 1), "12.3%");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
}

TEST(Format, AsciiBar) {
  EXPECT_EQ(ascii_bar(0.0, 10), "          ");
  EXPECT_EQ(ascii_bar(1.0, 10), "##########");
  EXPECT_EQ(ascii_bar(0.5, 10).substr(0, 5), "#####");
  EXPECT_EQ(ascii_bar(2.0, 4), "####");  // clamped
}

// --- Archive ------------------------------------------------------------------

enum class Color : std::uint8_t { Red, Green, Blue };

struct Sample {
  bool flag = false;
  std::uint16_t narrow = 0;
  int wide = 0;
  Color color = Color::Red;
  double ratio = 0.0;
  std::string name;
  std::optional<std::uint32_t> maybe;
  std::vector<std::int64_t> times;
  std::map<std::string, std::uint8_t> ordered;
  std::unordered_map<std::uint64_t, std::string> hashed;

  template <class Ar>
  void visit(Ar& ar) {
    ar(flag, narrow, wide, color, ratio, name, maybe, times, ordered, hashed);
  }
};

TEST(Archive, TypePicksTheEncoding) {
  Sample sample;
  sample.flag = true;
  sample.narrow = 0x0102;
  sample.wide = -2;
  sample.color = Color::Blue;
  sample.ratio = 0.5;
  sample.name = "ab";
  sample.maybe = 7;
  sample.times = {3};
  sample.ordered = {{"z", 1}, {"y", 2}};
  for (const std::uint64_t key : {9u, 4u, 6u}) sample.hashed[key] = std::string(1, 'a' + key % 3);

  ByteWriter expected;
  expected.boolean(true);
  expected.u16(0x0102);
  expected.i64(-2);
  expected.u8(2);
  expected.f64(0.5);
  expected.str("ab");
  expected.boolean(true);
  expected.u32(7);
  expected.u64(1);
  expected.i64(3);
  expected.u64(2);
  expected.str("y");
  expected.u8(2);
  expected.str("z");
  expected.u8(1);
  expected.u64(3);  // unordered_map: sorted by key
  for (const std::uint64_t key : {4u, 6u, 9u}) {
    expected.u64(key);
    expected.str(std::string(1, 'a' + key % 3));
  }

  ByteWriter out;
  out(sample);
  EXPECT_EQ(out.bytes(), expected.bytes());

  Sample restored;
  ByteReader in(out.bytes());
  in(restored);
  ASSERT_TRUE(in.exhausted());
  ByteWriter again;
  again(restored);
  EXPECT_EQ(again.bytes(), out.bytes());
}

TEST(Archive, ReaderStopsAtTheFirstFailedRead) {
  // A count no payload could hold: the loop ends at the first failed read,
  // without reserving 2^62 elements.
  ByteWriter out;
  out.u64(std::uint64_t{1} << 62);
  out.i64(5);
  std::vector<std::int64_t> values;
  ByteReader in(out.bytes());
  in(values);
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(values, std::vector<std::int64_t>{5});
  EXPECT_LT(values.capacity(), 64u);
}

}  // namespace
}  // namespace fraudsim::util
