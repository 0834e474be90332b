#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <deque>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/archive.hpp"
#include "util/file.hpp"
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
// pins the multi-erase free-list ORDER the entity graph's eviction relies on,
// and checks the flat table against the node table it replaced.)

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

// The node-based table InternTable replaced: an unordered_map of strings
// plus a vector of pointers into it. Kept as the oracle for ids, sizes,
// free-list order and visit bytes.
class NodeInternTable {
 public:
  using Id = InternTable::Id;

  Id intern(std::string_view s) {
    if (auto it = ids_.find(std::string(s)); it != ids_.end()) return it->second;
    Id id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
    } else {
      id = static_cast<Id>(slots_.size() + 1);
      slots_.push_back(nullptr);
    }
    slots_[id - 1] = &ids_.emplace(std::string(s), id).first->first;
    return id;
  }
  [[nodiscard]] Id find(std::string_view s) const {
    const auto it = ids_.find(std::string(s));
    return it == ids_.end() ? 0 : it->second;
  }
  [[nodiscard]] bool contains(Id id) const {
    return id != 0 && id <= slots_.size() && slots_[id - 1] != nullptr;
  }
  [[nodiscard]] const std::string& str(Id id) const { return *slots_[id - 1]; }
  void erase(Id id) {
    if (!contains(id)) return;
    ids_.erase(*slots_[id - 1]);
    slots_[id - 1] = nullptr;
    free_.push_back(id);
  }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  void clear() {
    ids_.clear();
    slots_.clear();
    free_.clear();
  }

  [[nodiscard]] std::string checkpoint() const {
    ByteWriter w;
    w.u64(slots_.size());
    for (const std::string* slot : slots_) {
      w.boolean(slot != nullptr);
      if (slot != nullptr) w.str(*slot);
    }
    w(free_);
    return w.take();
  }
  // False when the reader fails: a free-list id that is live or out of
  // range. (It does not notice a repeated key.)
  bool restore(std::string_view bytes) {
    clear();
    ByteReader in(bytes);
    std::vector<std::optional<std::string>> slots;
    in(slots, free_);
    slots_.resize(slots.size(), nullptr);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i]) {
        slots_[i] = &ids_.emplace(std::move(*slots[i]), static_cast<Id>(i + 1)).first->first;
      }
    }
    for (const Id id : free_) {
      if (id == 0 || id > slots_.size() || slots_[id - 1] != nullptr) return false;
    }
    return in.exhausted();
  }

 private:
  std::unordered_map<std::string, Id> ids_;
  std::vector<const std::string*> slots_;
  std::vector<Id> free_;
};

std::string checkpoint_of(const InternTable& table) {
  ByteWriter w;
  table.checkpoint(w);
  return w.take();
}

bool restore_into(InternTable& table, std::string_view bytes) {
  ByteReader in(bytes);
  table.restore(in);
  return in.exhausted();
}

// Asserts the two tables agree on everything a caller can observe.
void expect_same(const InternTable& table, const NodeInternTable& oracle) {
  ASSERT_EQ(table.size(), oracle.size());
  ASSERT_EQ(table.capacity(), oracle.capacity());
  for (InternTable::Id id = 0; id <= oracle.capacity() + 1; ++id) {
    ASSERT_EQ(table.contains(id), oracle.contains(id)) << id;
    if (oracle.contains(id)) {
      ASSERT_EQ(table.str(id), oracle.str(id)) << id;
    }
  }
  // The bytes carry the free list, so they pin its order too.
  ASSERT_EQ(checkpoint_of(table), oracle.checkpoint());
}

// Keys of 0 to ~300 bytes, binary included, drawn from a pool of `distinct`.
std::string random_key(std::mt19937_64& rng, std::uint64_t distinct) {
  const std::uint64_t k = rng() % distinct;
  std::string key = "k" + std::to_string(k);
  if (k % 7 == 0) key.assign(k % 300, static_cast<char>('a' + k % 26));
  if (k % 11 == 0) key += std::string("\0\xff", 2);
  if (k % 13 == 0) key.clear();
  return key;
}

TEST(InternTable, MatchesNodeOracleUnderSeededChurn) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng(seed);
    InternTable table;
    NodeInternTable oracle;
    // Phases alternate between growth (mostly interns) and erase-heavy
    // churn that frees most live keys, forcing arena compaction and
    // table rehashes many times over.
    for (int phase = 0; phase < 12; ++phase) {
      const bool churn = phase % 2 == 1;
      const std::uint64_t distinct = 64u << (phase % 5);
      for (int op = 0; op < 3'000; ++op) {
        const std::uint64_t dice = rng() % 100;
        if (dice < (churn ? 25u : 70u)) {
          const std::string key = random_key(rng, distinct);
          ASSERT_EQ(table.intern(key), oracle.intern(key));
        } else if (dice < (churn ? 35u : 85u)) {
          const std::string key = random_key(rng, distinct);
          ASSERT_EQ(table.find(key), oracle.find(key));
        } else if (dice < 99) {
          // Live, dead, zero and out-of-range ids alike.
          const auto id = static_cast<InternTable::Id>(rng() % (oracle.capacity() + 2));
          table.erase(id);
          oracle.erase(id);
        } else if (rng() % 8 == 0) {
          table.clear();
          oracle.clear();
        } else {
          const std::string bytes = oracle.checkpoint();
          ASSERT_TRUE(restore_into(table, bytes));
          ASSERT_TRUE(oracle.restore(bytes));
        }
        if (op % 97 == 0) expect_same(table, oracle);
      }
      expect_same(table, oracle);
    }
  }
}

TEST(InternTable, RestoreFailsOnHostileFrames) {
  const auto frame = [](std::initializer_list<std::optional<std::string>> slots,
                        std::vector<InternTable::Id> free) {
    ByteWriter w;
    w(std::vector<std::optional<std::string>>(slots), free);
    return w.take();
  };
  // Accepted by both.
  const std::string good = frame({"a", std::nullopt, "b"}, {2});
  InternTable table;
  NodeInternTable oracle;
  ASSERT_TRUE(restore_into(table, good));
  ASSERT_TRUE(oracle.restore(good));
  expect_same(table, oracle);
  // A free-list id that is live, zero or out of range fails both readers.
  for (const std::string& bad : {frame({"a"}, {1}), frame({"a", std::nullopt}, {0}),
                                 frame({"a", std::nullopt}, {3})}) {
    EXPECT_FALSE(restore_into(table, bad));
    EXPECT_FALSE(oracle.restore(bad));
  }
  // A repeated key, or a free id listed twice, fails the flat table's reader
  // (the node table took both silently).
  EXPECT_FALSE(restore_into(table, frame({"a", "a"}, {})));
  EXPECT_FALSE(restore_into(table, frame({"", std::nullopt, ""}, {2})));
  EXPECT_FALSE(restore_into(table, frame({std::nullopt, std::nullopt}, {1, 1})));
  // A hostile slot count neither allocates for it nor spins.
  ByteWriter huge;
  huge.u64(std::uint64_t{1} << 60);
  EXPECT_FALSE(restore_into(table, huge.bytes()));
  // A failed table still works once cleared.
  table.clear();
  EXPECT_EQ(table.intern("z"), 1u);
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

// The scorer before ASCII classes and the bigram bit table: <cctype> per
// byte, a scan of the row string per bigram, a walk over all 256 byte counts
// per entropy.
namespace oracle {

char lower(char c) { return static_cast<char>(std::tolower(static_cast<unsigned char>(c))); }

bool is_alpha(char c) { return std::isalpha(static_cast<unsigned char>(c)) != 0; }

bool is_vowel(char c) {
  const char l = lower(c);
  return l == 'a' || l == 'e' || l == 'i' || l == 'o' || l == 'u';
}

constexpr std::array<const char*, 26> kBigramRows = {
    "bcdglmnrstvyz", "aeilorub",       "aehiklortu",       "aeiorsuy",        "adeglmnrstvwxy",
    "aeiloru",       "aehilnoru",      "aeiouy",           "acdeglmnorstvz",  "aeiou",
    "aeiloy",        "adeiklnostuvy",  "aabeiopuy",        "acdegiknostuy",   "bcdklmnoprstuvw",
    "aehiloprtu",    "u",              "adeghiklmnorstuy", "acehiklmnopqtuw", "aehiorstuwy",
    "bcdgilmnprst",  "aeio",           "aehio",            "aeit",            "aelnos",
    "aeiozy",
};

bool common_bigram(char a, char b) {
  if (!is_alpha(a) || !is_alpha(b)) return false;
  for (const char* p = kBigramRows[static_cast<std::size_t>(lower(a) - 'a')]; *p != '\0'; ++p) {
    if (*p == lower(b)) return true;
  }
  return false;
}

double shannon_entropy(std::string_view s) {
  if (s.empty()) return 0.0;
  std::array<std::size_t, 256> counts{};
  for (unsigned char c : s) counts[c]++;
  double entropy = 0.0;
  const double n = static_cast<double>(s.size());
  for (std::size_t count : counts) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / n;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

double vowel_ratio(std::string_view s) {
  std::size_t alpha = 0;
  std::size_t vowels = 0;
  for (char c : s) {
    if (!is_alpha(c)) continue;
    ++alpha;
    if (is_vowel(c)) ++vowels;
  }
  return alpha == 0 ? 0.0 : static_cast<double>(vowels) / static_cast<double>(alpha);
}

double bigram_log_likelihood(std::string_view s) {
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    if (!is_alpha(s[i]) || !is_alpha(s[i + 1])) continue;
    total += common_bigram(s[i], s[i + 1]) ? -3.0 : -6.2;
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

double gibberish_score(std::string_view s) {
  if (s.size() < 3) return 0.0;
  const double max_entropy = std::log2(std::min<double>(26.0, static_cast<double>(s.size())));
  const double entropy_sig =
      max_entropy > 0 ? std::clamp(shannon_entropy(s) / max_entropy, 0.0, 1.0) : 0.0;
  const double vr = vowel_ratio(s);
  double vowel_sig = 0.0;
  if (vr < 0.30) vowel_sig = (0.30 - vr) / 0.30;
  if (vr > 0.55) vowel_sig = (vr - 0.55) / 0.45;
  vowel_sig = std::clamp(vowel_sig, 0.0, 1.0);
  const double bll = bigram_log_likelihood(s);
  const double bigram_sig = std::clamp((bll - (-3.0)) / (-6.2 - (-3.0)), 0.0, 1.0);
  return std::clamp(0.25 * entropy_sig + 0.25 * vowel_sig + 0.50 * bigram_sig, 0.0, 1.0);
}

}  // namespace oracle

// Bit-for-bit agreement with the oracle on seeded names: mixed case, digits,
// punctuation, UTF-8, raw bytes 0x80-0xFF, lengths 0-3 and over 300.
TEST(Strings, GibberishMatchesOracle) {
  std::vector<std::string> names = {"",      "a",       "Zo",      "ab!",     "José",
                                    "李",    "Müller",  "O'Brien", "x-Æ-12",  "AFFJGDUI",
                                    "Smith", "ddfjrei", "MaRtInEz", "\x80\xff\x41", "Ωmega"};
  const std::string pools[] = {
      "abcdefghijklmnopqrstuvwxyz",
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 -'.,!?|",
      "aeiouAEIOU\xc3\xa9\xc3\xb1\xe6\x9d\x8e",  // with UTF-8 é, ñ, 李 bytes
  };
  std::uint64_t state = 2024;
  const auto next = [&state] { return state = splitmix64(state); };
  for (int i = 0; i < 3000; ++i) {
    const std::size_t len = i % 10 == 0 ? 300 + next() % 200 : next() % 16;
    const std::string& pool = pools[next() % 3];
    std::string name;
    for (std::size_t k = 0; k < len; ++k) {
      name += i % 7 == 0 ? static_cast<char>(next() % 256) : pool[next() % pool.size()];
    }
    names.push_back(std::move(name));
  }
  for (const std::string& name : names) {
    EXPECT_EQ(shannon_entropy(name), oracle::shannon_entropy(name)) << name;
    EXPECT_EQ(vowel_ratio(name), oracle::vowel_ratio(name)) << name;
    EXPECT_EQ(bigram_log_likelihood(name), oracle::bigram_log_likelihood(name)) << name;
    EXPECT_EQ(gibberish_score(name), oracle::gibberish_score(name)) << name;
  }
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

// The wire encoding as literal bytes, so a writer that is wrong in the same
// way on both sides of a comparison cannot pass.
std::string hex_bytes(std::initializer_list<unsigned> bytes) {
  std::string out;
  for (const unsigned b : bytes) out.push_back(static_cast<char>(b));
  return out;
}

TEST(Archive, IntegersAreLittleEndianLiterals) {
  const auto written = [](auto write) {
    ByteWriter out;
    write(out);
    return out.take();
  };
  EXPECT_EQ(written([](ByteWriter& w) { w.u8(0xAB); }), hex_bytes({0xAB}));
  EXPECT_EQ(written([](ByteWriter& w) { w.u16(0x0102); }), hex_bytes({0x02, 0x01}));
  EXPECT_EQ(written([](ByteWriter& w) { w.u32(0x01020304); }),
            hex_bytes({0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(written([](ByteWriter& w) { w.u64(0x0102030405060708); }),
            hex_bytes({0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(written([](ByteWriter& w) { w.i64(-2); }),
            hex_bytes({0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));
  EXPECT_EQ(written([](ByteWriter& w) { w.f64(0.5); }),
            hex_bytes({0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F}));
  EXPECT_EQ(written([](ByteWriter& w) { w.str("ab"); }),
            hex_bytes({0x02, 0x00, 0x00, 0x00, 'a', 'b'}));
  // The type-directed path writes unsigned widths through the same encoder.
  EXPECT_EQ(written([](ByteWriter& w) {
              w(std::uint8_t{0xAB}, std::uint16_t{0x0102}, std::uint32_t{0x01020304},
                std::uint64_t{0x0102030405060708}, -2, 0.5);
            }),
            hex_bytes({0xAB, 0x02, 0x01, 0x04, 0x03, 0x02, 0x01, 0x08, 0x07, 0x06, 0x05,
                       0x04, 0x03, 0x02, 0x01, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                       0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F}));
}

// The writer before it wrote through a pointer: one std::string::append per
// value. Kept as the oracle the grow-in-place writer must match byte for byte.
class StringAppendWriter {
 public:
  static constexpr bool reading = false;

  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  void raw(std::string_view s) { buf_.append(s.data(), s.size()); }

  template <class... T>
  void operator()(const T&... values) {
    (put(values), ...);
  }

  [[nodiscard]] const std::string& bytes() const { return buf_; }

 private:
  void put_le(std::uint64_t v, int n) {
    char le[8];
    for (int i = 0; i < n; ++i) le[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    buf_.append(le, static_cast<std::size_t>(n));
  }

  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      boolean(v);
    } else if constexpr (std::is_enum_v<T>) {
      u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_floating_point_v<T>) {
      f64(static_cast<double>(v));
    } else if constexpr (std::is_unsigned_v<T>) {
      put_le(v, sizeof(T));
    } else if constexpr (std::is_integral_v<T>) {
      i64(static_cast<std::int64_t>(v));
    } else if constexpr (std::is_array_v<T>) {
      for (const auto& e : v) put(e);
    } else {
      const_cast<T&>(v).visit(*this);
    }
  }
  void put(const std::string& v) { str(v); }
  template <class A, class B>
  void put(const std::pair<A, B>& v) {
    put(v.first);
    put(v.second);
  }
  template <class T, std::size_t N>
  void put(const std::array<T, N>& v) {
    for (const auto& e : v) put(e);
  }
  template <class T>
  void put(const std::optional<T>& v) {
    boolean(v.has_value());
    if (v) put(*v);
  }
  template <class T>
  void put(const std::vector<T>& v) {
    put_range(v);
  }
  template <class T>
  void put(const std::deque<T>& v) {
    put_range(v);
  }
  template <class K>
  void put(const std::set<K>& v) {
    put_range(v);
  }
  template <class K, class V>
  void put(const std::map<K, V>& v) {
    put_range(v);
  }
  template <class K>
  void put(const std::unordered_set<K>& v) {
    put_range(std::set<K>(v.begin(), v.end()));
  }
  template <class K, class V>
  void put(const std::unordered_map<K, V>& v) {
    put_range(std::map<K, V>(v.begin(), v.end()));
  }
  template <class R>
  void put_range(const R& r) {
    u64(r.size());
    for (const auto& e : r) put(e);
  }

  std::string buf_;
};

// Writes one random value of a random archive type (or one named primitive)
// to every writer in `writers`.
template <class... W>
void write_random_value(std::mt19937_64& rng, W&... writers) {
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  const auto bytes = [&](std::size_t max_len) {
    std::string s(pick(max_len + 1), '\0');
    for (char& c : s) c = static_cast<char>(rng());
    return s;
  };
  const auto write = [&](const auto&... values) { (writers(values...), ...); };
  switch (pick(24)) {
    case 0: write(pick(2) == 1); break;
    case 1: write(static_cast<std::uint8_t>(rng())); break;
    case 2: write(static_cast<std::uint16_t>(rng())); break;
    case 3: write(static_cast<std::uint32_t>(rng())); break;
    case 4: write(static_cast<std::uint64_t>(rng())); break;
    case 5: write(static_cast<int>(rng())); break;
    case 6: write(static_cast<std::int64_t>(rng())); break;
    case 7: write(static_cast<Color>(pick(3))); break;
    case 8: write(static_cast<float>(rng()) / 7.0f); break;
    case 9: write(std::bit_cast<double>(rng())); break;
    case 10: write(bytes(pick(8) == 0 ? 5000 : 40)); break;
    case 11: {
      const int values[3] = {static_cast<int>(rng()), -1, static_cast<int>(pick(100))};
      write(values);
      break;
    }
    case 12: {
      std::array<std::uint16_t, 4> values{};
      for (auto& v : values) v = static_cast<std::uint16_t>(rng());
      write(values);
      break;
    }
    case 13:
      write(std::pair<std::string, std::uint32_t>(bytes(9), static_cast<std::uint32_t>(rng())));
      break;
    case 14:
      write(pick(2) == 0 ? std::optional<double>() : std::optional<double>(0.25 * pick(99)));
      break;
    case 15: {
      std::vector<std::uint64_t> values(pick(30));
      for (auto& v : values) v = rng();
      write(values);
      break;
    }
    case 16: {
      std::deque<std::string> values(pick(6));
      for (auto& v : values) v = bytes(12);
      write(values);
      break;
    }
    case 17: {
      std::set<int> values;
      for (std::uint64_t i = pick(20); i > 0; --i) values.insert(static_cast<int>(rng()));
      write(values);
      break;
    }
    case 18: {
      std::map<std::string, std::optional<std::uint8_t>> values;
      for (std::uint64_t i = pick(6); i > 0; --i) {
        values[bytes(5)] = pick(2) == 0 ? std::nullopt : std::optional<std::uint8_t>(rng());
      }
      write(values);
      break;
    }
    case 19: {
      std::unordered_set<std::uint64_t> values;
      for (std::uint64_t i = pick(20); i > 0; --i) values.insert(pick(1000));
      write(values);
      break;
    }
    case 20: {
      std::unordered_map<std::string, std::vector<std::uint8_t>> values;
      for (std::uint64_t i = pick(6); i > 0; --i) {
        values[bytes(4)] = std::vector<std::uint8_t>(pick(5), static_cast<std::uint8_t>(rng()));
      }
      write(values);
      break;
    }
    case 21: {
      Sample sample;
      sample.flag = pick(2) == 1;
      sample.wide = static_cast<int>(rng());
      sample.name = bytes(20);
      sample.maybe = static_cast<std::uint32_t>(rng());
      sample.times.assign(pick(8), static_cast<std::int64_t>(rng()));
      sample.ordered[bytes(3)] = static_cast<std::uint8_t>(rng());
      sample.hashed[rng()] = bytes(6);
      sample.hashed[rng()] = bytes(6);
      write(sample);
      break;
    }
    case 22: {
      const std::string blob = bytes(pick(4) == 0 ? 3000 : 20);
      (writers.raw(blob), ...);
      break;
    }
    default: {
      const std::uint64_t v = rng();
      const std::string s = bytes(30);
      ((writers.u8(static_cast<std::uint8_t>(v)), writers.u16(static_cast<std::uint16_t>(v)),
        writers.u32(static_cast<std::uint32_t>(v)), writers.u64(v),
        writers.i64(static_cast<std::int64_t>(v)), writers.boolean(v % 2 == 0),
        writers.f64(static_cast<double>(v)), writers.str(s)),
       ...);
      break;
    }
  }
}

TEST(Archive, WriterMatchesStringAppendOracle) {
  std::mt19937_64 rng(20261018);
  for (int round = 0; round < 300; ++round) {
    StringAppendWriter oracle;
    ByteWriter out;
    const std::uint64_t values = rng() % (round % 10 == 0 ? 2000 : 40);
    for (std::uint64_t i = 0; i < values; ++i) {
      write_random_value(rng, oracle, out);
      ASSERT_EQ(out.size(), oracle.bytes().size()) << "round " << round << " value " << i;
    }
    ASSERT_EQ(out.bytes(), oracle.bytes()) << "round " << round;

    // A moved-to writer carries on; the moved-from one starts empty.
    ByteWriter moved(std::move(out));
    write_random_value(rng, oracle, moved);
    ASSERT_EQ(moved.bytes(), oracle.bytes()) << "round " << round;
    EXPECT_EQ(out.size(), 0u);  // NOLINT(bugprone-use-after-move): specified empty
    StringAppendWriter fresh;
    write_random_value(rng, fresh, out);
    EXPECT_EQ(out.bytes(), fresh.bytes()) << "round " << round;

    // take() hands over exactly the bytes and leaves the writer reusable.
    ASSERT_EQ(moved.take(), oracle.bytes()) << "round " << round;
    EXPECT_EQ(moved.size(), 0u);
    StringAppendWriter again;
    write_random_value(rng, again, moved);
    EXPECT_EQ(moved.bytes(), again.bytes()) << "round " << round;
  }
}

TEST(Archive, SmallWriterStaysInTheInlineBuffer) {
  // Up to the inline capacity of std::string the bytes live inside the
  // writer object itself: no heap allocation. One byte more must move out.
  const std::size_t inline_bytes = std::string().capacity();
  ByteWriter out;
  const auto inside = [&out] {
    const auto* at = reinterpret_cast<const char*>(&out);
    return out.bytes().data() >= at && out.bytes().data() < at + sizeof(out);
  };
  for (std::size_t i = 0; i < inline_bytes; ++i) {
    out.u8(static_cast<std::uint8_t>(i));
    EXPECT_TRUE(inside()) << "after " << i + 1 << " bytes";
  }
  out.u8(0xFF);
  EXPECT_FALSE(inside());
  const std::string taken = out.take();
  ASSERT_EQ(taken.size(), inline_bytes + 1);
  EXPECT_EQ(static_cast<unsigned char>(taken.back()), 0xFFu);
}

TEST(Archive, EncodedPrefixEqualsFreshEncode) {
  std::mt19937_64 rng(7);
  std::vector<Sample> log;
  EncodedPrefix prefix;
  const auto fresh = [](const std::vector<Sample>& v) {
    ByteWriter out;
    out(v);
    return out.take();
  };
  const auto via_prefix = [&prefix](const std::vector<Sample>& v) {
    ByteWriter out;
    out.u8(0x5A);  // the prefix lands mid-stream, as in a platform checkpoint
    prefix.visit(out, v);
    return out.take().substr(1);
  };
  const auto append = [&](std::uint64_t n) {
    for (; n > 0; --n) {
      Sample s;
      s.wide = static_cast<int>(rng());
      s.name = std::to_string(rng());
      s.times.assign(rng() % 4, static_cast<std::int64_t>(rng()));
      s.hashed[rng() % 50] = "h";
      log.push_back(std::move(s));
    }
  };
  // Batches of appends, empty batches included.
  for (int batch = 0; batch < 20; ++batch) {
    append(rng() % 12);
    ASSERT_EQ(via_prefix(log), fresh(log)) << "batch " << batch;
    ASSERT_EQ(via_prefix(log), fresh(log)) << "batch " << batch << " again";
  }
  const std::string before_restore = fresh(log);

  // A restore drops the prefix: the restored log, here longer than the one
  // the prefix was built from, encodes afresh and the prefix regrows from it.
  std::vector<Sample> other(log.size() + 3);
  other[1].name = "restored";
  const std::string other_bytes = fresh(other);
  ByteReader in(other_bytes);
  prefix.visit(in, log);
  ASSERT_TRUE(in.exhausted());
  ASSERT_EQ(log.size(), other.size());
  EXPECT_EQ(via_prefix(log), other_bytes);
  append(5);
  EXPECT_EQ(via_prefix(log), fresh(log));

  // reset() after a change that is not an append: a longer, different log.
  ByteReader back(before_restore);
  back(log);
  prefix.reset();
  EXPECT_EQ(via_prefix(log), before_restore);
  log.clear();
  prefix.reset();
  EXPECT_EQ(via_prefix(log), fresh(log));
  append(2);
  EXPECT_EQ(via_prefix(log), fresh(log));
}

TEST(File, MappedFileViewsExactBytes) {
  const std::string path = testing::TempDir() + "mapped_file.bin";
  EXPECT_FALSE(MappedFile::open(path + ".missing").has_value());
  EXPECT_FALSE(MappedFile::open(testing::TempDir()).has_value());  // not a regular file
  for (const std::string& bytes : {std::string(), std::string("a\0b\xff\n", 5),
                                   std::string(70000, 'x')}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    std::optional<MappedFile> mapped = MappedFile::open(path);
    ASSERT_TRUE(mapped.has_value()) << bytes.size();
    EXPECT_EQ(mapped->bytes(), bytes);
    // Dropped pages fault back in from the file: the view reads the same.
    mapped->drop_before(bytes.size());
    EXPECT_EQ(mapped->bytes(), bytes);
    // A move hands the mapping over and leaves the source empty.
    const MappedFile moved = std::move(*mapped);
    EXPECT_TRUE(mapped->bytes().empty());
    EXPECT_EQ(moved.bytes(), bytes);
  }
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
