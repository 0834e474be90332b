#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fingerprint/consistency.hpp"
#include "fingerprint/fingerprint.hpp"
#include "fingerprint/population.hpp"
#include "fingerprint/rotation.hpp"
#include "util/hash.hpp"

namespace fraudsim::fp {
namespace {

// --- Fingerprint ----------------------------------------------------------------

TEST(Fingerprint, HashStableAndSensitive) {
  Fingerprint a;
  derive_rendering_hashes(a);
  Fingerprint b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.screen_width = 2560;
  EXPECT_NE(a.hash(), b.hash());
  b = a;
  b.webdriver_flag = true;
  EXPECT_NE(a.hash(), b.hash());
}

// Counts the fields a visit() hands its archive.
struct FieldCounter {
  std::size_t fields = 0;
  template <class... T>
  void operator()(T&...) {
    fields += sizeof...(T);
  }
};

// hash() remembers the last fingerprint it digested on the calling thread.
// With the memo holding `base`, a copy that differs in any one visit field
// must digest to its own canonical string, never to the remembered one.
void expect_digest_follows_every_field() {
  Fingerprint base;
  derive_rendering_hashes(base);
  const std::vector<std::function<void(Fingerprint&)>> changes = {
      [](Fingerprint& f) { f.browser = Browser::Firefox; },
      [](Fingerprint& f) { f.browser_version += 1; },
      [](Fingerprint& f) { f.os = Os::Linux; },
      [](Fingerprint& f) { f.device = DeviceClass::Tablet; },
      [](Fingerprint& f) { f.screen_width += 1; },
      [](Fingerprint& f) { f.screen_height += 1; },
      [](Fingerprint& f) { f.timezone_offset_minutes += 60; },
      [](Fingerprint& f) { f.language = "de-DE"; },
      [](Fingerprint& f) { f.cpu_cores += 1; },
      [](Fingerprint& f) { f.memory_gb += 1; },
      [](Fingerprint& f) { f.touch_support = !f.touch_support; },
      [](Fingerprint& f) { f.plugin_count += 1; },
      [](Fingerprint& f) { f.canvas_hash ^= 1; },
      [](Fingerprint& f) { f.webgl_hash ^= 1; },
      [](Fingerprint& f) { f.fonts_hash ^= 1; },
      [](Fingerprint& f) { f.webdriver_flag = !f.webdriver_flag; },
      [](Fingerprint& f) { f.headless_hint = !f.headless_hint; },
  };
  FieldCounter counter;
  base.visit(counter);
  ASSERT_EQ(changes.size(), counter.fields) << "a visit field has no change case here";
  const std::uint64_t base_digest = util::fnv1a(base.canonical());
  for (std::size_t i = 0; i < changes.size(); ++i) {
    SCOPED_TRACE("field " + std::to_string(i));
    Fingerprint changed = base;
    changes[i](changed);
    ASSERT_NE(changed.canonical(), base.canonical());
    const std::uint64_t digest = util::fnv1a(changed.canonical());
    EXPECT_EQ(base.hash().value(), base_digest);  // fills the memo with base
    EXPECT_EQ(changed.hash().value(), digest);
    EXPECT_EQ(changed.hash().value(), digest);  // the memo now holds the copy
    EXPECT_EQ(base.hash().value(), base_digest);
  }
}

TEST(Fingerprint, HashMemoFollowsEveryVisitField) {
  expect_digest_follows_every_field();
  std::thread other(expect_digest_follows_every_field);
  other.join();
}

TEST(Fingerprint, HashNeverInvalid) {
  Fingerprint a;
  EXPECT_TRUE(a.hash().valid());
}

TEST(Fingerprint, UserAgentReflectsBrowser) {
  Fingerprint chrome;
  chrome.browser = Browser::Chrome;
  chrome.browser_version = 120;
  EXPECT_NE(chrome.user_agent().find("Chrome/120"), std::string::npos);

  Fingerprint firefox;
  firefox.browser = Browser::Firefox;
  firefox.browser_version = 115;
  EXPECT_NE(firefox.user_agent().find("Firefox/115"), std::string::npos);

  Fingerprint headless;
  headless.browser = Browser::Chrome;
  headless.headless_hint = true;
  EXPECT_NE(headless.user_agent().find("HeadlessChrome"), std::string::npos);
}

// --- Population -----------------------------------------------------------------

TEST(Population, SamplesAreConsistent) {
  PopulationModel population;
  ConsistencyChecker checker;
  sim::Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    const auto fp = population.sample(rng);
    EXPECT_TRUE(checker.check(fp).empty())
        << fp.canonical() << " violated: " << checker.check(fp).front().detail;
    EXPECT_FALSE(fp.webdriver_flag);
    EXPECT_FALSE(fp.headless_hint);
  }
}

TEST(Population, PopularConfigurationsRepeat) {
  // Real fingerprint populations cluster: the same stacks recur. Sampling
  // many users must produce duplicate hashes.
  PopulationModel population;
  sim::Rng rng(43);
  std::set<FpHash> hashes;
  const int n = 2000;
  for (int i = 0; i < n; ++i) hashes.insert(population.sample(rng).hash());
  EXPECT_LT(hashes.size(), static_cast<std::size_t>(n));
}

TEST(Population, NaiveBotCarriesArtifacts) {
  PopulationModel population;
  sim::Rng rng(44);
  const auto bot = population.sample_naive_bot(rng);
  EXPECT_TRUE(bot.webdriver_flag);
  EXPECT_TRUE(bot.headless_hint);
  EXPECT_EQ(bot.plugin_count, 0);
}

TEST(Population, CleanSpoofHidesArtifactsAndStaysConsistent) {
  PopulationModel population;
  ConsistencyChecker checker;
  sim::Rng rng(45);
  SpoofOptions opts;
  opts.hide_automation = true;
  opts.inconsistency_prob = 0.0;
  for (int i = 0; i < 200; ++i) {
    const auto fp = population.sample_spoofed(rng, opts);
    EXPECT_FALSE(fp.webdriver_flag);
    EXPECT_TRUE(checker.check(fp).empty());
  }
}

TEST(Population, SloppySpoofLeaksInconsistencies) {
  PopulationModel population;
  ConsistencyChecker checker;
  sim::Rng rng(46);
  SpoofOptions opts;
  opts.inconsistency_prob = 1.0;
  int violations = 0;
  for (int i = 0; i < 100; ++i) {
    if (!checker.check(population.sample_spoofed(rng, opts)).empty()) ++violations;
  }
  EXPECT_GT(violations, 90);
}

// --- Consistency rules -------------------------------------------------------------

TEST(Consistency, SafariOnWindowsIsViolation) {
  Fingerprint fp;
  fp.browser = Browser::Safari;
  fp.os = Os::Windows;
  derive_rendering_hashes(fp);
  ConsistencyChecker checker;
  const auto violations = checker.check(fp);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().rule, "browser-os");
}

TEST(Consistency, MobileOsOnDesktopDeviceIsViolation) {
  Fingerprint fp;
  fp.browser = Browser::Chrome;
  fp.os = Os::Android;
  fp.device = DeviceClass::Desktop;
  fp.touch_support = false;
  derive_rendering_hashes(fp);
  ConsistencyChecker checker;
  EXPECT_FALSE(checker.check(fp).empty());
  EXPECT_GT(checker.inconsistency_score(fp), 0.0);
}

TEST(Consistency, TamperedRenderHashDetected) {
  PopulationModel population;
  sim::Rng rng(47);
  auto fp = population.sample(rng);
  fp.canvas_hash ^= 0xDEADBEEF;  // spoofed canvas that doesn't match the stack
  ConsistencyChecker checker;
  bool found = false;
  for (const auto& v : checker.check(fp)) {
    if (v.rule == "render-hash") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Consistency, ScoreBoundedByOne) {
  Fingerprint fp;
  fp.browser = Browser::Safari;
  fp.os = Os::Windows;
  fp.device = DeviceClass::Desktop;
  fp.touch_support = true;
  fp.screen_width = 390;
  fp.screen_height = 844;
  fp.canvas_hash = 1;  // wrong
  ConsistencyChecker checker;
  EXPECT_LE(checker.inconsistency_score(fp), 1.0);
  EXPECT_GT(checker.inconsistency_score(fp), 0.5);
}

// Rendering digests as derive_rendering_hashes computed them before the
// stack went into a local buffer: string temporaries, three concatenations.
RenderingHashes oracle_rendering_hashes(const Fingerprint& fp) {
  const std::string stack = std::string(to_string(fp.browser)) + "/" +
                            std::to_string(fp.browser_version) + "|" + to_string(fp.os) + "|" +
                            std::to_string(fp.screen_width) + "x" +
                            std::to_string(fp.screen_height);
  return {util::fnv1a("canvas:" + stack), util::fnv1a("webgl:" + stack),
          util::fnv1a("fonts:" + std::string(to_string(fp.os)))};
}

TEST(Consistency, RenderingHashesMatchOracle) {
  PopulationModel population;
  sim::Rng rng(48);
  std::vector<Fingerprint> fps;
  for (int i = 0; i < 10'000; ++i) fps.push_back(population.sample(rng));
  for (int i = 0; i < 500; ++i) fps.push_back(population.sample_naive_bot(rng));
  for (int i = 0; i < 500; ++i) {
    fps.push_back(population.sample_spoofed(rng, SpoofOptions{true, 0.5}));
  }
  // Hand-edited stacks: every browser and OS (and one past each), extreme
  // and negative numbers, digests left stale or tampered.
  const int numbers[] = {0, -1, 7, 390, 3840, INT_MAX, INT_MIN};
  for (int b = 0; b <= static_cast<int>(Browser::Other) + 1; ++b) {
    for (int o = 0; o <= static_cast<int>(Os::Ios) + 1; ++o) {
      for (const int n : numbers) {
        Fingerprint fp;
        fp.browser = static_cast<Browser>(b);
        fp.os = static_cast<Os>(o);
        fp.browser_version = n;
        fp.screen_width = n;
        fp.screen_height = INT_MIN + INT_MAX - n;
        fp.canvas_hash = static_cast<std::uint64_t>(n);
        fps.push_back(fp);
      }
    }
  }
  const ConsistencyChecker checker;
  for (const Fingerprint& fp : fps) {
    const RenderingHashes got = rendering_hashes(fp);
    const RenderingHashes want = oracle_rendering_hashes(fp);
    EXPECT_EQ(got.canvas, want.canvas) << fp.canonical();
    EXPECT_EQ(got.webgl, want.webgl) << fp.canonical();
    EXPECT_EQ(got.fonts, want.fonts) << fp.canonical();

    // One pass counts what check() lists and reports its first entry.
    const auto violations = checker.check(fp);
    ConsistencyViolation first;
    ASSERT_EQ(checker.count_violations(fp, &first), violations.size()) << fp.canonical();
    if (!violations.empty()) {
      EXPECT_EQ(first.rule, violations.front().rule);
      EXPECT_EQ(first.detail, violations.front().detail);
    }
    const bool stale = want.canvas != fp.canvas_hash || want.webgl != fp.webgl_hash ||
                       want.fonts != fp.fonts_hash;
    EXPECT_EQ(!violations.empty() && violations.back().rule == "render-hash", stale);
  }
}

// The attribute string as an ostringstream writes it: the canonical() that
// Fingerprint::hash() digested before it was built with std::to_chars.
std::string oracle_canonical(const Fingerprint& fp) {
  std::ostringstream out;
  out << to_string(fp.browser) << '/' << fp.browser_version << '|' << to_string(fp.os) << '|'
      << to_string(fp.device) << '|' << fp.screen_width << 'x' << fp.screen_height << '|'
      << fp.timezone_offset_minutes << '|' << fp.language << '|' << fp.cpu_cores << 'c'
      << fp.memory_gb << 'g' << '|' << (fp.touch_support ? 'T' : 't') << fp.plugin_count << '|'
      << fp.canvas_hash << '|' << fp.webgl_hash << '|' << fp.fonts_hash << '|'
      << (fp.webdriver_flag ? 'W' : 'w') << (fp.headless_hint ? 'H' : 'h');
  return out.str();
}

TEST(Fingerprint, CanonicalMatchesStreamOracle) {
  PopulationModel population;
  sim::Rng rng(52);
  std::vector<Fingerprint> fps;
  for (int i = 0; i < 5'000; ++i) fps.push_back(population.sample(rng));
  for (int i = 0; i < 500; ++i) fps.push_back(population.sample_naive_bot(rng));
  // Every browser, OS and device class (and one past each) with extreme
  // numbers, flags flipped, and empty and long languages.
  const int numbers[] = {0, -1, -300, 7, 390, INT_MAX, INT_MIN};
  const std::uint64_t digests[] = {0, 1, 0x8000000000000000ULL, UINT64_MAX};
  for (int b = 0; b <= static_cast<int>(Browser::Other) + 1; ++b) {
    for (int o = 0; o <= static_cast<int>(Os::Ios) + 1; ++o) {
      for (int d = 0; d <= static_cast<int>(DeviceClass::Tablet) + 1; ++d) {
        for (std::size_t n = 0; n < std::size(numbers); ++n) {
          Fingerprint fp;
          fp.browser = static_cast<Browser>(b);
          fp.os = static_cast<Os>(o);
          fp.device = static_cast<DeviceClass>(d);
          fp.browser_version = numbers[n];
          fp.screen_width = numbers[(n + 1) % std::size(numbers)];
          fp.screen_height = numbers[(n + 2) % std::size(numbers)];
          fp.timezone_offset_minutes = numbers[(n + 3) % std::size(numbers)];
          fp.cpu_cores = numbers[(n + 4) % std::size(numbers)];
          fp.memory_gb = numbers[(n + 5) % std::size(numbers)];
          fp.plugin_count = numbers[(n + 6) % std::size(numbers)];
          fp.canvas_hash = digests[n % std::size(digests)];
          fp.webgl_hash = digests[(n + 1) % std::size(digests)];
          fp.fonts_hash = digests[(n + 2) % std::size(digests)];
          fp.touch_support = n % 2 == 0;
          fp.webdriver_flag = n % 3 == 0;
          fp.headless_hint = n % 4 == 0;
          fp.language = n % 3 == 0 ? "" : n % 3 == 1 ? std::string(300, 'x') : "pt-BR";
          fps.push_back(fp);
        }
      }
    }
  }
  Fingerprint west;
  west.timezone_offset_minutes = -480;
  fps.push_back(west);
  for (const Fingerprint& fp : fps) {
    const std::string want = oracle_canonical(fp);
    ASSERT_EQ(fp.canonical(), want);
    const std::uint64_t digest = util::fnv1a(want);
    EXPECT_EQ(fp.hash().value(), digest == 0 ? 1 : digest) << want;
  }
}

// --- Rotation --------------------------------------------------------------------

RotationConfig fast_rotation() {
  RotationConfig config;
  config.mean_reaction = sim::hours(5.3);
  config.reaction_stddev = sim::hours(1.5);
  config.min_reaction = sim::minutes(20);
  return config;
}

TEST(Rotation, NoRotationWithoutBlocks) {
  PopulationModel population;
  RotatingIdentity identity(fast_rotation(), population, sim::Rng(50));
  const auto h0 = identity.current().hash();
  EXPECT_FALSE(identity.advance(sim::days(10)));
  EXPECT_EQ(identity.current().hash(), h0);
  EXPECT_TRUE(identity.history().empty());
}

TEST(Rotation, BlockSchedulesRotationWithReactionDelay) {
  PopulationModel population;
  RotatingIdentity identity(fast_rotation(), population, sim::Rng(51));
  const auto h0 = identity.current().hash();
  const auto when = identity.on_blocked(sim::hours(10));
  EXPECT_GE(when, sim::hours(10) + sim::minutes(20));
  // Before the rotation lands, the fingerprint is unchanged.
  EXPECT_FALSE(identity.advance(when - 1));
  EXPECT_EQ(identity.current().hash(), h0);
  // After, it changed.
  EXPECT_TRUE(identity.advance(when));
  EXPECT_NE(identity.current().hash(), h0);
  ASSERT_EQ(identity.history().size(), 1u);
  EXPECT_EQ(identity.history().front().blocked_at, sim::hours(10));
}

TEST(Rotation, RepeatedBlockWhilePendingIsIdempotent) {
  PopulationModel population;
  RotatingIdentity identity(fast_rotation(), population, sim::Rng(52));
  const auto first = identity.on_blocked(sim::hours(1));
  const auto second = identity.on_blocked(sim::hours(2));
  EXPECT_EQ(first, second);
}

TEST(Rotation, MeanReactionApproximatesConfig) {
  PopulationModel population;
  RotatingIdentity identity(fast_rotation(), population, sim::Rng(53));
  sim::SimTime now = 0;
  for (int i = 0; i < 200; ++i) {
    now += sim::hours(24);
    const auto when = identity.on_blocked(now);
    identity.advance(when);
  }
  EXPECT_NEAR(identity.mean_reaction_hours(), 5.3, 0.5);
  EXPECT_EQ(identity.history().size(), 200u);
}

TEST(Rotation, PeriodicRotationWithoutBlocks) {
  PopulationModel population;
  RotationConfig config = fast_rotation();
  config.periodic = sim::hours(2);
  RotatingIdentity identity(config, population, sim::Rng(54));
  identity.advance(sim::hours(10));
  EXPECT_EQ(identity.history().size(), 5u);
  // Periodic records carry no blocked_at and don't affect reaction stats.
  EXPECT_DOUBLE_EQ(identity.mean_reaction_hours(), 0.0);
}

}  // namespace
}  // namespace fraudsim::fp
