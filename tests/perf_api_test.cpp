// Hot-path speed campaign: the contracts behind the detection pipeline,
// the arena/interned admit path, and the perf gatekeeper's probes.
//
//   * the pipeline's rendered alert bytes are pinned by CRC-32 across seeds,
//     and, trained, together with its trace bytes
//   * util::Arena reset/reuse semantics and allocation accounting
//   * util::InternTable id recycling and exact-id checkpoint/restore
//   * SlidingWindowRateLimiter: the interned key store matches a string-keyed
//     reference model on decisions, key state and checkpoint bytes, and a
//     restore -> re-checkpoint round trip continues identically
//   * RuleEngine: arena-rendered rate keys are the canonical key strings
//   * histogram_percentile: single-sample buckets report one stable value
//   * PipelineView: typed stats hold the batch conservation law
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attack/scraper.hpp"
#include "attack/seat_spin.hpp"
#include "core/detect/pipeline.hpp"
#include "core/mitigate/rate_limit.hpp"
#include "core/mitigate/rules.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/obs.hpp"
#include "core/scenario/env.hpp"
#include "util/arena.hpp"
#include "util/archive.hpp"
#include "util/hash.hpp"
#include "util/intern.hpp"
#include "util/stats.hpp"

using namespace fraudsim;

namespace {

// Renders every alert field into one diffable string — the bytes the
// pipeline pins hash.
std::string render_alerts(const std::vector<detect::Alert>& alerts) {
  std::ostringstream out;
  for (const auto& a : alerts) {
    out << a.time << '|' << a.detector << '|' << detect::to_string(a.severity) << '|'
        << a.explanation;
    if (a.fingerprint) out << "|fp=" << a.fingerprint->value();
    if (a.ip) out << "|ip=" << a.ip->str();
    if (a.session) out << "|s=" << a.session->value();
    if (a.pnr) out << "|pnr=" << *a.pnr;
    if (a.actor) out << "|actor=" << a.actor->value();
    out << '\n';
  }
  return out.str();
}

// A platform with mixed legit + scraper traffic, so identity comparisons have
// real alerts to diff (pure legit traffic alerts on nothing — vacuously
// "identical"). Env is constructed in place; it is not movable.
struct AlertWorld {
  scenario::Env env;
  std::unique_ptr<attack::ScraperBot> scraper;

  AlertWorld(std::uint64_t seed, sim::SimTime horizon) : env(make_config(seed)) {
    env.add_flights("FS", 4, 150, sim::days(5));
    attack::ScraperConfig config;
    config.sessions = 3;
    config.session_gap = sim::minutes(20);
    scraper = std::make_unique<attack::ScraperBot>(env.app, env.actors, env.datacenter,
                                                   env.population, config,
                                                   env.rng.fork("scraper"));
    env.start_background(horizon);
    env.sim.schedule_at(sim::minutes(10), [this] { scraper->start(); });
    env.run_until(horizon);
  }

  static scenario::EnvConfig make_config(std::uint64_t seed) {
    scenario::EnvConfig config;
    config.seed = seed;
    return config;
  }
};

std::string checkpoint_bytes(const mitigate::SlidingWindowRateLimiter& limiter) {
  util::ByteWriter out;
  limiter.checkpoint(out);
  return out.take();
}

// The limiter's contract written the obvious way: an ordered map from key
// string to its event deque, with the same amortised once-per-window sweep
// of keys whose newest event aged out. Its checkpoint writes the limiter's
// frame layout (denials, sweep clock, keys in string order), so the interned
// limiter must match it on decisions, key state and bytes.
class ReferenceLimiter {
 public:
  ReferenceLimiter(std::uint64_t limit, sim::SimDuration window)
      : limit_(limit), window_(window) {}

  bool allow(sim::SimTime now, const std::string& key) { return allow(now, key, limit_); }
  bool allow(sim::SimTime now, const std::string& key, std::uint64_t effective_limit) {
    if (now - last_sweep_ >= window_) {
      last_sweep_ = now;
      std::erase_if(events_, [&](const auto& entry) {
        return entry.second.empty() || entry.second.back() <= now - window_;
      });
    }
    auto& q = events_[key];
    while (!q.empty() && q.front() <= now - window_) q.pop_front();
    if (q.size() >= effective_limit) {
      ++denials_;
      return false;
    }
    q.push_back(now);
    return true;
  }

  [[nodiscard]] std::uint64_t current(sim::SimTime now, const std::string& key) const {
    const auto it = events_.find(key);
    return it == events_.end() ? 0 : live(now, it->second);
  }
  [[nodiscard]] std::uint64_t max_in_window(sim::SimTime now) const {
    std::uint64_t max = 0;
    for (const auto& [key, q] : events_) max = std::max(max, live(now, q));
    return max;
  }
  [[nodiscard]] std::size_t key_count() const { return events_.size(); }
  [[nodiscard]] std::uint64_t denials() const { return denials_; }

  [[nodiscard]] std::string checkpoint_bytes() const {
    util::ByteWriter out;
    out.u64(denials_);
    out.i64(last_sweep_);
    out.u64(events_.size());
    for (const auto& [key, q] : events_) {
      out.str(key);
      out.u64(q.size());
      for (sim::SimTime t : q) out.i64(t);
    }
    return out.take();
  }

 private:
  [[nodiscard]] std::uint64_t live(sim::SimTime now, const std::deque<sim::SimTime>& q) const {
    return static_cast<std::uint64_t>(
        std::count_if(q.begin(), q.end(), [&](sim::SimTime t) { return t > now - window_; }));
  }

  std::uint64_t limit_;
  sim::SimDuration window_;
  std::map<std::string, std::deque<sim::SimTime>> events_;
  std::uint64_t denials_ = 0;
  sim::SimTime last_sweep_ = 0;
};

// The canonical rate-limit key for a request, built from the public string
// renderings of its fields: dotted-quad IP, decimal session and fingerprint
// ids, the booking reference or "s:<session>" when there is none.
std::string canonical_key(const mitigate::RateLimitSpec& spec, const web::HttpRequest& request) {
  switch (spec.key) {
    case mitigate::RateKey::Global:
      return "*";
    case mitigate::RateKey::ByIp:
      return request.ip.str();
    case mitigate::RateKey::BySession:
      return request.session.str();
    case mitigate::RateKey::ByFingerprint:
      return request.fp_hash.str();
    case mitigate::RateKey::ByBookingRef:
      return request.booking_ref.value_or("s:" + request.session.str());
  }
  return "*";
}

// --- Arena ------------------------------------------------------------------

TEST(Arena, CopiesFormatsAndConcatenates) {
  util::Arena arena(128);
  EXPECT_EQ(arena.copy("hello"), "hello");
  EXPECT_EQ(arena.format_u64(0), "0");
  EXPECT_EQ(arena.format_u64(18446744073709551615ull), "18446744073709551615");
  EXPECT_EQ(arena.concat("s:", arena.format_u64(42)), "s:42");
  EXPECT_EQ(arena.stats().resets, 0u);
  EXPECT_GT(arena.stats().allocations, 0u);
}

TEST(Arena, ResetReusesChunksWithoutHeapTraffic) {
  util::Arena arena(256);
  for (int warm = 0; warm < 4; ++warm) {
    for (int i = 0; i < 10; ++i) (void)arena.copy("warmup-key-material");
    arena.reset();
  }
  const std::uint64_t chunks_after_warmup = arena.stats().chunk_allocs;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) (void)arena.copy("steady-state-key");
    arena.reset();
  }
  // Steady state: the warmed-up arena serves every round from retained chunks.
  EXPECT_EQ(arena.stats().chunk_allocs, chunks_after_warmup);
  EXPECT_EQ(arena.stats().resets, 104u);
  EXPECT_EQ(arena.used(), 0u);
}

TEST(Arena, OversizedAllocationGetsDedicatedChunk) {
  util::Arena arena(64);
  const std::string big(1000, 'x');
  EXPECT_EQ(arena.copy(big), big);
  EXPECT_GE(arena.stats().high_water, 1000u);
}

// --- InternTable ------------------------------------------------------------

TEST(InternTable, InternsFindsAndRecyclesIds) {
  util::InternTable table;
  const auto a = table.intern("alpha");
  const auto b = table.intern("beta");
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.intern("alpha"), a);  // idempotent
  EXPECT_EQ(table.find("beta"), b);
  EXPECT_EQ(table.find("gamma"), 0u);
  EXPECT_EQ(table.str(a), "alpha");
  table.erase(a);
  EXPECT_EQ(table.find("alpha"), 0u);
  EXPECT_FALSE(table.contains(a));
  // LIFO recycling: the freed id is handed to the next new string.
  EXPECT_EQ(table.intern("gamma"), a);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.capacity(), 2u);
}

TEST(InternTable, CheckpointRestoresExactIdAssignment) {
  util::InternTable table;
  const auto a = table.intern("alpha");
  const auto b = table.intern("beta");
  const auto c = table.intern("gamma");
  table.erase(b);

  util::ByteWriter out;
  table.checkpoint(out);
  const std::string frame = out.take();

  util::InternTable restored;
  util::ByteReader in(frame);
  restored.restore(in);
  EXPECT_EQ(restored.find("alpha"), a);
  EXPECT_EQ(restored.find("gamma"), c);
  EXPECT_EQ(restored.find("beta"), 0u);
  // The free list came across too: the next intern reuses b's id, exactly as
  // the original table would have.
  EXPECT_EQ(restored.intern("delta"), b);
  EXPECT_EQ(table.intern("delta"), b);

  // restore -> re-checkpoint is byte-stable.
  util::InternTable round;
  util::ByteReader in2(frame);
  round.restore(in2);
  util::ByteWriter out2;
  round.checkpoint(out2);
  EXPECT_EQ(out2.bytes(), frame);
}

// --- Rate limiter key store -------------------------------------------------

TEST(RateLimiterStores, InternedMatchesStringKeyedReference) {
  mitigate::SlidingWindowRateLimiter limiter(3, sim::kHour);
  ReferenceLimiter reference(3, sim::kHour);

  // Deterministic churny stream: rotating keys, time marching through many
  // sweep periods, enough per-key pressure to deny.
  sim::SimTime now = 0;
  for (int i = 0; i < 5000; ++i) {
    now += sim::seconds(40);
    const std::string key = "k-" + std::to_string((i * 7) % 12);
    ASSERT_EQ(limiter.allow(now, key), reference.allow(now, key))
        << "decision diverged at step " << i;
  }
  EXPECT_GT(reference.denials(), 0u);
  EXPECT_EQ(limiter.denials(), reference.denials());
  EXPECT_EQ(limiter.key_count(), reference.key_count());
  EXPECT_EQ(limiter.max_in_window(now), reference.max_in_window(now));
  for (int k = 0; k < 12; ++k) {
    const std::string key = "k-" + std::to_string(k);
    ASSERT_EQ(limiter.current(now, key), reference.current(now, key)) << key;
  }
  EXPECT_EQ(checkpoint_bytes(limiter), reference.checkpoint_bytes());
}

// Asserts the limiter and the reference agree on `keys` and as a whole.
void expect_same(const mitigate::SlidingWindowRateLimiter& limiter,
                 const ReferenceLimiter& reference, sim::SimTime now,
                 const std::vector<std::string>& keys) {
  for (const std::string& key : keys) {
    ASSERT_EQ(limiter.current(now, key), reference.current(now, key)) << key;
  }
  ASSERT_EQ(limiter.max_in_window(now), reference.max_in_window(now));
  ASSERT_EQ(limiter.key_count(), reference.key_count());
  ASSERT_EQ(limiter.denials(), reference.denials());
  ASSERT_EQ(checkpoint_bytes(limiter), reference.checkpoint_bytes());
}

TEST(RateLimiterStores, MatchesReferenceUnderChurnBrownoutAndRestore) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    std::mt19937_64 rng(seed);
    std::optional<mitigate::SlidingWindowRateLimiter> limiter(std::in_place, 6, sim::kMinute);
    ReferenceLimiter reference(6, sim::kMinute);
    sim::SimTime now = 0;
    std::uint64_t base = 0;  // the live key range drifts, so old keys go stale
    std::vector<std::string> recent;
    for (int op = 0; op < 40'000; ++op) {
      now += static_cast<sim::SimTime>(rng() % 2'000);
      if (rng() % 500 == 0) now += sim::minutes(2);  // an idle gap: every key goes stale
      if (rng() % 50 == 0) base += 8;
      const std::string key = "ip-" + std::to_string(base + rng() % 40);
      // Brownout scales the limit down for a while; 0 denies everything.
      const std::uint64_t scaled[] = {6, 6, 6, 3, 1, 0};
      const std::uint64_t limit = scaled[(op / 1'000 + rng() % 2) % std::size(scaled)];
      ASSERT_EQ(limiter->allow(now, key, limit), reference.allow(now, key, limit)) << op;
      recent.push_back(key);
      if (op % 211 == 0) {
        recent.push_back("never-seen");
        expect_same(*limiter, reference, now, recent);
        recent.clear();
      }
      if (op % 4'999 == 0) {
        // Restore round trip: the restored limiter carries on in lockstep.
        const std::string bytes = checkpoint_bytes(*limiter);
        limiter.emplace(6, sim::kMinute);
        util::ByteReader in(bytes);
        limiter->restore(in);
        ASSERT_TRUE(in.exhausted());
        ASSERT_EQ(checkpoint_bytes(*limiter), bytes);
      }
    }
    expect_same(*limiter, reference, now, recent);
    EXPECT_GT(reference.denials(), 0u);
  }
}

TEST(RateLimiterStores, GlobalKeyHoldingOver100kEventsMatchesReference) {
  constexpr std::uint64_t kLimit = 150'000;
  mitigate::SlidingWindowRateLimiter limiter(kLimit, sim::kHour);
  ReferenceLimiter reference(kLimit, sim::kHour);
  std::mt19937_64 rng(7);
  sim::SimTime now = 0;
  std::uint64_t allowed = 0;
  // 10 ms apart for the first 1,300 s, then 50 ms apart across the hour
  // boundary, so the window first fills past 100k events and then slides.
  for (int i = 0; i < 230'000; ++i) {
    now += i < 130'000 ? 10 : 50;
    // A brownout at 80% of the limit, while the window holds more than
    // that, denies until enough of the window has aged out.
    const std::uint64_t limit = i >= 130'000 && i < 150'000 ? kLimit * 4 / 5 : kLimit;
    const bool verdict = limiter.allow(now, "global", limit);
    ASSERT_EQ(verdict, reference.allow(now, "global", limit)) << i;
    allowed += verdict ? 1 : 0;
    const std::string ip = "ip-" + std::to_string(rng() % 300);
    ASSERT_EQ(limiter.allow(now, ip, 50), reference.allow(now, ip, 50)) << i;
    if (i == 129'999) {
      EXPECT_EQ(limiter.current(now, "global"), 130'000u);
    }
    if (i % 25'000 == 0) expect_same(limiter, reference, now, {"global", ip});
  }
  EXPECT_LT(allowed, 230'000u);  // the brownout denied some
  expect_same(limiter, reference, now, {"global"});
}

TEST(RateLimiterStores, CheckpointRestoreContinuesIdentically) {
  using Limiter = mitigate::SlidingWindowRateLimiter;
  Limiter original(5, sim::kHour);
  sim::SimTime now = 0;
  for (int i = 0; i < 400; ++i) {
    now += sim::seconds(90);
    (void)original.allow(now, "key-" + std::to_string(i % 23));
  }
  const std::string frame = checkpoint_bytes(original);

  // The format carries key strings, never ids: a restore re-interns them in
  // checkpoint order and re-checkpoints to the same bytes.
  Limiter restored(5, sim::kHour);
  util::ByteReader in(frame);
  restored.restore(in);
  EXPECT_EQ(checkpoint_bytes(restored), frame);
  EXPECT_EQ(restored.key_count(), original.key_count());

  // Both continuations decide identically after the restore, through enough
  // pressure on a few restored keys to deny.
  for (int i = 0; i < 200; ++i) {
    now += sim::seconds(45);
    const std::string key = "key-" + std::to_string(i % 5);
    ASSERT_EQ(restored.allow(now, key), original.allow(now, key));
  }
  EXPECT_GT(original.denials(), 0u);
  EXPECT_EQ(restored.denials(), original.denials());
  EXPECT_EQ(checkpoint_bytes(restored), checkpoint_bytes(original));
}

TEST(RateLimiterStores, StaleEvictionBoundsInternedKeys) {
  using Limiter = mitigate::SlidingWindowRateLimiter;
  Limiter limiter(10, sim::kMinute);
  sim::SimTime now = 0;
  for (int i = 0; i < 10'000; ++i) {
    now += sim::seconds(2);
    (void)limiter.allow(now, "rotating-" + std::to_string(i));
  }
  // Only keys from the last ~window survive the amortised sweep; lifetime
  // distinct keys (10k) must not accumulate.
  EXPECT_LE(limiter.key_count(), 100u);
}

// --- RuleEngine rate keys ---------------------------------------------------

TEST(RuleEngineRateKeys, ArenaKeysAreTheCanonicalStrings) {
  sim::Simulation sim;
  mitigate::RuleEngine engine(sim);
  const std::vector<mitigate::RateLimitSpec> specs = {
      {"global", std::nullopt, mitigate::RateKey::Global, 4000, sim::kHour},
      {"ip", std::nullopt, mitigate::RateKey::ByIp, 40, sim::kHour},
      {"session", std::nullopt, mitigate::RateKey::BySession, 25, sim::kHour},
      {"fp", std::nullopt, mitigate::RateKey::ByFingerprint, 60, sim::kHour},
      {"booking", web::Endpoint::BoardingPassSms, mitigate::RateKey::ByBookingRef, 3, sim::kDay},
  };
  std::vector<ReferenceLimiter> reference;
  for (const auto& spec : specs) {
    engine.add_rate_limit(spec);
    reference.emplace_back(spec.limit, spec.window);
  }

  // Every canonical key the stream produced, per limiter.
  std::vector<std::set<std::string>> seen(specs.size());
  app::ClientContext ctx;
  for (int i = 0; i < 3000; ++i) {
    if (i % 50 == 0) sim.run_until(sim::minutes(5) * (i / 50));
    web::HttpRequest request;
    request.ip = net::IpV4{0x0A000000u + static_cast<std::uint32_t>(i % 7)};
    request.session = web::SessionId{static_cast<std::uint64_t>(i % 11) + 1};
    // Full-width hash values: decimal renderings exceed SSO, the case the
    // arena path exists for.
    request.fp_hash = fp::FpHash{0xF000000000000000ull + static_cast<std::uint64_t>(i % 5)};
    request.endpoint =
        i % 3 == 0 ? web::Endpoint::BoardingPassSms : web::Endpoint::SearchFlights;
    if (i % 4 == 0) request.booking_ref = "PNR" + std::to_string(i % 9);
    ctx.ip = request.ip;
    ctx.session = request.session;

    // Reference decision: the limits in spec order over heap-string keys;
    // the first limit that trips names the denial.
    std::string denied_by;
    for (std::size_t l = 0; l < specs.size() && denied_by.empty(); ++l) {
      if (specs[l].endpoint && *specs[l].endpoint != request.endpoint) continue;
      const std::string key = canonical_key(specs[l], request);
      seen[l].insert(key);
      if (!reference[l].allow(sim.now(), key)) denied_by = specs[l].name;
    }
    const auto decision = engine.evaluate(request, ctx);
    ASSERT_EQ(decision.action, denied_by.empty() ? app::PolicyAction::Allow
                                                 : app::PolicyAction::RateLimited)
        << "request " << i;
    ASSERT_EQ(decision.rule, denied_by) << "request " << i;
  }

  // Looking each limiter up by the canonical strings finds the in-window
  // counts the reference expects: the arena rendered the same bytes.
  const sim::SimTime now = sim.now();
  for (std::size_t l = 0; l < specs.size(); ++l) {
    const mitigate::SlidingWindowRateLimiter* limiter = engine.limiter(specs[l].name);
    ASSERT_NE(limiter, nullptr);
    std::uint64_t live = 0;
    for (const std::string& key : seen[l]) {
      const std::uint64_t expected = reference[l].current(now, key);
      EXPECT_EQ(limiter->current(now, key), expected) << specs[l].name << " key " << key;
      live += expected;
    }
    EXPECT_GT(live, 0u) << specs[l].name << ": vacuous comparison";
    EXPECT_EQ(limiter->denials(), reference[l].denials()) << specs[l].name;
    EXPECT_EQ(checkpoint_bytes(*limiter), reference[l].checkpoint_bytes()) << specs[l].name;
  }
  // The booking limit saw both a real reference and the "s:<session>"
  // fallback of a request that carried none.
  EXPECT_GT(engine.limiter("booking")->current(now, "PNR0"), 0u);
  EXPECT_GT(engine.limiter("booking")->current(now, "s:1"), 0u);
  EXPECT_GT(engine.key_arena().stats().allocations, 0u);
}

// --- Detection pipeline -----------------------------------------------------

// The rendered alert bytes of the default pipeline (IP reputation on) over
// mixed legit + scraper worlds, pinned by CRC-32. The figures were taken
// from the batched implementation that the per-family evaluate bodies
// replaced, so a detector rewrite that moves one alert byte or reorders two
// alerts fails here.
TEST(PipelineAlerts, BytesArePinned) {
  const std::pair<std::uint64_t, std::uint32_t> pins[] = {
      {3, 0xbd0dcce0u}, {7, 0xc40e39f9u}, {9, 0x22f2ea19u}};
  for (const auto& [seed, crc] : pins) {
    AlertWorld world(seed, sim::hours(2));
    detect::DetectionPipeline pipeline;
    pipeline.enable_ip_reputation(world.env.geo);
    const auto result = pipeline.run(world.env.app, world.env.actors, 0, sim::hours(2));
    const std::string bytes = render_alerts(result.alerts.alerts());
    EXPECT_FALSE(bytes.empty()) << "seed " << seed << ": no alerts — vacuous pin";
    EXPECT_EQ(util::crc32(bytes), crc) << "seed " << seed << std::hex << ": crc 0x"
                                       << util::crc32(bytes);
  }
}

// A trained pipeline over legit traffic, a datacenter scraper and a
// seat-spinning bot holding NiP-6 parties from the second hour: the NiP
// baseline, navigation model and classifier are fitted on the first hour, IP
// reputation and biometrics are on, and the run covers the next two hours.
// Pins the rendered alert bytes (every session family, NiP and names) and the
// pipeline's trace bytes (modeled span times, cost and alert annotations).
TEST(PipelineAlerts, TrainedBytesArePinned) {
  scenario::EnvConfig env_config;
  env_config.seed = 5;
  scenario::Env env(env_config);
  env.add_flights("FS", 4, 150, sim::days(5));
  const auto target = env.app.add_flight("FS", 777, 90, sim::days(6));
  attack::ScraperConfig scraper_config;
  scraper_config.sessions = 8;
  scraper_config.session_gap = sim::minutes(20);
  attack::ScraperBot scraper(env.app, env.actors, env.datacenter, env.population, scraper_config,
                             env.rng.fork("scraper"));
  attack::SeatSpinConfig spin_config;
  spin_config.target = target;
  attack::SeatSpinBot spinner(env.app, env.actors, env.residential, env.population, spin_config,
                              env.rng.fork("spinner"));
  const sim::SimTime horizon = sim::hours(3);
  env.start_background(horizon);
  env.sim.schedule_at(sim::minutes(10), [&scraper] { scraper.start(); });
  env.sim.schedule_at(sim::hours(1), [&spinner] { spinner.start(); });
  env.run_until(horizon);

  detect::PipelineConfig config;
  config.biometrics_enabled = true;
  detect::DetectionPipeline pipeline(config);
  pipeline.fit_nip_baseline(env.app, 0, sim::hours(1));
  pipeline.fit_navigation(env.app, 0, sim::hours(1));
  sim::Rng train_rng = env.rng.fork("classifier");
  pipeline.train_behavior(env.app, env.actors, 0, sim::hours(1), train_rng);
  pipeline.enable_ip_reputation(env.geo);
  obs::TraceConfig trace_config;
  trace_config.sample_every = 1;
  obs::Observability obs(trace_config);
  pipeline.bind_obs(&obs);
  const auto result = pipeline.run(env.app, env.actors, sim::hours(1), horizon);

  const std::string bytes = render_alerts(result.alerts.alerts());
  EXPECT_NE(bytes.find("|behavior.classifier|"), std::string::npos);
  EXPECT_NE(bytes.find("|behavior.navigation|"), std::string::npos);
  EXPECT_TRUE(bytes.find("|nip.anomaly|") != std::string::npos ||
              bytes.find("|name.") != std::string::npos);
  EXPECT_EQ(util::crc32(bytes), 0xd937c81eu) << std::hex << "alerts crc 0x"
                                             << util::crc32(bytes);

  std::ostringstream traces;
  obs.traces.write_jsonl(traces);
  EXPECT_FALSE(traces.str().empty());
  EXPECT_EQ(util::crc32(traces.str()), 0xb341d52fu) << std::hex << "traces crc 0x"
                                                    << util::crc32(traces.str());
}

TEST(PipelineIdentityTest, PipelineViewHoldsBatchConservation) {
  AlertWorld world(11, sim::hours(2));
  scenario::Env& env = world.env;
  detect::DetectionPipeline pipeline;
  pipeline.bind_obs(&env.app.obs());
  pipeline.enable_ip_reputation(env.geo);
  (void)pipeline.run(env.app, env.actors, 0, sim::hours(2));

  const detect::PipelineView view = pipeline.view();
  ASSERT_TRUE(view.bound());
  const detect::PipelineStats stats = view.stats();
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_GT(stats.sessions_in, 0u);
  EXPECT_EQ(stats.sessions_in, stats.sessions_scored + stats.sessions_skipped);
  EXPECT_GT(view.family_runs("ip.reputation"), 0u);
  EXPECT_EQ(view.family_skips("ip.reputation"), 0u);
  // Every family the run touched exposes a (possibly zero) skip counter.
  EXPECT_FALSE(view.skips_by_family().empty());
}

// --- Percentile fix ---------------------------------------------------------

TEST(HistogramPercentile, SingleSampleBucketIsStableAcrossP) {
  obs::MetricsRegistry registry;
  auto h = registry.histogram("latency", {10.0, 20.0, 30.0});
  h.observe(14.0);  // lone sample, mid bucket (10, 20]
  // One observation: every percentile is that observation, and the first
  // non-empty bucket holds the min, so the answer is exact.
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 14.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.90), 14.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 14.0);
}

TEST(HistogramPercentile, SingleSampleTailBucketReportsMax) {
  obs::MetricsRegistry registry;
  auto h = registry.histogram("latency", {10.0, 20.0, 30.0});
  for (int i = 0; i < 99; ++i) h.observe(5.0);
  h.observe(27.0);  // one straggler in (20, 30]
  // The straggler is the distribution max; p99.5 lands in its bucket and must
  // report 27 exactly, not a p-dependent point between 20 and 27.
  EXPECT_DOUBLE_EQ(h.percentile(0.995), 27.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 27.0);
}

TEST(HistogramPercentile, MultiSampleInterpolationStillMonotone) {
  obs::MetricsRegistry registry;
  auto h = registry.histogram("latency", {10.0, 20.0, 30.0});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i % 28) + 1.0);
  double last = 0.0;
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    const double v = h.percentile(p);
    EXPECT_GE(v, last);
    last = v;
  }
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 28.0);
}

TEST(HistogramPercentile, UtilPercentileAgreesOnExactValues) {
  std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(util::percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(util::percentile(values, 0.5), 2.5);
}

}  // namespace
