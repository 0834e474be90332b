#include <gtest/gtest.h>

#include <sstream>

#include "app/application.hpp"
#include "core/detect/pipeline.hpp"
#include "core/fault/circuit_breaker.hpp"
#include "core/fault/crash.hpp"
#include "core/fault/fault.hpp"
#include "core/fault/retry.hpp"
#include "core/scenario/outage_scenario.hpp"
#include "sms/otp.hpp"

namespace fraudsim::fault {
namespace {

// Every test starts and ends with a clean global registry: points are shared
// process-wide, and a scenario left armed would leak into unrelated tests.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::global().reset(); }
  void TearDown() override { FaultRegistry::global().reset(); }
};

// --- Scenarios ---------------------------------------------------------------

TEST_F(FaultTest, UnarmedPointNeverFires) {
  FaultPoint point("test.unarmed");
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(point.should_fail(sim::minutes(i)));
  EXPECT_EQ(point.hits(), 100u);
  EXPECT_EQ(point.injected(), 0u);
  EXPECT_FALSE(point.armed());
}

TEST_F(FaultTest, AlwaysFailsEveryHit) {
  FaultPoint point("test.always");
  point.arm(FaultScenario::always());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(point.should_fail(0));
  EXPECT_EQ(point.injected(), 10u);
}

TEST_F(FaultTest, EveryNthFailsOnSchedule) {
  FaultPoint point("test.nth");
  point.arm(FaultScenario::every_nth(3));
  std::string pattern;
  for (int i = 0; i < 9; ++i) pattern += point.should_fail(0) ? 'F' : '.';
  EXPECT_EQ(pattern, "..F..F..F");
  // Re-arming restarts the phase.
  point.arm(FaultScenario::every_nth(3));
  EXPECT_FALSE(point.should_fail(0));
}

TEST_F(FaultTest, OnNthFiresExactlyOnceAtTheArmedHit) {
  FaultPoint point("test.onnth");
  point.arm(FaultScenario::crash_at_hit(3));
  EXPECT_EQ(point.scenario().fault, FaultKind::kCrash);
  std::string pattern;
  // Crash firing is visible on consult().fired (crash_due unwinds); the
  // error-only should_fail shorthand must stay false for kCrash scenarios.
  for (int i = 0; i < 10; ++i) {
    const FaultAction action = point.consult(0);
    EXPECT_FALSE(action.error);
    pattern += action.fired ? 'F' : '.';
  }
  // One-shot, not periodic: the re-record after crash recovery runs past the
  // same still-armed point without re-firing.
  EXPECT_EQ(pattern, "..F.......");
  EXPECT_EQ(point.injected(), 1u);
  // Re-arming restarts the phase.
  point.arm(FaultScenario::crash_at_hit(1));
  EXPECT_TRUE(point.consult(0).fired);
  EXPECT_FALSE(point.consult(0).fired);
}

TEST_F(FaultTest, CrashDueRequiresACrashScenario) {
  auto& registry = FaultRegistry::global();
  // Error-kind scenarios never register as crashes, even when firing.
  registry.arm("test.crash.err", FaultScenario::always());
  EXPECT_FALSE(crash_due("test.crash.err", 0));
  registry.arm("test.crash.due", FaultScenario::crash_at_hit(2));
  EXPECT_FALSE(crash_due("test.crash.due", 0));
  EXPECT_TRUE(crash_due("test.crash.due", 0));
  EXPECT_FALSE(crash_due("test.crash.due", 0));
}

TEST_F(FaultTest, SimCrashCarriesPointAndTime) {
  const SimCrash crash("test.point", sim::hours(2));
  EXPECT_EQ(crash.point(), "test.point");
  EXPECT_EQ(crash.time(), sim::hours(2));
  EXPECT_NE(std::string(crash.what()).find("test.point"), std::string::npos);
}

TEST_F(FaultTest, TornPrefixIsDeterministicAndStrictlyShort) {
  EXPECT_EQ(torn_prefix(0, 7), 0u);
  for (std::uint64_t salt = 0; salt < 64; ++salt) {
    const std::size_t cut = torn_prefix(100, salt);
    EXPECT_LT(cut, 100u) << salt;              // always tears, never completes
    EXPECT_EQ(cut, torn_prefix(100, salt));    // pure function of (size, salt)
  }
  // Different salts spread across the range (not all identical).
  EXPECT_NE(torn_prefix(1000, 1), torn_prefix(1000, 2));
}

TEST_F(FaultTest, WindowFailsOnlyInside) {
  FaultPoint point("test.window");
  point.arm(FaultScenario::window(sim::hours(2), sim::hours(4)));
  EXPECT_FALSE(point.should_fail(sim::hours(1)));
  EXPECT_TRUE(point.should_fail(sim::hours(2)));
  EXPECT_TRUE(point.should_fail(sim::hours(4) - 1));
  EXPECT_FALSE(point.should_fail(sim::hours(4)));
}

TEST_F(FaultTest, BurstRepeatsOutages) {
  FaultPoint point("test.burst");
  // Down for 10 min at the top of every hour, starting at t=1h.
  point.arm(FaultScenario::burst(sim::hours(1), sim::hours(1), sim::minutes(10)));
  EXPECT_FALSE(point.should_fail(sim::minutes(30)));     // before the first burst
  EXPECT_TRUE(point.should_fail(sim::hours(1)));
  EXPECT_TRUE(point.should_fail(sim::hours(1) + sim::minutes(9)));
  EXPECT_FALSE(point.should_fail(sim::hours(1) + sim::minutes(10)));
  EXPECT_TRUE(point.should_fail(sim::hours(5) + sim::minutes(3)));
  EXPECT_FALSE(point.should_fail(sim::hours(5) + sim::minutes(30)));
}

TEST_F(FaultTest, ProbabilisticIsSeedDeterministic) {
  const auto sequence = [](std::uint64_t seed) {
    FaultPoint point("test.prob");
    point.arm(FaultScenario::probabilistic(0.3, seed));
    std::string s;
    for (int i = 0; i < 200; ++i) s += point.should_fail(0) ? 'F' : '.';
    return s;
  };
  const auto a = sequence(11);
  EXPECT_EQ(a, sequence(11));
  EXPECT_NE(a, sequence(12));
  // Rate lands in the right band.
  const auto fails = static_cast<double>(std::count(a.begin(), a.end(), 'F'));
  EXPECT_GT(fails / 200.0, 0.15);
  EXPECT_LT(fails / 200.0, 0.45);
}

TEST_F(FaultTest, DescribeNamesTheScenario) {
  EXPECT_EQ(FaultScenario::never().describe(), "never");
  EXPECT_NE(FaultScenario::always().describe().find("always"), std::string::npos);
  EXPECT_NE(FaultScenario::every_nth(5).describe().find("5"), std::string::npos);
}

// --- Registry ----------------------------------------------------------------

TEST_F(FaultTest, RegistryPointsAreStableAcrossReset) {
  auto& registry = FaultRegistry::global();
  FaultPoint& p = registry.point("test.stable");
  p.arm(FaultScenario::always());
  EXPECT_TRUE(p.should_fail(0));
  registry.reset();
  // Same object, now disarmed with zeroed counters.
  EXPECT_EQ(&registry.point("test.stable"), &p);
  EXPECT_FALSE(p.armed());
  EXPECT_FALSE(p.should_fail(0));
  EXPECT_EQ(p.injected(), 0u);
}

TEST_F(FaultTest, RegistryArmByNameAndTotals) {
  auto& registry = FaultRegistry::global();
  EXPECT_TRUE(registry.arm("test.a", FaultScenario::always()));
  EXPECT_TRUE(registry.point("test.a").should_fail(0));
  EXPECT_GE(registry.total_injected(), 1u);
  registry.disarm_all();
  EXPECT_FALSE(registry.point("test.a").should_fail(0));
  const FaultPoint* found = registry.find("test.a");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(registry.find("test.missing"), nullptr);
}

// --- RetryPolicy -------------------------------------------------------------

TEST_F(FaultTest, RetryBackoffDoublesAndCaps) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_delay = sim::seconds(30);
  policy.multiplier = 2.0;
  policy.max_delay = sim::minutes(2);
  EXPECT_EQ(policy.backoff(1), sim::seconds(30));
  EXPECT_EQ(policy.backoff(2), sim::seconds(60));
  EXPECT_EQ(policy.backoff(3), sim::minutes(2));
  EXPECT_EQ(policy.backoff(4), sim::minutes(2));  // capped
  EXPECT_TRUE(policy.should_retry(5));
  EXPECT_FALSE(policy.should_retry(6));
}

// Regression: attempt numbers deep enough to overflow pow(multiplier, n)
// into +inf (or a negative SimDuration after the cast) must clamp to
// max_delay instead of producing a zero/negative/huge delay.
TEST_F(FaultTest, RetryBackoffSurvivesHugeAttemptNumbers) {
  RetryPolicy policy;
  policy.base_delay = sim::seconds(30);
  policy.multiplier = 2.0;
  policy.max_delay = sim::minutes(30);
  for (const int retry : {50, 60, 200, 100000}) {
    EXPECT_EQ(policy.backoff(retry), policy.max_delay) << "attempt " << retry;
  }
  sim::Rng rng(9);
  const auto d = policy.delay(60, rng);
  EXPECT_GE(d, 1);
  EXPECT_LE(d, static_cast<sim::SimDuration>(1.5 * static_cast<double>(policy.max_delay)) + 1);
  // multiplier <= 1 stays at base_delay forever, without iterating.
  RetryPolicy flat;
  flat.base_delay = sim::seconds(5);
  flat.multiplier = 1.0;
  flat.max_delay = sim::minutes(30);
  EXPECT_EQ(flat.backoff(100000), sim::seconds(5));
}

TEST_F(FaultTest, RetryDelayJitterIsBoundedAndDeterministic) {
  RetryPolicy policy;
  policy.jitter = 0.2;
  sim::Rng rng_a(77);
  sim::Rng rng_b(77);
  for (int retry = 1; retry <= 4; ++retry) {
    const auto base = policy.backoff(retry);
    const auto a = policy.delay(retry, rng_a);
    EXPECT_EQ(a, policy.delay(retry, rng_b));  // same stream, same schedule
    EXPECT_GE(a, static_cast<sim::SimDuration>(0.8 * static_cast<double>(base)));
    EXPECT_LE(a, static_cast<sim::SimDuration>(1.2 * static_cast<double>(base)) + 1);
  }
}

// Property sweep: across 1k seeded draws per retry number, every jittered
// delay stays inside [(1-j)*backoff, (1+j)*backoff] (+1 ms of rounding), is
// never below the 1 ms floor, and the backoff itself never exceeds max_delay
// no matter how deep the retry chain goes.
TEST_F(FaultTest, RetryDelayPropertyHoldsAcrossSeededDraws) {
  RetryPolicy policy;
  policy.base_delay = sim::seconds(30);
  policy.multiplier = 2.0;
  policy.max_delay = sim::minutes(30);
  policy.jitter = 0.2;
  for (int retry = 1; retry <= 8; ++retry) {
    const auto base = policy.backoff(retry);
    EXPECT_LE(base, policy.max_delay);
    EXPECT_GT(base, 0);
    const auto lo = static_cast<sim::SimDuration>(0.8 * static_cast<double>(base));
    const auto hi = static_cast<sim::SimDuration>(1.2 * static_cast<double>(base)) + 1;
    sim::Rng rng(static_cast<std::uint64_t>(1000 + retry));
    for (int draw = 0; draw < 1000; ++draw) {
      const auto d = policy.delay(retry, rng);
      ASSERT_GE(d, lo) << "retry " << retry << " draw " << draw;
      ASSERT_LE(d, hi) << "retry " << retry << " draw " << draw;
      ASSERT_GE(d, 1) << "retry " << retry << " draw " << draw;
    }
  }
  // Deep chains cap exactly: backoff is monotone non-decreasing up to the cap.
  for (int retry = 1; retry < 40; ++retry) {
    EXPECT_LE(policy.backoff(retry), policy.backoff(retry + 1));
    EXPECT_LE(policy.backoff(retry + 1), policy.max_delay);
  }
  EXPECT_EQ(policy.backoff(40), policy.max_delay);
}

// The jitter stream is a pure function of the seed: two RNGs with the same
// seed produce the identical 1k-draw schedule, and a different seed produces
// a different one (so arming jitter cannot silently collapse to lockstep).
TEST_F(FaultTest, RetryJitterStreamIsSeedDeterministic) {
  RetryPolicy policy;
  policy.jitter = 0.25;
  sim::Rng a(0xF417), b(0xF417), c(0xF418);
  std::uint64_t mismatches = 0;
  bool differs_from_other_seed = false;
  for (int draw = 0; draw < 1000; ++draw) {
    const int retry = 1 + draw % 4;
    const auto da = policy.delay(retry, a);
    if (da != policy.delay(retry, b)) ++mismatches;
    if (da != policy.delay(retry, c)) differs_from_other_seed = true;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(differs_from_other_seed);
}

// --- CircuitBreaker ----------------------------------------------------------

TEST_F(FaultTest, BreakerTripsAfterConsecutiveFailures) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.cooldown = sim::minutes(5);
  CircuitBreaker breaker(config);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(breaker.allow(0));
    breaker.record_failure(0);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
  // A success resets the consecutive count.
  EXPECT_TRUE(breaker.allow(0));
  breaker.record_success(0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.allow(sim::minutes(1)));
    breaker.record_failure(sim::minutes(1));
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(breaker.trips(), 1u);
  // Open: fail-fast until the cooldown elapses.
  EXPECT_FALSE(breaker.allow(sim::minutes(2)));
  EXPECT_EQ(breaker.rejected(), 1u);
}

TEST_F(FaultTest, BreakerHalfOpenProbesAndCloses) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown = sim::minutes(5);
  config.half_open_successes = 2;
  CircuitBreaker breaker(config);
  EXPECT_TRUE(breaker.allow(0));
  breaker.record_failure(0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  // Cooldown elapsed: one probe admitted, concurrent calls still rejected.
  EXPECT_TRUE(breaker.allow(sim::minutes(5)));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
  EXPECT_FALSE(breaker.allow(sim::minutes(5)));
  breaker.record_success(sim::minutes(5));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);  // needs 2 successes
  EXPECT_TRUE(breaker.allow(sim::minutes(6)));
  breaker.record_success(sim::minutes(6));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
}

TEST_F(FaultTest, BreakerReopensOnHalfOpenFailure) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown = sim::minutes(5);
  CircuitBreaker breaker(config);
  EXPECT_TRUE(breaker.allow(0));
  breaker.record_failure(0);
  EXPECT_TRUE(breaker.allow(sim::minutes(5)));  // probe
  breaker.record_failure(sim::minutes(5));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(breaker.trips(), 2u);
  // The cooldown restarts from the re-trip.
  EXPECT_FALSE(breaker.allow(sim::minutes(9)));
  EXPECT_TRUE(breaker.allow(sim::minutes(10)));
}

// --- Gateway resilience -------------------------------------------------------

class GatewayFaultTest : public FaultTest {
 protected:
  GatewayFaultTest() : network_(sms::TariffTable::standard(), sms::CarrierPolicy{}) {}

  [[nodiscard]] sms::SmsGateway make_gateway(sms::GatewayConfig config = {}) {
    return sms::SmsGateway(network_, config);
  }

  [[nodiscard]] sms::PhoneNumber number() { return numbers_.random_number(kFr); }

  const net::CountryCode kFr{'F', 'R'};
  sms::CarrierNetwork network_;
  sms::NumberGenerator numbers_{sim::Rng(3)};
};

TEST_F(GatewayFaultTest, TransientFailureRetriesAndDelivers) {
  auto gateway = make_gateway();
  FaultRegistry::global().arm("sms.carrier.send",
                              FaultScenario::window(0, sim::minutes(5)));
  const auto& r = gateway.send(0, number(), sms::SmsType::Otp, web::ActorId{1});
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.failure, sms::SmsFailure::CarrierTransient);
  EXPECT_EQ(gateway.pending_retries(), 1u);
  EXPECT_EQ(gateway.first_attempt_failures(), 1u);
  // Nothing due yet inside the backoff.
  gateway.process_retries(sim::seconds(10));
  EXPECT_EQ(gateway.delivered_count(), 0u);
  // After the outage window every queued retry succeeds.
  gateway.process_retries(sim::minutes(10));
  EXPECT_EQ(gateway.delivered_count(), 1u);
  EXPECT_EQ(gateway.pending_retries(), 0u);
  EXPECT_EQ(gateway.retries_delivered(), 1u);
  const auto& record = gateway.log().front();
  EXPECT_TRUE(record.delivered);
  EXPECT_EQ(record.failure, sms::SmsFailure::None);
  EXPECT_GT(record.attempts, 1);
  EXPECT_GT(record.delivered_at, record.time);
}

TEST_F(GatewayFaultTest, RetryBudgetExhaustsUnderLongOutage) {
  sms::GatewayConfig config;
  config.retry.max_attempts = 3;
  config.retry.max_delay = sim::minutes(1);
  auto gateway = make_gateway(config);
  FaultRegistry::global().arm("sms.carrier.send", FaultScenario::always());
  (void)gateway.send(0, number(), sms::SmsType::Otp, web::ActorId{1});
  // Each drain fires the retries due by then; a failed retry re-queues with
  // fresh backoff, so drain twice to walk the whole budget.
  gateway.process_retries(sim::days(1));
  gateway.process_retries(sim::days(2));
  EXPECT_EQ(gateway.delivered_count(), 0u);
  EXPECT_EQ(gateway.pending_retries(), 0u);
  EXPECT_EQ(gateway.retries_exhausted(), 1u);
  EXPECT_EQ(gateway.log().front().failure, sms::SmsFailure::RetriesExhausted);
  EXPECT_EQ(gateway.log().front().attempts, 3);
  EXPECT_EQ(gateway.carrier_attempts(), 3u);
}

TEST_F(GatewayFaultTest, RetriesDisabledFailsImmediately) {
  sms::GatewayConfig config;
  config.retry_enabled = false;
  auto gateway = make_gateway(config);
  FaultRegistry::global().arm("sms.carrier.send", FaultScenario::always());
  const auto& r = gateway.send(0, number(), sms::SmsType::Otp, web::ActorId{1});
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.failure, sms::SmsFailure::RetriesExhausted);
  EXPECT_EQ(gateway.pending_retries(), 0u);
}

TEST_F(GatewayFaultTest, BreakerFailFastsWithoutConsumingQuota) {
  sms::GatewayConfig config;
  config.daily_quota = 100;
  config.breaker_enabled = true;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown = sim::hours(1);
  auto gateway = make_gateway(config);
  FaultRegistry::global().arm("sms.carrier.send", FaultScenario::always());
  for (int i = 0; i < 10; ++i) {
    (void)gateway.send(sim::minutes(i), number(), sms::SmsType::Otp, web::ActorId{1});
  }
  // Two real attempts trip the breaker; the rest fail fast.
  EXPECT_EQ(gateway.breaker().state(), CircuitBreaker::State::Open);
  EXPECT_EQ(gateway.breaker().trips(), 1u);
  EXPECT_GE(gateway.breaker().rejected(), 1u);
  std::uint64_t circuit_open = 0;
  for (const auto& r : gateway.log()) {
    if (r.failure == sms::SmsFailure::CircuitOpen) ++circuit_open;
  }
  EXPECT_GE(circuit_open, 8u);
  // Fail-fasted sends never reached the carrier, so quota stays available.
  EXPECT_EQ(gateway.carrier_attempts(), 2u);
  FaultRegistry::global().disarm_all();
  const auto& ok = gateway.send(sim::hours(2), number(), sms::SmsType::Otp, web::ActorId{1});
  EXPECT_TRUE(ok.delivered);  // probe admitted after cooldown, carrier healthy
}

TEST_F(GatewayFaultTest, ZeroCostWhenOff) {
  // With no scenario armed the resilience machinery must be invisible.
  auto gateway = make_gateway();
  for (int i = 0; i < 20; ++i) {
    const auto& r = gateway.send(sim::minutes(i), number(), sms::SmsType::Otp, web::ActorId{1});
    EXPECT_TRUE(r.delivered);
    EXPECT_EQ(r.attempts, 1);
  }
  EXPECT_EQ(gateway.carrier_failures(), 0u);
  EXPECT_EQ(gateway.retries_enqueued(), 0u);
  EXPECT_EQ(gateway.pending_retries(), 0u);
  EXPECT_EQ(gateway.breaker().trips(), 0u);
}

// --- OTP + fingerprint store faults ------------------------------------------

TEST_F(FaultTest, OtpDeliveryFaultLosesTheSms) {
  sms::CarrierNetwork network(sms::TariffTable::standard(), sms::CarrierPolicy{});
  sms::SmsGateway gateway(network, sms::GatewayConfig{});
  sms::OtpService otp(gateway, sim::Rng(5));
  sms::NumberGenerator numbers{sim::Rng(6)};
  FaultRegistry::global().arm("otp.deliver", FaultScenario::always());
  const auto code = otp.request(0, "alice", numbers.random_number(net::CountryCode{'F', 'R'}),
                                web::ActorId{1});
  EXPECT_EQ(gateway.sent_count(), 0u);  // the SMS never left
  EXPECT_EQ(otp.delivery_faults(), 1u);
  // The code was generated server-side, so a verify with it still matches —
  // but the user never received it, which is the harm the counter records.
  EXPECT_TRUE(otp.verify(sim::minutes(1), "alice", code));
}

TEST_F(FaultTest, FingerprintStoreDropsUnderFault) {
  app::FingerprintStore store;
  fp::Fingerprint fingerprint;
  fp::derive_rendering_hashes(fingerprint);
  const fp::FpHash hash = fingerprint.hash();
  store.observe(fingerprint, hash, 0);
  EXPECT_EQ(store.total_observations(), 1u);
  FaultRegistry::global().arm("fp.store.record", FaultScenario::always());
  store.observe(fingerprint, hash, sim::minutes(1));
  EXPECT_EQ(store.total_observations(), 1u);
  EXPECT_EQ(store.dropped(), 1u);
  FaultRegistry::global().disarm_all();
  store.observe(fingerprint, hash, sim::minutes(2));
  EXPECT_EQ(store.total_observations(), 2u);
}

// --- Application fail-open / fail-closed --------------------------------------

class BlockAllPolicy final : public app::IngressPolicy {
 public:
  app::PolicyDecision evaluate(const web::HttpRequest&, const app::ClientContext&) override {
    return app::PolicyDecision{app::PolicyAction::Block, "block-all"};
  }
};

class AllowAllPolicy final : public app::IngressPolicy {
 public:
  app::PolicyDecision evaluate(const web::HttpRequest&, const app::ClientContext&) override {
    return app::PolicyDecision{};
  }
};

class ApplicationFaultTest : public FaultTest {
 protected:
  [[nodiscard]] static app::ClientContext make_ctx() {
    app::ClientContext ctx;
    ctx.ip = *net::IpV4::parse("16.0.0.1");
    ctx.session = web::SessionId{1};
    fp::derive_rendering_hashes(ctx.fingerprint);
    ctx.actor = web::ActorId{1};
    return ctx;
  }
};

TEST_F(ApplicationFaultTest, PolicyFaultFailOpenAdmitsEverything) {
  sim::Simulation sim;
  sms::CarrierNetwork carriers(sms::TariffTable::standard(), sms::CarrierPolicy{});
  app::ApplicationConfig config;
  config.policy_fault_mode = app::PolicyFaultMode::FailOpen;
  app::Application app(sim, carriers, config, sim::Rng(7));
  BlockAllPolicy block_all;
  app.set_policy(&block_all);
  auto ctx = make_ctx();
  EXPECT_EQ(app.browse(ctx, web::Endpoint::Home), app::CallStatus::Blocked);
  FaultRegistry::global().arm("app.policy.evaluate", FaultScenario::always());
  // The policy engine is down: fail-open admits even what it would block.
  EXPECT_EQ(app.browse(ctx, web::Endpoint::Home), app::CallStatus::Ok);
  EXPECT_GE(app.stats().policy_faults, 1u);
}

TEST_F(ApplicationFaultTest, PolicyFaultFailClosedBlocksEverything) {
  sim::Simulation sim;
  sms::CarrierNetwork carriers(sms::TariffTable::standard(), sms::CarrierPolicy{});
  app::ApplicationConfig config;
  config.policy_fault_mode = app::PolicyFaultMode::FailClosed;
  app::Application app(sim, carriers, config, sim::Rng(7));
  AllowAllPolicy allow_all;
  app.set_policy(&allow_all);
  auto ctx = make_ctx();
  EXPECT_EQ(app.browse(ctx, web::Endpoint::Home), app::CallStatus::Ok);
  FaultRegistry::global().arm("app.policy.evaluate", FaultScenario::always());
  EXPECT_EQ(app.browse(ctx, web::Endpoint::Home), app::CallStatus::Blocked);
  EXPECT_GE(app.stats().policy_faults, 1u);
}

// --- Pipeline degraded mode ---------------------------------------------------

TEST_F(FaultTest, PipelineSkipsFaultedDetectorAndCompletes) {
  sim::Simulation sim;
  sms::CarrierNetwork carriers(sms::TariffTable::standard(), sms::CarrierPolicy{});
  app::Application app(sim, carriers, app::ApplicationConfig{}, sim::Rng(7));
  app::ActorRegistry actors;
  detect::DetectionPipeline pipeline;

  const auto intact = pipeline.run(app, actors, 0, sim::hours(1));
  EXPECT_FALSE(intact.degraded);
  EXPECT_TRUE(intact.skipped.empty());

  FaultRegistry::global().arm("detect.volume.run", FaultScenario::always());
  const auto degraded = pipeline.run(app, actors, 0, sim::hours(1));
  EXPECT_TRUE(degraded.degraded);
  ASSERT_EQ(degraded.skipped.size(), 1u);
  EXPECT_TRUE(degraded.skipped_family("behavior.volume"));
  EXPECT_EQ(degraded.skipped.front().reason, "fault-injected outage");
}

// --- Determinism regression (same seed + faults => byte-identical) ------------

std::string carrier_outage_digest(const scenario::CarrierOutageScenarioResult& r) {
  std::ostringstream out;
  out << r.carrier_attempts << '|' << r.carrier_failures << '|' << r.first_attempt_failures
      << '|' << r.retries_enqueued << '|' << r.retries_delivered << '|' << r.retries_exhausted
      << '|' << r.breaker_rejected << '|' << r.breaker_trips << '|' << r.sms_requested << '|'
      << r.sms_delivered << '|' << r.legit_undelivered << '|' << r.attacker_undelivered << '|'
      << r.attacker_retry_share << '|' << r.pump.pump_requests << '|' << r.pump.sms_delivered
      << '|' << r.legit.sessions << '|' << r.legit.otp_logins << '|' << r.app_sms_cost.str();
  return out.str();
}

TEST_F(FaultTest, SameSeedWithFaultsIsByteIdentical) {
  scenario::CarrierOutageScenarioConfig config;
  config.seed = 424242;
  config.horizon = sim::hours(12);
  config.attack_start = sim::hours(2);
  config.outage_start = sim::hours(5);
  config.outage_end = sim::hours(8);
  config.legit.booking_sessions_per_hour = 6;
  config.legit.browse_sessions_per_hour = 4;
  config.legit.otp_logins_per_hour = 6;
  config.pump.mean_request_gap = sim::minutes(2);
  config.breaker_enabled = true;
  config.breaker.failure_threshold = 3;
  config.breaker.cooldown = sim::minutes(10);

  const auto first = carrier_outage_digest(scenario::run_carrier_outage_scenario(config));
  const auto second = carrier_outage_digest(scenario::run_carrier_outage_scenario(config));
  EXPECT_EQ(first, second);
  // And the faults actually fired — this is not a vacuous comparison.
  EXPECT_NE(first.find('|'), std::string::npos);
  scenario::CarrierOutageScenarioConfig healthy = config;
  healthy.outage_enabled = false;
  const auto baseline = carrier_outage_digest(scenario::run_carrier_outage_scenario(healthy));
  EXPECT_NE(first, baseline);
}

}  // namespace
}  // namespace fraudsim::fault
