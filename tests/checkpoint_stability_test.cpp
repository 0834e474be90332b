// Checkpoint byte-stability regressions.
//
// Checkpoint writers that iterate unordered_map-backed state used to emit
// entries in hash-table iteration order, which (a) differs across standard
// libraries and (b) differs after a restore re-inserts the entries in
// checkpoint order. The contract pinned here: identical LOGICAL state yields
// identical checkpoint BYTES — regardless of the insertion history that
// produced it — and a restore -> re-checkpoint round trip reproduces the
// frame exactly. Restores of hostile bytes (truncated frames, absurd counts)
// fail the reader promptly instead of throwing, spinning or allocating.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "airline/boarding.hpp"
#include "airline/inventory.hpp"
#include "airline/pnr.hpp"
#include "app/actors.hpp"
#include "app/fp_store.hpp"
#include "attack/otp_pump.hpp"
#include "attack/ring_orchestrator.hpp"
#include "attack/seat_spin.hpp"
#include "attack/sms_pump.hpp"
#include "biometrics/detector.hpp"
#include "core/detect/fingerprint_detect.hpp"
#include "core/detect/graph/entity_graph.hpp"
#include "core/detect/graph/graph_ingest.hpp"
#include "core/fault/fault.hpp"
#include "core/journal/journal.hpp"
#include "core/journal/recording.hpp"
#include "core/mitigate/controller.hpp"
#include "core/mitigate/rate_limit.hpp"
#include "core/scenario/env.hpp"
#include "core/scenario/replay_harness.hpp"
#include "fingerprint/population.hpp"
#include "sms/carrier.hpp"
#include "sms/otp.hpp"
#include "sim/sharded_simulation.hpp"
#include "util/archive.hpp"

namespace fraudsim {
namespace {

std::string checkpoint_bytes(const auto& component) {
  util::ByteWriter out;
  component.checkpoint(out);
  return out.bytes();
}

// --- SlidingWindowRateLimiter ----------------------------------------------

TEST(CheckpointStability, RateLimiterIsInsertionOrderIndependent) {
  const std::vector<std::string> keys = {"zeta", "alpha", "10.0.0.9", "10.0.0.1", "mid"};
  mitigate::SlidingWindowRateLimiter forward(10, sim::kHour);
  mitigate::SlidingWindowRateLimiter backward(10, sim::kHour);
  // Same per-key event times, opposite key interleaving: identical logical
  // state through different container histories.
  for (sim::SimTime t = 0; t < 5; ++t) {
    for (const auto& key : keys) ASSERT_TRUE(forward.allow(t, key));
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) ASSERT_TRUE(backward.allow(t, *it));
  }
  EXPECT_EQ(checkpoint_bytes(forward), checkpoint_bytes(backward));
}

TEST(CheckpointStability, RateLimiterRestoreRecheckpointRoundTrips) {
  mitigate::SlidingWindowRateLimiter limiter(5, sim::kHour);
  sim::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    (void)limiter.allow(sim::minutes(i), "key-" + std::to_string(rng.uniform_int(0, 30)));
  }
  const std::string bytes = checkpoint_bytes(limiter);

  mitigate::SlidingWindowRateLimiter restored(5, sim::kHour);
  util::ByteReader in(bytes);
  restored.restore(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(checkpoint_bytes(restored), bytes);
}

// --- FingerprintStore ------------------------------------------------------

TEST(CheckpointStability, FingerprintStoreIsInsertionOrderIndependent) {
  fp::PopulationModel population;
  sim::Rng rng(11);
  std::vector<fp::Fingerprint> prints;
  for (int i = 0; i < 40; ++i) prints.push_back(population.sample(rng));

  app::FingerprintStore forward;
  app::FingerprintStore backward;
  for (const auto& print : prints) forward.observe(print, 0);
  for (auto it = prints.rbegin(); it != prints.rend(); ++it) backward.observe(*it, 0);
  EXPECT_EQ(checkpoint_bytes(forward), checkpoint_bytes(backward));
}

TEST(CheckpointStability, FingerprintStoreRestoreRecheckpointRoundTrips) {
  fp::PopulationModel population;
  sim::Rng rng(13);
  app::FingerprintStore store;
  for (int i = 0; i < 64; ++i) store.observe(population.sample(rng), sim::minutes(i));
  const std::string bytes = checkpoint_bytes(store);

  app::FingerprintStore restored;
  util::ByteReader in(bytes);
  restored.restore(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(checkpoint_bytes(restored), bytes);
}

// --- PnrGenerator ----------------------------------------------------------

// A PnrGenerator frame: RNG stream, then the issued locators in `pnrs` order.
std::string pnr_frame(const sim::Rng& rng, const std::vector<std::string>& pnrs) {
  util::ByteWriter out;
  rng.checkpoint(out);
  out.u64(pnrs.size());
  for (const auto& pnr : pnrs) out.str(pnr);
  return out.bytes();
}

TEST(CheckpointStability, PnrGeneratorIsInsertionOrderIndependent) {
  // next() is the only insert path, so two insertion histories of one issued
  // set are built by restoring the same locators in opposite orders.
  airline::PnrGenerator source{sim::Rng(17)};
  std::vector<std::string> pnrs;
  for (int i = 0; i < 300; ++i) pnrs.push_back(source.next());
  const sim::Rng rng(18);
  airline::PnrGenerator forward{sim::Rng(1)};
  airline::PnrGenerator backward{sim::Rng(1)};
  const std::string forward_frame = pnr_frame(rng, pnrs);
  const std::string backward_frame = pnr_frame(rng, {pnrs.rbegin(), pnrs.rend()});
  util::ByteReader forward_in(forward_frame);
  forward.restore(forward_in);
  util::ByteReader backward_in(backward_frame);
  backward.restore(backward_in);
  ASSERT_TRUE(forward_in.ok());
  ASSERT_TRUE(backward_in.ok());
  EXPECT_EQ(checkpoint_bytes(forward), checkpoint_bytes(backward));
}

TEST(CheckpointStability, PnrGeneratorRestoreRecheckpointRoundTrips) {
  airline::PnrGenerator generator{sim::Rng(19)};
  for (int i = 0; i < 300; ++i) (void)generator.next();
  const std::string bytes = checkpoint_bytes(generator);

  airline::PnrGenerator restored{sim::Rng(1)};
  util::ByteReader in(bytes);
  restored.restore(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(checkpoint_bytes(restored), bytes);
  // The restored generator continues the original locator sequence.
  EXPECT_EQ(restored.next(), generator.next());
}

// --- BoardingPassService ---------------------------------------------------

// An inventory with `bookings` ticketed one-passenger PNRs and a boarding
// service over it. The inventory seed is fixed, so every rig issues the same
// locators in the same order.
struct BoardingRig {
  explicit BoardingRig(int bookings) {
    const auto flight = inventory.add_flight("B", 1, bookings + 1, sim::days(7));
    for (int i = 0; i < bookings; ++i) {
      const std::vector<airline::Passenger> party = {
          airline::Passenger{"P" + std::to_string(i), "Test", {1990, 1, 1}, "p@x.example"}};
      const auto outcome = inventory.hold(0, flight, party, web::ActorId{1});
      EXPECT_TRUE(outcome.ok);
      EXPECT_TRUE(inventory.ticket(1, outcome.pnr).is_ok());
      pnrs.push_back(outcome.pnr);
    }
  }

  // Sends (i % 3) + 1 boarding-pass SMS for the i-th booking.
  void send_all(bool reversed) {
    for (std::size_t n = 0; n < pnrs.size(); ++n) {
      const std::size_t i = reversed ? pnrs.size() - 1 - n : n;
      for (std::size_t k = 0; k <= i % 3; ++k) {
        (void)boarding.request_sms(2, pnrs[i],
                                   sms::PhoneNumber{net::CountryCode{'F', 'R'}, "123456789"},
                                   web::ActorId{1});
      }
    }
  }

  sms::CarrierNetwork network{sms::TariffTable::standard(), sms::CarrierPolicy{}};
  sms::SmsGateway gateway{network, sms::GatewayConfig{}};
  airline::InventoryManager inventory{airline::InventoryConfig{sim::minutes(30), 9}, sim::Rng(4)};
  airline::BoardingPassService boarding{inventory, gateway, airline::BoardingConfig{}};
  std::vector<std::string> pnrs;
};

TEST(CheckpointStability, BoardingPassServiceIsInsertionOrderIndependent) {
  BoardingRig forward(120);
  BoardingRig backward(120);
  ASSERT_EQ(forward.pnrs, backward.pnrs);
  forward.send_all(false);
  backward.send_all(true);
  ASSERT_EQ(forward.boarding.sms_sent(), backward.boarding.sms_sent());
  EXPECT_EQ(checkpoint_bytes(forward.boarding), checkpoint_bytes(backward.boarding));
}

TEST(CheckpointStability, BoardingPassServiceRestoreRecheckpointRoundTrips) {
  BoardingRig rig(120);
  rig.send_all(false);
  const std::string bytes = checkpoint_bytes(rig.boarding);

  BoardingRig fresh(0);
  util::ByteReader in(bytes);
  fresh.boarding.restore(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(checkpoint_bytes(fresh.boarding), bytes);
  EXPECT_EQ(fresh.boarding.sms_count_for(rig.pnrs[2]), 3u);
}

// --- FingerprintBlocklist --------------------------------------------------

TEST(CheckpointStability, FingerprintBlocklistIsInsertionOrderIndependent) {
  std::vector<fp::FpHash> hashes;
  for (std::uint64_t i = 0; i < 200; ++i) hashes.push_back(fp::FpHash{i * 0x9E3779B97F4A7C15ull});
  detect::FingerprintBlocklist forward;
  detect::FingerprintBlocklist backward;
  for (const auto hash : hashes) forward.block(hash, 5, "rotation");
  for (auto it = hashes.rbegin(); it != hashes.rend(); ++it) backward.block(*it, 5, "rotation");
  forward.note_hit(hashes[3], 9);
  backward.note_hit(hashes[3], 9);
  EXPECT_EQ(checkpoint_bytes(forward), checkpoint_bytes(backward));
}

TEST(CheckpointStability, FingerprintBlocklistRestoreRecheckpointRoundTrips) {
  detect::FingerprintBlocklist blocklist;
  sim::Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    const fp::FpHash hash{static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000'000))};
    blocklist.block(hash, sim::minutes(i), "sweep-" + std::to_string(i % 4));
    if (i % 5 == 0) blocklist.note_hit(hash, sim::minutes(i + 1));
  }
  const std::string bytes = checkpoint_bytes(blocklist);

  detect::FingerprintBlocklist restored;
  util::ByteReader in(bytes);
  restored.restore(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(checkpoint_bytes(restored), bytes);
}

// --- ActorRegistry ---------------------------------------------------------

TEST(CheckpointStability, ActorRegistryRestoreRecheckpointRoundTrips) {
  app::ActorRegistry registry;
  // Enough ids to force several hash-table rehashes, so the restore's
  // insertion history differs structurally from the original one.
  for (int i = 0; i < 300; ++i) {
    (void)registry.register_actor(i % 3 == 0 ? app::ActorKind::SeatSpinBot
                                             : app::ActorKind::Human);
  }
  const std::string bytes = checkpoint_bytes(registry);

  app::ActorRegistry restored;
  util::ByteReader in(bytes);
  restored.restore(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(checkpoint_bytes(restored), bytes);
}

// --- MitigationController --------------------------------------------------

// Populate the controller's unordered maps (flagged_pnrs_ via real sweeps
// over an attacked platform), then round-trip its checkpoint through a fresh
// controller on a fresh, never-run platform: the re-checkpointed frame must
// be byte-identical even though the restored maps were re-inserted in
// checkpoint order.
TEST(CheckpointStability, MitigationControllerRestoreRecheckpointRoundTrips) {
  scenario::EnvConfig config;
  config.seed = 83;
  config.legit.booking_sessions_per_hour = 6;
  config.legit.browse_sessions_per_hour = 2;
  config.legit.otp_logins_per_hour = 1;
  scenario::Env env(config);
  env.add_flights("A", 12, 150, sim::days(30));
  const auto target = env.app.add_flight("A", 779, 100, sim::days(12));

  attack::SeatSpinConfig bot_config;
  bot_config.target = target;
  attack::SeatSpinBot bot(env.app, env.actors, env.residential, env.population, bot_config,
                          env.rng.fork("bot"));

  mitigate::ControllerConfig controller_config;
  controller_config.min_flagged_pnrs = 2;
  mitigate::MitigationController controller(env.app, env.engine, controller_config);

  const sim::SimTime end = sim::days(2);
  env.start_background(end);
  env.sim.schedule_at(sim::hours(12), [&] {
    controller.fit_nip_baseline(0, sim::hours(12));
    controller.start(end);
    bot.start();
  });
  env.run_until(end);
  ASSERT_GT(controller.fingerprints_blocked(), 0u) << "sweeps must populate the flagged maps";

  const std::string bytes = checkpoint_bytes(controller);

  scenario::EnvConfig fresh_config;
  fresh_config.seed = 84;
  scenario::Env fresh(fresh_config);
  mitigate::MitigationController restored(fresh.app, fresh.engine, controller_config);
  util::ByteReader in(bytes);
  restored.restore(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(checkpoint_bytes(restored), bytes);
}

// --- OtpService ------------------------------------------------------------

// An OtpService frame: code stream, validity, then the pending codes in
// `accounts` order (code and expiry derived from the account index).
std::string otp_frame(const sim::Rng& rng, const std::vector<int>& accounts) {
  util::ByteWriter out;
  rng.checkpoint(out);
  out.i64(sim::minutes(10));
  out.u64(accounts.size());
  for (const int i : accounts) {
    out.str("acct-" + std::to_string(i));
    out.str(std::to_string(100000 + i));
    out.i64(sim::minutes(i));
  }
  return out.bytes();
}

struct OtpRig {
  sms::CarrierNetwork network{sms::TariffTable::standard(), sms::CarrierPolicy{}};
  sms::SmsGateway gateway{network, sms::GatewayConfig{}};
  sms::OtpService otp{gateway, sim::Rng(29)};
};

TEST(CheckpointStability, OtpServiceIsInsertionOrderIndependent) {
  // request() draws each code from the stream, so two insertion histories of
  // one pending set are built by restoring the same codes in opposite orders.
  std::vector<int> accounts;
  for (int i = 0; i < 200; ++i) accounts.push_back(i);
  const sim::Rng rng(31);
  OtpRig forward;
  OtpRig backward;
  const std::string forward_frame = otp_frame(rng, accounts);
  const std::string backward_frame = otp_frame(rng, {accounts.rbegin(), accounts.rend()});
  util::ByteReader forward_in(forward_frame);
  forward.otp.restore(forward_in);
  util::ByteReader backward_in(backward_frame);
  backward.otp.restore(backward_in);
  ASSERT_TRUE(forward_in.ok());
  ASSERT_TRUE(backward_in.ok());
  EXPECT_EQ(checkpoint_bytes(forward.otp), checkpoint_bytes(backward.otp));
}

TEST(CheckpointStability, OtpServiceRestoreRecheckpointRoundTrips) {
  OtpRig rig;
  for (int i = 0; i < 200; ++i) {
    (void)rig.otp.request(sim::minutes(i), "acct-" + std::to_string(i),
                          sms::PhoneNumber{net::CountryCode{'F', 'R'}, "123456789"},
                          web::ActorId{1});
  }
  const std::string bytes = checkpoint_bytes(rig.otp);

  OtpRig fresh;
  util::ByteReader in(bytes);
  fresh.otp.restore(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(checkpoint_bytes(fresh.otp), bytes);
}

// --- BiometricDetector -----------------------------------------------------

// Human-envelope features (never flagged as scripted) with the given digest.
biometrics::TrajectoryFeatures human_features(std::uint64_t digest) {
  biometrics::TrajectoryFeatures f;
  f.path_efficiency = 0.8;
  f.speed_cv = 0.5;
  f.duration_ms = 600;
  f.digest = digest;
  return f;
}

TEST(CheckpointStability, BiometricDetectorIsInsertionOrderIndependent) {
  std::vector<std::uint64_t> digests;
  for (std::uint64_t i = 0; i < 200; ++i) digests.push_back(i * 0x9E3779B97F4A7C15ull);
  biometrics::BiometricDetector forward;
  biometrics::BiometricDetector backward;
  for (const auto digest : digests) (void)forward.observe(human_features(digest), nullptr);
  for (auto it = digests.rbegin(); it != digests.rend(); ++it) {
    (void)backward.observe(human_features(*it), nullptr);
  }
  EXPECT_EQ(checkpoint_bytes(forward), checkpoint_bytes(backward));
}

TEST(CheckpointStability, BiometricDetectorRestoreRecheckpointRoundTrips) {
  biometrics::BiometricDetector detector;
  sim::Rng rng(37);
  for (int i = 0; i < 200; ++i) {
    const auto digest = static_cast<std::uint64_t>(rng.uniform_int(0, 150)) * 0x100000001B3ull;
    (void)detector.observe(human_features(digest), nullptr);
  }
  ASSERT_GT(detector.replays_detected(), 0u);
  const std::string bytes = checkpoint_bytes(detector);

  biometrics::BiometricDetector restored;
  util::ByteReader in(bytes);
  restored.restore(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(checkpoint_bytes(restored), bytes);
}

// --- Whole platform --------------------------------------------------------

// The soc_day platform: scenario::Env, the mitigation controller and the
// entity graph on the admit-path tap. Built the same way for the live run and
// for the restore target.
struct SocPlatform {
  explicit SocPlatform(std::uint64_t seed) : env(env_config(seed)), ingest(graph) {
    env.add_flights("CS", 12, 180, sim::days(14));
    target = env.app.add_flight("CS", 777, 180, sim::days(3));
    env.app.set_tap(&ingest);
  }

  static scenario::EnvConfig env_config(std::uint64_t seed) {
    scenario::EnvConfig config;
    config.seed = seed;
    return config;
  }
  static mitigate::ControllerConfig controller_config() {
    mitigate::ControllerConfig config;
    config.impose_nip_cap = true;
    config.disable_sms_on_path_trip = true;
    return config;
  }

  // actors, app, rules, controller, fault registry, graph.
  std::vector<std::string> parts(const fault::FaultRegistry& faults) const {
    return {checkpoint_bytes(env.actors), checkpoint_bytes(env.app),
            checkpoint_bytes(env.engine), checkpoint_bytes(controller),
            checkpoint_bytes(faults),     checkpoint_bytes(graph)};
  }

  scenario::Env env;
  mitigate::MitigationController controller{env.app, env.engine, controller_config()};
  detect::graph::EntityGraph graph;
  detect::graph::GraphIngest ingest;
  airline::FlightId target;
};

// Runs a soc_day-shaped morning on `platform`: legitimate demand, a seat
// spinner, an SMS pump, an OTP pump (its codes are never verified, so the
// OTP service holds many pending codes) and the 16-member ring, controller
// fitted at 2 h and sweeping hourly after.
void run_soc_morning(SocPlatform& platform, sim::SimTime end) {
  scenario::Env& env = platform.env;
  attack::SeatSpinConfig spin;
  spin.target = platform.target;
  attack::SeatSpinBot spinner(env.app, env.actors, env.residential, env.population, spin,
                              env.rng.fork("seat-spin-bot"));
  attack::SmsPumpConfig pump_config;
  pump_config.stop_at = end;
  attack::SmsPumpBot pump(env.app, env.actors, env.residential, env.population, env.tariffs,
                          pump_config, env.rng.fork("sms-pump"));
  attack::OtpPumpConfig otp_config;
  otp_config.stop_at = end;
  attack::OtpPumpBot otp_pump(env.app, env.actors, env.residential, env.population, env.tariffs,
                              otp_config, env.rng.fork("otp-pump"));
  attack::RingOrchestrator ring(env.app, env.actors, env.residential, env.population,
                                attack::RingConfig{}, env.rng.fork("ring"));
  env.start_background(end);
  env.sim.schedule_at(sim::hours(1), [&] { spinner.start(); });
  env.sim.schedule_at(sim::hours(1), [&] { pump.start(); });
  env.sim.schedule_at(sim::hours(1), [&] { otp_pump.start(); });
  ring.start(end);
  env.sim.schedule_at(sim::hours(2), [&] {
    platform.controller.fit_nip_baseline(0, sim::hours(2));
    platform.controller.start(end);
  });
  env.run_until(end);
}

// Stricter than "same bytes up to hash order": every part of a restored
// platform re-checkpoints to exactly the bytes it was restored from.
TEST(CheckpointStability, PlatformRestoreRecheckpointIsByteIdentical) {
  fault::FaultRegistry& faults = fault::FaultRegistry::global();
  faults.reset();
  faults.arm("checkpoint.probe", fault::FaultScenario::probabilistic(0.5, 41));
  SocPlatform live(47);
  run_soc_morning(live, sim::hours(5));
  ASSERT_GT(live.controller.fingerprints_blocked(), 0u);
  ASSERT_GT(live.graph.node_count(), 0u);
  const std::vector<std::string> parts = live.parts(faults);
  faults.reset();

  SocPlatform fresh(47);
  fault::FaultRegistry fresh_faults;
  const std::vector<std::string> names = {"actors",     "app",           "rules",
                                          "controller", "fault registry", "graph"};
  const auto restore_part = [&](std::size_t i, auto& component) {
    util::ByteReader in(parts[i]);
    component.restore(in);
    EXPECT_TRUE(in.exhausted()) << names[i];
  };
  restore_part(0, fresh.env.actors);
  restore_part(1, fresh.env.app);
  restore_part(2, fresh.env.engine);
  restore_part(3, fresh.controller);
  restore_part(4, fresh_faults);
  restore_part(5, fresh.graph);

  const std::vector<std::string> again = fresh.parts(fresh_faults);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(again[i].size(), parts[i].size()) << names[i];
    EXPECT_TRUE(again[i] == parts[i]) << names[i] << " re-checkpoints to different bytes";
  }
}

// --- Hostile bytes ---------------------------------------------------------

constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 62;

// Every strict prefix of `frame`, and `frame` with the u64 count at
// `count_offset` replaced by 2^62, must restore into `target` without
// throwing and leave the reader failed.
void expect_hostile_frames_fail(auto& target, const std::string& frame, std::size_t count_offset,
                                const char* what) {
  ASSERT_GE(frame.size(), count_offset + 8) << what;
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    util::ByteReader in(std::string_view(frame).substr(0, cut));
    EXPECT_NO_THROW(target.restore(in)) << what << " cut at " << cut;
    EXPECT_FALSE(in.ok()) << what << " cut at " << cut;
  }
  util::ByteWriter count;
  count.u64(kHugeCount);
  std::string huge = frame;
  huge.replace(count_offset, 8, count.bytes());
  util::ByteReader in(huge);
  EXPECT_NO_THROW(target.restore(in)) << what;
  EXPECT_FALSE(in.ok()) << what;
}

// Every top-level component after a short, lightly loaded run, plus a restore
// target for each built the same way.
struct HostileRig {
  static scenario::EnvConfig env_config() {
    scenario::EnvConfig config;
    config.seed = 59;
    config.legit.booking_sessions_per_hour = 2;
    config.legit.browse_sessions_per_hour = 1;
    config.legit.otp_logins_per_hour = 1;
    return config;
  }
  static sim::ShardedSimulation::Config engine_config() {
    sim::ShardedSimulation::Config config;
    config.shards = 3;
    return config;
  }

  HostileRig() {
    env.add_flights("H", 2, 20, sim::days(3));
    target_env.add_flights("H", 2, 20, sim::days(3));
    env.app.set_tap(&ingest);
    env.start_background(sim::hours(2));
    env.sim.schedule_at(sim::hours(1), [this] {
      controller.fit_nip_baseline(0, sim::hours(1));
      controller.start(sim::hours(2));
    });
    env.run_until(sim::hours(2));
    EXPECT_GT(graph.node_count(), 0u);
    faults.arm("hostile.a", fault::FaultScenario::probabilistic(0.25, 3));
    faults.arm("hostile.b", fault::FaultScenario::every_nth(4));
    engine.run_until(sim::minutes(5));
  }

  scenario::Env env{env_config()};
  mitigate::MitigationController controller{env.app, env.engine, {}};
  detect::graph::EntityGraph graph;
  detect::graph::GraphIngest ingest{graph};
  fault::FaultRegistry faults;
  sim::ShardedSimulation engine{engine_config()};

  scenario::Env target_env{env_config()};
  mitigate::MitigationController target_controller{target_env.app, target_env.engine, {}};
  detect::graph::EntityGraph target_graph;
  fault::FaultRegistry target_faults;
  sim::ShardedSimulation target_engine{engine_config()};
};

// Offsets are each frame's first count (actors and the web log lead with a
// u64 id counter; the sharded engine's shard count is a u32).
TEST(CheckpointStability, ActorsRestoreFailsCleanlyOnHostileFrames) {
  HostileRig rig;
  expect_hostile_frames_fail(rig.target_env.actors, checkpoint_bytes(rig.env.actors), 8, "actors");
}

TEST(CheckpointStability, AppRestoreFailsCleanlyOnHostileFrames) {
  HostileRig rig;
  expect_hostile_frames_fail(rig.target_env.app, checkpoint_bytes(rig.env.app), 8, "app");
}

TEST(CheckpointStability, RulesRestoreFailsCleanlyOnHostileFrames) {
  HostileRig rig;
  expect_hostile_frames_fail(rig.target_env.engine, checkpoint_bytes(rig.env.engine), 0, "rules");
}

TEST(CheckpointStability, ControllerRestoreFailsCleanlyOnHostileFrames) {
  HostileRig rig;
  expect_hostile_frames_fail(rig.target_controller, checkpoint_bytes(rig.controller), 0,
                             "controller");
}

TEST(CheckpointStability, FaultRegistryRestoreFailsCleanlyOnHostileFrames) {
  HostileRig rig;
  expect_hostile_frames_fail(rig.target_faults, checkpoint_bytes(rig.faults), 0,
                             "fault registry");
}

TEST(CheckpointStability, GraphRestoreFailsCleanlyOnHostileFrames) {
  HostileRig rig;
  expect_hostile_frames_fail(rig.target_graph, checkpoint_bytes(rig.graph), 0, "graph");
}

TEST(CheckpointStability, ShardedSimulationRestoreFailsCleanlyOnHostileFrames) {
  HostileRig rig;
  expect_hostile_frames_fail(rig.target_engine, checkpoint_bytes(rig.engine), 0,
                             "sharded engine");
}

TEST(CheckpointStability, ReplayOfHostileCheckpointRecordIsJournalCorrupt) {
  scenario::RecordedScenarioConfig config;
  config.seed = 61;
  config.horizon = sim::hours(2);
  config.flights = 2;
  config.capacity = 20;
  config.checkpoint_every = 0;

  // A well-framed journal whose only checkpoint record carries an actors
  // frame followed by a web log that claims 2^62 requests.
  util::ByteWriter blob;
  blob.u64(1);  // actors: next id
  blob.u64(0);  // actors: no registrations
  blob.u64(1);  // web log: next id
  blob.u64(kHugeCount);
  const std::string path = testing::TempDir() + "hostile-checkpoint.journal";
  {
    journal::JournalWriter writer;
    ASSERT_TRUE(writer.open(path, config.seed, scenario::config_digest(config)).is_ok());
    journal::RecordingJournal recording(writer);
    recording.checkpoint_blob(sim::hours(1), blob.bytes());
    ASSERT_TRUE(writer.close().is_ok());
  }

  scenario::ReplayOptions from_checkpoint;
  from_checkpoint.from_last_checkpoint = true;
  util::Result<scenario::RunArtifacts> replayed =
      util::Result<scenario::RunArtifacts>::fail(util::ErrorCode::kUnknown, "not run");
  ASSERT_NO_THROW(replayed = scenario::replay_run(config, path, from_checkpoint));
  ASSERT_FALSE(replayed.has_value());
  EXPECT_EQ(replayed.code(), util::ErrorCode::kJournalCorrupt) << replayed.error();
  fault::FaultRegistry::global().reset();
}

}  // namespace
}  // namespace fraudsim
