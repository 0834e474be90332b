// Checkpoint byte-stability regressions.
//
// Checkpoint writers that iterate unordered_map-backed state used to emit
// entries in hash-table iteration order, which (a) differs across standard
// libraries and (b) differs after a restore re-inserts the entries in
// checkpoint order. The contract pinned here: identical LOGICAL state yields
// identical checkpoint BYTES — regardless of the insertion history that
// produced it — and a restore -> re-checkpoint round trip reproduces the
// frame exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "airline/boarding.hpp"
#include "airline/inventory.hpp"
#include "airline/pnr.hpp"
#include "app/actors.hpp"
#include "app/fp_store.hpp"
#include "attack/seat_spin.hpp"
#include "core/detect/fingerprint_detect.hpp"
#include "core/mitigate/controller.hpp"
#include "core/mitigate/rate_limit.hpp"
#include "core/scenario/env.hpp"
#include "fingerprint/population.hpp"
#include "sms/carrier.hpp"
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

}  // namespace
}  // namespace fraudsim
