// The live case study shared by soc_day and detect_window: scenario::Env at a
// multiple of the default legitimate demand, a schedule sized to that demand,
// and the attack mix — a seat-spinning bot on one target flight from 1 h, an
// SMS-pumping bot from 2 h and a 16-member organised ring from 1 h.
#pragma once

#include "attack/ring_orchestrator.hpp"
#include "attack/seat_spin.hpp"
#include "attack/sms_pump.hpp"
#include "core/scenario/env.hpp"

namespace perfbench {

inline fraudsim::scenario::EnvConfig case_study_config(std::uint64_t seed, double demand) {
  fraudsim::scenario::EnvConfig config;
  config.seed = seed;
  config.legit.booking_sessions_per_hour *= demand;
  config.legit.browse_sessions_per_hour *= demand;
  config.legit.otp_logins_per_hour *= demand;
  return config;
}

// Adds the schedule for `horizon` and returns the seat-spinning target.
inline fraudsim::airline::FlightId add_case_study_flights(
    fraudsim::scenario::Env& env, const fraudsim::scenario::EnvConfig& config,
    fraudsim::sim::SimTime horizon) {
  constexpr int kCapacity = 180;
  const int fleet = fraudsim::scenario::Env::fleet_size_for(
      config.legit.booking_sessions_per_hour, horizon, kCapacity);
  env.add_flights("CS", fleet, kCapacity, horizon + fraudsim::sim::days(14));
  return env.app.add_flight("CS", 777, kCapacity, horizon + fraudsim::sim::days(3));
}

inline fraudsim::attack::SeatSpinConfig spin_config(fraudsim::airline::FlightId target) {
  fraudsim::attack::SeatSpinConfig config;
  config.target = target;
  return config;
}

inline fraudsim::attack::SmsPumpConfig pump_config(fraudsim::sim::SimTime horizon) {
  fraudsim::attack::SmsPumpConfig config;
  config.stop_at = horizon;
  return config;
}

// Construct before traffic starts (the bots register their actors), then call
// start() once. RingConfig's default is the 16-member ring.
struct AttackMix {
  AttackMix(fraudsim::scenario::Env& env, fraudsim::airline::FlightId target,
            fraudsim::sim::SimTime horizon)
      : spinner(env.app, env.actors, env.residential, env.population, spin_config(target),
                env.rng.fork("seat-spin-bot")),
        pump(env.app, env.actors, env.residential, env.population, env.tariffs,
             pump_config(horizon), env.rng.fork("sms-pump")),
        ring(env.app, env.actors, env.residential, env.population, fraudsim::attack::RingConfig{},
             env.rng.fork("ring")) {}

  void start(fraudsim::scenario::Env& env, fraudsim::sim::SimTime horizon) {
    env.sim.schedule_at(fraudsim::sim::hours(1), [this] { spinner.start(); });
    env.sim.schedule_at(fraudsim::sim::hours(2), [this] { pump.start(); });
    ring.start(horizon);
  }

  fraudsim::attack::SeatSpinBot spinner;
  fraudsim::attack::SmsPumpBot pump;
  fraudsim::attack::RingOrchestrator ring;
};

}  // namespace perfbench
