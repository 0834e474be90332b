// Per-dependency circuit breaker (closed / open / half-open).
//
// Bounds the retry amplification an outage produces: after
// `failure_threshold` consecutive failures the circuit opens and callers
// fail fast without touching the dependency; after `cooldown` of sim time a
// single probe is let through (half-open) and the circuit closes again only
// after `half_open_successes` consecutive successes. All timing is SimTime
// supplied by the caller — no wall clock, fully deterministic.
#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "util/archive.hpp"

namespace fraudsim::fault {

struct CircuitBreakerConfig {
  std::uint64_t failure_threshold = 5;           // consecutive failures to trip
  sim::SimDuration cooldown = sim::minutes(5);   // open -> half-open probe delay
  std::uint64_t half_open_successes = 2;         // probes to close again
};

class CircuitBreaker : public util::Checkpointed<CircuitBreaker> {
 public:
  enum class State : std::uint8_t { Closed, Open, HalfOpen };

  explicit CircuitBreaker(CircuitBreakerConfig config = {});

  // May the caller attempt the dependency at `now`? Transitions Open ->
  // HalfOpen once the cooldown elapsed. In HalfOpen only one in-flight probe
  // is admitted at a time. Denied calls are counted in rejected().
  [[nodiscard]] bool allow(sim::SimTime now);

  void record_success(sim::SimTime now);
  void record_failure(sim::SimTime now);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::uint64_t trips() const { return trips_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  [[nodiscard]] std::uint64_t consecutive_failures() const { return consecutive_failures_; }

  template <class Ar>
  void visit(Ar& ar) {
    ar(state_, consecutive_failures_, half_open_successes_, probe_in_flight_, opened_at_, trips_,
       rejected_);
  }

 private:
  void trip(sim::SimTime now);

  CircuitBreakerConfig config_;
  State state_ = State::Closed;
  std::uint64_t consecutive_failures_ = 0;
  std::uint64_t half_open_successes_ = 0;
  bool probe_in_flight_ = false;
  sim::SimTime opened_at_ = 0;
  std::uint64_t trips_ = 0;
  std::uint64_t rejected_ = 0;
};

[[nodiscard]] const char* to_string(CircuitBreaker::State s);

}  // namespace fraudsim::fault
