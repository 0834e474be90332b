#include "core/fault/circuit_breaker.hpp"

namespace fraudsim::fault {

const char* to_string(CircuitBreaker::State s) {
  switch (s) {
    case CircuitBreaker::State::Closed:
      return "closed";
    case CircuitBreaker::State::Open:
      return "open";
    case CircuitBreaker::State::HalfOpen:
      return "half-open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config) : config_(config) {}

bool CircuitBreaker::allow(sim::SimTime now) {
  switch (state_) {
    case State::Closed:
      return true;
    case State::Open:
      if (now - opened_at_ >= config_.cooldown) {
        state_ = State::HalfOpen;
        half_open_successes_ = 0;
        probe_in_flight_ = true;
        return true;
      }
      ++rejected_;
      return false;
    case State::HalfOpen:
      if (probe_in_flight_) {
        ++rejected_;
        return false;
      }
      probe_in_flight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::record_success(sim::SimTime) {
  consecutive_failures_ = 0;
  if (state_ == State::HalfOpen) {
    probe_in_flight_ = false;
    if (++half_open_successes_ >= config_.half_open_successes) {
      state_ = State::Closed;
    }
  }
}

void CircuitBreaker::record_failure(sim::SimTime now) {
  if (state_ == State::HalfOpen) {
    // The probe failed: the dependency is still down, reopen immediately.
    probe_in_flight_ = false;
    trip(now);
    return;
  }
  if (state_ == State::Closed && ++consecutive_failures_ >= config_.failure_threshold) {
    trip(now);
  }
}

void CircuitBreaker::trip(sim::SimTime now) {
  state_ = State::Open;
  opened_at_ = now;
  consecutive_failures_ = 0;
  half_open_successes_ = 0;
  ++trips_;
}

}  // namespace fraudsim::fault
