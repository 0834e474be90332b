#include "core/overload/brownout.hpp"

namespace fraudsim::overload {

const char* to_string(BrownoutState s) {
  switch (s) {
    case BrownoutState::Normal:
      return "NORMAL";
    case BrownoutState::Elevated:
      return "ELEVATED";
    case BrownoutState::Brownout:
      return "BROWNOUT";
    case BrownoutState::Shed:
      return "SHED";
  }
  return "?";
}

BrownoutController::BrownoutController(BrownoutConfig config) : config_(config) {}

sim::SimDuration BrownoutController::entry_wait(BrownoutState s) const {
  switch (s) {
    case BrownoutState::Elevated:
      return config_.elevated_wait;
    case BrownoutState::Brownout:
      return config_.brownout_wait;
    case BrownoutState::Shed:
      return config_.shed_wait;
    case BrownoutState::Normal:
      break;
  }
  return 0;
}

sim::SimDuration BrownoutController::entry_latency(BrownoutState s) const {
  switch (s) {
    case BrownoutState::Elevated:
      return config_.elevated_latency;
    case BrownoutState::Brownout:
      return config_.brownout_latency;
    case BrownoutState::Shed:
      return config_.shed_latency;
    case BrownoutState::Normal:
      break;
  }
  return 0;
}

void BrownoutController::enter(sim::SimTime now, BrownoutState next) {
  dwell_[index()] += now - entered_at_;
  transitions_.push_back(Transition{now, state_, next});
  state_ = next;
  entered_at_ = now;
}

void BrownoutController::observe(sim::SimTime now, sim::SimDuration queue_wait,
                                 sim::SimDuration latency) {
  if (!config_.enabled) return;
  if (!seeded_) {
    // Seed the EWMAs from the first sample so a controller constructed
    // mid-scenario does not have to climb from zero.
    wait_ewma_ = static_cast<double>(queue_wait);
    latency_ewma_ = static_cast<double>(latency);
    entered_at_ = now;
    seeded_ = true;
  } else {
    wait_ewma_ += config_.alpha * (static_cast<double>(queue_wait) - wait_ewma_);
    latency_ewma_ += config_.alpha * (static_cast<double>(latency) - latency_ewma_);
  }

  // Escalate one state at a time: either smoothed signal crossing the next
  // state's entry threshold is sufficient (latency thresholds of 0 are off).
  if (state_ != BrownoutState::Shed) {
    const auto next = static_cast<BrownoutState>(index() + 1);
    const bool wait_trip = wait_ewma_ >= static_cast<double>(entry_wait(next));
    const auto lat_entry = entry_latency(next);
    const bool latency_trip = lat_entry > 0 && latency_ewma_ >= static_cast<double>(lat_entry);
    if (wait_trip || latency_trip) {
      enter(now, next);
      return;
    }
  }

  // De-escalate one state at a time, with hysteresis: the wait EWMA must fall
  // below exit_fraction of the *current* state's entry threshold and the
  // minimum dwell must have elapsed.
  if (state_ != BrownoutState::Normal && now - entered_at_ >= config_.min_dwell &&
      wait_ewma_ < config_.exit_fraction * static_cast<double>(entry_wait(state_))) {
    enter(now, static_cast<BrownoutState>(index() - 1));
  }
}

sim::SimDuration BrownoutController::dwell(BrownoutState s, sim::SimTime now) const {
  sim::SimDuration total = dwell_[static_cast<std::size_t>(s)];
  if (seeded_ && s == state_ && now > entered_at_) total += now - entered_at_;
  return total;
}

}  // namespace fraudsim::overload
