// Platform-wide brownout controller.
//
// A four-state machine — NORMAL → ELEVATED → BROWNOUT → SHED — driven by
// EWMAs of the admission queue's backlog wait and of modeled request latency
// (both sim-time; the library never reads the wall clock). Each state maps to
// a set of progressively harsher degradations the platform reads as knobs:
//
//   state     | rate-limit scale | detector stride | NiP cap | anonymous
//   NORMAL    | 1.0              | 1               | —       | served
//   ELEVATED  | 0.5              | 1               | —       | served
//   BROWNOUT  | 0.25             | 2               | 4       | tight watermark
//   SHED      | 0.10             | 4               | 2       | fail-fast
//
// Transitions move one state at a time. Entry is triggered when either EWMA
// crosses the next state's threshold; exit requires the wait EWMA to fall
// below `exit_fraction` of the current state's entry threshold AND a minimum
// dwell to have elapsed (hysteresis, so the controller does not flap at the
// boundary). Every transition is timestamped; per-state dwell totals are the
// bench's brownout-residency metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/archive.hpp"

namespace fraudsim::overload {

enum class BrownoutState : std::uint8_t { Normal = 0, Elevated = 1, Brownout = 2, Shed = 3 };

inline constexpr std::size_t kBrownoutStates = 4;

[[nodiscard]] const char* to_string(BrownoutState s);

struct BrownoutConfig {
  bool enabled = false;
  // Per-sample EWMA smoothing factor for both signals.
  double alpha = 0.05;
  // Entry thresholds on the smoothed queue wait (enter the state when the
  // wait EWMA is at or above the threshold). Must be increasing.
  sim::SimDuration elevated_wait = sim::seconds(0.25);
  sim::SimDuration brownout_wait = sim::seconds(1);
  sim::SimDuration shed_wait = sim::seconds(4);
  // Secondary entry signal: smoothed end-to-end modeled latency. 0 disables.
  sim::SimDuration elevated_latency = 0;
  sim::SimDuration brownout_latency = 0;
  sim::SimDuration shed_latency = 0;
  // Exit below exit_fraction * entry threshold of the current state.
  double exit_fraction = 0.5;
  // Minimum residency before stepping back down (anti-flap hysteresis).
  sim::SimDuration min_dwell = sim::seconds(30);

  // Degradation knobs per state (NORMAL, ELEVATED, BROWNOUT, SHED).
  double rate_limit_scale[kBrownoutStates] = {1.0, 0.5, 0.25, 0.10};
  int detector_stride[kBrownoutStates] = {1, 1, 2, 4};
  int nip_cap[kBrownoutStates] = {0, 0, 4, 2};  // 0 = no tightened cap
  // Scale applied to the anonymous admission watermark per state.
  double anonymous_watermark_scale[kBrownoutStates] = {1.0, 1.0, 0.5, 0.25};
  // Scale applied to new hold TTLs per state (timed-out inventory work is
  // shed faster while the platform is hot).
  double hold_ttl_scale[kBrownoutStates] = {1.0, 1.0, 0.5, 0.25};
};

class BrownoutController : public util::Checkpointed<BrownoutController> {
 public:
  explicit BrownoutController(BrownoutConfig config);

  // Feed one admission-time observation: the queueing wait the arriving
  // request would see and its modeled end-to-end latency. Updates the EWMAs
  // and applies at most one state transition. Disabled controllers ignore
  // observations and stay NORMAL.
  void observe(sim::SimTime now, sim::SimDuration queue_wait, sim::SimDuration latency);

  [[nodiscard]] BrownoutState state() const { return state_; }
  [[nodiscard]] bool enabled() const { return config_.enabled; }

  // --- Knobs the platform reads --------------------------------------------
  [[nodiscard]] double rate_limit_scale() const { return config_.rate_limit_scale[index()]; }
  [[nodiscard]] int detector_stride() const { return config_.detector_stride[index()]; }
  [[nodiscard]] int nip_cap() const { return config_.nip_cap[index()]; }
  [[nodiscard]] double anonymous_watermark_scale() const {
    return config_.anonymous_watermark_scale[index()];
  }
  [[nodiscard]] double hold_ttl_scale() const { return config_.hold_ttl_scale[index()]; }
  // True once the controller has escalated to SHED: anonymous requests are
  // fail-fasted at admission without consulting the queue.
  [[nodiscard]] bool fail_fast_anonymous() const { return state_ == BrownoutState::Shed; }

  // --- Telemetry -----------------------------------------------------------
  struct Transition {
    sim::SimTime time = 0;
    BrownoutState from = BrownoutState::Normal;
    BrownoutState to = BrownoutState::Normal;

    template <class Ar>
    void visit(Ar& ar) {
      ar(time, from, to);
    }
  };
  [[nodiscard]] const std::vector<Transition>& transitions() const { return transitions_; }
  // Total residency per state up to `now` (includes the open interval in the
  // current state).
  [[nodiscard]] sim::SimDuration dwell(BrownoutState s, sim::SimTime now) const;
  [[nodiscard]] double wait_ewma() const { return wait_ewma_; }
  [[nodiscard]] double latency_ewma() const { return latency_ewma_; }
  [[nodiscard]] const BrownoutConfig& config() const { return config_; }

  // Checkpoint support (dynamic state only; config is reconstructed).
  template <class Ar>
  void visit(Ar& ar) {
    ar(state_, wait_ewma_, latency_ewma_, seeded_, entered_at_, dwell_, transitions_);
  }

 private:
  [[nodiscard]] std::size_t index() const { return static_cast<std::size_t>(state_); }
  [[nodiscard]] sim::SimDuration entry_wait(BrownoutState s) const;
  [[nodiscard]] sim::SimDuration entry_latency(BrownoutState s) const;
  void enter(sim::SimTime now, BrownoutState next);

  BrownoutConfig config_;
  BrownoutState state_ = BrownoutState::Normal;
  double wait_ewma_ = 0.0;
  double latency_ewma_ = 0.0;
  bool seeded_ = false;
  sim::SimTime entered_at_ = 0;
  sim::SimDuration dwell_[kBrownoutStates] = {0, 0, 0, 0};
  std::vector<Transition> transitions_;
};

}  // namespace fraudsim::overload
