// Overload control: bounded admission, deadline budgets, graceful brownout.
//
// The platform's request path is modeled as a fluid queue in front of
// `servers` unit-rate workers. Every request arriving at the Application
// facade is classified (priority = identified loyalty traffic, anonymous =
// everything else) and offered to the AdmissionQueue:
//
//   * admitted  — the request's modeled cost joins its class band; its
//                 latency is the band's queueing wait plus its service cost;
//   * shed      — the wait already exceeds the class watermark (bounded
//                 queue), the brownout controller is fail-fasting the class,
//                 or the request could not finish inside its deadline budget.
//
// Under strict-priority scheduling the priority band is drained first, so a
// flood of anonymous bot traffic cannot queue ahead of identified customers —
// the per-class watermark is what turns "bounded queue" into "bounded queue
// per class". With `priority_scheduling` off both classes share one FIFO
// band (the collapse baseline the bench contrasts against).
//
// Deadline budgets attached here travel with the request into downstream
// stages (SMS retry queues, hold TTLs), so work that can no longer finish in
// time is shed instead of piling up behind live traffic.
//
// Determinism: the subsystem consumes no randomness and reads only sim-time.
// With `enabled == false` the manager is never consulted and the request path
// is byte-identical to a build without overload control.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/obs/metrics.hpp"
#include "core/overload/brownout.hpp"
#include "sim/time.hpp"

namespace fraudsim::overload {

// --- Deadline budgets -------------------------------------------------------

// An absolute completion budget carried by a request into downstream stages.
// Default-constructed deadlines are unbounded (no budget attached) so callers
// that never opt in see no behaviour change.
struct Deadline {
  static constexpr sim::SimTime kUnbounded = std::numeric_limits<sim::SimTime>::max();

  sim::SimTime expires = kUnbounded;

  [[nodiscard]] static Deadline unbounded() { return Deadline{}; }
  [[nodiscard]] static Deadline at(sim::SimTime t) { return Deadline{t}; }
  [[nodiscard]] static Deadline in(sim::SimTime now, sim::SimDuration budget) {
    return Deadline{now + budget};
  }

  [[nodiscard]] bool bounded() const { return expires != kUnbounded; }
  [[nodiscard]] bool expired(sim::SimTime now) const { return bounded() && now >= expires; }
  [[nodiscard]] sim::SimDuration remaining(sim::SimTime now) const {
    return bounded() ? expires - now : kUnbounded;
  }
};

// --- Request classification -------------------------------------------------

enum class RequestClass : std::uint8_t { Priority = 0, Anonymous = 1 };

inline constexpr std::size_t kRequestClasses = 2;

[[nodiscard]] const char* to_string(RequestClass c);

// --- Bounded admission queue ------------------------------------------------

// Fluid two-band strict-priority queue. Backlogs are tracked in milliseconds
// of work and drain continuously at `servers` ms of work per ms of sim time,
// priority band first. O(1) per operation, no randomness.
class AdmissionQueue : public util::Checkpointed<AdmissionQueue> {
 public:
  AdmissionQueue(int servers, bool priority_scheduling);

  // Queueing wait an arrival of `cls` would see at `now` (after draining).
  [[nodiscard]] sim::SimDuration wait_for(RequestClass cls, sim::SimTime now);

  // Commits an admitted request's cost to its band.
  void admit(sim::SimTime now, RequestClass cls, sim::SimDuration cost);

  // Total un-drained work across both bands, in ms (the queue-depth signal).
  [[nodiscard]] sim::SimDuration backlog(sim::SimTime now);

  template <class Ar>
  void visit(Ar& ar) {
    ar(last_drain_, band_);
  }

 private:
  void drain(sim::SimTime now);

  int servers_;
  bool priority_scheduling_;
  sim::SimTime last_drain_ = 0;
  double band_[kRequestClasses] = {0.0, 0.0};  // ms of queued work per class
};

// --- Configuration ----------------------------------------------------------

struct OverloadConfig {
  // Master switch. False (the default everywhere) bypasses the subsystem
  // entirely: no queue model, no deadlines, no brownout — byte-identical to
  // the pre-overload platform.
  bool enabled = false;

  // Fluid service capacity: `servers` workers, each retiring 1 ms of modeled
  // work per ms of sim time.
  int servers = 2;
  // Modeled service cost per request kind (web::is_transactional splits the
  // catalogue).
  sim::SimDuration cost_browse = sim::seconds(0.2);
  sim::SimDuration cost_transactional = sim::seconds(0.6);

  // Bounded-queue watermarks: the maximum queueing wait a class accepts at
  // admission. The brownout controller scales the anonymous watermark down
  // as it escalates.
  bool shedding_enabled = true;
  sim::SimDuration max_wait_priority = sim::seconds(8);
  sim::SimDuration max_wait_anonymous = sim::seconds(2);
  // Strict-priority scheduling of the priority band (off = single shared
  // FIFO band, the unprotected baseline).
  bool priority_scheduling = true;

  // Deadline budgets attached at admission (0 = unbounded for that kind).
  sim::SimDuration deadline_browse = sim::seconds(10);
  sim::SimDuration deadline_transactional = sim::seconds(30);

  BrownoutConfig brownout;
};

// --- Telemetry --------------------------------------------------------------

enum class AdmitResult : std::uint8_t {
  Admitted,
  ShedQueueFull,   // class watermark exceeded (bounded queue)
  ShedFailFast,    // brownout SHED state fail-fasting the anonymous class
  ShedDeadline,    // could not finish inside the deadline budget
};

[[nodiscard]] const char* to_string(AdmitResult r);

struct Admission {
  AdmitResult result = AdmitResult::Admitted;
  sim::SimDuration queue_wait = 0;  // modeled queueing delay at arrival
  sim::SimDuration latency = 0;     // queue_wait + service cost (modeled)
  Deadline deadline;                // budget the request carries downstream
};

// By-value view of one class's admission counters, assembled from the
// metrics registry (the "overload.<class>.*" series are the source of truth).
struct ClassStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed_queue = 0;
  std::uint64_t shed_fail_fast = 0;
  std::uint64_t deadline_missed = 0;

  [[nodiscard]] std::uint64_t shed_total() const { return shed_queue + shed_fail_fast; }
};

// Flat copyable summary for reports and CSV export.
struct OverloadSnapshot {
  bool enabled = false;
  struct PerClass {
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed_queue = 0;
    std::uint64_t shed_fail_fast = 0;
    std::uint64_t deadline_missed = 0;
    double p50_latency_ms = 0.0;
    double p99_latency_ms = 0.0;
  };
  PerClass cls[kRequestClasses];
  BrownoutState state = BrownoutState::Normal;
  std::uint64_t transitions = 0;
  sim::SimDuration dwell[kBrownoutStates] = {0, 0, 0, 0};

  [[nodiscard]] const PerClass& of(RequestClass c) const {
    return cls[static_cast<std::size_t>(c)];
  }
};

// --- Manager ----------------------------------------------------------------

class OverloadManager : public util::Checkpointed<OverloadManager> {
 public:
  // `metrics` is the platform registry ("overload.*" series); when null the
  // manager owns a private registry so standalone tests see isolated counts.
  explicit OverloadManager(OverloadConfig config, obs::MetricsRegistry* metrics = nullptr);

  [[nodiscard]] bool enabled() const { return config_.enabled; }

  // The admission decision for one request. Pre: enabled(). `extra_latency`
  // is injected slow-dependency time (FaultKind::kLatency) charged on top of
  // the modeled service cost, so a latency fault eats real deadline budget.
  Admission on_request(sim::SimTime now, RequestClass cls, bool transactional,
                       sim::SimDuration extra_latency = 0);

  [[nodiscard]] BrownoutController& brownout() { return brownout_; }
  [[nodiscard]] const BrownoutController& brownout() const { return brownout_; }
  // Counter view for one class, read from the registry.
  [[nodiscard]] ClassStats stats(RequestClass cls) const;
  [[nodiscard]] const OverloadConfig& config() const { return config_; }

  [[nodiscard]] OverloadSnapshot snapshot(sim::SimTime now) const;

  // Checkpoint support: queue bands + brownout state machine. Counter cells
  // live in the metrics registry and are restored with it.
  template <class Ar>
  void visit(Ar& ar) {
    ar(queue_, brownout_);
  }

 private:
  // Registry handles for one class's counters + latency histogram.
  struct ClassMetrics {
    obs::Counter offered;
    obs::Counter admitted;
    obs::Counter shed_queue;
    obs::Counter shed_fail_fast;
    obs::Counter deadline_missed;
    obs::Histogram latency_ms;
  };

  OverloadConfig config_;
  AdmissionQueue queue_;
  BrownoutController brownout_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  ClassMetrics class_metrics_[kRequestClasses];
};

}  // namespace fraudsim::overload
