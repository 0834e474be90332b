#include "core/overload/overload.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace fraudsim::overload {

const char* to_string(RequestClass c) {
  switch (c) {
    case RequestClass::Priority:
      return "priority";
    case RequestClass::Anonymous:
      return "anonymous";
  }
  return "?";
}

const char* to_string(AdmitResult r) {
  switch (r) {
    case AdmitResult::Admitted:
      return "admitted";
    case AdmitResult::ShedQueueFull:
      return "shed-queue-full";
    case AdmitResult::ShedFailFast:
      return "shed-fail-fast";
    case AdmitResult::ShedDeadline:
      return "shed-deadline";
  }
  return "?";
}

// --- AdmissionQueue ---------------------------------------------------------

AdmissionQueue::AdmissionQueue(int servers, bool priority_scheduling)
    : servers_(std::max(1, servers)), priority_scheduling_(priority_scheduling) {}

void AdmissionQueue::drain(sim::SimTime now) {
  if (now <= last_drain_) return;
  // Capacity retired since the last touch; the priority band drains first
  // (strict priority), the anonymous band gets the remainder.
  double capacity = static_cast<double>(now - last_drain_) * static_cast<double>(servers_);
  last_drain_ = now;
  const double from_priority = std::min(capacity, band_[0]);
  band_[0] -= from_priority;
  capacity -= from_priority;
  band_[1] -= std::min(capacity, band_[1]);
}

sim::SimDuration AdmissionQueue::wait_for(RequestClass cls, sim::SimTime now) {
  drain(now);
  // Strict priority: a priority arrival waits only behind the priority band;
  // an anonymous arrival waits behind everything. With priority scheduling
  // off both classes see the combined FIFO backlog.
  double ahead = band_[0] + band_[1];
  if (priority_scheduling_ && cls == RequestClass::Priority) ahead = band_[0];
  return static_cast<sim::SimDuration>(std::ceil(ahead / static_cast<double>(servers_)));
}

void AdmissionQueue::admit(sim::SimTime now, RequestClass cls, sim::SimDuration cost) {
  drain(now);
  // Without priority scheduling everything shares the second (FIFO) band.
  const bool priority_band = priority_scheduling_ && cls == RequestClass::Priority;
  band_[priority_band ? 0 : 1] += static_cast<double>(cost);
}

sim::SimDuration AdmissionQueue::backlog(sim::SimTime now) {
  drain(now);
  return static_cast<sim::SimDuration>(band_[0] + band_[1]);
}

// --- OverloadManager --------------------------------------------------------

OverloadManager::OverloadManager(OverloadConfig config, obs::MetricsRegistry* metrics)
    : config_(config),
      queue_(config.servers, config.priority_scheduling),
      brownout_(config.brownout) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  for (std::size_t i = 0; i < kRequestClasses; ++i) {
    const std::string prefix = std::string("overload.") + to_string(static_cast<RequestClass>(i));
    ClassMetrics& m = class_metrics_[i];
    m.offered = metrics->counter(prefix + ".offered");
    m.admitted = metrics->counter(prefix + ".admitted");
    m.shed_queue = metrics->counter(prefix + ".shed_queue");
    m.shed_fail_fast = metrics->counter(prefix + ".shed_fail_fast");
    m.deadline_missed = metrics->counter(prefix + ".deadline_missed");
    m.latency_ms = metrics->histogram(prefix + ".latency_ms", obs::default_latency_bounds_ms());
  }
}

ClassStats OverloadManager::stats(RequestClass cls) const {
  const ClassMetrics& m = class_metrics_[static_cast<std::size_t>(cls)];
  ClassStats out;
  out.offered = m.offered.value();
  out.admitted = m.admitted.value();
  out.shed_queue = m.shed_queue.value();
  out.shed_fail_fast = m.shed_fail_fast.value();
  out.deadline_missed = m.deadline_missed.value();
  return out;
}

Admission OverloadManager::on_request(sim::SimTime now, RequestClass cls, bool transactional,
                                      sim::SimDuration extra_latency) {
  const sim::SimDuration cost =
      (transactional ? config_.cost_transactional : config_.cost_browse) + extra_latency;
  const sim::SimDuration budget =
      transactional ? config_.deadline_transactional : config_.deadline_browse;

  Admission admission;
  admission.queue_wait = queue_.wait_for(cls, now);
  admission.latency = admission.queue_wait + cost;
  admission.deadline = budget > 0 ? Deadline::in(now, budget) : Deadline::unbounded();

  // The controller observes every offered request, shed or served — load it
  // never sees cannot drive the state machine back down.
  brownout_.observe(now, admission.queue_wait, admission.latency);

  ClassMetrics& metrics = class_metrics_[static_cast<std::size_t>(cls)];
  metrics.offered.inc();

  if (cls == RequestClass::Anonymous && brownout_.fail_fast_anonymous()) {
    metrics.shed_fail_fast.inc();
    admission.result = AdmitResult::ShedFailFast;
    return admission;
  }

  if (config_.shedding_enabled) {
    sim::SimDuration watermark =
        cls == RequestClass::Priority ? config_.max_wait_priority : config_.max_wait_anonymous;
    if (cls == RequestClass::Anonymous) {
      watermark = static_cast<sim::SimDuration>(static_cast<double>(watermark) *
                                                brownout_.anonymous_watermark_scale());
    }
    if (admission.queue_wait > watermark) {
      metrics.shed_queue.inc();
      admission.result = AdmitResult::ShedQueueFull;
      return admission;
    }
  }

  if (admission.deadline.bounded() && now + admission.latency > admission.deadline.expires) {
    // The request cannot finish inside its budget: shedding it now is the
    // deadline-aware move; admitting it (the unprotected baseline does, in
    // effect, by never checking) wastes a full service slot on work the
    // client has already timed out on.
    metrics.deadline_missed.inc();
    admission.result = AdmitResult::ShedDeadline;
    if (!config_.shedding_enabled) {
      // Collapse baseline: the work still occupies the queue; the caller just
      // times out. This is the "piling up" failure mode overload control
      // exists to prevent. The work runs, so its latency is observed — not
      // recording it would cap the baseline's percentiles at the deadline
      // budget (survivor bias) and undersell the collapse.
      queue_.admit(now, cls, cost);
      metrics.latency_ms.observe(static_cast<double>(admission.latency));
    }
    return admission;
  }

  queue_.admit(now, cls, cost);
  metrics.admitted.inc();
  metrics.latency_ms.observe(static_cast<double>(admission.latency));
  return admission;
}

OverloadSnapshot OverloadManager::snapshot(sim::SimTime now) const {
  OverloadSnapshot snap;
  snap.enabled = config_.enabled;
  for (std::size_t i = 0; i < kRequestClasses; ++i) {
    const ClassMetrics& m = class_metrics_[i];
    auto& out = snap.cls[i];
    out.offered = m.offered.value();
    out.admitted = m.admitted.value();
    out.shed_queue = m.shed_queue.value();
    out.shed_fail_fast = m.shed_fail_fast.value();
    out.deadline_missed = m.deadline_missed.value();
    if (m.latency_ms.count() > 0) {
      out.p50_latency_ms = m.latency_ms.percentile(0.50);
      out.p99_latency_ms = m.latency_ms.percentile(0.99);
    }
  }
  snap.state = brownout_.state();
  snap.transitions = brownout_.transitions().size();
  for (std::size_t i = 0; i < kBrownoutStates; ++i) {
    snap.dwell[i] = brownout_.dwell(static_cast<BrownoutState>(i), now);
  }
  return snap;
}

}  // namespace fraudsim::overload
