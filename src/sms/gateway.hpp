// SMS gateway: the application's outbound messaging service.
//
// Tracks every sent message with cost accounting and per-country volume
// series (the inputs to Table I), and enforces the contracted quota with the
// primary operator — when pumping exhausts the quota, legitimate OTPs start
// failing, the indirect harm §II-B describes.
//
// Resilience: every carrier submission passes the "sms.carrier.send" fault
// point. Transient carrier failures are re-queued with exponential backoff
// (RetryPolicy); an optional per-dependency CircuitBreaker fail-fasts while
// the carrier is down, bounding the retry amplification an outage would
// otherwise produce — amplification that is attacker-fuelled under SMS
// pumping, since every pumped message that fails retries on the app's dime.
// With no fault scenario armed the send path is byte-identical to the
// pre-fault-injection gateway.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analytics/histogram.hpp"
#include "analytics/timeseries.hpp"
#include "core/fault/circuit_breaker.hpp"
#include "core/fault/fault.hpp"
#include "core/fault/retry.hpp"
#include "core/obs/metrics.hpp"
#include "core/overload/overload.hpp"
#include "sms/carrier.hpp"
#include "sms/number.hpp"
#include "sim/time.hpp"
#include "util/money.hpp"
#include "util/result.hpp"
#include "web/request.hpp"

namespace fraudsim::sms {

enum class SmsType : std::uint8_t { Otp, BoardingPass, Notification };

[[nodiscard]] const char* to_string(SmsType t);

// Why a message is (currently) undelivered. CarrierTransient means a retry
// is still pending; the other reasons are terminal.
enum class SmsFailure : std::uint8_t {
  None,             // delivered
  QuotaExhausted,   // rolling-day contract quota hit (terminal; not retried)
  CarrierTransient, // carrier submission failed; retry queued
  CircuitOpen,      // breaker fail-fast, carrier never attempted (terminal)
  RetriesExhausted, // transient failures ate the whole retry budget (terminal)
  DeadlineExpired,  // the request's deadline budget lapsed before delivery
                    // could complete (terminal; pending retries are abandoned)
};

[[nodiscard]] const char* to_string(SmsFailure f);

// Typed-error mapping so callers dispatch on codes, never on failure text.
[[nodiscard]] util::ErrorCode to_error_code(SmsFailure f);

struct SmsRecord {
  sim::SimTime time = 0;                  // original request time
  PhoneNumber destination;
  SmsType type = SmsType::Notification;
  web::ActorId actor;                     // ground truth
  std::optional<std::string> booking_ref; // for boarding-pass messages
  // Completion budget attached by overload admission; unbounded by default.
  // Retries that cannot fire before it lapses are abandoned, not queued —
  // under overload the retry queue must not grow with work nobody is
  // waiting for any more.
  overload::Deadline deadline;
  bool delivered = false;                 // false if rejected or still pending
  SmsFailure failure = SmsFailure::None;
  int attempts = 0;                       // carrier submissions made so far
  sim::SimTime delivered_at = -1;         // set on successful delivery
  util::Money app_cost;
  util::Money attacker_revenue;

  template <class Ar>
  void visit(Ar& ar) {
    ar(time, destination.country, destination.subscriber, type, actor, booking_ref,
       deadline.expires, delivered, failure, attempts, delivered_at, app_cost, attacker_revenue);
  }
};

struct GatewayConfig {
  // Messages per rolling day contracted with the primary operator;
  // 0 = unlimited. Every carrier submission (retries included) counts.
  std::uint64_t daily_quota = 0;
  // Settlement-time abuse flagging is applied later by the economics layer;
  // at send time nothing is flagged.

  // Transient carrier failures are re-queued with backoff (drained by
  // process_retries, which the scenario Env sweeps periodically).
  bool retry_enabled = true;
  fault::RetryPolicy retry;
  // Seed of the gateway-local jitter stream (independent of scenario RNGs so
  // arming faults never shifts other subsystems' draws).
  std::uint64_t retry_jitter_seed = 0xF417;
  // Per-carrier circuit breaker: off by default (the vulnerable posture the
  // outage bench contrasts against).
  bool breaker_enabled = false;
  fault::CircuitBreakerConfig breaker;
};

class SmsGateway : public util::Checkpointed<SmsGateway> {
 public:
  // `metrics` is the platform registry ("sms.*" series); when null the
  // gateway owns a private registry so standalone tests see isolated counts.
  SmsGateway(const CarrierNetwork& network, GatewayConfig config,
             obs::MetricsRegistry* metrics = nullptr);

  // Sends an SMS at `now`. Returns the stored record (delivered=false when
  // the daily quota is exhausted, the breaker is open, or the carrier failed
  // transiently — in the last case a retry is pending and the record is
  // updated in place when it later delivers).
  const SmsRecord& send(sim::SimTime now, PhoneNumber destination, SmsType type,
                        web::ActorId actor, std::optional<std::string> booking_ref = {},
                        overload::Deadline deadline = {});

  // Drains retries due at or before `now`. Deterministic: entries fire in
  // (due time, record index) order. Call from a periodic sweep.
  void process_retries(sim::SimTime now);

  [[nodiscard]] const std::vector<SmsRecord>& log() const { return log_; }
  [[nodiscard]] std::uint64_t sent_count() const { return log_.size(); }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_.value(); }
  [[nodiscard]] std::uint64_t rejected_count() const { return log_.size() - delivered_.value(); }
  [[nodiscard]] util::Money total_app_cost() const { return total_app_cost_; }

  // --- Resilience telemetry (served from the metrics registry) ---------------
  [[nodiscard]] std::uint64_t carrier_attempts() const { return carrier_attempts_.value(); }
  [[nodiscard]] std::uint64_t carrier_failures() const { return carrier_failures_.value(); }
  [[nodiscard]] std::uint64_t first_attempt_failures() const {
    return first_attempt_failures_.value();
  }
  [[nodiscard]] std::uint64_t retries_enqueued() const { return retries_enqueued_.value(); }
  [[nodiscard]] std::uint64_t retries_delivered() const { return retries_delivered_.value(); }
  [[nodiscard]] std::uint64_t retries_exhausted() const { return retries_exhausted_.value(); }
  [[nodiscard]] std::uint64_t quota_rejected() const { return quota_rejected_.value(); }
  [[nodiscard]] std::uint64_t deadline_abandoned() const { return deadline_abandoned_.value(); }
  // Rolling-day quota window, exposed for the invariant oracle: submissions
  // charged against the contract in the current window, and the sim-day the
  // window covers (-1 before the first submission).
  [[nodiscard]] std::uint64_t quota_used() const { return quota_used_; }
  [[nodiscard]] std::int64_t quota_day() const { return quota_day_; }
  [[nodiscard]] const GatewayConfig& config() const { return config_; }
  [[nodiscard]] std::size_t pending_retries() const { return retries_.size(); }
  [[nodiscard]] const fault::CircuitBreaker& breaker() const { return breaker_; }

  // Delivered volumes per destination country within [from, to).
  [[nodiscard]] analytics::CategoricalHistogram<net::CountryCode> volume_by_country(
      sim::SimTime from, sim::SimTime to, std::optional<SmsType> type = {}) const;

  // Delivered volume per day (all countries).
  [[nodiscard]] const analytics::TimeSeries& daily_series() const { return daily_; }

  // Distinct destination countries within [from, to).
  [[nodiscard]] std::size_t distinct_countries(sim::SimTime from, sim::SimTime to) const;

  // Checkpoint support: message log, quota window, breaker, retry queue and
  // jitter stream. Counter cells live in the metrics registry and are
  // restored with it.
  template <class Ar>
  void visit(Ar& ar) {
    ar(log_, total_app_cost_, daily_, quota_day_, quota_used_, breaker_, retry_rng_, retries_);
  }

 private:
  // One carrier submission for log_[index]; `attempt` is 1-based.
  void attempt_delivery(sim::SimTime now, std::size_t index, int attempt);

  const CarrierNetwork& network_;
  GatewayConfig config_;
  std::vector<SmsRecord> log_;
  util::Money total_app_cost_;
  analytics::TimeSeries daily_{sim::kDay};
  // Rolling-day quota bookkeeping.
  std::int64_t quota_day_ = -1;
  std::uint64_t quota_used_ = 0;
  // Fault + resilience plumbing.
  fault::FaultPoint& carrier_fault_;
  fault::CircuitBreaker breaker_;
  sim::Rng retry_rng_;
  // Pending retries ordered by (due, record index) -> next attempt number.
  std::map<std::pair<sim::SimTime, std::size_t>, int> retries_;
  // "sms.*" counter handles; cells live in `metrics` (injected or owned).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter delivered_;
  obs::Counter carrier_attempts_;
  obs::Counter carrier_failures_;
  obs::Counter first_attempt_failures_;
  obs::Counter retries_enqueued_;
  obs::Counter retries_delivered_;
  obs::Counter retries_exhausted_;
  obs::Counter quota_rejected_;
  obs::Counter deadline_abandoned_;
};

}  // namespace fraudsim::sms
