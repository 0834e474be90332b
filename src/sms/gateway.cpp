#include "sms/gateway.hpp"

#include <set>

namespace fraudsim::sms {

const char* to_string(SmsType t) {
  switch (t) {
    case SmsType::Otp:
      return "otp";
    case SmsType::BoardingPass:
      return "boarding-pass";
    case SmsType::Notification:
      return "notification";
  }
  return "?";
}

const char* to_string(SmsFailure f) {
  switch (f) {
    case SmsFailure::None:
      return "none";
    case SmsFailure::QuotaExhausted:
      return "quota-exhausted";
    case SmsFailure::CarrierTransient:
      return "carrier-transient";
    case SmsFailure::CircuitOpen:
      return "circuit-open";
    case SmsFailure::RetriesExhausted:
      return "retries-exhausted";
    case SmsFailure::DeadlineExpired:
      return "deadline-expired";
  }
  return "?";
}

util::ErrorCode to_error_code(SmsFailure f) {
  switch (f) {
    case SmsFailure::None:
      return util::ErrorCode::kOk;
    case SmsFailure::QuotaExhausted:
      return util::ErrorCode::kQuotaExhausted;
    case SmsFailure::CarrierTransient:
    case SmsFailure::RetriesExhausted:
      return util::ErrorCode::kUpstreamFault;
    case SmsFailure::CircuitOpen:
      return util::ErrorCode::kUpstreamFault;
    case SmsFailure::DeadlineExpired:
      return util::ErrorCode::kDeadlineExceeded;
  }
  return util::ErrorCode::kUnknown;
}

SmsGateway::SmsGateway(const CarrierNetwork& network, GatewayConfig config,
                       obs::MetricsRegistry* metrics)
    : network_(network),
      config_(config),
      carrier_fault_(fault::FaultRegistry::global().point("sms.carrier.send")),
      breaker_(config.breaker),
      retry_rng_(config.retry_jitter_seed) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  delivered_ = metrics->counter("sms.delivered");
  carrier_attempts_ = metrics->counter("sms.carrier.attempts");
  carrier_failures_ = metrics->counter("sms.carrier.failures");
  first_attempt_failures_ = metrics->counter("sms.carrier.first_attempt_failures");
  retries_enqueued_ = metrics->counter("sms.retry.enqueued");
  retries_delivered_ = metrics->counter("sms.retry.delivered");
  retries_exhausted_ = metrics->counter("sms.retry.exhausted");
  quota_rejected_ = metrics->counter("sms.quota.rejected");
  deadline_abandoned_ = metrics->counter("sms.deadline.abandoned");
}

const SmsRecord& SmsGateway::send(sim::SimTime now, PhoneNumber destination, SmsType type,
                                  web::ActorId actor, std::optional<std::string> booking_ref,
                                  overload::Deadline deadline) {
  SmsRecord record;
  record.time = now;
  record.destination = destination;
  record.type = type;
  record.actor = actor;
  record.booking_ref = std::move(booking_ref);
  record.deadline = deadline;
  log_.push_back(std::move(record));
  const std::size_t index = log_.size() - 1;
  attempt_delivery(now, index, /*attempt=*/1);
  return log_[index];
}

void SmsGateway::attempt_delivery(sim::SimTime now, std::size_t index, int attempt) {
  SmsRecord& record = log_[index];
  record.attempts = attempt;

  // A retry (or a very late send) whose deadline budget has lapsed is
  // abandoned: nobody is waiting for this message any more, and spending a
  // carrier submission on it steals quota from live traffic.
  if (record.deadline.expired(now)) {
    record.failure = SmsFailure::DeadlineExpired;
    deadline_abandoned_.inc();
    return;
  }

  // Quota: resets each sim day; every carrier submission (retries included)
  // counts against the contract. Quota rejection is a business rejection,
  // not a transient fault — it is terminal and never retried (a client
  // cannot buy more deliveries by hammering the gateway).
  const std::int64_t day = sim::day_of(now);
  if (day != quota_day_) {
    quota_day_ = day;
    quota_used_ = 0;
  }
  if (config_.daily_quota != 0 && quota_used_ >= config_.daily_quota) {
    record.failure = SmsFailure::QuotaExhausted;
    quota_rejected_.inc();
    return;
  }

  // Circuit breaker: while the carrier is down, fail fast without consuming
  // quota or touching the carrier. Terminal — bounding both carrier load and
  // retry-queue growth is the breaker's whole job.
  if (config_.breaker_enabled && !breaker_.allow(now)) {
    record.failure = SmsFailure::CircuitOpen;
    return;
  }

  ++quota_used_;
  carrier_attempts_.inc();
  const fault::FaultAction act = carrier_fault_.consult(now);
  if (act.error) {
    carrier_failures_.inc();
    if (attempt == 1) first_attempt_failures_.inc();
    if (config_.breaker_enabled) breaker_.record_failure(now);
    if (config_.retry_enabled && config_.retry.should_retry(attempt)) {
      const sim::SimDuration delay = config_.retry.delay(attempt, retry_rng_);
      if (record.deadline.expired(now + delay)) {
        // The retry could not fire before the deadline: abandon now instead
        // of parking dead work in the retry queue.
        record.failure = SmsFailure::DeadlineExpired;
        deadline_abandoned_.inc();
        return;
      }
      retries_.emplace(std::make_pair(now + delay, index), attempt + 1);
      retries_enqueued_.inc();
      record.failure = SmsFailure::CarrierTransient;
    } else {
      record.failure = SmsFailure::RetriesExhausted;
      retries_exhausted_.inc();
    }
    return;
  }
  if (config_.breaker_enabled) breaker_.record_success(now);

  // Latency spike: the submission succeeds, but `act.latency` of sim-time
  // later. A delivery that would land past the caller's deadline budget is
  // abandoned — a slow dependency fails deadlines exactly like a dead one.
  const sim::SimTime completed_at = now + act.latency;
  if (act.latency > 0 && record.deadline.expired(completed_at)) {
    record.failure = SmsFailure::DeadlineExpired;
    deadline_abandoned_.inc();
    return;
  }

  record.delivered = true;
  record.failure = SmsFailure::None;
  record.delivered_at = completed_at;
  // At send time nothing is flagged as abuse; settlement reflects the
  // default carrier economics. Retrospective flagging is handled by the
  // economics layer re-settling flagged records.
  const auto settlement = network_.settle(record.destination.country, /*flagged=*/false);
  record.app_cost = settlement.app_cost;
  record.attacker_revenue = settlement.attacker_revenue;
  total_app_cost_ += record.app_cost;
  delivered_.inc();
  daily_.add(completed_at);
  if (attempt > 1) retries_delivered_.inc();
}

void SmsGateway::process_retries(sim::SimTime now) {
  while (!retries_.empty() && retries_.begin()->first.first <= now) {
    const auto [key, attempt] = *retries_.begin();
    retries_.erase(retries_.begin());
    attempt_delivery(now, key.second, attempt);
  }
}

analytics::CategoricalHistogram<net::CountryCode> SmsGateway::volume_by_country(
    sim::SimTime from, sim::SimTime to, std::optional<SmsType> type) const {
  analytics::CategoricalHistogram<net::CountryCode> hist;
  for (const auto& r : log_) {
    if (!r.delivered) continue;
    if (r.time < from || r.time >= to) continue;
    if (type && r.type != *type) continue;
    hist.add(r.destination.country);
  }
  return hist;
}

std::size_t SmsGateway::distinct_countries(sim::SimTime from, sim::SimTime to) const {
  std::set<net::CountryCode> countries;
  for (const auto& r : log_) {
    if (!r.delivered) continue;
    if (r.time < from || r.time >= to) continue;
    countries.insert(r.destination.country);
  }
  return countries.size();
}

}  // namespace fraudsim::sms
