#include "sms/otp.hpp"

namespace fraudsim::sms {

OtpService::OtpService(SmsGateway& gateway, sim::Rng rng, sim::SimDuration validity,
                       obs::MetricsRegistry* metrics)
    : gateway_(gateway),
      rng_(std::move(rng)),
      validity_(validity),
      deliver_fault_(fault::FaultRegistry::global().point("otp.deliver")) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  requests_ = metrics->counter("otp.requests");
  verifications_ = metrics->counter("otp.verifications");
  delivery_faults_ = metrics->counter("otp.delivery_faults");
}

std::string OtpService::request(sim::SimTime now, const std::string& account, PhoneNumber number,
                                web::ActorId actor, overload::Deadline deadline) {
  const std::string code = rng_.random_digits(6);
  pending_[account] = Pending{code, now + validity_};
  requests_.inc();
  if (deliver_fault_.should_fail(now)) {
    // Code registered but the SMS never reaches the gateway: the caller
    // (holding the returned code) can still "know" it, but a simulated user
    // who relies on the text never sees it.
    delivery_faults_.inc();
    return code;
  }
  gateway_.send(now, std::move(number), SmsType::Otp, actor, {}, deadline);
  return code;
}

bool OtpService::verify(sim::SimTime now, const std::string& account, const std::string& code) {
  const auto it = pending_.find(account);
  if (it == pending_.end()) return false;
  if (now > it->second.expires) {
    pending_.erase(it);
    return false;
  }
  if (it->second.code != code) return false;
  pending_.erase(it);
  verifications_.inc();
  return true;
}

}  // namespace fraudsim::sms
