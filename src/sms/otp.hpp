// OTP service on top of the SMS gateway.
//
// The "easily accessible" SMS surface of §IV-C: any login attempt can trigger
// an OTP send. Verification state is tracked so the workload can complete
// legitimate logins and so pumping attempts show as never-verified sends.
//
// The "otp.deliver" fault point models the message getting lost between code
// generation and the gateway (serialization, template rendering, handoff):
// the code is registered but the SMS never leaves — the user waits for a
// text that never comes, the login fails, and delivery_faults() counts the
// harm.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "core/fault/fault.hpp"
#include "sms/gateway.hpp"

namespace fraudsim::sms {

class OtpService : public util::Checkpointed<OtpService> {
 public:
  // `metrics` is the platform registry ("otp.*" series); when null the
  // service owns a private registry so standalone tests see isolated counts.
  OtpService(SmsGateway& gateway, sim::Rng rng, sim::SimDuration validity = sim::minutes(10),
             obs::MetricsRegistry* metrics = nullptr);

  // Sends an OTP to `number` for the given account key. Returns the code
  // (callers simulating a legitimate user pass it back to verify()).
  // The deadline budget (attached by overload admission; unbounded by
  // default) travels into the gateway's retry queue.
  std::string request(sim::SimTime now, const std::string& account, PhoneNumber number,
                      web::ActorId actor, overload::Deadline deadline = {});

  // True and consumes the code if it matches and hasn't expired.
  bool verify(sim::SimTime now, const std::string& account, const std::string& code);

  [[nodiscard]] std::uint64_t requests() const { return requests_.value(); }
  [[nodiscard]] std::uint64_t verifications() const { return verifications_.value(); }
  // Sends never followed by a successful verification — in aggregate, a
  // pumping signal.
  [[nodiscard]] std::uint64_t unverified() const { return requests_.value() - verifications_.value(); }
  // Requests whose SMS was lost to an injected "otp.deliver" fault.
  [[nodiscard]] std::uint64_t delivery_faults() const { return delivery_faults_.value(); }

  // Checkpoint support: pending codes + the code-generation stream.
  template <class Ar>
  void visit(Ar& ar) {
    ar(rng_, validity_, pending_);
  }

 private:
  struct Pending {
    std::string code;
    sim::SimTime expires;

    template <class Ar>
    void visit(Ar& ar) {
      ar(code, expires);
    }
  };
  SmsGateway& gateway_;
  sim::Rng rng_;
  sim::SimDuration validity_;
  fault::FaultPoint& deliver_fault_;
  std::unordered_map<std::string, Pending> pending_;
  // "otp.*" counter handles; cells live in `metrics` (injected or owned).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter requests_;
  obs::Counter verifications_;
  obs::Counter delivery_faults_;
};

}  // namespace fraudsim::sms
