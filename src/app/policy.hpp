// Ingress policy hook.
//
// The application consults an IngressPolicy before serving each request.
// The default policy allows everything; the mitigation rule engine in
// core/mitigate implements this interface. Keeping the interface below the
// traffic generators lets bots and legitimate users traverse the same
// mitigations without a dependency cycle.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "biometrics/features.hpp"
#include "fingerprint/fingerprint.hpp"
#include "net/ip.hpp"
#include "util/result.hpp"
#include "web/request.hpp"

namespace fraudsim::app {

// Client-side state accompanying a request.
struct ClientContext {
  net::IpV4 ip;
  web::SessionId session;
  fp::Fingerprint fingerprint;
  web::ActorId actor;  // ground truth; policies must not read it
  // Set by the caller when retrying a challenged request after solving the
  // CAPTCHA (legitimately or via a solving service).
  bool captcha_solved = false;
  // Verified loyalty-programme member (used by feature-gating mitigations).
  bool loyalty_member = false;
  // Pointer-movement sample captured by the client-side telemetry script on
  // the interaction leading to this request (when biometric collection is
  // deployed). Bots synthesise or replay these; the biometric detector tells
  // the difference.
  std::optional<biometrics::TrajectoryFeatures> pointer_biometrics;
  // Tokenized payment instrument presented by the client (empty = none yet).
  // Policies must not read it raw; the entity graph links sessions that
  // re-use one token — the strongest structural tie a ring exposes.
  std::string payment_token;

  // Wire field list (journal records; util/archive.hpp).
  template <class Ar>
  void visit(Ar& ar) {
    ar(ip, session, fingerprint, actor, captcha_solved, loyalty_member, pointer_biometrics,
       payment_token);
  }
};

enum class PolicyAction : std::uint8_t {
  Allow,
  Block,          // hard deny (403)
  Challenge,      // CAPTCHA interstitial (retry with captcha_solved)
  RateLimited,    // deny due to a rate limit (429)
  Honeypot,       // serve from the decoy environment, pretend success
  Shed,           // overload admission control dropped the request (503);
                  // emitted by the platform, never by an IngressPolicy
};

[[nodiscard]] constexpr const char* to_string(PolicyAction a) {
  switch (a) {
    case PolicyAction::Allow:
      return "allow";
    case PolicyAction::Block:
      return "block";
    case PolicyAction::Challenge:
      return "challenge";
    case PolicyAction::RateLimited:
      return "rate-limited";
    case PolicyAction::Honeypot:
      return "honeypot";
    case PolicyAction::Shed:
      return "shed";
  }
  return "?";
}

struct PolicyDecision {
  PolicyAction action = PolicyAction::Allow;
  std::string rule;  // identifier of the rule that fired (empty for Allow)
  // Typed reason for non-Allow decisions (kOk for Allow/Honeypot — a decoyed
  // request is served, just not from real inventory). Callers dispatch on
  // this, never on rule text.
  util::ErrorCode code = util::ErrorCode::kOk;
};

class IngressPolicy {
 public:
  virtual ~IngressPolicy() = default;
  virtual PolicyDecision evaluate(const web::HttpRequest& request, const ClientContext& ctx) = 0;
};

// Default: everything is allowed (the unprotected baseline).
class AllowAllPolicy final : public IngressPolicy {
 public:
  PolicyDecision evaluate(const web::HttpRequest&, const ClientContext&) override {
    return PolicyDecision{};
  }
};

}  // namespace fraudsim::app
