// The mitigation rule engine (the concrete IngressPolicy).
//
// Implements every §V mitigation class:
//   * fingerprint / IP blocking      (knowledge-based enforcement)
//   * honeypot redirection           (blocked identities silently decoyed)
//   * feature access restriction     (loyalty gating of high-risk endpoints)
//   * CAPTCHA layering               (challenge at critical points)
//   * ad-hoc rate limiting           (per path / IP / session / fingerprint /
//                                     booking reference)
//
// Evaluation order: IP block -> fingerprint blocklist (block or honeypot) ->
// loyalty gate -> challenge -> rate limits -> allow. First match wins.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "app/policy.hpp"
#include "core/detect/fingerprint_detect.hpp"
#include "core/mitigate/rate_limit.hpp"
#include "core/overload/brownout.hpp"
#include "fingerprint/consistency.hpp"
#include "net/ip.hpp"
#include "sim/simulation.hpp"
#include "util/arena.hpp"

namespace fraudsim::mitigate {

enum class RateKey : std::uint8_t { Global, ByIp, BySession, ByFingerprint, ByBookingRef };

struct RateLimitSpec {
  std::string name;
  std::optional<web::Endpoint> endpoint;  // nullopt = all endpoints
  RateKey key = RateKey::ByIp;
  std::uint64_t limit = 100;
  sim::SimDuration window = sim::kHour;
};

enum class ChallengeMode : std::uint8_t {
  Off,
  SuspiciousOnly,  // automation artifacts or inconsistent fingerprints
  AllTransactional,
};

class RuleEngine final : public app::IngressPolicy, public util::Checkpointed<RuleEngine> {
 public:
  explicit RuleEngine(const sim::Simulation& sim);

  // The per-request key arena — its Stats are the perf harness's allocation
  // probe for the admit path.
  [[nodiscard]] const util::Arena& key_arena() const { return arena_; }

  app::PolicyDecision evaluate(const web::HttpRequest& request,
                               const app::ClientContext& ctx) override;

  // --- Fingerprint blocking / honeypot --------------------------------------
  [[nodiscard]] detect::FingerprintBlocklist& blocklist() { return blocklist_; }
  [[nodiscard]] const detect::FingerprintBlocklist& blocklist() const { return blocklist_; }
  // What happens to blocklisted fingerprints: hard block (default) or silent
  // honeypot redirection.
  void set_blocklist_action(app::PolicyAction action);

  // --- IP blocking -----------------------------------------------------------
  void block_ip(net::IpV4 ip);
  void block_cidr(net::Cidr cidr);
  [[nodiscard]] bool ip_blocked(net::IpV4 ip) const;

  // --- Feature gating ---------------------------------------------------------
  // Restrict an endpoint to loyalty members.
  void gate_to_loyalty(web::Endpoint endpoint);
  void clear_loyalty_gates();

  // --- Challenges ---------------------------------------------------------------
  void set_challenge_mode(ChallengeMode mode);
  [[nodiscard]] ChallengeMode challenge_mode() const { return challenge_mode_; }

  // --- Rate limits ----------------------------------------------------------------
  void add_rate_limit(RateLimitSpec spec);
  [[nodiscard]] const SlidingWindowRateLimiter* limiter(const std::string& name) const;
  void remove_rate_limit(const std::string& name);
  // Visits every configured limiter (spec order) — the invariant oracle walks
  // these to check per-key window counts against the configured limits.
  template <typename Fn>
  void for_each_limiter(Fn&& fn) const {
    for (const auto& named : limiters_) fn(named.spec, *named.limiter);
  }

  // --- Observability -----------------------------------------------------------
  // Publishes per-limiter denial tallies as "mitigate.rate.<name>.denials"
  // counters in `metrics` (non-owning; nullptr detaches future bindings).
  // Existing and future limiters are bound.
  void bind_metrics(obs::MetricsRegistry* metrics);

  // --- Overload coupling ------------------------------------------------------
  // Attach the platform's brownout controller (non-owning; nullptr detaches).
  // While attached and escalated, every rate limit is judged against
  // ceil(limit * rate_limit_scale) — limits tighten transiently under load
  // and relax on their own when the controller steps back down.
  void observe_overload(const overload::BrownoutController* brownout) { brownout_ = brownout; }

  // --- Checkpoint support -----------------------------------------------------
  // Serialises dynamic enforcement state (blocklist, blocked IPs/CIDRs,
  // loyalty gates, challenge mode, per-limiter windows). Restore expects the
  // same limiter specs to have been re-added before the call (specs are
  // scenario configuration, not run state); windows are matched by limiter
  // name.
  template <class Ar>
  void visit(Ar& ar);

 private:
  // Renders the spec's key for `request` into arena_ (or views request-owned
  // storage): the canonical bytes — dotted-quad IP, decimal session or
  // fingerprint id, booking ref or "s:<session>" — with no heap string.
  [[nodiscard]] std::string_view arena_rate_key(const RateLimitSpec& spec,
                                                const web::HttpRequest& request);
  [[nodiscard]] bool looks_suspicious(const app::ClientContext& ctx) const;

  const sim::Simulation& sim_;
  util::Arena arena_;  // reset per evaluate(); backs arena_rate_key views
  detect::FingerprintBlocklist blocklist_;
  app::PolicyAction blocklist_action_ = app::PolicyAction::Block;
  std::set<std::uint32_t> blocked_ips_;
  std::vector<net::Cidr> blocked_cidrs_;
  std::set<web::Endpoint> loyalty_gated_;
  ChallengeMode challenge_mode_ = ChallengeMode::Off;
  fp::ConsistencyChecker consistency_;
  struct NamedLimiter {
    RateLimitSpec spec;
    std::unique_ptr<SlidingWindowRateLimiter> limiter;
  };
  std::vector<NamedLimiter> limiters_;
  const overload::BrownoutController* brownout_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;  // non-owning
};

}  // namespace fraudsim::mitigate
