#include "core/mitigate/rules.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fraudsim::mitigate {

RuleEngine::RuleEngine(const sim::Simulation& sim) : sim_(sim) {}

void RuleEngine::set_blocklist_action(app::PolicyAction action) { blocklist_action_ = action; }

void RuleEngine::block_ip(net::IpV4 ip) { blocked_ips_.insert(ip.value()); }

void RuleEngine::block_cidr(net::Cidr cidr) { blocked_cidrs_.push_back(cidr); }

bool RuleEngine::ip_blocked(net::IpV4 ip) const {
  if (blocked_ips_.contains(ip.value())) return true;
  return std::any_of(blocked_cidrs_.begin(), blocked_cidrs_.end(),
                     [ip](const net::Cidr& c) { return c.contains(ip); });
}

void RuleEngine::gate_to_loyalty(web::Endpoint endpoint) { loyalty_gated_.insert(endpoint); }

void RuleEngine::clear_loyalty_gates() { loyalty_gated_.clear(); }

void RuleEngine::set_challenge_mode(ChallengeMode mode) { challenge_mode_ = mode; }

void RuleEngine::add_rate_limit(RateLimitSpec spec) {
  NamedLimiter named;
  named.limiter = std::make_unique<SlidingWindowRateLimiter>(spec.limit, spec.window);
  named.spec = std::move(spec);
  if (metrics_ != nullptr) {
    named.limiter->bind_denials(
        metrics_->counter("mitigate.rate." + named.spec.name + ".denials"));
  }
  limiters_.push_back(std::move(named));
}

void RuleEngine::bind_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  for (auto& named : limiters_) {
    named.limiter->bind_denials(
        metrics_->counter("mitigate.rate." + named.spec.name + ".denials"));
  }
}

const SlidingWindowRateLimiter* RuleEngine::limiter(const std::string& name) const {
  for (const auto& named : limiters_) {
    if (named.spec.name == name) return named.limiter.get();
  }
  return nullptr;
}

void RuleEngine::remove_rate_limit(const std::string& name) {
  limiters_.erase(std::remove_if(limiters_.begin(), limiters_.end(),
                                 [&](const NamedLimiter& n) { return n.spec.name == name; }),
                  limiters_.end());
}

std::string_view RuleEngine::arena_rate_key(const RateLimitSpec& spec,
                                            const web::HttpRequest& request) {
  switch (spec.key) {
    case RateKey::Global:
      return "*";
    case RateKey::ByIp: {
      // Same dotted-quad rendering as net::IpV4::str(), minus the heap.
      char buf[20];
      const std::uint32_t v = request.ip.value();
      const int len = std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (v >> 24) & 0xFF,
                                    (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF);
      return arena_.copy(std::string_view(buf, static_cast<std::size_t>(len)));
    }
    case RateKey::BySession:
      return arena_.format_u64(request.session.value());
    case RateKey::ByFingerprint:
      return arena_.format_u64(request.fp_hash.value());
    case RateKey::ByBookingRef:
      // Requests without a booking reference fall back to the session key so
      // they cannot dodge the limit by omitting the field. A present ref is
      // request-owned storage — view it directly, no copy at all.
      if (request.booking_ref) return *request.booking_ref;
      return arena_.concat("s:", arena_.format_u64(request.session.value()));
  }
  return "*";
}

bool RuleEngine::looks_suspicious(const app::ClientContext& ctx) const {
  if (ctx.fingerprint.webdriver_flag || ctx.fingerprint.headless_hint) return true;
  return consistency_.inconsistency_score(ctx.fingerprint) >= 0.3;
}

app::PolicyDecision RuleEngine::evaluate(const web::HttpRequest& request,
                                         const app::ClientContext& ctx) {
  // Per-request scope for arena-backed rate keys: every view handed out below
  // dies with this call.
  arena_.reset();

  // 1. IP blocking.
  if (ip_blocked(request.ip)) {
    return app::PolicyDecision{app::PolicyAction::Block, "ip-block", util::ErrorCode::kRejected};
  }

  // 2. Fingerprint blocklist (block or honeypot).
  if (blocklist_.contains(request.fp_hash)) {
    blocklist_.note_hit(request.fp_hash, sim_.now());
    if (blocklist_action_ == app::PolicyAction::Honeypot) {
      return app::PolicyDecision{app::PolicyAction::Honeypot, "fp-honeypot"};
    }
    return app::PolicyDecision{app::PolicyAction::Block, "fp-block", util::ErrorCode::kRejected};
  }

  // 3. Loyalty gating of high-risk features.
  if (loyalty_gated_.contains(request.endpoint) && !ctx.loyalty_member) {
    return app::PolicyDecision{app::PolicyAction::Block, "loyalty-gate",
                               util::ErrorCode::kRejected};
  }

  // 4. Challenge layer.
  if (!ctx.captcha_solved && challenge_mode_ != ChallengeMode::Off &&
      web::is_transactional(request.endpoint)) {
    const bool challenge = challenge_mode_ == ChallengeMode::AllTransactional
                               ? true
                               : looks_suspicious(ctx);
    if (challenge) {
      return app::PolicyDecision{app::PolicyAction::Challenge, "captcha",
                                 util::ErrorCode::kRejected};
    }
  }

  // 5. Rate limits (all matching limits must admit the request; the denial
  // names the first limit that trips). Under brownout every limit is judged
  // against a scaled-down effective limit (never below 1).
  double limit_scale = 1.0;
  if (brownout_ != nullptr && brownout_->enabled()) {
    limit_scale = brownout_->rate_limit_scale();
  }
  for (auto& named : limiters_) {
    if (named.spec.endpoint && *named.spec.endpoint != request.endpoint) continue;
    std::uint64_t effective = named.spec.limit;
    if (limit_scale < 1.0) {
      effective = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 std::ceil(static_cast<double>(named.spec.limit) * limit_scale)));
    }
    if (!named.limiter->allow(sim_.now(), arena_rate_key(named.spec, request), effective)) {
      return app::PolicyDecision{app::PolicyAction::RateLimited, named.spec.name,
                                 util::ErrorCode::kRateLimited};
    }
  }

  return app::PolicyDecision{};
}

template <class Ar>
void RuleEngine::visit(Ar& ar) {
  ar(blocklist_, blocklist_action_, blocked_ips_, blocked_cidrs_, loyalty_gated_,
     challenge_mode_);
  std::uint64_t limiters = limiters_.size();
  ar(limiters);
  if constexpr (Ar::reading) {
    // A limiter the restoring process did not add keeps no state: its
    // windows are read into a scratch limiter to stay aligned, and local
    // limiters absent from the frame stay fresh.
    for (std::uint64_t i = 0; i < limiters && ar.ok(); ++i) {
      std::string name;
      ar(name);
      const auto it = std::find_if(limiters_.begin(), limiters_.end(),
                                   [&](const NamedLimiter& nl) { return nl.spec.name == name; });
      SlidingWindowRateLimiter scratch{0, 1};
      ar(it != limiters_.end() ? *it->limiter : scratch);
    }
  } else {
    for (const auto& nl : limiters_) ar(nl.spec.name, *nl.limiter);
  }
}
template void RuleEngine::visit(util::ByteWriter&);
template void RuleEngine::visit(util::ByteReader&);

}  // namespace fraudsim::mitigate
