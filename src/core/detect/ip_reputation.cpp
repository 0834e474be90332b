#include "core/detect/ip_reputation.hpp"

#include <unordered_map>

namespace fraudsim::detect {

IpReputationDetector::IpReputationDetector(const net::GeoDb& geo, IpReputationConfig config)
    : geo_(geo), config_(config) {}

bool IpReputationDetector::is_datacenter(net::IpV4 ip) const { return geo_.is_datacenter(ip); }

void IpReputationDetector::analyze(const std::vector<web::Session>& sessions,
                                   AlertSink& sink) const {
  // Per distinct address: the sessions it carries and its geo verdict.
  struct Address {
    std::uint64_t sessions = 0;
    bool datacenter = false;
  };
  std::unordered_map<std::uint32_t, Address> addresses;
  for (const auto& session : sessions) {
    if (session.requests.empty()) continue;
    const auto ip = session.requests.front().ip;
    const auto [it, fresh] = addresses.try_emplace(ip.value());
    if (fresh && config_.flag_datacenter) it->second.datacenter = geo_.is_datacenter(ip);
    ++it->second.sessions;
  }
  for (const auto& session : sessions) {
    if (session.requests.empty()) continue;
    const auto ip = session.requests.front().ip;
    const Address& address = addresses.find(ip.value())->second;
    const char* reason = nullptr;
    if (address.datacenter) {
      reason = "datacenter exit address";
    } else if (address.sessions > config_.max_sessions_per_ip) {
      reason = "address shared across many sessions";
    }
    if (reason == nullptr) continue;
    sink.emit(session_alert(session, "ip.reputation", reason));
  }
}

}  // namespace fraudsim::detect
