// IP-reputation detection — and why residential proxies defeat it (§III-B,
// the Khan et al. reference).
//
// Two classic signals:
//   * datacenter origin — hosting-range ASes rarely carry real customers
//   * address reuse    — the same IP driving many distinct sessions
//
// Both work on datacenter-proxied scrapers and fail on residential pools:
// every request exits a different household address that geolocates like a
// real customer. bench/exp_detection_comparison shows exactly that split.
#pragma once

#include <cstdint>
#include <vector>

#include "core/detect/alert.hpp"
#include "net/geo.hpp"
#include "web/session.hpp"

namespace fraudsim::detect {

struct IpReputationConfig {
  // Distinct sessions from one address before it is flagged as shared
  // automation infrastructure.
  std::uint64_t max_sessions_per_ip = 5;
  bool flag_datacenter = true;
};

class IpReputationDetector {
 public:
  IpReputationDetector(const net::GeoDb& geo, IpReputationConfig config = {});

  // Emits one alert per offending session. Classifies each distinct address
  // once: GeoDb::is_datacenter walks every country's blocks.
  void analyze(const std::vector<web::Session>& sessions, AlertSink& sink) const;

  [[nodiscard]] bool is_datacenter(net::IpV4 ip) const;

 private:
  const net::GeoDb& geo_;
  IpReputationConfig config_;
};

}  // namespace fraudsim::detect
