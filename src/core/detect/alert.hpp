// Alerts emitted by detectors.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fingerprint/fingerprint.hpp"
#include "net/ip.hpp"
#include "sim/time.hpp"
#include "web/request.hpp"

namespace fraudsim::web {
struct Session;
}

namespace fraudsim::airline {
struct Reservation;
}

namespace fraudsim::detect {

enum class Severity : std::uint8_t { Info, Warning, Critical };

[[nodiscard]] const char* to_string(Severity s);

struct Alert {
  sim::SimTime time = 0;
  std::string detector;      // emitting detector id
  Severity severity = Severity::Warning;
  std::string explanation;   // human-readable reason

  // Entity keys the alert points at (any subset).
  std::optional<fp::FpHash> fingerprint;
  std::optional<net::IpV4> ip;
  std::optional<web::SessionId> session;
  std::optional<std::string> pnr;
  std::optional<web::ActorId> actor;  // resolved lazily for scoring
};

// A Warning on one session (behavior.*, ip.reputation) at its end, keyed by
// the session, its actor and its first request's fingerprint and address.
[[nodiscard]] Alert session_alert(const web::Session& session, std::string detector,
                                  std::string explanation);

// A Warning on one reservation (nip.anomaly, name.*) at `time`, keyed by the
// PNR, its actor and the booking request's fingerprint and address.
[[nodiscard]] Alert reservation_alert(const airline::Reservation& reservation, sim::SimTime time,
                                      std::string detector, std::string explanation);

class AlertSink {
 public:
  void emit(Alert alert);

  [[nodiscard]] const std::vector<Alert>& alerts() const { return alerts_; }
  [[nodiscard]] std::size_t count() const { return alerts_.size(); }
  [[nodiscard]] std::vector<Alert> by_detector(const std::string& detector) const;
  void clear() { alerts_.clear(); }

 private:
  std::vector<Alert> alerts_;
};

}  // namespace fraudsim::detect
