#include "core/detect/alert.hpp"

#include <utility>

#include "airline/inventory.hpp"
#include "web/session.hpp"

namespace fraudsim::detect {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::Info:
      return "info";
    case Severity::Warning:
      return "warning";
    case Severity::Critical:
      return "critical";
  }
  return "?";
}

Alert session_alert(const web::Session& session, std::string detector, std::string explanation) {
  Alert alert;
  alert.time = session.end();
  alert.detector = std::move(detector);
  alert.explanation = std::move(explanation);
  alert.session = session.id;
  alert.actor = session.actor;
  if (!session.requests.empty()) {
    alert.fingerprint = session.requests.front().fp_hash;
    alert.ip = session.requests.front().ip;
  }
  return alert;
}

Alert reservation_alert(const airline::Reservation& reservation, sim::SimTime time,
                        std::string detector, std::string explanation) {
  Alert alert;
  alert.time = time;
  alert.detector = std::move(detector);
  alert.explanation = std::move(explanation);
  alert.pnr = reservation.pnr;
  alert.fingerprint = reservation.source_fp;
  alert.ip = reservation.source_ip;
  alert.actor = reservation.actor;
  return alert;
}

void AlertSink::emit(Alert alert) { alerts_.push_back(std::move(alert)); }

std::vector<Alert> AlertSink::by_detector(const std::string& detector) const {
  std::vector<Alert> out;
  for (const auto& a : alerts_) {
    if (a.detector == detector) out.push_back(a);
  }
  return out;
}

}  // namespace fraudsim::detect
