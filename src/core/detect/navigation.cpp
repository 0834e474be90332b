#include "core/detect/navigation.hpp"

#include <algorithm>
#include <cmath>

#include "util/format.hpp"
#include "util/stats.hpp"

namespace fraudsim::detect {

void NavigationModel::fit(const std::vector<web::Session>& clean_sessions, double alpha,
                          double threshold_percentile) {
  std::array<std::array<double, kStates>, kStates> counts{};
  for (const auto& session : clean_sessions) {
    for (std::size_t i = 1; i < session.requests.size(); ++i) {
      const auto from = static_cast<std::size_t>(session.requests[i - 1].endpoint);
      const auto to = static_cast<std::size_t>(session.requests[i].endpoint);
      if (from < kStates && to < kStates) counts[from][to] += 1.0;
    }
  }
  for (std::size_t from = 0; from < kStates; ++from) {
    double row_total = alpha * kStates;
    for (std::size_t to = 0; to < kStates; ++to) row_total += counts[from][to];
    for (std::size_t to = 0; to < kStates; ++to) {
      log_transition_[from][to] = std::log2((counts[from][to] + alpha) / row_total);
    }
  }
  fitted_ = true;

  // Calibrate the threshold on the clean population itself.
  std::vector<double> scores;
  for (const auto& session : clean_sessions) {
    if (session.requests.size() >= 2) scores.push_back(score(session));
  }
  if (!scores.empty()) {
    threshold_ = util::percentile(std::move(scores), threshold_percentile);
  }
}

double NavigationModel::score(const web::Session& session) const {
  if (!fitted_ || session.requests.size() < 2) return 0.0;
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 1; i < session.requests.size(); ++i) {
    const auto from = static_cast<std::size_t>(session.requests[i - 1].endpoint);
    const auto to = static_cast<std::size_t>(session.requests[i].endpoint);
    if (from >= kStates || to >= kStates) continue;
    total += log_transition_[from][to];
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

bool NavigationModel::is_anomalous(const web::Session& session) const {
  if (!fitted_ || session.requests.size() < 3) return false;  // too short to judge
  return score(session) < threshold_;
}

void NavigationModel::analyze(const std::vector<web::Session>& sessions, AlertSink& sink) const {
  for (const auto& session : sessions) {
    if (!is_anomalous(session)) continue;
    Alert alert;
    alert.time = session.end();
    alert.detector = "behavior.navigation";
    alert.severity = Severity::Warning;
    alert.explanation = "navigation likelihood " + util::format_fixed(score(session), 6) +
                        " below clean threshold " + util::format_fixed(threshold_, 6);
    alert.session = session.id;
    alert.actor = session.actor;
    if (!session.requests.empty()) {
      alert.fingerprint = session.requests.front().fp_hash;
      alert.ip = session.requests.front().ip;
    }
    sink.emit(std::move(alert));
  }
}

}  // namespace fraudsim::detect
