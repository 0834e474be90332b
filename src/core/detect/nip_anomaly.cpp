#include "core/detect/nip_anomaly.hpp"

#include <algorithm>
#include <utility>

#include "util/format.hpp"

namespace fraudsim::detect {

NipAnomalyDetector::NipAnomalyDetector(NipAnomalyConfig config) : config_(config) {}

analytics::CategoricalHistogram<int> NipAnomalyDetector::window_histogram(
    const std::vector<airline::Reservation>& reservations, sim::SimTime from, sim::SimTime to) {
  analytics::CategoricalHistogram<int> hist;
  for (const auto& r : reservations) {
    if (r.created < from || r.created >= to) continue;
    hist.add(r.nip());
  }
  return hist;
}

void NipAnomalyDetector::fit_baseline(const std::vector<airline::Reservation>& reservations,
                                      sim::SimTime from, sim::SimTime to) {
  baseline_ = window_histogram(reservations, from, to);
}

void NipAnomalyDetector::fit_baseline(const analytics::CategoricalHistogram<int>& histogram) {
  baseline_ = histogram;
}

NipWindowVerdict NipAnomalyDetector::evaluate_window(
    const std::vector<airline::Reservation>& reservations, sim::SimTime from,
    sim::SimTime to) const {
  return evaluate_window(window_histogram(reservations, from, to));
}

NipWindowVerdict NipAnomalyDetector::evaluate_window(
    const analytics::CategoricalHistogram<int>& observed) const {
  NipWindowVerdict verdict;
  if (observed.total() < config_.min_window_count || baseline_.empty()) return verdict;

  std::vector<int> keys;
  for (int nip = 1; nip <= config_.max_nip; ++nip) keys.push_back(nip);
  verdict.test = analytics::compare_distributions(observed, baseline_, keys, config_.alpha);
  verdict.z_scores = analytics::per_key_zscores(observed, baseline_, keys);
  for (const auto& [nip, z] : verdict.z_scores) {
    if (z >= config_.z_threshold) verdict.anomalous_nips.push_back(nip);
  }
  verdict.anomalous = verdict.test.anomalous && !verdict.anomalous_nips.empty();
  return verdict;
}

NipWindowVerdict NipAnomalyDetector::analyze(
    const std::vector<const airline::Reservation*>& window, sim::SimTime to,
    AlertSink& sink) const {
  analytics::CategoricalHistogram<int> observed;
  for (const airline::Reservation* r : window) observed.add(r->nip());
  auto verdict = evaluate_window(observed);
  if (!verdict.anomalous) return verdict;
  for (const int nip : verdict.anomalous_nips) {
    Alert alert;
    alert.time = to;
    alert.detector = "nip.anomaly";
    alert.severity = Severity::Critical;
    alert.explanation = "NiP=" + std::to_string(nip) + " volume far above baseline (chi2=" +
                        util::format_fixed(verdict.test.chi_square, 6) + ")";
    sink.emit(std::move(alert));
    for (const airline::Reservation* r : window) {
      if (r->nip() != nip) continue;
      sink.emit(reservation_alert(*r, to, "nip.anomaly",
                                  "reservation at anomalous NiP=" + std::to_string(nip)));
    }
  }
  return verdict;
}

}  // namespace fraudsim::detect
