#include "core/detect/nip_anomaly.hpp"

#include <algorithm>

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

void NipAnomalyDetector::analyze(const std::vector<airline::Reservation>& reservations,
                                 sim::SimTime from, sim::SimTime to, AlertSink& sink) const {
  // One pass bins the window and collects its members in log order, so an
  // anomalous NiP flags its reservations without rescanning the log.
  analytics::CategoricalHistogram<int> observed;
  std::vector<const airline::Reservation*> members;
  for (const auto& r : reservations) {
    if (r.created < from || r.created >= to) continue;
    observed.add(r.nip());
    members.push_back(&r);
  }
  const auto verdict = evaluate_window(observed);
  if (!verdict.anomalous) return;
  for (const int nip : verdict.anomalous_nips) {
    Alert alert;
    alert.time = to;
    alert.detector = "nip.anomaly";
    alert.severity = Severity::Critical;
    alert.explanation = "NiP=" + std::to_string(nip) + " volume far above baseline (chi2=" +
                        util::format_fixed(verdict.test.chi_square, 6) + ")";
    sink.emit(alert);
    for (const airline::Reservation* r : members) {
      if (r->nip() != nip) continue;
      Alert res_alert = alert;
      res_alert.severity = Severity::Warning;
      res_alert.explanation = "reservation at anomalous NiP=" + std::to_string(nip);
      res_alert.pnr = r->pnr;
      res_alert.fingerprint = r->source_fp;
      res_alert.ip = r->source_ip;
      res_alert.actor = r->actor;
      sink.emit(std::move(res_alert));
    }
  }
}

}  // namespace fraudsim::detect
