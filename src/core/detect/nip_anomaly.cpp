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
  const auto verdict = evaluate_window(reservations, from, to);
  if (!verdict.anomalous) return;
  for (const int nip : verdict.anomalous_nips) {
    Alert alert;
    alert.time = to;
    alert.detector = "nip.anomaly";
    alert.severity = Severity::Critical;
    alert.explanation = "NiP=" + std::to_string(nip) + " volume far above baseline (chi2=" +
                        util::format_fixed(verdict.test.chi_square, 6) + ")";
    sink.emit(alert);
    // Flag every window reservation at the anomalous NiP.
    for (const auto& r : reservations) {
      if (r.created < from || r.created >= to) continue;
      if (r.nip() != nip) continue;
      Alert res_alert = alert;
      res_alert.severity = Severity::Warning;
      res_alert.explanation = "reservation at anomalous NiP=" + std::to_string(nip);
      res_alert.pnr = r.pnr;
      res_alert.fingerprint = r.source_fp;
      res_alert.ip = r.source_ip;
      res_alert.actor = r.actor;
      sink.emit(std::move(res_alert));
    }
  }
}

void NipAnomalyDetector::analyze_windows(const std::vector<airline::Reservation>& reservations,
                                         std::span<const Window> windows, AlertSink& sink,
                                         std::vector<std::size_t>* alerts_per_window) const {
  if (alerts_per_window != nullptr) {
    alerts_per_window->assign(windows.size(), 0);
  }
  // One pass over the reservation log bins every window at once. Windows may
  // overlap, so each reservation is credited to every window containing it;
  // index lists stay in log order, which is what the per-window alert loop
  // below relies on for byte-identical output.
  std::vector<analytics::CategoricalHistogram<int>> hists(windows.size());
  std::vector<std::vector<std::size_t>> members(windows.size());
  for (std::size_t r = 0; r < reservations.size(); ++r) {
    const auto created = reservations[r].created;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      if (created < windows[w].from || created >= windows[w].to) continue;
      hists[w].add(reservations[r].nip());
      members[w].push_back(r);
    }
  }
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const auto verdict = evaluate_window(hists[w]);
    if (!verdict.anomalous) continue;
    const std::size_t before = sink.alerts().size();
    for (const int nip : verdict.anomalous_nips) {
      Alert alert;
      alert.time = windows[w].to;
      alert.detector = "nip.anomaly";
      alert.severity = Severity::Critical;
      alert.explanation = "NiP=" + std::to_string(nip) + " volume far above baseline (chi2=" +
                          util::format_fixed(verdict.test.chi_square, 6) + ")";
      sink.emit(alert);
      for (const std::size_t r : members[w]) {
        const auto& res = reservations[r];
        if (res.nip() != nip) continue;
        Alert res_alert = alert;
        res_alert.severity = Severity::Warning;
        res_alert.explanation = "reservation at anomalous NiP=" + std::to_string(nip);
        res_alert.pnr = res.pnr;
        res_alert.fingerprint = res.source_fp;
        res_alert.ip = res.source_ip;
        res_alert.actor = res.actor;
        sink.emit(std::move(res_alert));
      }
    }
    if (alerts_per_window != nullptr) {
      (*alerts_per_window)[w] = sink.alerts().size() - before;
    }
  }
}

}  // namespace fraudsim::detect
