#include "core/detect/behavior.hpp"

#include "util/format.hpp"

namespace fraudsim::detect {

FeatureRow to_row(const web::SessionFeatures& features) {
  const auto arr = features.as_vector();
  return FeatureRow(arr.begin(), arr.end());
}

VolumeThresholdDetector::VolumeThresholdDetector(VolumeThresholds thresholds)
    : thresholds_(thresholds) {}

bool VolumeThresholdDetector::is_bot(const web::SessionFeatures& f, std::string* reason) const {
  auto set_reason = [&](const std::string& r) {
    if (reason != nullptr) *reason = r;
  };
  if (f.total_requests > thresholds_.max_requests_per_session) {
    set_reason("session volume " + std::to_string(static_cast<int>(f.total_requests)) +
               " exceeds threshold");
    return true;
  }
  if (f.requests_per_minute > thresholds_.max_requests_per_minute && f.total_requests >= 10) {
    set_reason("request rate exceeds threshold");
    return true;
  }
  if (f.total_requests >= 20 &&
      f.mean_interarrival_seconds < thresholds_.min_mean_interarrival_seconds) {
    set_reason("machine-speed pacing");
    return true;
  }
  if (f.search_requests > thresholds_.max_search_requests) {
    set_reason("exploratory search volume");
    return true;
  }
  if (thresholds_.trap_file_is_bot && f.trap_file_hits > 0) {
    set_reason("accessed trap file");
    return true;
  }
  return false;
}

void VolumeThresholdDetector::analyze(const std::vector<web::Session>& sessions,
                                      AlertSink& sink) const {
  for (const auto& session : sessions) {
    const auto features = web::extract_features(session);
    std::string reason;
    if (!is_bot(features, &reason)) continue;
    Alert alert;
    alert.time = session.end();
    alert.detector = "behavior.volume";
    alert.severity = Severity::Warning;
    alert.explanation = reason;
    alert.session = session.id;
    alert.actor = session.actor;
    if (!session.requests.empty()) {
      alert.fingerprint = session.requests.front().fp_hash;
      alert.ip = session.requests.front().ip;
    }
    sink.emit(std::move(alert));
  }
}

BehaviorClassifier::BehaviorClassifier(ClassifierKind kind) : kind_(kind) {}

void BehaviorClassifier::train(const std::vector<web::SessionFeatures>& features,
                               const std::vector<int>& labels, sim::Rng& rng) {
  Dataset data;
  for (const auto& f : features) data.rows.push_back(to_row(f));
  data.labels = labels;
  scaler_.fit(data.rows);
  data.rows = scaler_.transform(data.rows);
  if (kind_ == ClassifierKind::Logistic) {
    logistic_.train(data, rng);
  } else {
    bayes_.train(data);
  }
  trained_ = true;
}

double BehaviorClassifier::score(const web::SessionFeatures& features) const {
  if (!trained_) return 0.0;
  const auto row = scaler_.transform(to_row(features));
  return kind_ == ClassifierKind::Logistic ? logistic_.predict_proba(row)
                                           : bayes_.predict_proba(row);
}

bool BehaviorClassifier::is_bot(const web::SessionFeatures& features, double threshold) const {
  return score(features) >= threshold;
}

void BehaviorClassifier::analyze(const std::vector<web::Session>& sessions, AlertSink& sink,
                                 double threshold) const {
  for (const auto& session : sessions) {
    const auto features = web::extract_features(session);
    const double p = score(features);
    if (p < threshold) continue;
    Alert alert;
    alert.time = session.end();
    alert.detector = "behavior.classifier";
    alert.severity = Severity::Warning;
    alert.explanation = "classifier score " + util::format_fixed(p, 6);
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
