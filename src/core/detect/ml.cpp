#include "core/detect/ml.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace fraudsim::detect {

namespace {

[[nodiscard]] double sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

void StandardScaler::fit(const std::vector<FeatureRow>& rows) {
  if (rows.empty()) return;
  const std::size_t dims = rows.front().size();
  mean_.assign(dims, 0.0);
  stddev_.assign(dims, 0.0);
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < dims; ++i) mean_[i] += row[i];
  }
  for (double& m : mean_) m /= static_cast<double>(rows.size());
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < dims; ++i) {
      const double d = row[i] - mean_[i];
      stddev_[i] += d * d;
    }
  }
  for (double& s : stddev_) {
    s = std::sqrt(s / static_cast<double>(rows.size()));
    if (s < 1e-12) s = 1.0;  // constant feature: pass through centred
  }
}

FeatureRow StandardScaler::transform(const FeatureRow& row) const {
  assert(fitted());
  FeatureRow out(row.size());
  for (std::size_t i = 0; i < row.size(); ++i) out[i] = (row[i] - mean_[i]) / stddev_[i];
  return out;
}

std::vector<FeatureRow> StandardScaler::transform(const std::vector<FeatureRow>& rows) const {
  std::vector<FeatureRow> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(transform(row));
  return out;
}

LogisticRegression::LogisticRegression(LogisticConfig config) : config_(config) {}

void LogisticRegression::train(const Dataset& data, sim::Rng& rng) {
  const std::size_t n = data.size();
  const std::size_t dims = data.dims();
  if (n == 0 || dims == 0) return;
  weights_.assign(dims, 0.0);
  bias_ = 0.0;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order.begin(), order.end());
    for (std::size_t start = 0; start < n; start += config_.batch_size) {
      const std::size_t end = std::min(start + config_.batch_size, n);
      std::vector<double> grad(dims, 0.0);
      double grad_bias = 0.0;
      for (std::size_t idx = start; idx < end; ++idx) {
        const auto& row = data.rows[order[idx]];
        const double y = static_cast<double>(data.labels[order[idx]]);
        double z = bias_;
        for (std::size_t i = 0; i < dims; ++i) z += weights_[i] * row[i];
        const double err = sigmoid(z) - y;
        for (std::size_t i = 0; i < dims; ++i) grad[i] += err * row[i];
        grad_bias += err;
      }
      const double scale = config_.learning_rate / static_cast<double>(end - start);
      for (std::size_t i = 0; i < dims; ++i) {
        weights_[i] -= scale * (grad[i] + config_.l2 * weights_[i]);
      }
      bias_ -= scale * grad_bias;
    }
  }
}

double LogisticRegression::predict_proba(const FeatureRow& row) const {
  if (weights_.empty()) return 0.5;
  double z = bias_;
  for (std::size_t i = 0; i < std::min(row.size(), weights_.size()); ++i) {
    z += weights_[i] * row[i];
  }
  return sigmoid(z);
}

int LogisticRegression::predict(const FeatureRow& row, double threshold) const {
  return predict_proba(row) >= threshold ? 1 : 0;
}

}  // namespace fraudsim::detect
