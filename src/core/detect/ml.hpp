// Minimal from-scratch ML toolkit for behaviour-based detection (§III-A).
//
// No external ML dependency: a feature scaler and L2-regularised logistic
// regression trained by mini-batch SGD — the classifier family the
// web-bot-detection literature the paper cites uses on session features.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"

namespace fraudsim::detect {

using FeatureRow = std::vector<double>;

struct Dataset {
  std::vector<FeatureRow> rows;
  std::vector<int> labels;  // 0 = benign, 1 = bot

  [[nodiscard]] std::size_t size() const { return rows.size(); }
  [[nodiscard]] std::size_t dims() const { return rows.empty() ? 0 : rows.front().size(); }
};

// Z-score standardisation fitted on training data.
class StandardScaler {
 public:
  void fit(const std::vector<FeatureRow>& rows);
  [[nodiscard]] FeatureRow transform(const FeatureRow& row) const;
  [[nodiscard]] std::vector<FeatureRow> transform(const std::vector<FeatureRow>& rows) const;
  [[nodiscard]] bool fitted() const { return !mean_.empty(); }

 private:
  std::vector<double> mean_;
  std::vector<double> stddev_;
};

struct LogisticConfig {
  double learning_rate = 0.1;
  double l2 = 1e-4;
  int epochs = 60;
  std::size_t batch_size = 32;
};

class LogisticRegression {
 public:
  explicit LogisticRegression(LogisticConfig config = {});

  void train(const Dataset& data, sim::Rng& rng);
  [[nodiscard]] double predict_proba(const FeatureRow& row) const;
  [[nodiscard]] int predict(const FeatureRow& row, double threshold = 0.5) const;
  [[nodiscard]] const std::vector<double>& weights() const { return weights_; }

 private:
  LogisticConfig config_;
  std::vector<double> weights_;
  double bias_ = 0.0;
};

}  // namespace fraudsim::detect
