#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "core/detect/ml.hpp"

namespace fraudsim::detect {
namespace {

// Two well-separated Gaussian blobs, labelled 0/1.
Dataset two_blobs(sim::Rng& rng, std::size_t per_class, double separation) {
  Dataset data;
  for (std::size_t i = 0; i < per_class; ++i) {
    data.rows.push_back({rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)});
    data.labels.push_back(0);
    data.rows.push_back({rng.normal(separation, 1.0), rng.normal(separation, 1.0)});
    data.labels.push_back(1);
  }
  return data;
}

double accuracy_of(const Dataset& test, const std::function<int(const FeatureRow&)>& predict) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (predict(test.rows[i]) == test.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

// --- StandardScaler ----------------------------------------------------------

TEST(StandardScaler, CentersAndScales) {
  StandardScaler scaler;
  scaler.fit({{0, 10}, {2, 20}, {4, 30}});
  const auto t = scaler.transform({2, 20});
  EXPECT_NEAR(t[0], 0.0, 1e-9);
  EXPECT_NEAR(t[1], 0.0, 1e-9);
  const auto hi = scaler.transform({4, 30});
  EXPECT_GT(hi[0], 0.9);
  EXPECT_GT(hi[1], 0.9);
}

TEST(StandardScaler, ConstantFeaturePassesThrough) {
  StandardScaler scaler;
  scaler.fit({{5, 1}, {5, 2}, {5, 3}});
  const auto t = scaler.transform({5, 2});
  EXPECT_NEAR(t[0], 0.0, 1e-9);  // centred, unit divisor
  EXPECT_FALSE(std::isnan(t[1]));
}

// --- LogisticRegression -----------------------------------------------------------

TEST(LogisticRegression, SeparatesBlobs) {
  sim::Rng rng(1);
  const auto train = two_blobs(rng, 210, 4.0);
  const auto test = two_blobs(rng, 90, 4.0);  // held out: drawn apart from the training set
  LogisticRegression model;
  model.train(train, rng);
  const double acc = accuracy_of(test, [&](const FeatureRow& r) { return model.predict(r); });
  EXPECT_GT(acc, 0.95);
}

TEST(LogisticRegression, ProbabilitiesAreCalibratedDirectionally) {
  sim::Rng rng(2);
  const auto data = two_blobs(rng, 300, 4.0);
  LogisticRegression model;
  model.train(data, rng);
  EXPECT_LT(model.predict_proba({0.0, 0.0}), 0.3);
  EXPECT_GT(model.predict_proba({4.0, 4.0}), 0.7);
}

TEST(LogisticRegression, UntrainedReturnsHalf) {
  LogisticRegression model;
  EXPECT_DOUBLE_EQ(model.predict_proba({1, 2, 3}), 0.5);
}

TEST(LogisticRegression, EmptyDatasetIsNoOp) {
  LogisticRegression model;
  sim::Rng rng(3);
  model.train(Dataset{}, rng);
  EXPECT_DOUBLE_EQ(model.predict_proba({1.0}), 0.5);
}

}  // namespace
}  // namespace fraudsim::detect
