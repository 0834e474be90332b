#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fraudsim::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return n_ == 0 ? 0.0 : min_; }
double RunningStats::max() const { return n_ == 0 ? 0.0 : max_; }

void RunningStats::merge(const RunningStats& other) {
  // Self-merge aliases `other` onto `*this`: the Chan update would read
  // other.mean_/other.m2_ mid-mutation and corrupt the moments. Merging a
  // shard with itself is well-defined (the data concatenated with itself), so
  // run the update against a snapshot instead.
  if (&other == this) {
    const RunningStats copy = *this;
    merge(copy);
    return;
  }
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  // NaN propagates through clamp and makes the index cast undefined.
  if (std::isnan(p)) p = 0.0;
  p = std::clamp(p, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double chi_square(const std::vector<double>& observed, const std::vector<double>& expected) {
  const std::size_t n = std::min(observed.size(), expected.size());
  double obs_total = 0.0;
  double exp_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    obs_total += observed[i];
    exp_total += expected[i];
  }
  if (obs_total <= 0.0 || exp_total <= 0.0) return 0.0;
  const double scale = obs_total / exp_total;
  double stat = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = expected[i] * scale;
    if (e < 1e-9) continue;
    const double d = observed[i] - e;
    stat += d * d / e;
  }
  return stat;
}

double chi_square_tail(double x, std::size_t dof) {
  if (dof == 0) return 1.0;
  if (x <= 0.0) return 1.0;
  // Wilson-Hilferty: X^2_k scaled to approximately normal.
  const double k = static_cast<double>(dof);
  const double z = (std::cbrt(x / k) - (1.0 - 2.0 / (9.0 * k))) / std::sqrt(2.0 / (9.0 * k));
  // Normal upper tail via erfc.
  return 0.5 * std::erfc(z / std::sqrt(2.0));
}

namespace {
std::vector<double> normalise(const std::vector<double>& counts, std::size_t n, double eps) {
  std::vector<double> p(n, eps);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double c = i < counts.size() ? std::max(counts[i], 0.0) : 0.0;
    p[i] += c;
  }
  for (double v : p) total += v;
  for (double& v : p) v /= total;
  return p;
}
}  // namespace

double kl_divergence(const std::vector<double>& p_counts, const std::vector<double>& q_counts) {
  const std::size_t n = std::max(p_counts.size(), q_counts.size());
  if (n == 0) return 0.0;
  constexpr double kEps = 1e-9;
  const std::vector<double> p = normalise(p_counts, n, kEps);
  const std::vector<double> q = normalise(q_counts, n, kEps);
  double d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    d += p[i] * std::log2(p[i] / q[i]);
  }
  return std::max(d, 0.0);
}

double js_divergence(const std::vector<double>& p_counts, const std::vector<double>& q_counts) {
  const std::size_t n = std::max(p_counts.size(), q_counts.size());
  if (n == 0) return 0.0;
  constexpr double kEps = 1e-9;
  const std::vector<double> p = normalise(p_counts, n, kEps);
  const std::vector<double> q = normalise(q_counts, n, kEps);
  std::vector<double> m(n);
  for (std::size_t i = 0; i < n; ++i) m[i] = 0.5 * (p[i] + q[i]);
  double d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    d += 0.5 * p[i] * std::log2(p[i] / m[i]);
    d += 0.5 * q[i] * std::log2(q[i] / m[i]);
  }
  return std::clamp(d, 0.0, 1.0);
}

void ConfusionCounts::merge(const ConfusionCounts& other) {
  tp += other.tp;
  fp += other.fp;
  tn += other.tn;
  fn += other.fn;
}

void ConfusionCounts::add(bool predicted_positive, bool actually_positive) {
  if (predicted_positive && actually_positive) ++tp;
  if (predicted_positive && !actually_positive) ++fp;
  if (!predicted_positive && actually_positive) ++fn;
  if (!predicted_positive && !actually_positive) ++tn;
}

double ConfusionCounts::precision() const {
  const auto denom = tp + fp;
  return denom == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(denom);
}

double ConfusionCounts::recall() const {
  const auto denom = tp + fn;
  return denom == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(denom);
}

double ConfusionCounts::f1() const {
  const double p = precision();
  const double r = recall();
  return (p + r) <= 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double ConfusionCounts::accuracy() const {
  const auto t = total();
  return t == 0 ? 0.0 : static_cast<double>(tp + tn) / static_cast<double>(t);
}

double ConfusionCounts::false_positive_rate() const {
  const auto denom = fp + tn;
  return denom == 0 ? 0.0 : static_cast<double>(fp) / static_cast<double>(denom);
}

}  // namespace fraudsim::util
