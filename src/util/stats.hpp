// Statistics primitives shared by detectors, analytics, and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/archive.hpp"

namespace fraudsim::util {

// Streaming mean/variance/min/max (Welford).
class RunningStats : public Checkpointed<RunningStats> {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  // sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

  void merge(const RunningStats& other);

  // Lossless byte round-trip (fleet result shards persisted for crash
  // recovery): restore(checkpoint(x)) == x including the Welford internals.
  template <class Ar>
  void visit(Ar& ar) {
    ar(n_, mean_, m2_, min_, max_, sum_);
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// p in [0,1]; linear interpolation between order statistics. Sorts a copy.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

// Pearson chi-square statistic between observed counts and expected counts
// scaled to the observed total. Buckets with expected < 1e-9 are skipped.
[[nodiscard]] double chi_square(const std::vector<double>& observed,
                                const std::vector<double>& expected);

// Chi-square critical value is approximated for alert thresholds via the
// Wilson-Hilferty transformation: returns the approximate p-value-like score,
// P(X^2_k >= x) where k = dof.
[[nodiscard]] double chi_square_tail(double x, std::size_t dof);

// KL divergence D(P || Q) in bits, with epsilon smoothing. Distributions are
// normalised internally from raw counts.
[[nodiscard]] double kl_divergence(const std::vector<double>& p_counts,
                                   const std::vector<double>& q_counts);

// Jensen-Shannon divergence in bits; symmetric, bounded by 1.
[[nodiscard]] double js_divergence(const std::vector<double>& p_counts,
                                   const std::vector<double>& q_counts);

// Binary-classification tallies and derived metrics.
struct ConfusionCounts : Checkpointed<ConfusionCounts> {
  std::uint64_t tp = 0;
  std::uint64_t fp = 0;
  std::uint64_t tn = 0;
  std::uint64_t fn = 0;

  void add(bool predicted_positive, bool actually_positive);
  // Element-wise sum: merging per-shard confusion tallies equals scoring the
  // concatenated predictions (self-merge doubles every cell).
  void merge(const ConfusionCounts& other);
  template <class Ar>
  void visit(Ar& ar) {
    ar(tp, fp, tn, fn);
  }
  [[nodiscard]] double precision() const;
  [[nodiscard]] double recall() const;
  [[nodiscard]] double f1() const;
  [[nodiscard]] double accuracy() const;
  [[nodiscard]] double false_positive_rate() const;
  [[nodiscard]] std::uint64_t total() const { return tp + fp + tn + fn; }
};

}  // namespace fraudsim::util
