#include "analytics/timeseries.hpp"

#include <cassert>

namespace fraudsim::analytics {

TimeSeries::TimeSeries(sim::SimDuration bucket_width) : width_(bucket_width) {
  assert(bucket_width > 0);
}

void TimeSeries::add(sim::SimTime t, double value) {
  if (t < 0) t = 0;
  const auto bucket = static_cast<std::size_t>(t / width_);
  if (bucket >= values_.size()) values_.resize(bucket + 1, 0.0);
  values_[bucket] += value;
}

double TimeSeries::bucket_value(std::size_t i) const {
  return i < values_.size() ? values_[i] : 0.0;
}

sim::SimTime TimeSeries::bucket_start(std::size_t i) const {
  return static_cast<sim::SimTime>(i) * width_;
}

double TimeSeries::total() const {
  double t = 0.0;
  for (double v : values_) t += v;
  return t;
}

double TimeSeries::sum_range(sim::SimTime from, sim::SimTime to) const {
  double total = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const sim::SimTime start = bucket_start(i);
    const sim::SimTime end = start + width_;
    if (end <= from || start >= to) continue;
    total += values_[i];
  }
  return total;
}

std::int64_t TimeSeries::first_bucket_at_least(double threshold) const {
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] >= threshold) return static_cast<std::int64_t>(i);
  }
  return -1;
}

}  // namespace fraudsim::analytics
