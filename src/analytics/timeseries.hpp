// Time-bucketed counters over SimTime.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/archive.hpp"

namespace fraudsim::analytics {

class TimeSeries : public util::Checkpointed<TimeSeries> {
 public:
  // Buckets of `bucket_width` starting at time 0.
  explicit TimeSeries(sim::SimDuration bucket_width);

  void add(sim::SimTime t, double value = 1.0);

  [[nodiscard]] sim::SimDuration bucket_width() const { return width_; }
  [[nodiscard]] std::size_t buckets() const { return values_.size(); }
  [[nodiscard]] double bucket_value(std::size_t i) const;
  [[nodiscard]] sim::SimTime bucket_start(std::size_t i) const;
  [[nodiscard]] double total() const;

  // Sum of values with t in [from, to).
  [[nodiscard]] double sum_range(sim::SimTime from, sim::SimTime to) const;

  // Index of the first bucket whose value is >= threshold; -1 if none.
  [[nodiscard]] std::int64_t first_bucket_at_least(double threshold) const;

  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  template <class Ar>
  void visit(Ar& ar) {
    ar(width_, values_);
  }

 private:
  sim::SimDuration width_;
  std::vector<double> values_;
};

}  // namespace fraudsim::analytics
