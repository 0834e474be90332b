// Seeded random number generation.
//
// Every stochastic decision in the simulator flows from an Rng that is seeded
// explicitly by the scenario; forked child streams (`fork`) keep subsystems
// independent of each other's consumption order, which makes scenarios stable
// under refactoring.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "util/archive.hpp"

namespace fraudsim::sim {

class Rng : public util::Checkpointed<Rng> {
 public:
  explicit Rng(std::uint64_t seed);

  // Derive an independent child stream; deterministic in (parent seed, label).
  [[nodiscard]] Rng fork(std::string_view label) const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  bool bernoulli(double p);
  // Exponential with the given mean (not rate).
  double exponential(double mean);
  double normal(double mean, double stddev);
  // Log-normal parameterised by the mean/stddev of the *underlying* normal.
  double lognormal(double mu, double sigma);
  std::int64_t poisson(double mean);

  // Index sampled proportionally to non-negative weights. Weights summing to
  // zero return index 0.
  std::size_t weighted_index(std::span<const double> weights);

  // Uniformly random element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    return items[static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return pick(std::span<const T>(items));
  }

  template <typename It>
  void shuffle(It first, It last) {
    std::shuffle(first, last, engine_);
  }

  // Lowercase alphabetic string of the given length.
  std::string random_lowercase(std::size_t length);
  // Digit string of the given length (no leading-zero restriction).
  std::string random_digits(std::size_t length);

  std::mt19937_64& engine() { return engine_; }

  // Checkpoint support: captures/restores the full engine state (mt19937_64
  // serialises via its stream operators), so a restored stream continues the
  // original draw sequence exactly. Distribution objects are constructed
  // fresh per call throughout the codebase, so engine state is the whole
  // story.
  template <class Ar>
  void visit(Ar& ar);

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace fraudsim::sim
