#include "sim/rng.hpp"

#include <algorithm>
#include <cmath>
#include <locale>
#include <sstream>

#include "util/hash.hpp"

namespace fraudsim::sim {

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(util::splitmix64(seed)) {}

Rng Rng::fork(std::string_view label) const {
  return Rng(util::hash_combine(seed_, util::fnv1a(label)));
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(engine_);
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) return 0.0;
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

double Rng::normal(double mean, double stddev) {
  if (stddev <= 0.0) return mean;
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::lognormal(double mu, double sigma) {
  return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

std::int64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  return std::poisson_distribution<std::int64_t>(mean)(engine_);
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  // Non-finite weights are treated as zero. A NaN would otherwise poison the
  // running total (std::max(NaN, 0.0) is NaN), dodge the `total <= 0.0` guard
  // and hand NaN bounds to uniform_real_distribution — undefined behaviour.
  // An inf weight would make `total` inf and the walk below meaningless.
  const auto eligible = [](double w) { return std::isfinite(w) && w > 0.0; };
  double total = 0.0;
  std::size_t last = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (!eligible(weights[i])) continue;
    total += weights[i];
    last = i;
  }
  if (total <= 0.0) return 0;
  double r = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (!eligible(weights[i])) continue;
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  return last;  // floating-point slack: land on the last eligible weight
}

std::string Rng::random_lowercase(std::size_t length) {
  std::string s(length, 'a');
  for (char& c : s) {
    c = static_cast<char>('a' + uniform_int(0, 25));
  }
  return s;
}

template <class Ar>
void Rng::visit(Ar& ar) {
  // mt19937_64's textual state is a space-separated integer list. Imbue the
  // classic locale explicitly: under a grouping global locale the integers
  // would be written as "4.294.967.295", corrupting the checkpoint bytes and
  // making a restore on a plain-"C" host fail to parse.
  std::stringstream state;
  state.imbue(std::locale::classic());
  if constexpr (!Ar::reading) state << engine_;
  std::string text = state.str();
  ar(seed_, text);
  if constexpr (Ar::reading) {
    state.str(text);
    state >> engine_;
  }
}
template void Rng::visit(util::ByteWriter&);
template void Rng::visit(util::ByteReader&);

std::string Rng::random_digits(std::size_t length) {
  std::string s(length, '0');
  for (char& c : s) {
    c = static_cast<char>('0' + uniform_int(0, 9));
  }
  return s;
}

}  // namespace fraudsim::sim
