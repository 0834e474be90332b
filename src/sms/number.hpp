// Phone numbers with country affiliation.
#pragma once

#include <string>

#include "net/geo.hpp"
#include "sim/rng.hpp"

namespace fraudsim::sms {

struct PhoneNumber {
  net::CountryCode country;
  std::string subscriber;  // national significant number (digits)

  [[nodiscard]] std::string str() const;  // "+<cc-hash> <subscriber>"

  friend bool operator==(const PhoneNumber& a, const PhoneNumber& b) {
    return a.country == b.country && a.subscriber == b.subscriber;
  }
  friend bool operator<(const PhoneNumber& a, const PhoneNumber& b) {
    if (a.country != b.country) return a.country < b.country;
    return a.subscriber < b.subscriber;
  }

  // Wire field list (journal records; util/archive.hpp).
  template <class Ar>
  void visit(Ar& ar) {
    ar(country, subscriber);
  }
};

// Deterministically random subscriber numbers in a country. SMS-pumping rings
// hold *lists* of numbers per country (paper §II-B), so the generator can
// also pre-build a fixed pool to cycle through.
class NumberGenerator {
 public:
  explicit NumberGenerator(sim::Rng rng);

  [[nodiscard]] PhoneNumber random_number(net::CountryCode country);
  [[nodiscard]] std::vector<PhoneNumber> build_pool(net::CountryCode country, std::size_t size);

 private:
  sim::Rng rng_;
};

}  // namespace fraudsim::sms
