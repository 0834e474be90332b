// Passenger records.
//
// Holding a reservation requires passenger details (paper §IV-B): name,
// surname, birthdate, email. The identity keys defined here are what the
// name-pattern detectors aggregate on.
#pragma once

#include <string>
#include <vector>

#include "airline/date.hpp"

namespace fraudsim::airline {

struct Passenger {
  std::string first_name;
  std::string surname;
  Date birthdate;
  std::string email;

  // Case-insensitive "first|surname" key (identity modulo birthdate).
  [[nodiscard]] std::string name_key() const;
  // Full identity key including birthdate.
  [[nodiscard]] std::string identity_key() const;

  // Wire field list (journal records, state checkpoints; util/archive.hpp).
  template <class Ar>
  void visit(Ar& ar) {
    ar(first_name, surname, birthdate.year, birthdate.month, birthdate.day, email);
  }
};

// Canonical multiset key for a whole party: sorted name keys joined by '+'.
// Two bookings holding the same people in a different order share this key —
// the signature of the manual attack in §IV-B (Airline C).
[[nodiscard]] std::string party_key(const std::vector<Passenger>& party);

}  // namespace fraudsim::airline
