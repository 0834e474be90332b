// Flights.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "util/ids.hpp"

namespace fraudsim::airline {

struct FlightTag {};
using FlightId = util::StrongId<FlightTag>;

struct Flight {
  FlightId id;
  std::string airline;   // "A", "B", ... (anonymised like the paper)
  int number = 0;        // flight number
  int capacity = 180;    // sellable seats
  sim::SimTime departure = 0;

  [[nodiscard]] std::string designator() const;  // e.g. "A1204"

  template <class Ar>
  void visit(Ar& ar) {
    ar(id, airline, number, capacity, departure);
  }
};

}  // namespace fraudsim::airline
