#include "airline/passenger.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace fraudsim::airline {

std::string Passenger::name_key() const {
  return util::to_lower(first_name) + "|" + util::to_lower(surname);
}

std::string Passenger::identity_key() const { return name_key() + "|" + birthdate.str(); }

std::string party_key(const std::vector<Passenger>& party) {
  std::vector<std::string> keys;
  keys.reserve(party.size());
  for (const auto& p : party) keys.push_back(p.name_key());
  std::sort(keys.begin(), keys.end());
  return util::join(keys, "+");
}

}  // namespace fraudsim::airline
