#include "airline/passenger.hpp"

#include <algorithm>
#include <utility>

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
  return party_key(std::move(keys));
}

std::string party_key(std::vector<std::string> name_keys) {
  std::sort(name_keys.begin(), name_keys.end());
  return util::join(name_keys, "+");
}

}  // namespace fraudsim::airline
