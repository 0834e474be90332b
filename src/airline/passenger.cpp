#include "airline/passenger.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace fraudsim::airline {

std::string Passenger::name_key() const {
  std::string key(first_name.size() + 1 + surname.size(), '|');
  std::transform(first_name.begin(), first_name.end(), key.begin(), util::lower);
  std::transform(surname.begin(), surname.end(), key.begin() + 1 + first_name.size(),
                 util::lower);
  return key;
}

std::string Passenger::identity_key() const { return name_key() + "|" + birthdate.str(); }

std::string party_key(const std::vector<Passenger>& party) {
  std::vector<std::string> keys;
  keys.reserve(party.size());
  for (const auto& p : party) keys.push_back(p.name_key());
  std::vector<std::string_view> views(keys.begin(), keys.end());
  std::string out;
  party_key(views, out);
  return out;
}

void party_key(std::span<std::string_view> name_keys, std::string& out) {
  std::sort(name_keys.begin(), name_keys.end());
  out.clear();
  for (std::size_t i = 0; i < name_keys.size(); ++i) {
    if (i != 0) out += '+';
    out += name_keys[i];
  }
}

}  // namespace fraudsim::airline
