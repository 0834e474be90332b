// Synthetic IP geolocation.
//
// Real SMS-pumping bots route traffic through residential proxies whose exit
// country matches the destination phone number (paper §IV-C). To reproduce
// that, we need an IP plane with country semantics: GeoDb deterministically
// carves the 100.64.0.0/10-like synthetic space into per-country blocks and
// resolves any address back to its country.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/ip.hpp"

namespace fraudsim::net {

// ISO-3166-alpha-2 style country code packed into 16 bits.
class CountryCode {
 public:
  constexpr CountryCode() = default;
  constexpr CountryCode(char a, char b)
      : packed_(static_cast<std::uint16_t>((static_cast<unsigned char>(a) << 8) |
                                           static_cast<unsigned char>(b))) {}
  [[nodiscard]] static std::optional<CountryCode> parse(std::string_view s);

  [[nodiscard]] constexpr bool valid() const { return packed_ != 0; }
  [[nodiscard]] std::string str() const;
  [[nodiscard]] constexpr std::uint16_t packed() const { return packed_; }

  friend constexpr bool operator==(CountryCode a, CountryCode b) { return a.packed_ == b.packed_; }
  friend constexpr bool operator!=(CountryCode a, CountryCode b) { return a.packed_ != b.packed_; }
  friend constexpr bool operator<(CountryCode a, CountryCode b) { return a.packed_ < b.packed_; }

  // Archived as the u16 packed() value (util/archive.hpp).
  template <class Ar>
  void visit(Ar& ar) {
    ar(packed_);
  }

 private:
  std::uint16_t packed_ = 0;
};

struct CountryInfo {
  CountryCode code;
  std::string name;
  // Relative weight of this country in the legitimate customer population.
  double population_weight = 1.0;
};

// The library's built-in country registry: the 10 countries of Table I plus
// enough additional countries (>50) to model 42-country SMS-pumping attacks
// and a diverse legitimate population.
[[nodiscard]] const std::vector<CountryInfo>& world_countries();

[[nodiscard]] const CountryInfo* find_country(CountryCode code);

class GeoDb {
 public:
  // Builds the synthetic address plan for all world_countries(): each country
  // gets one /12 for residential space and one /16 for datacenter space.
  GeoDb();

  [[nodiscard]] std::optional<CountryCode> country_of(IpV4 ip) const;
  [[nodiscard]] bool is_datacenter(IpV4 ip) const;

  // Block allocated to a country; nullopt for unknown codes.
  [[nodiscard]] std::optional<Cidr> residential_block(CountryCode country) const;
  [[nodiscard]] std::optional<Cidr> datacenter_block(CountryCode country) const;

  [[nodiscard]] const std::vector<CountryInfo>& countries() const { return world_countries(); }

 private:
  struct Blocks {
    Cidr residential;
    Cidr datacenter;
  };
  std::unordered_map<std::uint16_t, Blocks> blocks_;
};

}  // namespace fraudsim::net

namespace std {
template <>
struct hash<fraudsim::net::CountryCode> {
  size_t operator()(fraudsim::net::CountryCode c) const noexcept {
    return std::hash<std::uint16_t>{}(c.packed());
  }
};
}  // namespace std
