// IPv4 addresses and CIDR blocks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace fraudsim::net {

class IpV4 {
 public:
  constexpr IpV4() = default;
  constexpr explicit IpV4(std::uint32_t value) : value_(value) {}

  [[nodiscard]] static std::optional<IpV4> parse(std::string_view dotted);

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] std::string str() const;

  friend constexpr bool operator==(IpV4 a, IpV4 b) { return a.value_ == b.value_; }
  friend constexpr bool operator!=(IpV4 a, IpV4 b) { return a.value_ != b.value_; }
  friend constexpr bool operator<(IpV4 a, IpV4 b) { return a.value_ < b.value_; }

  // Archived as its u32 value (util/archive.hpp).
  template <class Ar>
  void visit(Ar& ar) {
    ar(value_);
  }

 private:
  std::uint32_t value_ = 0;
};

// A CIDR block: base address + prefix length.
class Cidr {
 public:
  constexpr Cidr() = default;
  Cidr(IpV4 base, int prefix_len);

  [[nodiscard]] static std::optional<Cidr> parse(std::string_view text);  // "10.0.0.0/8"

  [[nodiscard]] IpV4 base() const { return base_; }
  [[nodiscard]] int prefix_len() const { return prefix_len_; }
  [[nodiscard]] std::uint32_t size() const;  // number of addresses
  [[nodiscard]] bool contains(IpV4 ip) const;
  // The i-th address in the block (i < size()).
  [[nodiscard]] IpV4 at(std::uint32_t i) const;
  [[nodiscard]] std::string str() const;

  // Archived as base + prefix length; a restore re-derives the mask and
  // rejects a prefix length outside [0, 32].
  template <class Ar>
  void visit(Ar& ar) {
    ar(base_, prefix_len_);
    if constexpr (Ar::reading) {
      if (prefix_len_ < 0 || prefix_len_ > 32) {
        ar.fail();
        prefix_len_ = 32;
      }
      *this = Cidr(base_, prefix_len_);
    }
  }

 private:
  IpV4 base_;
  int prefix_len_ = 32;
  std::uint32_t mask_ = 0xFFFFFFFFu;
};

}  // namespace fraudsim::net
