// Strong integer ID types.
//
// `StrongId<Tag>` wraps a uint64 so that a FlightId cannot be passed where a
// SessionId is expected. IDs are ordered and hashable so they can key standard
// containers. Value 0 is reserved as "invalid".
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace fraudsim::util {

template <typename Tag>
class StrongId {
 public:
  constexpr StrongId() = default;
  constexpr explicit StrongId(std::uint64_t value) : value_(value) {}

  [[nodiscard]] constexpr std::uint64_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != 0; }

  friend constexpr bool operator==(StrongId a, StrongId b) { return a.value_ == b.value_; }
  friend constexpr bool operator!=(StrongId a, StrongId b) { return a.value_ != b.value_; }
  friend constexpr bool operator<(StrongId a, StrongId b) { return a.value_ < b.value_; }
  friend constexpr bool operator>(StrongId a, StrongId b) { return a.value_ > b.value_; }
  friend constexpr bool operator<=(StrongId a, StrongId b) { return a.value_ <= b.value_; }
  friend constexpr bool operator>=(StrongId a, StrongId b) { return a.value_ >= b.value_; }

  [[nodiscard]] std::string str() const { return std::to_string(value_); }

  // Archived as its u64 value (util/archive.hpp).
  template <class Ar>
  void visit(Ar& ar) {
    ar(value_);
  }

 private:
  std::uint64_t value_ = 0;
};

// Monotonic generator for a given ID type. Not thread-safe by design: the
// simulator is single-threaded and determinism matters more than concurrency.
template <typename Id>
class IdGenerator {
 public:
  [[nodiscard]] Id next() { return Id{++last_}; }
  [[nodiscard]] std::uint64_t issued() const { return last_; }

 private:
  std::uint64_t last_ = 0;
};

}  // namespace fraudsim::util

namespace std {
template <typename Tag>
struct hash<fraudsim::util::StrongId<Tag>> {
  size_t operator()(fraudsim::util::StrongId<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
}  // namespace std
