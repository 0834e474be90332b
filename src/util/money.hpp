// Fixed-point money type (micros of a currency unit).
//
// All economics in fraudsim (SMS termination fees, proxy costs, lost revenue)
// use Money; floating point is never used for accounting.
#pragma once

#include <cstdint>
#include <string>

namespace fraudsim::util {

class Money {
 public:
  constexpr Money() = default;

  [[nodiscard]] static constexpr Money from_micros(std::int64_t micros) {
    Money m;
    m.micros_ = micros;
    return m;
  }
  [[nodiscard]] static constexpr Money from_cents(std::int64_t cents) {
    return from_micros(cents * 10'000);
  }
  [[nodiscard]] static constexpr Money from_units(std::int64_t units) {
    return from_micros(units * 1'000'000);
  }
  // Rounds to nearest micro. Only for constructing configuration constants.
  [[nodiscard]] static Money from_double(double units);

  [[nodiscard]] constexpr std::int64_t micros() const { return micros_; }
  [[nodiscard]] double to_double() const { return static_cast<double>(micros_) / 1e6; }

  constexpr Money& operator+=(Money o) {
    micros_ += o.micros_;
    return *this;
  }
  constexpr Money& operator-=(Money o) {
    micros_ -= o.micros_;
    return *this;
  }

  friend constexpr Money operator+(Money a, Money b) { return from_micros(a.micros_ + b.micros_); }
  friend constexpr Money operator-(Money a, Money b) { return from_micros(a.micros_ - b.micros_); }
  friend constexpr Money operator-(Money a) { return from_micros(-a.micros_); }
  friend constexpr Money operator*(Money a, std::int64_t k) { return from_micros(a.micros_ * k); }
  friend constexpr Money operator*(std::int64_t k, Money a) { return a * k; }
  friend constexpr Money operator*(Money a, int k) { return a * static_cast<std::int64_t>(k); }
  friend constexpr Money operator*(int k, Money a) { return a * static_cast<std::int64_t>(k); }
  // Fractional scaling rounds to nearest micro (ties away from zero).
  friend Money operator*(Money a, double f);

  friend constexpr bool operator==(Money a, Money b) { return a.micros_ == b.micros_; }
  friend constexpr bool operator!=(Money a, Money b) { return a.micros_ != b.micros_; }
  friend constexpr bool operator<(Money a, Money b) { return a.micros_ < b.micros_; }
  friend constexpr bool operator>(Money a, Money b) { return a.micros_ > b.micros_; }
  friend constexpr bool operator<=(Money a, Money b) { return a.micros_ <= b.micros_; }
  friend constexpr bool operator>=(Money a, Money b) { return a.micros_ >= b.micros_; }

  // "$12.34" / "-$0.002" style rendering with up to 4 decimal places.
  [[nodiscard]] std::string str() const;

  // Archived as i64 micros (util/archive.hpp).
  template <class Ar>
  void visit(Ar& ar) {
    ar(micros_);
  }

 private:
  std::int64_t micros_ = 0;
};

}  // namespace fraudsim::util
