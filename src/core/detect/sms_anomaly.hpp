// SMS anomaly detection (§IV-C).
//
// Three monitors matching the case study:
//   * per-country surge          — the Table I analysis as a detector
//   * per-booking-reference rate — the control that was missing in Dec 2022
//   * path-level volume monitor  — the control that eventually fired,
//                                  late, after significant spend
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analytics/compare.hpp"
#include "core/detect/alert.hpp"
#include "sms/gateway.hpp"

namespace fraudsim::detect {

struct SmsAnomalyConfig {
  // Surge detector: flag countries whose per-day volume grows by more than
  // this fraction over baseline, given enough absolute volume.
  double surge_threshold = 3.0;        // +300%
  std::uint64_t min_volume = 30;       // during-window absolute floor
  // Floor applied to per-day baseline rates when computing surges, so a
  // destination that received (almost) nothing before the attack yields a
  // huge-but-finite surge instead of a division by zero.
  double min_baseline_per_day = 0.05;
  // Path monitor: total boarding-pass SMS per day that trips the alarm.
  double path_daily_limit = 2000;
  // Booking-reference monitor: sends per PNR that trip the alarm.
  std::uint64_t per_booking_limit = 10;
};

struct CountrySurge {
  net::CountryCode country;
  double baseline = 0;
  double during = 0;
  double surge_fraction = 0;
};

class SmsAnomalyDetector {
 public:
  explicit SmsAnomalyDetector(SmsAnomalyConfig config = {});

  // Per-country surge between a baseline window and an observation window,
  // ranked by surge descending. Considers only delivered messages of `type`
  // (nullopt = all).
  [[nodiscard]] std::vector<CountrySurge> country_surges(
      const sms::SmsGateway& gateway, sim::SimTime baseline_from, sim::SimTime baseline_to,
      sim::SimTime during_from, sim::SimTime during_to,
      std::optional<sms::SmsType> type = {}) const;

  // First sim-time at which cumulative boarding-pass sends in any rolling day
  // exceed the path limit; nullopt if never.
  [[nodiscard]] std::optional<sim::SimTime> path_limit_trip_time(
      const sms::SmsGateway& gateway) const;

  // First sim-time at which any single booking reference exceeds the
  // per-booking limit; nullopt if never.
  [[nodiscard]] std::optional<sim::SimTime> per_booking_trip_time(
      const sms::SmsGateway& gateway) const;

  // Emits surge alerts + whichever rate monitors trip.
  void analyze(const sms::SmsGateway& gateway, sim::SimTime baseline_from,
               sim::SimTime baseline_to, sim::SimTime during_from, sim::SimTime during_to,
               AlertSink& sink) const;

  [[nodiscard]] const SmsAnomalyConfig& config() const { return config_; }

 private:
  SmsAnomalyConfig config_;
};

}  // namespace fraudsim::detect
