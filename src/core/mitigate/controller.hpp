// Mitigation controller: the automated SOC loop.
//
// Periodically sweeps recent telemetry with the advanced detectors and turns
// findings into enforcement:
//   * flagged reservations' fingerprints -> blocklist (block or honeypot)
//   * automation-artifact fingerprints   -> blocklist
//   * NiP-distribution anomaly           -> impose a NiP cap (§IV-A)
//   * SMS path-volume trip               -> disable the SMS feature (§IV-C)
//
// Every action is recorded with its timestamp so benches can measure rule
// lifetimes and attacker reaction latency.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "app/application.hpp"
#include "biometrics/detector.hpp"
#include "core/fault/fault.hpp"
#include "core/obs/metrics.hpp"
#include "core/detect/name_patterns.hpp"
#include "core/detect/nip_anomaly.hpp"
#include "core/detect/sms_anomaly.hpp"
#include "core/mitigate/rules.hpp"

namespace fraudsim::mitigate {

struct ControllerConfig {
  sim::SimDuration sweep_interval = sim::hours(1);
  sim::SimDuration analysis_window = sim::hours(6);
  bool block_flagged_fingerprints = true;
  bool block_artifact_fingerprints = true;
  // A fingerprint is only blocked once this many DISTINCT reservations
  // carrying it have been flagged: popular configurations are shared by many
  // legitimate users, so single-sighting blocking would be indiscriminate.
  std::uint64_t min_flagged_pnrs = 4;
  bool impose_nip_cap = false;
  int nip_cap_value = 4;
  bool disable_sms_on_path_trip = false;
  // §V behavioural enforcement: block fingerprints whose pointer telemetry
  // keeps failing the biometric checks (scripted movement / replays).
  bool block_biometric_flagged = false;
  std::uint64_t min_biometric_hits = 5;
  detect::NipAnomalyConfig nip;
  detect::NamePatternConfig names;
  detect::SmsAnomalyConfig sms;
  biometrics::BiometricThresholds biometric_thresholds;
};

struct EnforcementAction {
  sim::SimTime time = 0;
  std::string kind;    // "fp-block", "nip-cap", "sms-disable", ...
  std::string detail;

  template <class Ar>
  void visit(Ar& ar) {
    ar(time, kind, detail);
  }
};

class MitigationController : public util::Checkpointed<MitigationController> {
 public:
  MitigationController(app::Application& application, RuleEngine& engine,
                       ControllerConfig config);

  // Fit the NiP baseline from a clean reference window (call before start).
  void fit_nip_baseline(sim::SimTime from, sim::SimTime to);

  // Schedules sweeps until `until`.
  void start(sim::SimTime until);

  // One synchronous sweep over [now - window, now) — also callable directly.
  // Guarded by the "detect.sweep.run" fault point: a sweep that lands in an
  // injected outage window is skipped (and counted) instead of enforcing on
  // stale state — the SOC loop goes blind for the window, which is exactly
  // the degradation the outage bench prices.
  void sweep();

  // Sweep tallies, served from the platform metrics registry
  // ("mitigate.sweeps", "mitigate.sweeps_skipped", "mitigate.actions").
  [[nodiscard]] std::uint64_t sweeps() const { return sweeps_.value(); }
  [[nodiscard]] std::uint64_t skipped_sweeps() const { return sweeps_skipped_.value(); }

  [[nodiscard]] const std::vector<EnforcementAction>& actions() const { return actions_; }
  [[nodiscard]] std::optional<sim::SimTime> nip_cap_time() const { return nip_cap_time_; }
  [[nodiscard]] std::optional<sim::SimTime> sms_disable_time() const { return sms_disable_time_; }
  [[nodiscard]] std::size_t fingerprints_blocked() const {
    return engine_.blocklist().size();
  }

  // Checkpoint support: detector baselines, cross-sweep accumulators and the
  // action ledger. The rule engine and application are checkpointed by their
  // owners; sweep-tally counters live in the metrics registry.
  template <class Ar>
  void visit(Ar& ar);

 private:
  void schedule_next();
  void record_action(EnforcementAction action);

  app::Application& app_;
  RuleEngine& engine_;
  ControllerConfig config_;
  detect::NipAnomalyDetector nip_detector_;
  detect::NamePatternAnalyzer name_analyzer_;
  detect::SmsAnomalyDetector sms_detector_;
  sim::SimTime until_ = 0;
  // Distinct flagged reservations seen per fingerprint (across sweeps).
  std::unordered_map<fp::FpHash, std::set<std::string>> flagged_pnrs_;
  // Biometric enforcement state (persistent: replay digests accumulate).
  biometrics::BiometricDetector biometric_detector_;
  std::size_t biometric_cursor_ = 0;
  std::unordered_map<fp::FpHash, std::uint64_t> biometric_hits_;
  std::vector<EnforcementAction> actions_;
  std::optional<sim::SimTime> nip_cap_time_;
  std::optional<sim::SimTime> sms_disable_time_;
  fault::FaultPoint& sweep_fault_;
  // "mitigate.*" counter handles (cells live in the application's registry).
  obs::Counter sweeps_;
  obs::Counter sweeps_skipped_;
  obs::Counter actions_counter_;
};

}  // namespace fraudsim::mitigate
