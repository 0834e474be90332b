#include "core/mitigate/controller.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/detect/alert.hpp"
#include "core/obs/profile.hpp"

namespace fraudsim::mitigate {

MitigationController::MitigationController(app::Application& application, RuleEngine& engine,
                                           ControllerConfig config)
    : app_(application),
      engine_(engine),
      config_(config),
      nip_detector_(config.nip),
      name_analyzer_(config.names),
      sms_detector_(config.sms),
      biometric_detector_(config.biometric_thresholds),
      sweep_fault_(fault::FaultRegistry::global().point("detect.sweep.run")),
      sweeps_(application.metrics().counter("mitigate.sweeps")),
      sweeps_skipped_(application.metrics().counter("mitigate.sweeps_skipped")),
      actions_counter_(application.metrics().counter("mitigate.actions")) {}

void MitigationController::record_action(EnforcementAction action) {
  actions_counter_.inc();
  actions_.push_back(std::move(action));
}

void MitigationController::fit_nip_baseline(sim::SimTime from, sim::SimTime to) {
  nip_detector_.fit_baseline(app_.inventory().reservations(), from, to);
}

void MitigationController::start(sim::SimTime until) {
  until_ = until;
  schedule_next();
}

void MitigationController::schedule_next() {
  if (app_.simulation().now() + config_.sweep_interval > until_) return;
  app_.simulation().schedule_in(config_.sweep_interval, [this] {
    sweep();
    schedule_next();
  });
}

void MitigationController::sweep() {
  const obs::ScopedTimer timer(obs::Profiler::instance().phase("mitigate.sweep"));
  const sim::SimTime now = app_.simulation().now();
  if (sweep_fault_.should_fail(now)) {
    // Detection backend down: skip this sweep entirely. Enforcement resumes
    // at the next scheduled sweep after the outage.
    sweeps_skipped_.inc();
    record_action(EnforcementAction{now, "sweep-skipped", "detection outage"});
    return;
  }
  sweeps_.inc();
  const sim::SimTime from = std::max<sim::SimTime>(0, now - config_.analysis_window);

  std::unordered_set<fp::FpHash> to_block;

  // 1. Advanced feature-level detectors over the window's reservations. A
  // fingerprint is only enforceable once enough DISTINCT reservations
  // carrying it have been flagged (popular configurations are shared with
  // legitimate users).
  detect::AlertSink sink;
  nip_detector_.analyze(app_.inventory().reservations(), from, now, sink);
  std::vector<const airline::Reservation*> window;
  for (const auto& r : app_.inventory().reservations()) {
    if (r.created >= from && r.created < now) window.push_back(&r);
  }
  name_analyzer_.analyze(window, sink);
  if (config_.block_flagged_fingerprints) {
    for (const auto& alert : sink.alerts()) {
      if (!alert.fingerprint || !alert.fingerprint->valid() || !alert.pnr) continue;
      auto& pnrs = flagged_pnrs_[*alert.fingerprint];
      pnrs.insert(*alert.pnr);
      if (pnrs.size() >= config_.min_flagged_pnrs) to_block.insert(*alert.fingerprint);
    }
  }

  // 2. Biometric enforcement (§V): fingerprints whose pointer telemetry keeps
  // failing the kinematic/replay checks. The detector and per-fp tallies are
  // persistent members so replayed geometries accumulate across sweeps.
  // Under brownout only every stride-th sample is scanned — the expensive
  // detector thins out while the platform is hot.
  if (config_.block_biometric_flagged) {
    const int stride =
        app_.overload().enabled() ? app_.overload().brownout().detector_stride() : 1;
    const auto& log = app_.biometric_log();
    for (; biometric_cursor_ < log.size(); ++biometric_cursor_) {
      if (stride > 1 && (biometric_cursor_ % static_cast<std::size_t>(stride)) != 0) continue;
      const auto& record = log[biometric_cursor_];
      std::string reason;
      if (!biometric_detector_.observe(record.features, &reason)) continue;
      if (++biometric_hits_[record.fingerprint] >= config_.min_biometric_hits) {
        to_block.insert(record.fingerprint);
      }
    }
  }

  // 3. Automation artifacts observed at ingress.
  if (config_.block_artifact_fingerprints) {
    app_.fingerprints().for_each(
        [&](fp::FpHash hash, const fp::Fingerprint& fingerprint, std::uint64_t) {
          if (fingerprint.webdriver_flag || fingerprint.headless_hint) to_block.insert(hash);
        });
  }

  // Enforce in hash order: to_block's unordered iteration order depends on
  // container history, which a checkpoint restore does not reproduce — the
  // action ledger (and the SOC report rendering it) must not depend on it.
  std::vector<fp::FpHash> ordered(to_block.begin(), to_block.end());
  std::sort(ordered.begin(), ordered.end(),
            [](fp::FpHash a, fp::FpHash b) { return a.value() < b.value(); });
  for (const auto hash : ordered) {
    if (engine_.blocklist().contains(hash)) continue;
    engine_.blocklist().block(hash, now, "controller-sweep");
    record_action(EnforcementAction{now, "fp-block", hash.str()});
  }

  // 4. NiP cap (once).
  if (config_.impose_nip_cap && !nip_cap_time_) {
    const auto verdict = nip_detector_.evaluate_window(app_.inventory().reservations(), from, now);
    if (verdict.anomalous) {
      app_.inventory().set_max_nip(config_.nip_cap_value);
      nip_cap_time_ = now;
      record_action(EnforcementAction{
          now, "nip-cap", "cap=" + std::to_string(config_.nip_cap_value)});
    }
  }

  // 5. SMS feature removal on path-volume trip (once).
  if (config_.disable_sms_on_path_trip && !sms_disable_time_) {
    if (const auto trip = sms_detector_.path_limit_trip_time(app_.sms_gateway());
        trip && *trip <= now) {
      app_.boarding().set_sms_option_enabled(false);
      sms_disable_time_ = now;
      record_action(EnforcementAction{now, "sms-disable", "boarding-pass SMS removed"});
    }
  }
}

template <class Ar>
void MitigationController::visit(Ar& ar) {
  // NiP baseline (refitting from reservations would scan state that may have
  // been trimmed; the histogram itself is small).
  std::map<int, std::uint64_t> baseline;
  if constexpr (!Ar::reading) baseline = nip_detector_.baseline().entries();
  ar(baseline, until_, flagged_pnrs_, biometric_detector_, biometric_cursor_, biometric_hits_,
     actions_, nip_cap_time_, sms_disable_time_);
  if constexpr (Ar::reading) {
    analytics::CategoricalHistogram<int> histogram;
    for (const auto& [nip, count] : baseline) histogram.add(nip, count);
    nip_detector_.fit_baseline(histogram);
  }
}
template void MitigationController::visit(util::ByteWriter&);
template void MitigationController::visit(util::ByteReader&);

}  // namespace fraudsim::mitigate
