// KEDR-style deterministic fault injection.
//
// Production components declare named FaultPoints ("sms.carrier.send",
// "fp.store.record", ...) and consult them on every guarded operation; test
// harnesses and outage scenarios arm the points with a FaultScenario that
// decides, deterministically, which hits fail. Points live in a process-wide
// FaultRegistry so scenarios can reach into any layer without plumbing.
//
// Determinism invariants:
//   * an unarmed point never consumes randomness — with every scenario
//     disarmed the guarded code is a pass-through and byte-identical to a
//     build without fault injection;
//   * a probabilistic scenario draws from its own sim::Rng stream seeded at
//     arm time, so identical seeds reproduce identical fault sequences
//     regardless of what other subsystems consume;
//   * time-based scenarios read only the caller-supplied SimTime — the
//     library-wide no-wall-clock rule holds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "util/archive.hpp"

namespace fraudsim::fault {

enum class ScenarioKind : std::uint8_t {
  Never,          // disarmed: the point is a pass-through
  Always,         // every hit fails
  Probabilistic,  // each hit fails with probability p (own seeded stream)
  EveryNth,       // hits n, 2n, 3n, ... fail (counted from arm time)
  OnNth,          // exactly hit n fails (kill-at-one-point crash injection)
  Window,         // every hit inside [from, to) fails — a dependency outage
  Burst,          // repeating outages: down for `duration` every `period`
};

[[nodiscard]] const char* to_string(ScenarioKind k);

// What a firing point models. kError points return failure to the guarded
// call (dependency outage); kCrash points simulate a process death at an I/O
// boundary — the consulting code tears its in-flight write and unwinds via a
// fault::SimCrash exception (see core/fault/crash.hpp) instead of returning;
// kLatency points charge extra sim-time to the guarded operation (a slow
// dependency rather than a dead one), so deadline budgets bite.
enum class FaultKind : std::uint8_t { kError, kCrash, kLatency };

[[nodiscard]] const char* to_string(FaultKind k);

struct FaultScenario : util::Checkpointed<FaultScenario> {
  ScenarioKind kind = ScenarioKind::Never;
  FaultKind fault = FaultKind::kError;
  double probability = 0.0;          // Probabilistic
  std::uint64_t seed = 0;            // Probabilistic stream seed
  std::uint64_t nth = 0;             // EveryNth / OnNth
  sim::SimTime from = 0;             // Window / Burst phase origin
  sim::SimTime to = 0;               // Window
  sim::SimDuration period = 0;       // Burst
  sim::SimDuration duration = 0;     // Burst outage length per period
  sim::SimDuration latency = 0;      // kLatency: delay charged per firing hit

  [[nodiscard]] static FaultScenario never() { return {}; }
  [[nodiscard]] static FaultScenario always();
  [[nodiscard]] static FaultScenario probabilistic(double p, std::uint64_t seed);
  [[nodiscard]] static FaultScenario every_nth(std::uint64_t n);
  [[nodiscard]] static FaultScenario window(sim::SimTime from, sim::SimTime to);
  [[nodiscard]] static FaultScenario burst(sim::SimTime first, sim::SimDuration period,
                                           sim::SimDuration duration);
  // Crash exactly on the n-th hit since arm (1 = the very next hit): the
  // deterministic "kill the process at I/O boundary N" scenario.
  [[nodiscard]] static FaultScenario crash_at_hit(std::uint64_t n);

  // Reinterpret any firing pattern as a latency spike: hits that would fail
  // instead charge `delay` of sim time to the guarded operation. Composes
  // with the pattern factories, e.g. burst(...).with_latency(seconds(2)).
  [[nodiscard]] FaultScenario with_latency(sim::SimDuration delay) const;

  // Human-readable, for fault tables and SOC reports.
  [[nodiscard]] std::string describe() const;

  // Byte-stable serialisation (chaos schedules, registry checkpoints).
  template <class Ar>
  void visit(Ar& ar) {
    ar(kind, fault, probability, seed, nth, from, to, period, duration, latency);
  }
};

// Outcome of consulting a FaultPoint once. Exactly one consult per guarded
// operation: `fired` says the armed pattern matched this hit, and the fault
// kind routes the effect — an error return, extra charged sim-time latency,
// or (for kCrash, which crash_due() owns) neither.
struct FaultAction {
  bool fired = false;              // the armed pattern matched this hit
  bool error = false;              // guarded call must fail (kError)
  sim::SimDuration latency = 0;    // extra sim-time to charge (kLatency)
};

// One named branching point. Stable in memory for the process lifetime —
// components cache references at construction.
class FaultPoint : public util::Checkpointed<FaultPoint> {
 public:
  explicit FaultPoint(std::string name);

  FaultPoint(const FaultPoint&) = delete;
  FaultPoint& operator=(const FaultPoint&) = delete;

  // The guarded call: records the hit and routes the armed scenario's effect
  // by fault kind. Unarmed points always return a no-op action and never
  // touch randomness. Exactly one consult per guarded operation.
  [[nodiscard]] FaultAction consult(sim::SimTime now);

  // Error-only shorthand: true when an armed kError scenario fires on this
  // hit. Call sites that also honour latency injection use consult().
  [[nodiscard]] bool should_fail(sim::SimTime now) { return consult(now).error; }

  void arm(FaultScenario scenario);
  void disarm() { arm(FaultScenario::never()); }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool armed() const { return scenario_.kind != ScenarioKind::Never; }
  [[nodiscard]] const FaultScenario& scenario() const { return scenario_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t injected() const { return injected_; }

  // Zeroes counters (keeps the armed scenario; re-seeds its stream).
  void reset_counters();

  // Byte-stable state capture: armed scenario, hit/injection counters, and
  // the probabilistic stream mid-sequence. A restored point continues the
  // exact fault sequence the checkpointed one would have produced.
  template <class Ar>
  void visit(Ar& ar) {
    bool seeded = rng_.has_value();
    ar(scenario_, hits_, armed_hits_, injected_, seeded);
    if constexpr (Ar::reading) {
      rng_.reset();
      if (seeded) rng_.emplace(scenario_.seed);
    }
    if (rng_) ar(*rng_);
  }

 private:
  std::string name_;
  FaultScenario scenario_;
  std::optional<sim::Rng> rng_;       // Probabilistic stream, set at arm time
  std::uint64_t hits_ = 0;            // lifetime hits
  std::uint64_t armed_hits_ = 0;      // hits since last arm (EveryNth phase)
  std::uint64_t injected_ = 0;
};

// Per-thread registry. Points are created on first use and live as long as
// the owning thread, so cached references stay valid across reset().
// Iteration order is the point name order — deterministic for reports.
//
// global() is thread_local (not process-wide): every FaultPoint mutates hit
// counters on each guarded call, so sharing one registry across the fleet
// runner's worker threads would both race and let one scenario's faults leak
// into a concurrently running scenario. A worker thread that arms nothing gets
// a pristine registry, which is exactly the serial single-thread behaviour.
class FaultRegistry : public util::Checkpointed<FaultRegistry> {
 public:
  // Get-or-create.
  [[nodiscard]] FaultPoint& point(const std::string& name);
  [[nodiscard]] const FaultPoint* find(const std::string& name) const;

  bool arm(const std::string& name, FaultScenario scenario);
  void disarm_all();
  // Disarm every point and zero all counters: the clean-slate state a
  // deterministic scenario starts from.
  void reset();

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] std::size_t armed_count() const;
  [[nodiscard]] std::uint64_t total_injected() const;

  // Byte-stable registry checkpoint: every armed non-crash point (name-sorted
  // — points_ is a std::map) with its scenario, counters and stream state.
  // Crash-kind scenarios are excluded (the process killer is external state a
  // restart does not re-inherit); unarmed points are excluded (their lifetime
  // counters never influence future firing). restore() is a full replace:
  // points absent from the blob are reset, points in the blob are
  // get-or-created, so a restored run re-fires the surviving schedule exactly
  // where the checkpointed one left off.
  template <class Ar>
  void visit(Ar& ar);

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [name, p] : points_) fn(*p);
  }

  [[nodiscard]] static FaultRegistry& global();

 private:
  std::map<std::string, std::unique_ptr<FaultPoint>> points_;
};

// Shorthand for guarding a call site through the global registry. Callers on
// hot paths should cache the FaultPoint& instead.
[[nodiscard]] inline bool should_fail(const std::string& name, sim::SimTime now) {
  return FaultRegistry::global().point(name).should_fail(now);
}

// RAII isolation for one fleet job (or test) using the thread-local registry:
// resets on entry so the job starts from a clean slate, asserts on entry that
// the previous job really did clean up (scenario leakage between jobs breaks
// byte-identity silently, long after the leaking job finished), and resets on
// exit so the next job inherits nothing — armed scenarios, hit counters or
// probabilistic stream positions.
class ScopedFaultReset {
 public:
  ScopedFaultReset();
  ~ScopedFaultReset();

  ScopedFaultReset(const ScopedFaultReset&) = delete;
  ScopedFaultReset& operator=(const ScopedFaultReset&) = delete;

  // True when the registry was dirty (armed points or live counters) at
  // construction — the leak the guard exists to catch.
  [[nodiscard]] bool leaked_on_entry() const { return leaked_on_entry_; }

 private:
  bool leaked_on_entry_ = false;
};

}  // namespace fraudsim::fault
