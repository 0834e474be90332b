// Deterministic chaos schedules.
//
// A ChaosSchedule is a reproducible fault plan for one simulated run: a list
// of entries that either arm a FaultScenario on a named FaultPoint (error
// bursts, every-Nth failures, latency spikes, one-shot crash kills) or inject
// a flash-crowd phase of legitimate demand. From a single generator seed,
// generate_schedule() draws a randomized-but-reproducible plan over the whole
// registered fault surface, so a chaos campaign is just a seed sweep — and a
// failing (seed, schedule) pair is replayable forever.
//
// Schedules serialise byte-stably (ByteWriter order), which is what makes
// automatic shrinking and on-disk minimized reproducers possible: the
// chaos_repro artifact written for a failing job is the schedule itself plus
// the scenario seed, CRC-framed, loadable by the chaos_soak CLI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fault/fault.hpp"
#include "sim/time.hpp"
#include "util/result.hpp"

namespace fraudsim::chaos {

// One step of a chaos plan.
struct ChaosEntry : util::Checkpointed<ChaosEntry> {
  enum class Kind : std::uint8_t { ArmFault = 0, FlashCrowd = 1 };
  Kind kind = Kind::ArmFault;

  // ArmFault: arm `scenario` on the point named `point` (entries later in the
  // schedule win when two target the same point — exactly like sequential
  // arm() calls).
  std::string point;
  fault::FaultScenario scenario;

  // FlashCrowd: a surge of legitimate demand in [from, to) at `intensity`
  // times the baseline arrival rates.
  sim::SimTime from = 0;
  sim::SimTime to = 0;
  double intensity = 4.0;

  [[nodiscard]] std::string describe() const;
  template <class Ar>
  void visit(Ar& ar) {
    ar(kind, point, scenario, from, to, intensity);
  }
};

struct ChaosSchedule : util::Checkpointed<ChaosSchedule> {
  std::uint64_t seed = 0;  // generator seed (provenance; not re-drawn from)
  std::vector<ChaosEntry> entries;

  [[nodiscard]] bool empty() const { return entries.empty(); }
  // True when an ArmFault entry of the given kind targets `point`.
  [[nodiscard]] bool arms(const std::string& point, fault::FaultKind kind) const;

  [[nodiscard]] std::string describe() const;
  template <class Ar>
  void visit(Ar& ar) {
    ar(seed, entries);
  }
};

// Arms every ArmFault entry on the thread-local FaultRegistry, in schedule
// order. FlashCrowd entries are platform configuration, not registry state —
// apply them via scenario config (see runner). `include_crash` = false skips
// kCrash entries: the simulated-restart posture, where dependency faults (the
// environment) persist but the external process killer does not.
void arm_schedule(const ChaosSchedule& schedule, bool include_crash = true);

// What generate_schedule may draw from. The default catalogues cover every
// FaultPoint the platform registers today.
struct ChaosGeneratorConfig {
  // Horizon the drawn windows/bursts/crowds must fit inside.
  sim::SimTime horizon = sim::hours(12);
  int min_entries = 1;
  int max_entries = 6;

  bool allow_error = true;
  bool allow_latency = true;
  bool allow_crash = true;
  bool allow_flash_crowd = true;

  std::vector<std::string> error_points;
  std::vector<std::string> latency_points;
  std::vector<std::string> crash_points;

  sim::SimDuration max_latency = sim::seconds(20);
  double max_crowd_intensity = 8.0;
};

// Catalogue defaults for the current platform fault surface.
[[nodiscard]] ChaosGeneratorConfig default_generator_config(sim::SimTime horizon);

// Draws a schedule from `seed`. Deterministic: the same (seed, config) always
// produces the same schedule, entry for entry. At most one crash entry is
// drawn per schedule (a second killer could never fire).
[[nodiscard]] ChaosSchedule generate_schedule(std::uint64_t seed,
                                              const ChaosGeneratorConfig& config);

// --- Minimized-reproducer artifacts ----------------------------------------

// A replayable reproducer: the scenario seed plus the (usually minimized)
// schedule that re-triggers the failure. CRC-framed "FSC1" file.
struct ChaosRepro {
  std::uint64_t scenario_seed = 0;
  ChaosSchedule schedule;
};

[[nodiscard]] util::Status write_chaos_repro(const std::string& path, const ChaosRepro& repro);
[[nodiscard]] util::Result<ChaosRepro> read_chaos_repro(const std::string& path);

}  // namespace fraudsim::chaos
