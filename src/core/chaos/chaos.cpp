#include "core/chaos/chaos.hpp"

#include <optional>
#include <sstream>

#include "core/fault/crash.hpp"
#include "core/recover/atomic_file.hpp"
#include "sim/rng.hpp"
#include "util/file.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"

namespace fraudsim::chaos {

namespace {

constexpr char kReproMagic[4] = {'F', 'S', 'C', '1'};

std::string fmt_intensity(double v) { return util::format_fixed(v, 2); }

}  // namespace

std::string ChaosEntry::describe() const {
  if (kind == Kind::FlashCrowd) {
    return "flash-crowd x" + fmt_intensity(intensity) + " in [" + sim::format_time(from) + ", " +
           sim::format_time(to) + ")";
  }
  return point + ": " + scenario.describe();
}

bool ChaosSchedule::arms(const std::string& target, fault::FaultKind kind) const {
  for (const auto& e : entries) {
    if (e.kind == ChaosEntry::Kind::ArmFault && e.point == target && e.scenario.fault == kind) {
      return true;
    }
  }
  return false;
}

std::string ChaosSchedule::describe() const {
  std::ostringstream out;
  out << "chaos schedule (seed " << seed << ", " << entries.size() << " entries)\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << "  [" << i << "] " << entries[i].describe() << "\n";
  }
  return out.str();
}

void arm_schedule(const ChaosSchedule& schedule, bool include_crash) {
  auto& registry = fault::FaultRegistry::global();
  for (const auto& e : schedule.entries) {
    if (e.kind != ChaosEntry::Kind::ArmFault) continue;
    if (!include_crash && e.scenario.fault == fault::FaultKind::kCrash) continue;
    registry.arm(e.point, e.scenario);
  }
}

ChaosGeneratorConfig default_generator_config(sim::SimTime horizon) {
  ChaosGeneratorConfig config;
  config.horizon = horizon;
  // Every error-guarded dependency a recorded scenario run consults — the
  // only run a chaos job executes (record, recover, replay) — given a base
  // config with the graph and overload control on, as the campaigns use
  // (ChaosTest.EveryCataloguePointIsConsulted). "graph.ingest" drops events
  // at the entity graph's admit-path tap — the graph invariants must hold
  // (and replay stay clean) through the outage. "shard.exchange" is not here:
  // only the sharded scale engine consults it, and its tests arm it directly.
  config.error_points = {"sms.carrier.send", "detect.sweep.run",    "otp.deliver",
                         "fp.store.record",  "app.policy.evaluate", "graph.ingest"};
  // Latency-capable sites: the request path charges it into the admission
  // model (so it is consulted only with overload control on); the gateway
  // charges it against the caller's deadline budget.
  config.latency_points = {"app.request.latency", "sms.carrier.send"};
  config.crash_points = {fault::kCrashJournalFrame, fault::kCrashJournalCheckpoint,
                         fault::kCrashArtifactBody, fault::kCrashArtifactRename,
                         fault::kCrashManifestWrite};
  return config;
}

namespace {

fault::FaultScenario draw_pattern(sim::Rng& rng, const ChaosGeneratorConfig& config) {
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // dependency outage window
      const sim::SimTime from = rng.uniform_int(0, config.horizon * 3 / 4);
      const sim::SimDuration len =
          rng.uniform_int(config.horizon / 16 + 1, config.horizon / 4 + 1);
      return fault::FaultScenario::window(from, from + len);
    }
    case 1:  // every-Nth flakiness
      return fault::FaultScenario::every_nth(static_cast<std::uint64_t>(rng.uniform_int(2, 12)));
    case 2:  // seeded coin flips
      return fault::FaultScenario::probabilistic(
          rng.uniform(0.05, 0.5), static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30)));
    default: {  // repeating burst outages
      const sim::SimTime from = rng.uniform_int(0, config.horizon / 2);
      const sim::SimDuration period = rng.uniform_int(config.horizon / 12 + 1,
                                                      config.horizon / 6 + 1);
      return fault::FaultScenario::burst(from, period, period / 3 + 1);
    }
  }
}

}  // namespace

ChaosSchedule generate_schedule(std::uint64_t seed, const ChaosGeneratorConfig& config) {
  ChaosSchedule schedule;
  schedule.seed = seed;
  sim::Rng rng(seed);

  enum Option : int { kError, kLatency, kCrash, kFlashCrowd };
  std::vector<Option> options;
  if (config.allow_error && !config.error_points.empty()) {
    // Weighted towards dependency errors: they exercise the widest surface.
    options.insert(options.end(), 4, kError);
  }
  if (config.allow_latency && !config.latency_points.empty()) {
    options.insert(options.end(), 2, kLatency);
  }
  if (config.allow_crash && !config.crash_points.empty()) options.push_back(kCrash);
  if (config.allow_flash_crowd) options.insert(options.end(), 2, kFlashCrowd);
  if (options.empty()) return schedule;

  const int count = static_cast<int>(
      rng.uniform_int(config.min_entries, std::max(config.min_entries, config.max_entries)));
  bool crash_drawn = false;
  for (int i = 0; i < count; ++i) {
    Option option = options[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1))];
    if (option == kCrash && crash_drawn) option = kError;  // one killer per run
    ChaosEntry entry;
    switch (option) {
      case kError: {
        entry.point = config.error_points[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(config.error_points.size()) - 1))];
        entry.scenario = draw_pattern(rng, config);
        break;
      }
      case kLatency: {
        entry.point = config.latency_points[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(config.latency_points.size()) - 1))];
        const sim::SimDuration delay = rng.uniform_int(sim::seconds(1), config.max_latency);
        entry.scenario = draw_pattern(rng, config).with_latency(delay);
        break;
      }
      case kCrash: {
        crash_drawn = true;
        entry.point = config.crash_points[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(config.crash_points.size()) - 1))];
        entry.scenario =
            fault::FaultScenario::crash_at_hit(static_cast<std::uint64_t>(rng.uniform_int(1, 40)));
        break;
      }
      case kFlashCrowd: {
        entry.kind = ChaosEntry::Kind::FlashCrowd;
        entry.from = rng.uniform_int(0, config.horizon / 2);
        entry.to = entry.from + rng.uniform_int(config.horizon / 8 + 1, config.horizon / 4 + 1);
        if (entry.to > config.horizon) entry.to = config.horizon;
        entry.intensity = rng.uniform(2.0, config.max_crowd_intensity);
        break;
      }
    }
    schedule.entries.push_back(std::move(entry));
  }
  return schedule;
}

util::Status write_chaos_repro(const std::string& path, const ChaosRepro& repro) {
  util::ByteWriter payload;
  payload.raw(std::string_view(kReproMagic, sizeof(kReproMagic)));
  payload.u64(repro.scenario_seed);
  repro.schedule.checkpoint(payload);
  payload.u32(util::crc32(payload.bytes()));
  auto written = recover::AtomicFile::write(path, payload.bytes(), /*now=*/0);
  if (!written) return util::Status::fail(written.code(), written.error());
  return util::Status::ok();
}

util::Result<ChaosRepro> read_chaos_repro(const std::string& path) {
  using R = util::Result<ChaosRepro>;
  const std::optional<std::string> file = util::read_file(path);
  if (!file) return R::fail(util::ErrorCode::kNotFound, "repro: cannot open " + path);
  const std::string& bytes = *file;
  if (bytes.size() < sizeof(kReproMagic) + sizeof(std::uint32_t)) {
    return R::fail(util::ErrorCode::kJournalCorrupt, "repro: file truncated");
  }
  const std::string payload = bytes.substr(0, bytes.size() - sizeof(std::uint32_t));
  util::ByteReader crc_reader(
      std::string_view(bytes).substr(bytes.size() - sizeof(std::uint32_t)));
  if (crc_reader.u32() != util::crc32(payload)) {
    return R::fail(util::ErrorCode::kJournalCorrupt, "repro: CRC mismatch");
  }
  if (payload.compare(0, sizeof(kReproMagic), kReproMagic, sizeof(kReproMagic)) != 0) {
    return R::fail(util::ErrorCode::kJournalCorrupt, "repro: bad magic");
  }
  util::ByteReader reader(std::string_view(payload).substr(sizeof(kReproMagic)));
  ChaosRepro repro;
  repro.scenario_seed = reader.u64();
  repro.schedule.restore(reader);
  if (!reader.ok() || !reader.exhausted()) {
    return R::fail(util::ErrorCode::kJournalCorrupt, "repro: undecodable payload");
  }
  return R::ok(std::move(repro));
}

}  // namespace fraudsim::chaos
