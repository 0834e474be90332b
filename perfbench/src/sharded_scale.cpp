// sharded_scale: the population-scale seat economy on the sharded engine.
//
// scenario::run_scale_sharded with K=8 shards on min(4, nproc) threads over
// one simulated day with hourly epochs: epoch drain on the worker pool,
// barrier exchange of cross-shard hold/pay messages and entity-graph merges.
// Set-up time is that of a zero-horizon run (population and shard build plus
// the end-of-run report). The traced run adds one run at the same thread
// count and one on a single thread: the parallel speed-up, and the proof that
// the thread count does not change the outcome.
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/scenario/scale_scenario.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace fraudsim;

struct Run {
  double wall_s = 0;
  scenario::ScaleArtifacts artifacts;
};

Run timed_run(const scenario::ScaleConfig& config, Tracer* tracer, const char* span) {
  const Scope scope(tracer, span);
  const std::int64_t t0 = now_ns();
  Run run;
  run.artifacts = scenario::run_scale_sharded(config);
  run.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return run;
}

}  // namespace

Result run_sharded_scale(const Options& options) {
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  scenario::ScaleConfig config;
  config.seed = options.seed;
  config.users = options.smoke ? 4'000 : 100'000;
  config.horizon = sim::days(1);
  config.epoch = sim::hours(1);
  config.shards = 8;
  config.threads = static_cast<unsigned>(std::min(4L, nproc));
  constexpr int kSetups = 25;
  Result r;

  std::vector<double> setup;
  scenario::ScaleConfig empty = config;
  empty.horizon = 0;
  for (int i = 0; i < kSetups; ++i) setup.push_back(timed_run(empty, nullptr, "").wall_s);

  // The first run warms the allocator and thread stacks; it is checked but not
  // measured.
  std::vector<Run> runs{timed_run(config, nullptr, "")};
  const int n = repeat_for(options.seconds, 2, 64,
                           [&](int) { runs.push_back(timed_run(config, nullptr, "")); });
  std::vector<double> wall;
  std::vector<double> throughput;
  bool digests_equal = true;
  bool conserved = true;
  std::uint64_t violations = 0;
  const auto tally = [&](const Run& run) {
    const scenario::ScaleArtifacts& a = run.artifacts;
    digests_equal = digests_equal && a.state_digest == runs.front().artifacts.state_digest;
    conserved = conserved && a.messages_sent == a.messages_delivered;
    violations += a.invariant_violations;
  };
  for (const Run& run : runs) {
    tally(run);
    r.attempted += run.artifacts.events_fired;
    r.failed += run.artifacts.messages_sent - run.artifacts.messages_delivered +
                run.artifacts.invariant_violations;
    if (&run == &runs.front()) continue;
    wall.push_back(run.wall_s);
    throughput.push_back(static_cast<double>(run.artifacts.events_fired) / run.wall_s);
  }

  if (options.trace) {
    Tracer tracer;
    const Run traced = timed_run(config, &tracer, "scale.run");
    scenario::ScaleConfig serial = config;
    serial.threads = 1;
    const Run one = timed_run(serial, &tracer, "scale.run_1thread");
    tally(traced);
    tally(one);
    const scenario::ScaleArtifacts& a = traced.artifacts;
    r.check("1-thread run has the N-thread state_digest",
            one.artifacts.state_digest == a.state_digest);
    r.metrics["scale.messages_per_event"] =
        static_cast<double>(a.messages_sent) / static_cast<double>(std::max<std::uint64_t>(1, a.events_fired));
    r.metrics["scale.barriers"] = static_cast<double>(a.barriers);
    r.metrics["scale.exchange_retries"] = static_cast<double>(a.exchange_retries);
    r.metrics["scale.graph_events"] = static_cast<double>(a.graph_events);
    r.metrics["scale.parallel_speedup"] = one.wall_s / traced.wall_s;
    r.metrics["trace.overhead"] = traced.wall_s / median(wall) - 1.0;
    r.metrics["trace.named_share"] = 1.0;  // the run is one span; nothing inside is named
    r.metrics["trace.spans"] = static_cast<double>(tracer.spans().size());
    r.check("tracer spans balanced", tracer.balanced());
    r.check("span dump written",
            tracer.dump(options.out_dir + "/spans-sharded_scale.jsonl", "sharded_scale"));
  } else {
    r.metrics["setup_s"] = median(setup);
    r.metrics["ops_per_sec"] = median(throughput);
    r.metrics["op_p50_us"] = percentile(wall, 50) * 1e6;
    r.metrics["op_p99_us"] = percentile(wall, 99) * 1e6;
  }

  r.check("state_digest equal on every repetition", digests_equal);
  r.check("messages sent == delivered", conserved);
  r.check("zero shard invariant violations", violations == 0);
  r.facts["repetitions"] = std::to_string(n) + " measured + 1 warm-up";
  r.facts["ops_per_sec_by_repetition"] = join(throughput);
  r.facts["setups"] = std::to_string(kSetups);
  r.facts["users"] = std::to_string(config.users);
  r.facts["shards"] = std::to_string(config.shards);
  r.facts["threads"] = std::to_string(config.threads);
  r.facts["events_per_run"] = std::to_string(runs.front().artifacts.events_fired);
  r.facts["latency_samples"] = std::to_string(wall.size());
  r.facts["ops"] = "fired events";
  return r;
}

}  // namespace perfbench
