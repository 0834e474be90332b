#include "core/scenario/fleet.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>

#include "core/bench/options.hpp"
#include "core/fault/fault.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace fraudsim::scenario {

namespace {

// Fixed-precision rendering so tables and CSVs are byte-stable: %g would
// flip representation across magnitudes, and locale-dependent formatting is
// out of the question for diffable artifacts.
std::string fmt(double v) { return util::format_fixed(v, 4); }

}  // namespace

double FleetVariantAggregate::Observation::p50() const { return util::percentile(samples, 0.5); }
double FleetVariantAggregate::Observation::p95() const { return util::percentile(samples, 0.95); }

const FleetVariantAggregate* FleetReport::find(std::string_view variant) const {
  for (const auto& v : variants) {
    if (v.variant == variant) return &v;
  }
  return nullptr;
}

std::string FleetReport::render_table(const std::string& title) const {
  std::string out = "=== " + title + " (" + std::to_string(jobs) + " runs";
  out += ", " + std::to_string(threads) + (threads == 1 ? " thread" : " threads");
  out += ") ===\n";
  util::AsciiTable table({"variant", "metric", "runs", "mean", "stddev", "p50", "p95"});
  for (const auto& v : variants) {
    for (const auto& [name, obs] : v.observations) {
      table.add_row({v.variant, name, std::to_string(obs.stats.count()), fmt(obs.stats.mean()),
                     fmt(obs.stats.stddev()), fmt(obs.p50()), fmt(obs.p95())});
    }
    for (const auto& [name, stats] : v.series) {
      // Merged within-run distributions have no retained samples; min/max
      // stand in for the percentile columns.
      table.add_row({v.variant, name + " (series)", std::to_string(stats.count()),
                     fmt(stats.mean()), fmt(stats.stddev()), fmt(stats.min()), fmt(stats.max())});
    }
  }
  out += table.render();

  bool any_confusion = false;
  for (const auto& v : variants) any_confusion = any_confusion || v.confusion.total() > 0;
  if (any_confusion) {
    util::AsciiTable scored({"variant", "tp", "fp", "tn", "fn", "precision", "recall", "f1"});
    for (const auto& v : variants) {
      if (v.confusion.total() == 0) continue;
      scored.add_row({v.variant, std::to_string(v.confusion.tp), std::to_string(v.confusion.fp),
                      std::to_string(v.confusion.tn), std::to_string(v.confusion.fn),
                      fmt(v.confusion.precision()), fmt(v.confusion.recall()),
                      fmt(v.confusion.f1())});
    }
    out += "\n--- classification vs ground truth ---\n" + scored.render();
  }
  return out;
}

void FleetReport::write_csv(std::ostream& out) const {
  out << "variant,metric,runs,mean,stddev,p50,p95,min,max\n";
  const auto row = [&out](const std::string& variant, const std::string& metric, std::size_t runs,
                          double mean, double stddev, double p50, double p95, double mn,
                          double mx) {
    out << variant << ',' << metric << ',' << runs << ',' << fmt(mean) << ',' << fmt(stddev)
        << ',' << fmt(p50) << ',' << fmt(p95) << ',' << fmt(mn) << ',' << fmt(mx) << '\n';
  };
  for (const auto& v : variants) {
    for (const auto& [name, obs] : v.observations) {
      row(v.variant, name, obs.stats.count(), obs.stats.mean(), obs.stats.stddev(), obs.p50(),
          obs.p95(), obs.stats.min(), obs.stats.max());
    }
    for (const auto& [name, stats] : v.series) {
      row(v.variant, name + ".series", stats.count(), stats.mean(), stats.stddev(), stats.min(),
          stats.max(), stats.min(), stats.max());
    }
    if (v.confusion.total() > 0) {
      const auto derived = [&](const char* name, double score) {
        row(v.variant, name, v.runs(), score, 0.0, score, score, score, score);
      };
      derived("confusion.precision", v.confusion.precision());
      derived("confusion.recall", v.confusion.recall());
      derived("confusion.f1", v.confusion.f1());
    }
  }
}

unsigned resolve_fleet_threads(unsigned requested) {
  if (requested > 0) return requested;
  const auto env = static_cast<unsigned>(bench::Options::env_u64("FRAUDSIM_FLEET_THREADS", 0));
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

FleetReport run_fleet(const std::vector<FleetJob>& jobs, const FleetRunFn& run,
                      FleetOptions options) {
  FleetReport report;
  report.jobs = jobs.size();
  if (jobs.empty()) {
    report.threads = 0;
    return report;
  }

  unsigned threads = resolve_fleet_threads(options.threads);
  if (static_cast<std::size_t>(threads) > jobs.size()) {
    threads = static_cast<unsigned>(jobs.size());
  }
  report.threads = threads;

  // Result slots are indexed by job position; workers race only on `next`.
  std::vector<FleetRunResult> results(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> resumed{0};

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      FleetJob job = jobs[i];
      job.index = i;
      // Clean-slate per-thread fault registry: which jobs share a worker
      // depends on scheduling, so leftover armed scenarios or counters from a
      // previous job must never leak into the next one. The scoped guard
      // asserts (debug builds) that the previous job on this worker actually
      // cleaned up, then resets on both entry and exit.
      fault::ScopedFaultReset fault_guard;
      try {
        if (options.resume) {
          if (auto cached = options.resume(job)) {
            results[i] = std::move(*cached);
            resumed.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
        }
        results[i] = run(job);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  // Jobs always run on spawned workers — including the 1-thread "serial"
  // case — so every execution sees a fresh worker thread's thread_local
  // state, exactly like the parallel path.
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  report.resumed = resumed.load(std::memory_order_relaxed);

  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Deterministic reduction: fold results in job order, regardless of the
  // order workers finished in. Metrics shards fold through a per-variant
  // registry so bucket layouts and absent series follow merge()'s contract.
  std::map<std::string, obs::MetricsRegistry> metric_folds;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const FleetJob& job = jobs[i];
    FleetVariantAggregate* agg = nullptr;
    for (auto& v : report.variants) {
      if (v.variant == job.variant) {
        agg = &v;
        break;
      }
    }
    if (agg == nullptr) {
      report.variants.push_back(FleetVariantAggregate{});
      agg = &report.variants.back();
      agg->variant = job.variant;
    }
    agg->seeds.push_back(job.seed);
    FleetRunResult& r = results[i];
    for (const auto& [name, value] : r.observations) {
      auto& obs = agg->observations[name];
      obs.stats.add(value);
      obs.samples.push_back(value);
    }
    for (const auto& [name, stats] : r.series) agg->series[name].merge(stats);
    agg->confusion.merge(r.confusion);
    metric_folds[job.variant].merge(r.metrics);
  }
  for (auto& v : report.variants) v.metrics = metric_folds[v.variant].snapshot();
  return report;
}

std::vector<FleetJob> cross_jobs(const std::vector<std::string>& variants,
                                 const std::vector<std::uint64_t>& seeds) {
  std::vector<FleetJob> jobs;
  jobs.reserve(variants.size() * seeds.size());
  for (const auto& variant : variants) {
    for (const std::uint64_t seed : seeds) jobs.push_back(FleetJob{variant, seed, 0});
  }
  return jobs;
}

}  // namespace fraudsim::scenario
