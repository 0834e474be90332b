// Metrics registry: the platform's single source of truth for counters,
// gauges, and fixed-bucket histograms.
//
// Design contract (see DESIGN.md §"Observability"):
//   * Registration happens once, at subsystem construction, and returns a
//     pre-resolved handle (a raw pointer to the metric's cell). Hot-path
//     updates through a handle are a single memory write — no string lookup,
//     no hashing, no allocation.
//   * The registry is deterministic: snapshots iterate metrics in name order,
//     exports (ASCII table / CSV / JSON lines) are byte-stable across
//     identical runs, and nothing in the subsystem reads the wall clock or
//     consumes randomness — recording telemetry must never perturb the
//     simulation it observes.
//   * Registering an existing name returns the SAME handle (handle reuse), so
//     independent subsystems can share a series by agreeing on its name.
//
// Ownership: one `MetricsRegistry` per platform instance (the Application
// owns the platform registry); standalone components own a private registry
// when none is injected, so unit tests see isolated counts.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/archive.hpp"

namespace fraudsim::obs {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

[[nodiscard]] const char* to_string(MetricKind k);

namespace detail {

struct HistogramCell {
  std::vector<double> bounds;          // ascending upper bucket bounds
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  template <class Ar>
  void visit(Ar& ar) {
    ar(bounds, buckets, count, sum, min, max);
  }
};

struct MetricCell {
  MetricKind kind = MetricKind::Counter;
  std::uint64_t counter = 0;
  double gauge = 0.0;
  HistogramCell hist;

  template <class Ar>
  void visit(Ar& ar) {
    ar(kind, counter, gauge, hist);
  }
};

}  // namespace detail

// Pre-resolved counter handle. Copyable, trivially cheap; a default
// constructed handle is unbound and every operation on it is a no-op.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) const {
    if (cell_ != nullptr) cell_->counter += n;
  }
  [[nodiscard]] std::uint64_t value() const { return cell_ != nullptr ? cell_->counter : 0; }
  [[nodiscard]] bool bound() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::MetricCell* cell) : cell_(cell) {}
  detail::MetricCell* cell_ = nullptr;
};

// Pre-resolved gauge handle (last-write-wins double).
class Gauge {
 public:
  Gauge() = default;

  void set(double v) const {
    if (cell_ != nullptr) cell_->gauge = v;
  }
  void add(double d) const {
    if (cell_ != nullptr) cell_->gauge += d;
  }
  [[nodiscard]] double value() const { return cell_ != nullptr ? cell_->gauge : 0.0; }
  [[nodiscard]] bool bound() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::MetricCell* cell) : cell_(cell) {}
  detail::MetricCell* cell_ = nullptr;
};

// Pre-resolved fixed-bucket histogram handle. observe() is O(log buckets)
// (branchless lower-bound over a small fixed array) with no allocation.
class Histogram {
 public:
  Histogram() = default;

  void observe(double v) const;

  [[nodiscard]] std::uint64_t count() const { return cell_ != nullptr ? cell_->hist.count : 0; }
  [[nodiscard]] double sum() const { return cell_ != nullptr ? cell_->hist.sum : 0.0; }
  [[nodiscard]] double min() const { return cell_ != nullptr ? cell_->hist.min : 0.0; }
  [[nodiscard]] double max() const { return cell_ != nullptr ? cell_->hist.max : 0.0; }
  [[nodiscard]] bool bound() const { return cell_ != nullptr; }

  // Percentile estimate (p in [0,1]) by linear interpolation inside the
  // target bucket, clamped to the observed [min, max]. Deterministic; 0 when
  // empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::MetricCell* cell) : cell_(cell) {}
  detail::MetricCell* cell_ = nullptr;
};

// Percentile estimate over a raw histogram cell (shared by Histogram and
// snapshot rows).
[[nodiscard]] double histogram_percentile(const detail::HistogramCell& hist, double p);

// Default latency bucket bounds (milliseconds): fine-grained around typical
// modeled service costs, exponential above.
[[nodiscard]] std::vector<double> default_latency_bounds_ms();

// Flat, copyable view of a registry at one instant. Rows are sorted by name;
// all renderings are byte-stable for identical registry contents.
struct MetricsSnapshot : util::Checkpointed<MetricsSnapshot> {
  struct Row {
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t count = 0;  // counter value / histogram sample count
    double value = 0.0;       // gauge value / histogram sum
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    // Observed extrema (histograms only); carried so a snapshot is a lossless
    // shard for MetricsRegistry::merge.
    double min = 0.0;
    double max = 0.0;
    // (upper bound, count) pairs; histograms only. The final pair's bound is
    // +inf, rendered as "inf".
    std::vector<std::pair<double, std::uint64_t>> buckets;

    template <class Ar>
    void visit(Ar& ar) {
      ar(name, kind, count, value, p50, p90, p99, min, max, buckets);
    }
  };
  std::vector<Row> rows;

  [[nodiscard]] const Row* find(std::string_view name) const;
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  // Lossless byte round-trip so a snapshot can travel as a persisted fleet
  // result shard: restore(checkpoint(s)) merges exactly like s itself.
  template <class Ar>
  void visit(Ar& ar) {
    ar(rows);
  }

  // ASCII table (one row per metric).
  [[nodiscard]] std::string render_table(const std::string& title = "Metrics") const;
  // CSV: name,kind,count,value,p50,p90,p99
  void write_csv(std::ostream& out) const;
  // JSON lines, one metric per line (histograms include bucket arrays).
  void write_jsonl(std::ostream& out) const;
};

class MetricsRegistry : public util::Checkpointed<MetricsRegistry> {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Register-or-lookup. Re-registering an existing name returns a handle to
  // the same cell; the kind must match the original registration.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name, std::vector<double> bounds);

  // Read a counter by name without creating it (0 when absent).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  // All counters whose name starts with `prefix`, in name order.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counters_with_prefix(
      std::string_view prefix) const;

  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] bool empty() const { return cells_.empty(); }

  // Deterministic snapshot: rows in name order, percentiles precomputed.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  // Shard merge (the fleet runner's reduction): fold another registry's
  // series into this one. Counters and histograms add (bucket-wise; bucket
  // bounds must match the local registration), gauges SUM — last-write-wins
  // has no meaning across independent shards, and a sum keeps merge
  // associative and commutative. Absent series are created, so merging into
  // an empty registry clones the shard. Deterministic: result depends only on
  // the multiset of shards merged, not the merge order.
  void merge(const MetricsSnapshot& shard);
  void merge(const MetricsRegistry& other);

  // Checkpoint support. Restore writes values INTO existing cells (creating
  // any the restoring process has not registered yet), so pre-resolved
  // handles held by subsystems stay valid across a restore. A cell whose
  // kind differs from the local registration fails the reader.
  template <class Ar>
  void visit(Ar& ar);

 private:
  detail::MetricCell& cell(std::string_view name, MetricKind kind);
  // std::map keeps name order for deterministic iteration; unique_ptr keeps
  // cell addresses stable so handles survive later registrations.
  std::map<std::string, std::unique_ptr<detail::MetricCell>, std::less<>> cells_;
};

}  // namespace fraudsim::obs
