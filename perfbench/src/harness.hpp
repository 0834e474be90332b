// Shared plumbing for the fraudsim benchmark: wall clock, in-memory span
// tracer, order statistics, the result record every workload fills, and the
// digest used by the output checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Monotonic wall clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timed call into a layer. `parent` indexes the enclosing span (-1 at top
// level); `request` is the facade call the span belongs to (0 = none).
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

// Keeps every span in memory; nothing is written until dump(). The untraced
// runs pass no tracer at all, so the measured code never touches this class.
class Tracer {
 public:
  std::int32_t begin(const char* name) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), request_});
    stack_.push_back(id);
    return id;
  }
  void end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    if (stack_.empty() || stack_.back() != id) balanced_ = false;
    if (!stack_.empty()) stack_.pop_back();
  }
  void set_request(std::uint64_t id) { request_ = id; }
  [[nodiscard]] bool balanced() const { return balanced_ && stack_.empty(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Inclusive and self time (ns) plus call count per span name.
  struct LayerTime {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t calls = 0;
  };
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;

  // Writes the spans to `path` as JSON lines tagged with `workload`; false on
  // I/O error.
  bool dump(const std::string& path, std::string_view workload) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t request_ = 0;
  bool balanced_ = true;
};

// RAII span that is free when no tracer is attached.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

// The wall-clock timings of one repetition of a workload that runs the same
// fixed sequence of slices (blocks of calls, simulated hours) every time.
struct SlicedRun {
  std::vector<double> slice_ns;        // wall time of each slice
  std::vector<std::size_t> slice_end;  // one past each slice's last call in latency_us
  std::vector<double> latency_us;      // per call, in call order

  // Closes the current slice: `ns` of wall time, covering every call
  // recorded so far.
  void end_slice(double ns) {
    slice_ns.push_back(ns);
    slice_end.push_back(latency_us.size());
  }
  [[nodiscard]] double seconds() const;
};

// Other tenants of a shared host only ever add time, often for a second or
// less. So the serial workloads report the run assembled from each slice's
// fastest repetition: its wall time and the latencies of the calls in it.
// Every repetition must have the same slices with the same calls.
[[nodiscard]] SlicedRun fastest_slices(const std::vector<const SlicedRun*>& runs);

[[nodiscard]] double median(std::vector<double> v);
// Space-separated values, for the report's sample lists.
[[nodiscard]] std::string join(const std::vector<double>& v);
// Nearest-rank percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);

// FNV-1a, folded incrementally over call outcomes.
struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

// What a workload hands back: end-to-end values (untraced run) or per-layer
// values (traced run), the op tallies behind `error_rate`, the named checks,
// and run facts for the metadata block.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::map<std::string, std::string> facts;  // sample counts, threads, sizes

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  [[nodiscard]] bool correct() const {
    for (const auto& [name, ok] : checks) {
      if (!ok) return false;
    }
    return !checks.empty();
  }
};

// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

// Repeats `rep` until `seconds` of wall time have passed (at least `min_reps`
// times, at most `max_reps`). Returns the repetition count.
template <typename Fn>
int repeat_for(double seconds, int min_reps, int max_reps, Fn&& rep) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  int reps = 0;
  while (reps < max_reps && (reps < min_reps || now_ns() < deadline)) {
    rep(reps);
    ++reps;
  }
  return reps;
}

// The workloads.
Result run_admit_mix(const Options& options);
Result run_soc_day(const Options& options);
Result run_detect_window(const Options& options);
Result run_sharded_scale(const Options& options);

}  // namespace perfbench
