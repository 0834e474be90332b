// Per-request trace spans.
//
// Every request entering the Application facade starts a root span; the
// layers it traverses (policy, inventory, SMS, OTP, detection, mitigation)
// open child spans, annotate them with key:value evidence (rule fired,
// brownout state, fault injections, detector verdicts), set an outcome, and
// finish them with sim-time stamps. Completed spans land in a bounded ring
// buffer so full-week scenarios retain the most recent window at O(capacity)
// memory.
//
// Determinism contract: the recorder consumes no randomness and never reads
// the wall clock. Trace ids are sequential; the sampling knob keeps every
// Nth trace (trace 1 always sampled), so two identical runs record
// byte-identical span streams. An unsampled TraceContext is a null handle —
// every operation on it is a no-op, which is what makes default-on tracing
// affordable.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "util/archive.hpp"

namespace fraudsim::obs {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

struct SpanAnnotation {
  std::string key;
  std::string value;

  template <class Ar>
  void visit(Ar& ar) {
    ar(key, value);
  }
};

struct SpanRecord {
  TraceId trace = 0;
  SpanId span = 0;
  SpanId parent = 0;  // 0 = root span of its trace
  std::string name;
  sim::SimTime start = 0;
  sim::SimTime end = -1;  // -1 while open
  std::string outcome;    // "ok", "blocked", "shed", "business-reject", ...
  std::vector<SpanAnnotation> annotations;

  template <class Ar>
  void visit(Ar& ar) {
    ar(trace, span, parent, name, start, end, outcome, annotations);
  }
};

struct TraceConfig {
  // Completed spans retained (ring buffer; oldest overwritten first).
  std::size_t ring_capacity = 4096;
  // Record every Nth trace (1 = full fidelity, 0 = tracing off). Sampling is
  // deterministic on the trace counter, not random.
  std::uint64_t sample_every = 16;
};

class TraceRecorder;

// Lightweight, copyable handle to one open span. A default-constructed (or
// unsampled) context is inert: child()/annotate()/finish() all no-op.
class TraceContext {
 public:
  TraceContext() = default;

  [[nodiscard]] bool sampled() const { return recorder_ != nullptr; }
  [[nodiscard]] TraceId trace_id() const { return trace_; }
  [[nodiscard]] SpanId span_id() const { return span_; }

  // Opens a child span under this one.
  [[nodiscard]] TraceContext child(std::string_view name, sim::SimTime now) const;
  void annotate(std::string_view key, std::string_view value) const;
  void set_outcome(std::string_view outcome) const;
  // Closes the span and moves it to the ring buffer. Safe to call on an
  // inert context; calling twice is a no-op.
  void finish(sim::SimTime now) const;

 private:
  friend class TraceRecorder;
  TraceContext(TraceRecorder* recorder, TraceId trace, SpanId span)
      : recorder_(recorder), trace_(trace), span_(span) {}
  TraceRecorder* recorder_ = nullptr;
  TraceId trace_ = 0;
  SpanId span_ = 0;
};

class TraceRecorder : public util::Checkpointed<TraceRecorder> {
 public:
  explicit TraceRecorder(TraceConfig config = {});
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Starts a new trace with a root span. Every call advances the trace
  // counter (so ids are stable whether or not a given trace is sampled); the
  // returned context is inert for unsampled traces.
  TraceContext start_trace(std::string_view name, sim::SimTime now);

  [[nodiscard]] const TraceConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t traces_started() const { return trace_counter_; }
  [[nodiscard]] std::uint64_t traces_sampled() const { return traces_sampled_; }
  [[nodiscard]] std::uint64_t spans_recorded() const { return spans_recorded_; }
  [[nodiscard]] std::size_t open_spans() const { return open_.size(); }

  // Completed spans, oldest first (at most ring_capacity of them).
  [[nodiscard]] std::vector<SpanRecord> completed() const;

  // JSON lines export, one completed span per line, oldest first.
  void write_jsonl(std::ostream& out) const;

  void clear();

  // Checkpoint support. Taken between requests, so open_ is expected to be
  // empty; counters and the completed-span ring restore exactly. A ring
  // head past the restored ring fails the reader.
  template <class Ar>
  void visit(Ar& ar) {
    ar(trace_counter_, traces_sampled_, spans_recorded_, next_span_, ring_head_, ring_);
    if constexpr (Ar::reading) {
      open_.clear();
      if (ring_head_ != 0 && ring_head_ >= ring_.size()) ar.fail();
    }
  }

 private:
  friend class TraceContext;
  SpanId open_span(TraceId trace, SpanId parent, std::string_view name, sim::SimTime now);
  void annotate(SpanId span, std::string_view key, std::string_view value);
  void set_outcome(SpanId span, std::string_view outcome);
  void finish(SpanId span, sim::SimTime now);

  TraceConfig config_;
  std::uint64_t trace_counter_ = 0;
  std::uint64_t traces_sampled_ = 0;
  std::uint64_t spans_recorded_ = 0;
  SpanId next_span_ = 1;
  std::unordered_map<SpanId, SpanRecord> open_;
  std::vector<SpanRecord> ring_;
  std::size_t ring_head_ = 0;  // next write position once the ring is full
};

}  // namespace fraudsim::obs
