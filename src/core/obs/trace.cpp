#include "core/obs/trace.hpp"

#include <algorithm>
#include <utility>

namespace fraudsim::obs {

// --- TraceContext -----------------------------------------------------------

TraceContext TraceContext::child(std::string_view name, sim::SimTime now) const {
  if (recorder_ == nullptr) return {};
  const SpanId id = recorder_->open_span(trace_, span_, name, now);
  return TraceContext(recorder_, trace_, id);
}

void TraceContext::annotate(std::string_view key, std::string_view value) const {
  if (recorder_ != nullptr) recorder_->annotate(span_, key, value);
}

void TraceContext::set_outcome(std::string_view outcome) const {
  if (recorder_ != nullptr) recorder_->set_outcome(span_, outcome);
}

void TraceContext::finish(sim::SimTime now) const {
  if (recorder_ != nullptr) recorder_->finish(span_, now);
}

// --- TraceRecorder ----------------------------------------------------------

TraceRecorder::TraceRecorder(TraceConfig config) : config_(config) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  ring_.reserve(std::min<std::size_t>(config_.ring_capacity, 1024));
}

TraceContext TraceRecorder::start_trace(std::string_view name, sim::SimTime now) {
  const std::uint64_t seq = trace_counter_++;
  if (config_.sample_every == 0 || seq % config_.sample_every != 0) return {};
  ++traces_sampled_;
  const TraceId trace = seq + 1;  // ids are 1-based so 0 can mean "no trace"
  const SpanId root = open_span(trace, 0, name, now);
  return TraceContext(this, trace, root);
}

SpanId TraceRecorder::open_span(TraceId trace, SpanId parent, std::string_view name,
                                sim::SimTime now) {
  const SpanId id = next_span_++;
  SpanRecord rec;
  rec.trace = trace;
  rec.span = id;
  rec.parent = parent;
  rec.name = std::string(name);
  rec.start = now;
  open_.emplace(id, std::move(rec));
  return id;
}

void TraceRecorder::annotate(SpanId span, std::string_view key, std::string_view value) {
  const auto it = open_.find(span);
  if (it == open_.end()) return;
  it->second.annotations.push_back({std::string(key), std::string(value)});
}

void TraceRecorder::set_outcome(SpanId span, std::string_view outcome) {
  const auto it = open_.find(span);
  if (it == open_.end()) return;
  it->second.outcome = std::string(outcome);
}

void TraceRecorder::finish(SpanId span, sim::SimTime now) {
  const auto it = open_.find(span);
  if (it == open_.end()) return;  // double-finish is a no-op
  SpanRecord rec = std::move(it->second);
  open_.erase(it);
  rec.end = now;
  ++spans_recorded_;
  if (ring_.size() < config_.ring_capacity) {
    ring_.push_back(std::move(rec));
  } else {
    ring_[ring_head_] = std::move(rec);
    ring_head_ = (ring_head_ + 1) % config_.ring_capacity;
  }
}

std::vector<SpanRecord> TraceRecorder::completed() const {
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // Once the ring wraps, ring_head_ points at the oldest record.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_head_ + i) % ring_.size()]);
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

void TraceRecorder::write_jsonl(std::ostream& out) const {
  for (const SpanRecord& rec : completed()) {
    out << "{\"trace\":" << rec.trace << ",\"span\":" << rec.span << ",\"parent\":" << rec.parent
        << ",\"name\":\"" << json_escape(rec.name) << "\",\"start_ms\":" << rec.start
        << ",\"end_ms\":" << rec.end << ",\"outcome\":\"" << json_escape(rec.outcome) << '"';
    if (!rec.annotations.empty()) {
      out << ",\"annotations\":{";
      for (std::size_t i = 0; i < rec.annotations.size(); ++i) {
        if (i != 0) out << ',';
        out << '"' << json_escape(rec.annotations[i].key) << "\":\""
            << json_escape(rec.annotations[i].value) << '"';
      }
      out << '}';
    }
    out << "}\n";
  }
}

void TraceRecorder::clear() {
  open_.clear();
  ring_.clear();
  ring_head_ = 0;
}

}  // namespace fraudsim::obs
