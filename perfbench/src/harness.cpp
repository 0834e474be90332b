#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTime& t = out[spans_[i].name];
    const std::int64_t dur = spans_[i].end - spans_[i].start;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    ++t.calls;
  }
  return out;
}

bool Tracer::dump(const std::string& path, std::string_view workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  const std::string tag(workload);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"workload\":\"%s\",\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%llu}\n",
                 tag.c_str(), i, s.name, static_cast<long long>(s.start - origin),
                 static_cast<long long>(s.end - origin), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

double SlicedRun::seconds() const {
  double ns = 0;
  for (const double s : slice_ns) ns += s;
  return ns / 1e9;
}

SlicedRun fastest_slices(const std::vector<const SlicedRun*>& runs) {
  SlicedRun out;
  if (runs.empty()) return out;
  for (std::size_t s = 0; s < runs.front()->slice_ns.size(); ++s) {
    const SlicedRun* best = runs.front();
    for (const SlicedRun* run : runs) {
      if (run->slice_ns[s] < best->slice_ns[s]) best = run;
    }
    const std::size_t first = s == 0 ? 0 : best->slice_end[s - 1];
    out.latency_us.insert(out.latency_us.end(),
                          best->latency_us.begin() + static_cast<std::ptrdiff_t>(first),
                          best->latency_us.begin() + static_cast<std::ptrdiff_t>(best->slice_end[s]));
    out.end_slice(best->slice_ns[s]);
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string join(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.6g", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(p / 100.0 * static_cast<double>(v.size())), 1.0,
                 static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
