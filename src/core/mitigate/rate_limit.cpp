#include "core/mitigate/rate_limit.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace fraudsim::mitigate {

SlidingWindowRateLimiter::SlidingWindowRateLimiter(std::uint64_t limit, sim::SimDuration window)
    : limit_(limit), window_(window) {}

void SlidingWindowRateLimiter::prune(sim::SimTime now, Window& w) const {
  while (w.head < w.times.size() && w.times[w.head] <= now - window_) ++w.head;
  if (2 * w.head > w.times.size()) {
    w.times.erase(w.times.begin(), w.times.begin() + static_cast<std::ptrdiff_t>(w.head));
    w.head = 0;
  }
}

void SlidingWindowRateLimiter::evict_stale(sim::SimTime now) {
  if (now - last_sweep_ < window_) return;
  last_sweep_ = now;
  // A key is stale when its newest event has aged out of the window.
  for (util::InternTable::Id id = 1; id <= windows_.size(); ++id) {
    if (!keys_.contains(id)) continue;
    Window& w = windows_[id - 1];
    if (w.size() == 0 || w.times.back() <= now - window_) {
      w.times.clear();
      w.head = 0;
      keys_.erase(id);
    }
  }
}

SlidingWindowRateLimiter::Window& SlidingWindowRateLimiter::window_for(std::string_view key) {
  const util::InternTable::Id id = keys_.intern(key);
  if (windows_.size() < id) windows_.resize(id);
  return windows_[id - 1];
}

bool SlidingWindowRateLimiter::allow(sim::SimTime now, std::string_view key) {
  return allow(now, key, limit_);
}

bool SlidingWindowRateLimiter::allow(sim::SimTime now, std::string_view key,
                                     std::uint64_t effective_limit) {
  evict_stale(now);
  Window& w = window_for(key);
  prune(now, w);
  if (w.size() >= effective_limit) {
    if (denials_counter_.bound()) {
      denials_counter_.inc();
    } else {
      ++local_denials_;
    }
    return false;
  }
  w.times.push_back(now);
  return true;
}

std::uint64_t SlidingWindowRateLimiter::live_count(sim::SimTime now, const Window& w) const {
  return static_cast<std::uint64_t>(
      std::count_if(w.times.begin() + static_cast<std::ptrdiff_t>(w.head), w.times.end(),
                    [&](sim::SimTime t) { return t > now - window_; }));
}

std::uint64_t SlidingWindowRateLimiter::current(sim::SimTime now, std::string_view key) const {
  const util::InternTable::Id id = keys_.find(key);
  return id == 0 ? 0 : live_count(now, windows_[id - 1]);
}

std::uint64_t SlidingWindowRateLimiter::max_in_window(sim::SimTime now) const {
  std::uint64_t max = 0;
  for (util::InternTable::Id id = 1; id <= windows_.size(); ++id) {
    if (keys_.contains(id)) max = std::max(max, live_count(now, windows_[id - 1]));
  }
  return max;
}

template <class Ar>
void SlidingWindowRateLimiter::visit(Ar& ar) {
  ar(local_denials_, last_sweep_);
  // Then the windows as a vector of (key, event times) pairs.
  if constexpr (Ar::reading) {
    clear();
    const std::uint64_t n = ar.u64();
    for (std::uint64_t i = 0; i < n && ar.ok(); ++i) {
      const std::string key = ar.str();
      Window w;
      ar(w.times);
      if (ar.ok()) window_for(key) = std::move(w);
    }
  } else {
    // Id order is arrival order (with recycled slots), which a restore does
    // not reproduce: it re-interns keys in frame order. Write keys sorted by
    // string so frames are byte-stable across a restore -> re-checkpoint.
    std::vector<std::pair<std::string_view, const Window*>> items;
    items.reserve(keys_.size());
    for (util::InternTable::Id id = 1; id <= windows_.size(); ++id) {
      if (keys_.contains(id)) items.emplace_back(keys_.str(id), &windows_[id - 1]);
    }
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    ar.u64(items.size());
    for (const auto& [key, w] : items) {
      ar.str(key);
      ar.u64(w->size());
      for (std::size_t i = w->head; i < w->times.size(); ++i) ar(w->times[i]);
    }
  }
}
template void SlidingWindowRateLimiter::visit(util::ByteWriter&);
template void SlidingWindowRateLimiter::visit(util::ByteReader&);

}  // namespace fraudsim::mitigate
