#include "core/mitigate/rate_limit.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace fraudsim::mitigate {

SlidingWindowRateLimiter::SlidingWindowRateLimiter(std::uint64_t limit, sim::SimDuration window)
    : limit_(limit), window_(window) {}

void SlidingWindowRateLimiter::prune(sim::SimTime now, std::deque<sim::SimTime>& q) const {
  while (!q.empty() && q.front() <= now - window_) q.pop_front();
}

void SlidingWindowRateLimiter::evict_stale(sim::SimTime now) {
  if (now - last_sweep_ < window_) return;
  last_sweep_ = now;
  // A key is stale when its newest event has aged out of the window.
  for (util::InternTable::Id id = 1; id <= windows_.size(); ++id) {
    if (!keys_.contains(id)) continue;
    auto& q = windows_[id - 1];
    if (q.empty() || q.back() <= now - window_) {
      q.clear();
      keys_.erase(id);
    }
  }
}

std::deque<sim::SimTime>& SlidingWindowRateLimiter::window_for(std::string_view key) {
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
  auto& q = window_for(key);
  prune(now, q);
  if (q.size() >= effective_limit) {
    if (denials_counter_.bound()) {
      denials_counter_.inc();
    } else {
      ++local_denials_;
    }
    return false;
  }
  q.push_back(now);
  return true;
}

std::uint64_t SlidingWindowRateLimiter::live_count(sim::SimTime now,
                                                   const std::deque<sim::SimTime>& q) const {
  return static_cast<std::uint64_t>(
      std::count_if(q.begin(), q.end(), [&](sim::SimTime t) { return t > now - window_; }));
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
  if constexpr (Ar::reading) {
    std::vector<std::pair<std::string, std::deque<sim::SimTime>>> items;
    ar(items);
    clear();
    for (auto& [key, q] : items) window_for(key) = std::move(q);
  } else {
    // Id order is arrival order (with recycled slots), which a restore does
    // not reproduce: it re-interns keys in frame order. Write keys sorted by
    // string so frames are byte-stable across a restore -> re-checkpoint.
    std::vector<std::pair<const std::string*, const std::deque<sim::SimTime>*>> items;
    items.reserve(keys_.size());
    for (util::InternTable::Id id = 1; id <= windows_.size(); ++id) {
      if (keys_.contains(id)) items.emplace_back(&keys_.str(id), &windows_[id - 1]);
    }
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return *a.first < *b.first; });
    ar(std::uint64_t{items.size()});
    for (const auto& [key, q] : items) ar(*key, *q);
  }
}
template void SlidingWindowRateLimiter::visit(util::ByteWriter&);
template void SlidingWindowRateLimiter::visit(util::ByteReader&);

}  // namespace fraudsim::mitigate
