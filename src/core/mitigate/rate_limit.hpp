// Sliding-window rate limiter.
//
// Keys are free-form strings so the same limiter implements every keying the
// paper's mitigations need: per path (global), per IP, per session, per
// fingerprint, per booking reference, per user profile.
//
// Memory is bounded under key churn: a key whose newest event has aged out of
// the window carries no state worth keeping, so an amortised sweep (at most
// once per window) erases such keys. Long-running scenarios with rotating
// IPs/sessions therefore hold O(active keys), not O(all keys ever seen).
//
// Keys are interned to dense u32 ids and windows live in an id-indexed
// vector — steady-state admits hash the key string once and do integer work
// from there. Stale-key eviction releases the intern id, so the table stays
// bounded by live keys.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "core/obs/metrics.hpp"
#include "sim/time.hpp"
#include "util/intern.hpp"

namespace fraudsim::mitigate {

class SlidingWindowRateLimiter : public util::Checkpointed<SlidingWindowRateLimiter> {
 public:
  SlidingWindowRateLimiter(std::uint64_t limit, sim::SimDuration window);

  // Records the event and returns true if it is within the limit; false if
  // the event exceeds it (denied events are not recorded, so a client cannot
  // extend its own penalty by hammering).
  bool allow(sim::SimTime now, std::string_view key);

  // Same, but judged against `effective_limit` instead of the configured
  // limit (brownout tightens limits transiently without rebuilding limiter
  // state; the window history is shared either way).
  bool allow(sim::SimTime now, std::string_view key, std::uint64_t effective_limit);

  // Count currently in the window for the key. Read-only: creates no state
  // for unseen keys and prunes nothing (events older than now - window are
  // skipped, not dropped).
  [[nodiscard]] std::uint64_t current(sim::SimTime now, std::string_view key) const;

  [[nodiscard]] std::uint64_t limit() const { return limit_; }
  [[nodiscard]] sim::SimDuration window() const { return window_; }
  [[nodiscard]] std::uint64_t denials() const {
    return denials_counter_.bound() ? denials_counter_.value() : local_denials_;
  }

  // Publishes this limiter's denial tally through a registry counter.
  // Denials recorded before binding are carried into the counter; afterwards
  // the counter cell is the single tally.
  void bind_denials(obs::Counter counter) {
    if (!counter.bound()) return;
    counter.inc(local_denials_);
    local_denials_ = 0;
    denials_counter_ = counter;
  }

  // Number of keys currently holding state (bounded by the number of keys
  // active within the last ~window, not by lifetime distinct keys).
  [[nodiscard]] std::size_t key_count() const { return keys_.size(); }

  // Largest in-window event count across all live keys at `now`, computed
  // without mutating limiter state (events older than now - window are
  // skipped, not pruned). The invariant oracle checks this never exceeds
  // limit(): allow() records only within-limit events and brownout only
  // tightens effective limits.
  [[nodiscard]] std::uint64_t max_in_window(sim::SimTime now) const;

  void clear() {
    windows_.clear();
    keys_.clear();
  }

  // Checkpoint support: window history per key, denial tally, sweep clock.
  // The frame lists keys sorted by string, so its bytes do not depend on
  // intern-id assignment or on container history. The denial tally is always serialised as a
  // plain count; restore adds it to whichever store (local or bound counter)
  // is active, assuming the bound counter cell was reset/restored alongside
  // (registry restore).
  template <class Ar>
  void visit(Ar& ar);

 private:
  // The window deque for `key`, created if absent.
  [[nodiscard]] std::deque<sim::SimTime>& window_for(std::string_view key);
  void prune(sim::SimTime now, std::deque<sim::SimTime>& q) const;
  [[nodiscard]] std::uint64_t live_count(sim::SimTime now, const std::deque<sim::SimTime>& q) const;
  // Drops every key with no event newer than now - window. Amortised: runs at
  // most once per window span, and releases the intern id so the id space is
  // bounded by live keys.
  void evict_stale(sim::SimTime now);

  std::uint64_t limit_;
  sim::SimDuration window_;
  // Key strings live once in keys_; windows are a dense
  // vector indexed by id-1, so after the single intern probe every window
  // access is an array index (and sweeps walk contiguous memory). Id
  // recycling reuses slots; erase paths clear the slot's deque so a recycled
  // id never inherits stale events.
  util::InternTable keys_;
  std::vector<std::deque<sim::SimTime>> windows_;
  // Denial tally: local until bind_denials() publishes it to a registry.
  std::uint64_t local_denials_ = 0;
  obs::Counter denials_counter_;
  sim::SimTime last_sweep_ = 0;
};

}  // namespace fraudsim::mitigate
