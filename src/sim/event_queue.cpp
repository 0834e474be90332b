#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace fraudsim::sim {

namespace {

constexpr std::uint64_t bit_of(EventId off) { return std::uint64_t{1} << (off & 63); }

}  // namespace

EventId EventQueue::schedule(SimTime at, EventFn fn) {
  const EventId id = next_id_++;
  mark_live(id);
  push(at, id, std::move(fn));
  return id;
}

bool EventQueue::restore_entry(SimTime at, EventId id, EventFn fn) {
  if (id == 0 || id > kMaxRestoredId || live(id)) return false;
  const EventId lo = live_ > 0 ? std::min(oldest_live(), id) : id;
  if (std::max(next_id_, id + 1) - lo > kMaxRestoreSpan) return false;
  // A cancelled key may still carry this id; drop it so it cannot pass for
  // the revived entry.
  if (id < next_id_ && heap_.size() > live_) compact();
  mark_live(id);
  push(at, id, std::move(fn));
  if (id >= next_id_) next_id_ = id + 1;
  return true;
}

bool EventQueue::set_next_id(EventId id) {
  if (id == 0 || id > kMaxRestoredId) return false;
  if (live_ > 0 && (id <= newest_live() || id - oldest_live() > kMaxRestoreSpan)) return false;
  // Ids in [id, next_id_) become issuable again; a dead key may hold one.
  if (id < next_id_ && heap_.size() > live_) compact();
  next_id_ = id;
  return true;
}

bool EventQueue::cancel(EventId id) {
  // Only ids that are scheduled AND have neither fired nor been cancelled have
  // their bit set. Everything else — never-issued ids, fired ids, doubly
  // cancelled ids — is rejected without touching any queue state.
  if (!live(id)) return false;
  clear_live(id);
  // Bound the dead mass: without this, a long-horizon entry cancelled early
  // (hold-TTL sweep, retry timer behind an open breaker) pins its heap key
  // and its closure until it surfaces at the top — unbounded memory over a
  // 100M-event run. Rebuilding once dead entries exceed half the heap keeps
  // total slots <= 2x live entries, amortised O(1) per cancel.
  if (cancelled_count() * 2 > heap_.size()) compact();
  return true;
}

void EventQueue::push(SimTime at, EventId id, EventFn fn) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(fns_.size());
    fns_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    fns_[slot] = std::move(fn);
  }
  heap_.push_back(Key{at, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventQueue::live(EventId id) const {
  if (id < base_) return false;
  const EventId off = id - base_;
  const std::size_t w = off >> 6;
  return w < bits_.size() && (bits_[w] & bit_of(off)) != 0;
}

void EventQueue::mark_live(EventId id) {
  if (live_ == 0) {
    // Nothing is live, so the window can restart at this id.
    bits_.clear();
    head_ = 0;
    base_ = id & ~EventId{63};
  } else if (id < base_) {
    // Only a restore reaches below the window; it checked the span.
    const std::size_t grow = (base_ - (id & ~EventId{63})) >> 6;
    bits_.insert(bits_.begin(), grow, 0);
    base_ -= EventId{grow} << 6;
    head_ += grow;
  }
  const EventId off = id - base_;
  const std::size_t w = off >> 6;
  if (w >= bits_.size()) bits_.resize(w + 1, 0);
  bits_[w] |= bit_of(off);
  head_ = std::min(head_, w);
  ++live_;
}

void EventQueue::clear_live(EventId id) {
  const EventId off = id - base_;
  const std::size_t w = off >> 6;
  bits_[w] &= ~bit_of(off);
  --live_;
  if (w != head_ || bits_[w] != 0) return;
  // The oldest word emptied: move the head past every empty word and, like
  // the rate limiter's windows, erase the dead prefix once it is the larger
  // half, so the window is amortised O(1) per id.
  while (head_ < bits_.size() && bits_[head_] == 0) ++head_;
  if (2 * head_ > bits_.size()) {
    bits_.erase(bits_.begin(), bits_.begin() + static_cast<std::ptrdiff_t>(head_));
    base_ += EventId{head_} << 6;
    head_ = 0;
  }
}

EventId EventQueue::oldest_live() const {
  assert(live_ > 0 && bits_[head_] != 0);
  return base_ + (EventId{head_} << 6) + static_cast<EventId>(std::countr_zero(bits_[head_]));
}

EventId EventQueue::newest_live() const {
  assert(live_ > 0);
  std::size_t w = bits_.size() - 1;
  while (bits_[w] == 0) --w;
  return base_ + (EventId{w} << 6) + 63 - static_cast<EventId>(std::countl_zero(bits_[w]));
}

void EventQueue::compact() {
  std::size_t kept = 0;
  for (const Key& key : heap_) {
    if (live(key.id)) {
      heap_[kept++] = key;
    } else {
      fns_[key.slot] = nullptr;
      free_slots_.push_back(key.slot);
    }
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::drain_dead_top() {
  while (!heap_.empty() && !live(heap_.front().id)) {
    const std::uint32_t slot = heap_.front().slot;
    fns_[slot] = nullptr;
    free_slots_.push_back(slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() const {
  assert(!empty());
  // Drain dead tops via const_cast — logically const (observable state for
  // live events is unchanged), and pop() would resolve them anyway.
  auto& self = const_cast<EventQueue&>(*this);
  self.drain_dead_top();
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty());
  drain_dead_top();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key top = heap_.back();
  heap_.pop_back();
  Fired fired{top.time, top.id, std::move(fns_[top.slot])};
  fns_[top.slot] = nullptr;
  free_slots_.push_back(top.slot);
  clear_live(top.id);
  return fired;
}

}  // namespace fraudsim::sim
