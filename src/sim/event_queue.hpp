// Discrete-event priority queue with cancellable handles.
//
// Events at equal timestamps fire in scheduling order (FIFO), which keeps
// simulations deterministic regardless of heap internals.
//
// Layout. The binary heap holds 24-byte {time, id, slot} keys, so a sift
// moves keys only. Closures live in a slab of EventFn indexed by slot and
// recycled through a free list. Liveness is one bit per id over the window
// [oldest live id, next_id): ids are issued in sequence, so schedule, pop and
// cancel each set or clear one bit — no hashing, no per-event allocation once
// the heap, slab and window have grown to the run's high-water mark.
//
// Memory bound. The window costs at most 1 bit per id issued since the oldest
// live one (plus the not-yet-compacted head, itself bounded by the window
// size). The heap and the slab cost O(live + cancelled), and cancelled entries
// never exceed half the heap (compact()).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace fraudsim::sim {

using EventId = std::uint64_t;
using EventFn = std::function<void()>;

class EventQueue {
 public:
  // Schedules `fn` at absolute time `at`. Returns a handle usable with cancel().
  EventId schedule(SimTime at, EventFn fn);

  // Cancels a pending event. Returns false if already fired or cancelled.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] SimTime next_time() const;  // undefined if empty()

  // Pops and returns the next event. Pre: !empty().
  struct Fired {
    SimTime time;
    EventId id;
    EventFn fn;
  };
  Fired pop();

  // --- Checkpoint support ----------------------------------------------------
  // Pending entries are workload data (closures are not serialisable), so
  // checkpoint owners persist their own descriptors and re-register them on
  // restore under their ORIGINAL ids — preserving the FIFO tiebreak order a
  // continuous run would have used — then restore the id counter so future
  // handles continue the exact sequence.
  //
  // Both calls take bytes a reader decoded, so both reject what no run could
  // have produced instead of corrupting the queue: restore_entry refuses id 0,
  // an id past kMaxRestoredId, an id that is already live, and an id that
  // would stretch the liveness window [lowest live or restored id, next_id)
  // past kMaxRestoreSpan; set_next_id refuses 0, a value past
  // kMaxRestoredId, any value at or below the highest live id (schedule would
  // hand that id out again) and the same over-wide window. A rejected call
  // changes nothing and returns false.
  [[nodiscard]] bool restore_entry(SimTime at, EventId id, EventFn fn);
  [[nodiscard]] EventId next_id() const { return next_id_; }
  [[nodiscard]] bool set_next_id(EventId id);

  // Widest liveness window a restore may create: 2^32 ids, a 512 MiB bitmap.
  // A run reaches it only by issuing ~4 billion events on one queue while a
  // single early event stays pending; ids decoded from a damaged or hostile
  // checkpoint reach it at once.
  static constexpr EventId kMaxRestoreSpan = EventId{1} << 32;
  // Highest id a restore may use, so the id sequence can never wrap to 0.
  static constexpr EventId kMaxRestoredId = (EventId{1} << 63) - 1;

  // --- Introspection (compaction and memory-bound regression tests) ---------
  // Heap slots currently held, live + dead. Bounded by live + cancelled: the
  // queue compacts away dead entries before they can exceed half the heap.
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }
  [[nodiscard]] std::size_t cancelled_count() const { return heap_.size() - live_; }
  // 64-bit words the liveness window currently holds.
  [[nodiscard]] std::size_t liveness_words() const { return bits_.size(); }

 private:
  struct Key {
    SimTime time;
    EventId id;  // also the FIFO tiebreaker (monotonically increasing)
    std::uint32_t slot;  // index into fns_
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  void push(SimTime at, EventId id, EventFn fn);
  [[nodiscard]] bool live(EventId id) const;
  void mark_live(EventId id);
  void clear_live(EventId id);
  // Lowest and highest live id. Pre: live_ > 0.
  [[nodiscard]] EventId oldest_live() const;
  [[nodiscard]] EventId newest_live() const;

  // Drops every dead entry, frees its slot and rebuilds the heap. (time, id)
  // is a total order, so pop order — and therefore observable behaviour — is
  // unchanged.
  void compact();
  // Dead entries are reclaimed lazily when they surface at the heap top;
  // compact() bounds the dead mass so a long-horizon timer cancelled early
  // cannot pin its slot for the rest of the run.
  void drain_dead_top();

  // A heap key is live iff its id's bit is set. Every id in the heap is below
  // next_id_, and no dead key shares its id with a live one: the two calls
  // that can make an issued id issuable again (restore_entry below next_id_,
  // set_next_id lowering it) first compact the dead keys away.
  std::vector<Key> heap_;  // binary heap ordered by Later (std::*_heap)
  std::vector<EventFn> fns_;
  std::vector<std::uint32_t> free_slots_;
  // Bit b of bits_[w] is id base_ + 64*w + b. Words [0, head_) are all zero
  // and are erased once they outnumber the rest; bits_[head_] holds the
  // oldest live id whenever one exists. Ids outside the window are not live.
  std::vector<std::uint64_t> bits_;
  std::size_t head_ = 0;
  EventId base_ = 0;  // multiple of 64
  std::size_t live_ = 0;
  EventId next_id_ = 1;
};

}  // namespace fraudsim::sim
