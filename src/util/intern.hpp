// String interning: map free-form byte strings to dense 32-bit ids.
//
// A shared utility with two platform consumers today:
//   * the rate limiter keys its sliding windows by client-derived strings
//     (exit IP, session id, booking reference);
//   * the entity graph (core/detect/graph) interns every typed node key and
//     uses the dense ids directly as graph node ids.
// Interning turns every steady-state key operation into integer work: the
// string is hashed once to find its id, and all per-key state lives in
// integer-keyed containers with cheap equality, cheap rehashing, and no
// per-node string storage.
//
// Guarantees callers may rely on (and tests pin):
//   * Ids are dense, assigned 1, 2, 3, ... in first-sighting order; 0 is
//     reserved for "not interned".
//   * Ids are recycled LIFO through a free list, so erase() (stale-key
//     eviction) keeps the table bounded by *live* keys, not lifetime
//     distinct keys, and re-interning after an erase reuses the most
//     recently freed id first.
//   * checkpoint()/restore() reproduce the EXACT id assignment — including
//     the free list order — so interned ids are stable across a
//     save/restore cycle and checkpoint bytes are stable across a
//     restore → re-checkpoint round trip.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/archive.hpp"

namespace fraudsim::util {

class InternTable : public Checkpointed<InternTable> {
 public:
  using Id = std::uint32_t;  // 0 is "not interned"

  // Insert-or-lookup. The first sighting of a string copies it; every later
  // call is one hash + map probe.
  Id intern(std::string_view s);

  // Lookup without inserting; 0 when the string has never been interned (or
  // was erased).
  [[nodiscard]] Id find(std::string_view s) const;

  // The string behind a live id. Pointers/views stay valid until the id is
  // erased (map nodes are stable).
  [[nodiscard]] const std::string& str(Id id) const;
  [[nodiscard]] bool contains(Id id) const;

  // Frees the id for reuse. Erasing 0 or a dead id is a no-op.
  void erase(Id id);

  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] bool empty() const { return ids_.empty(); }
  // Live ids + free-list entries: the table's high-water id count.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  void clear();

  // Byte-stable serialisation: slots in id order, then the free list. A
  // restore reproduces every live string under its original id, and fails
  // the reader on a free-list id that is not a free slot.
  template <class Ar>
  void visit(Ar& ar);

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const noexcept { return a == b; }
  };

  // Node-based map: key addresses are stable, so slots_ can point into it.
  std::unordered_map<std::string, Id, Hash, Eq> ids_;
  std::vector<const std::string*> slots_;  // id-1 -> key (nullptr = free)
  std::vector<Id> free_;                   // recycled ids, LIFO
};

}  // namespace fraudsim::util
