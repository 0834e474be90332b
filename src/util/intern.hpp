// String interning: map free-form byte strings to dense 32-bit ids.
//
// A shared utility with three consumers today:
//   * the rate limiter keys its sliding windows by client-derived strings
//     (exit IP, session id, booking reference);
//   * the entity graph (core/detect/graph) interns every typed node key and
//     uses the dense ids directly as graph node ids;
//   * the name-pattern analyzer interns each window's name and party keys.
// Interning turns every steady-state key operation into integer work: the
// string is hashed once to find its id, and all per-key state lives in
// integer-keyed containers.
//
// Layout: flat, with no heap node per key. Key bytes sit back to back in one
// arena string; each id's record holds its stored hash, offset and length
// (16 B). An open-addressing table of ids (linear probing, load at most 1/2)
// finds a key by comparing stored hashes before bytes. Erase uses
// backward-shift deletion, so there are no tombstones, and the arena is
// compacted once dead bytes pass half of it.
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
#include <vector>

#include "util/archive.hpp"

namespace fraudsim::util {

class InternTable : public Checkpointed<InternTable> {
 public:
  using Id = std::uint32_t;  // 0 is "not interned"

  // Insert-or-lookup. The first sighting of a string copies it into the
  // arena; every later call is one hash + probe.
  Id intern(std::string_view s);

  // Lookup without inserting; 0 when the string has never been interned (or
  // was erased).
  [[nodiscard]] Id find(std::string_view s) const;

  // The string behind a live id. The view points into the arena: it stays
  // valid until the next intern(), erase(), clear() or restore.
  [[nodiscard]] std::string_view str(Id id) const;
  [[nodiscard]] bool contains(Id id) const {
    return id != 0 && id <= keys_.size() && keys_[id - 1].size != kDead;
  }

  // Frees the id for reuse. Erasing 0 or a dead id is a no-op.
  void erase(Id id);

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  // Live ids + free-list entries: the table's high-water id count.
  [[nodiscard]] std::size_t capacity() const { return keys_.size(); }

  void clear();

  // Byte-stable serialisation: slots in id order (each a bool and, when
  // live, its string), then the free list. A restore reproduces every live
  // string under its original id, and fails the reader on a duplicate key or
  // on a free-list id that is live, repeated or out of range.
  template <class Ar>
  void visit(Ar& ar);

 private:
  static constexpr std::uint32_t kDead = UINT32_MAX;  // Key::size of a free id

  struct Key {
    std::uint64_t hash = 0;
    std::uint32_t offset = 0;  // into text_
    std::uint32_t size = kDead;
  };

  [[nodiscard]] static std::uint64_t hash_of(std::string_view s) noexcept;
  [[nodiscard]] std::string_view bytes(const Key& k) const {
    return std::string_view(text_).substr(k.offset, k.size);
  }
  // The table slot holding `s`'s id, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(std::string_view s, std::uint64_t hash) const;
  // Places a new key under `id` (a fresh or freed id); false on a duplicate.
  bool insert(Id id, std::string_view s);
  void rehash(std::size_t slots);
  void compact();

  std::vector<Key> keys_;    // id-1 -> key record
  std::vector<Id> slots_;    // open addressing, power-of-two size; 0 = empty
  std::string text_;         // every key's bytes, back to back
  std::size_t dead_bytes_ = 0;  // bytes of erased keys still in text_
  std::size_t live_ = 0;
  std::vector<Id> free_;     // recycled ids, LIFO
};

}  // namespace fraudsim::util
