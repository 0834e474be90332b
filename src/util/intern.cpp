#include "util/intern.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace fraudsim::util {

// Ids come out in first-sighting order whatever the hash, so the hash
// reaches no id, frame or artifact; it only has to spread keys over slots.
std::uint64_t InternTable::hash_of(std::string_view s) noexcept {
  return std::hash<std::string_view>{}(s);
}

std::size_t InternTable::probe(std::string_view s, std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Id id = slots_[i];
    if (id == 0) return i;
    const Key& k = keys_[id - 1];
    if (k.hash == hash && bytes(k) == s) return i;
  }
}

InternTable::Id InternTable::intern(std::string_view s) {
  const std::uint64_t hash = hash_of(s);
  if (2 * (live_ + 1) > slots_.size()) rehash(std::max<std::size_t>(16, 2 * slots_.size()));
  const std::size_t slot = probe(s, hash);
  if (slots_[slot] != 0) return slots_[slot];
  if (text_.size() + s.size() >= kDead) throw std::length_error("InternTable: arena full");
  Id id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    keys_.emplace_back();
    id = static_cast<Id>(keys_.size());
  }
  keys_[id - 1] = Key{hash, static_cast<std::uint32_t>(text_.size()),
                      static_cast<std::uint32_t>(s.size())};
  text_.append(s);
  slots_[slot] = id;
  ++live_;
  return id;
}

InternTable::Id InternTable::find(std::string_view s) const {
  return slots_.empty() ? 0 : slots_[probe(s, hash_of(s))];
}

std::string_view InternTable::str(Id id) const {
  if (!contains(id)) throw std::out_of_range("InternTable::str: dead id");
  return bytes(keys_[id - 1]);
}

void InternTable::erase(Id id) {
  if (!contains(id)) return;
  Key& key = keys_[id - 1];
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = key.hash & mask;
  while (slots_[hole] != id) hole = (hole + 1) & mask;
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home slot lies cyclically after the hole.
  for (std::size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    const std::size_t home = keys_[slots_[j] - 1].hash & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
  dead_bytes_ += key.size;
  key.size = kDead;
  --live_;
  free_.push_back(id);
  if (dead_bytes_ > text_.size() / 2) compact();
}

void InternTable::rehash(std::size_t slots) {
  slots_.assign(slots, 0);
  const std::size_t mask = slots - 1;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i].size == kDead) continue;
    std::size_t slot = keys_[i].hash & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<Id>(i + 1);
  }
}

void InternTable::compact() {
  std::string text;
  text.reserve(text_.size() - dead_bytes_);
  for (Key& k : keys_) {
    if (k.size == kDead) continue;
    const auto offset = static_cast<std::uint32_t>(text.size());
    text.append(bytes(k));
    k.offset = offset;
  }
  text_ = std::move(text);
  dead_bytes_ = 0;
}

void InternTable::clear() {
  keys_.clear();
  slots_.clear();
  text_.clear();
  dead_bytes_ = 0;
  live_ = 0;
  free_.clear();
}

template <class Ar>
void InternTable::visit(Ar& ar) {
  if constexpr (Ar::reading) {
    // Reads the writer's vector of optional strings in place: every live
    // slot is placed under its id as it is read.
    clear();
    const std::uint64_t n = ar.u64();
    keys_.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, ar.remaining())));
    for (std::uint64_t i = 0; i < n && ar.ok(); ++i) {
      if (!ar.boolean()) {
        keys_.emplace_back();  // a free id
        continue;
      }
      const std::string s = ar.str();
      if (!ar.ok()) break;
      // The free list is still empty, so a new key takes id i + 1; an older
      // id means the frame repeats a key.
      if (intern(s) != i + 1) ar.fail();
    }
    ar(free_);
    std::vector<bool> freed(keys_.size(), false);
    for (const Id id : free_) {
      if (id == 0 || id > keys_.size() || contains(id) || freed[id - 1]) {
        ar.fail();
        break;
      }
      freed[id - 1] = true;
    }
  } else {
    ar.u64(keys_.size());
    for (const Key& k : keys_) {
      ar.boolean(k.size != kDead);
      if (k.size != kDead) ar.str(bytes(k));
    }
    ar(free_);
  }
}
template void InternTable::visit(ByteWriter&);
template void InternTable::visit(ByteReader&);

}  // namespace fraudsim::util
