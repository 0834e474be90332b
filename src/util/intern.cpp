#include "util/intern.hpp"

#include <optional>
#include <stdexcept>

namespace fraudsim::util {

InternTable::Id InternTable::intern(std::string_view s) {
  if (auto it = ids_.find(s); it != ids_.end()) return it->second;
  Id id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<Id>(slots_.size() + 1);
    slots_.push_back(nullptr);
  }
  auto [it, inserted] = ids_.emplace(std::string(s), id);
  (void)inserted;
  slots_[id - 1] = &it->first;
  return id;
}

InternTable::Id InternTable::find(std::string_view s) const {
  auto it = ids_.find(s);
  return it == ids_.end() ? 0 : it->second;
}

const std::string& InternTable::str(Id id) const {
  if (!contains(id)) throw std::out_of_range("InternTable::str: dead id");
  return *slots_[id - 1];
}

bool InternTable::contains(Id id) const {
  return id != 0 && id <= slots_.size() && slots_[id - 1] != nullptr;
}

void InternTable::erase(Id id) {
  if (!contains(id)) return;
  ids_.erase(*slots_[id - 1]);
  slots_[id - 1] = nullptr;
  free_.push_back(id);
}

void InternTable::clear() {
  ids_.clear();
  slots_.clear();
  free_.clear();
}

template <class Ar>
void InternTable::visit(Ar& ar) {
  if constexpr (Ar::reading) {
    clear();
    std::vector<std::optional<std::string>> slots;
    ar(slots, free_);
    slots_.resize(slots.size(), nullptr);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i]) continue;
      const auto it = ids_.emplace(std::move(*slots[i]), static_cast<Id>(i + 1)).first;
      slots_[i] = &it->first;
    }
    for (const Id id : free_) {
      if (id == 0 || id > slots_.size() || slots_[id - 1] != nullptr) ar.fail();
    }
  } else {
    // The slots as a vector of optional strings, without copying them.
    ar(std::uint64_t{slots_.size()});
    for (const std::string* slot : slots_) {
      ar(slot != nullptr);
      if (slot != nullptr) ar(*slot);
    }
    ar(free_);
  }
}
template void InternTable::visit(ByteWriter&);
template void InternTable::visit(ByteReader&);

}  // namespace fraudsim::util
