// Ground-truth actor registry.
//
// Every traffic source registers its actors here with their true kind.
// Detectors never read this; scoring (precision/recall) and benches do.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "util/archive.hpp"
#include "web/request.hpp"

namespace fraudsim::app {

enum class ActorKind : std::uint8_t {
  Human,
  SeatSpinBot,
  ManualSpinner,  // human attacker, no automation artifacts
  SmsPumpBot,
  Scraper,
  RingBot,  // member of a coordinated ring; individually under every threshold
};

[[nodiscard]] const char* to_string(ActorKind k);

// Whether the kind is an abuser (manual spinners count: they are attackers
// even though they are not bots — the distinction §IV-B turns on).
[[nodiscard]] bool is_abuser(ActorKind k);
// Whether the kind is automated (bot-detection ground truth).
[[nodiscard]] bool is_automated(ActorKind k);

class ActorRegistry : public util::Checkpointed<ActorRegistry> {
 public:
  using Observer = std::function<void(web::ActorId, ActorKind)>;

  [[nodiscard]] web::ActorId register_actor(ActorKind kind);
  [[nodiscard]] ActorKind kind_of(web::ActorId id) const;  // Human if unknown
  [[nodiscard]] bool abuser(web::ActorId id) const { return is_abuser(kind_of(id)); }
  [[nodiscard]] bool automated(web::ActorId id) const { return is_automated(kind_of(id)); }
  [[nodiscard]] std::size_t count() const { return kinds_.size(); }

  // Called on every registration (journal recording). Null disables.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  template <class Ar>
  void visit(Ar& ar) {
    ar(next_, kinds_);
  }

 private:
  std::unordered_map<web::ActorId, ActorKind> kinds_;
  std::uint64_t next_ = 1;
  Observer observer_;
};

}  // namespace fraudsim::app
