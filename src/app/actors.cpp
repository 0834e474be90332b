#include "app/actors.hpp"

namespace fraudsim::app {

const char* to_string(ActorKind k) {
  switch (k) {
    case ActorKind::Human:
      return "human";
    case ActorKind::SeatSpinBot:
      return "seat-spin-bot";
    case ActorKind::ManualSpinner:
      return "manual-spinner";
    case ActorKind::SmsPumpBot:
      return "sms-pump-bot";
    case ActorKind::Scraper:
      return "scraper";
    case ActorKind::RingBot:
      return "ring-bot";
  }
  return "?";
}

bool is_abuser(ActorKind k) { return k != ActorKind::Human; }

bool is_automated(ActorKind k) {
  switch (k) {
    case ActorKind::SeatSpinBot:
    case ActorKind::SmsPumpBot:
    case ActorKind::Scraper:
    case ActorKind::RingBot:
      return true;
    default:
      return false;
  }
}

web::ActorId ActorRegistry::register_actor(ActorKind kind) {
  const web::ActorId id{next_++};
  kinds_[id] = kind;
  if (observer_) observer_(id, kind);
  return id;
}

ActorKind ActorRegistry::kind_of(web::ActorId id) const {
  const auto it = kinds_.find(id);
  return it == kinds_.end() ? ActorKind::Human : it->second;
}

}  // namespace fraudsim::app
