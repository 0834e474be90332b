#include "airline/inventory.hpp"

#include <algorithm>
#include <cassert>

namespace fraudsim::airline {

const char* to_string(ReservationState s) {
  switch (s) {
    case ReservationState::Held:
      return "held";
    case ReservationState::Ticketed:
      return "ticketed";
    case ReservationState::Cancelled:
      return "cancelled";
    case ReservationState::Expired:
      return "expired";
  }
  return "?";
}

InventoryManager::InventoryManager(InventoryConfig config, sim::Rng pnr_rng)
    : config_(config), pnr_gen_(std::move(pnr_rng)) {}

FlightId InventoryManager::add_flight(std::string airline, int number, int capacity,
                                      sim::SimTime departure) {
  const FlightId id{flights_.size() + 1};
  flights_.push_back(Flight{id, std::move(airline), number, capacity, departure});
  held_[id] = 0;
  sold_[id] = 0;
  return id;
}

const Flight* InventoryManager::flight(FlightId id) const {
  if (!id.valid() || id.value() > flights_.size()) return nullptr;
  return &flights_[id.value() - 1];
}

std::vector<FlightId> InventoryManager::flights() const {
  std::vector<FlightId> out;
  out.reserve(flights_.size());
  for (const auto& f : flights_) out.push_back(f.id);
  return out;
}

InventoryManager::HoldOutcome InventoryManager::hold(sim::SimTime now, FlightId flight_id,
                                                     std::vector<Passenger> passengers,
                                                     web::ActorId actor, net::IpV4 ip,
                                                     fp::FpHash fp,
                                                     std::optional<sim::SimDuration> ttl_override) {
  HoldOutcome outcome;
  const Flight* f = flight(flight_id);
  if (f == nullptr) {
    ++stats_.holds_rejected;
    outcome.rejection = HoldRejection{HoldRejection::Reason::UnknownFlight, "unknown flight"};
    return outcome;
  }
  if (passengers.empty()) {
    ++stats_.holds_rejected;
    outcome.rejection = HoldRejection{HoldRejection::Reason::EmptyParty, "no passengers"};
    return outcome;
  }
  const int nip = static_cast<int>(passengers.size());
  if (config_.max_nip > 0 && nip > config_.max_nip) {
    ++stats_.holds_rejected;
    outcome.rejection = HoldRejection{
        HoldRejection::Reason::NipCapExceeded,
        "party of " + std::to_string(nip) + " exceeds cap of " + std::to_string(config_.max_nip)};
    return outcome;
  }
  // Lazily expire due holds on this flight so availability reflects `now`.
  expire_due(now);
  const int available = f->capacity - held_[flight_id] - sold_[flight_id];
  if (nip > available) {
    ++stats_.holds_rejected;
    outcome.rejection = HoldRejection{HoldRejection::Reason::NoAvailability,
                                      "only " + std::to_string(available) + " seats available"};
    return outcome;
  }

  Reservation r;
  r.pnr = pnr_gen_.next();
  r.flight = flight_id;
  r.passengers = std::move(passengers);
  r.created = now;
  r.hold_expiry = now + ttl_override.value_or(config_.hold_duration);
  r.state = ReservationState::Held;
  r.state_changed = now;
  r.source_ip = ip;
  r.source_fp = fp;
  r.actor = actor;

  held_[flight_id] += nip;
  by_pnr_[r.pnr] = reservations_.size();
  outcome.ok = true;
  outcome.pnr = r.pnr;
  expiry_heap_.push(ExpiryEntry{r.hold_expiry, reservations_.size()});
  reservations_.push_back(std::move(r));
  ++stats_.holds_created;
  return outcome;
}

std::size_t InventoryManager::expire_due(sim::SimTime now) {
  std::size_t expired = 0;
  while (!expiry_heap_.empty() && expiry_heap_.top().expiry <= now) {
    const auto entry = expiry_heap_.top();
    expiry_heap_.pop();
    Reservation& r = reservations_[entry.index];
    // Ticketed/cancelled reservations left the Held state already.
    if (r.state != ReservationState::Held) continue;
    r.state = ReservationState::Expired;
    r.state_changed = r.hold_expiry;
    held_[r.flight] -= r.nip();
    assert(held_[r.flight] >= 0);
    ++expired;
  }
  stats_.expired += expired;
  return expired;
}

util::Status InventoryManager::ticket(sim::SimTime now, const std::string& pnr) {
  Reservation* r = find_mutable(pnr);
  if (r == nullptr) return util::Status::fail(util::ErrorCode::kNotFound, "unknown PNR " + pnr);
  if (r->state != ReservationState::Held) {
    return util::Status::fail(util::ErrorCode::kInvalidState,
                              "PNR " + pnr + " is " + to_string(r->state) + ", not held");
  }
  if (r->hold_expiry <= now) {
    // The hold lapsed before payment completed.
    r->state = ReservationState::Expired;
    r->state_changed = r->hold_expiry;
    held_[r->flight] -= r->nip();
    ++stats_.expired;
    return util::Status::fail(util::ErrorCode::kExpired,
                              "hold on PNR " + pnr + " expired before payment");
  }
  r->state = ReservationState::Ticketed;
  r->state_changed = now;
  held_[r->flight] -= r->nip();
  sold_[r->flight] += r->nip();
  ++stats_.ticketed;
  return util::Status::ok();
}

util::Status InventoryManager::cancel(sim::SimTime now, const std::string& pnr) {
  Reservation* r = find_mutable(pnr);
  if (r == nullptr) return util::Status::fail(util::ErrorCode::kNotFound, "unknown PNR " + pnr);
  if (r->state != ReservationState::Held) {
    return util::Status::fail(util::ErrorCode::kInvalidState,
                              "PNR " + pnr + " is " + to_string(r->state) + ", not held");
  }
  r->state = ReservationState::Cancelled;
  r->state_changed = now;
  held_[r->flight] -= r->nip();
  ++stats_.cancelled;
  return util::Status::ok();
}

int InventoryManager::held_seats(FlightId flight) const {
  const auto it = held_.find(flight);
  return it == held_.end() ? 0 : it->second;
}

int InventoryManager::sold_seats(FlightId flight) const {
  const auto it = sold_.find(flight);
  return it == sold_.end() ? 0 : it->second;
}

int InventoryManager::available_seats(FlightId flight_id) const {
  const Flight* f = flight(flight_id);
  if (f == nullptr) return 0;
  return f->capacity - held_seats(flight_id) - sold_seats(flight_id);
}

const Reservation* InventoryManager::find(const std::string& pnr) const {
  const auto it = by_pnr_.find(pnr);
  return it == by_pnr_.end() ? nullptr : &reservations_[it->second];
}

Reservation* InventoryManager::find_mutable(const std::string& pnr) {
  const auto it = by_pnr_.find(pnr);
  return it == by_pnr_.end() ? nullptr : &reservations_[it->second];
}

std::vector<const Reservation*> InventoryManager::reservations_for(FlightId flight) const {
  std::vector<const Reservation*> out;
  for (const auto& r : reservations_) {
    if (r.flight == flight) out.push_back(&r);
  }
  return out;
}

std::string InventoryManager::debug_force_hold(sim::SimTime now, FlightId flight_id,
                                               std::vector<Passenger> passengers,
                                               web::ActorId actor) {
  Reservation r;
  r.pnr = pnr_gen_.next();
  r.flight = flight_id;
  r.passengers = std::move(passengers);
  r.created = now;
  r.hold_expiry = now + config_.hold_duration;
  r.state = ReservationState::Held;
  r.state_changed = now;
  r.actor = actor;

  held_[flight_id] += r.nip();
  by_pnr_[r.pnr] = reservations_.size();
  expiry_heap_.push(ExpiryEntry{r.hold_expiry, reservations_.size()});
  std::string pnr = r.pnr;
  reservations_.push_back(std::move(r));
  ++stats_.holds_created;
  return pnr;
}

void InventoryManager::rebuild_indexes() {
  // The expiry heap only ever needs entries for still-Held reservations
  // (expire_due skips entries whose reservation left the Held state), so
  // re-seeding from Held holds is behaviour-preserving.
  by_pnr_.clear();
  held_.clear();
  sold_.clear();
  expiry_heap_ = {};
  for (std::size_t i = 0; i < reservations_.size(); ++i) {
    const Reservation& r = reservations_[i];
    by_pnr_[r.pnr] = i;
    if (r.state == ReservationState::Held) {
      held_[r.flight] += r.nip();
      expiry_heap_.push(ExpiryEntry{r.hold_expiry, i});
    } else if (r.state == ReservationState::Ticketed) {
      sold_[r.flight] += r.nip();
    }
  }
}

}  // namespace fraudsim::airline
