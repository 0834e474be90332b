// Seat inventory with temporary holds.
//
// This is the feature Seat Spinning exploits (paper §IV-A): selecting seats
// reserves them for a hold window (30 minutes to several hours depending on
// the domain) before payment is required. Holds that expire release their
// seats; attackers re-hold immediately after expiry to keep stock depleted.
//
// Invariants (enforced and property-tested):
//   held(f) + sold(f) <= capacity(f)            for every flight f
//   a reservation is in exactly one state; transitions are
//     Held -> {Ticketed, Cancelled, Expired}, terminal states never change
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "airline/flight.hpp"
#include "airline/passenger.hpp"
#include "airline/pnr.hpp"
#include "fingerprint/fingerprint.hpp"
#include "net/ip.hpp"
#include "sim/time.hpp"
#include "util/result.hpp"
#include "web/request.hpp"

namespace fraudsim::airline {

enum class ReservationState : std::uint8_t { Held, Ticketed, Cancelled, Expired };

[[nodiscard]] const char* to_string(ReservationState s);

struct Reservation {
  std::string pnr;
  FlightId flight;
  std::vector<Passenger> passengers;
  sim::SimTime created = 0;
  sim::SimTime hold_expiry = 0;
  ReservationState state = ReservationState::Held;
  sim::SimTime state_changed = 0;
  // Request provenance (what server telemetry would record).
  net::IpV4 source_ip;
  fp::FpHash source_fp;
  web::ActorId actor;  // ground truth

  [[nodiscard]] int nip() const { return static_cast<int>(passengers.size()); }

  template <class Ar>
  void visit(Ar& ar) {
    ar(pnr, flight, passengers, created, hold_expiry, state, state_changed, source_ip, source_fp,
       actor);
  }
};

struct InventoryConfig {
  // How long a hold reserves seats before expiring unpaid.
  sim::SimDuration hold_duration = sim::minutes(30);
  // Maximum passengers per reservation (the NiP cap). 0 = no cap. Mutable at
  // runtime — imposing this cap mid-attack is the §IV-A mitigation.
  int max_nip = 9;
};

struct HoldRejection {
  enum class Reason { NoAvailability, NipCapExceeded, UnknownFlight, EmptyParty };
  Reason reason;
  std::string message;
};

class InventoryManager : public util::Checkpointed<InventoryManager> {
 public:
  InventoryManager(InventoryConfig config, sim::Rng pnr_rng);

  FlightId add_flight(std::string airline, int number, int capacity, sim::SimTime departure);
  [[nodiscard]] const Flight* flight(FlightId id) const;
  [[nodiscard]] std::vector<FlightId> flights() const;

  // Attempts to hold seats. On success returns the PNR.
  struct HoldOutcome {
    bool ok = false;
    std::string pnr;                      // set when ok
    std::optional<HoldRejection> rejection;  // set when !ok
  };
  // `ttl_override` replaces the configured hold_duration for this hold only
  // (brownout shortens hold TTLs while the platform is under load).
  HoldOutcome hold(sim::SimTime now, FlightId flight, std::vector<Passenger> passengers,
                   web::ActorId actor, net::IpV4 ip = {}, fp::FpHash fp = {},
                   std::optional<sim::SimDuration> ttl_override = {});

  // Expires all due holds; returns how many expired. Callers drive this from
  // the event loop (the platform schedules expiry sweeps).
  std::size_t expire_due(sim::SimTime now);

  // Held -> Ticketed (payment completed).
  util::Status ticket(sim::SimTime now, const std::string& pnr);
  // Held -> Cancelled (user abandoned explicitly).
  util::Status cancel(sim::SimTime now, const std::string& pnr);

  [[nodiscard]] int held_seats(FlightId flight) const;
  [[nodiscard]] int sold_seats(FlightId flight) const;
  [[nodiscard]] int available_seats(FlightId flight) const;

  [[nodiscard]] const Reservation* find(const std::string& pnr) const;
  [[nodiscard]] const std::vector<Reservation>& reservations() const { return reservations_; }
  [[nodiscard]] std::vector<const Reservation*> reservations_for(FlightId flight) const;

  // Runtime mitigation knobs.
  void set_max_nip(int max_nip) { config_.max_nip = max_nip; }
  [[nodiscard]] int max_nip() const { return config_.max_nip; }
  void set_hold_duration(sim::SimDuration d) { config_.hold_duration = d; }
  [[nodiscard]] sim::SimDuration hold_duration() const { return config_.hold_duration; }

  struct Stats {
    std::uint64_t holds_created = 0;
    std::uint64_t holds_rejected = 0;
    std::uint64_t expired = 0;
    std::uint64_t ticketed = 0;
    std::uint64_t cancelled = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // Checkpoint support: serialises config knobs, the PNR stream, flights,
  // reservations and tallies; derived indexes (by_pnr_, expiry heap, per-
  // flight counters) are rebuilt on restore.
  template <class Ar>
  void visit(Ar& ar) {
    ar(config_.hold_duration, config_.max_nip, pnr_gen_, flights_, reservations_,
       stats_.holds_created, stats_.holds_rejected, stats_.expired, stats_.ticketed,
       stats_.cancelled);
    if constexpr (Ar::reading) rebuild_indexes();
  }

  // TESTING ONLY: creates a hold that bypasses the availability check — the
  // oversell bug the seat-conservation invariant exists to catch. Returns the
  // PNR. Never call from production paths.
  std::string debug_force_hold(sim::SimTime now, FlightId flight,
                               std::vector<Passenger> passengers, web::ActorId actor);

 private:
  Reservation* find_mutable(const std::string& pnr);
  // Re-derives by_pnr_, the expiry heap and the per-flight seat counters
  // from reservations_ after a restore.
  void rebuild_indexes();

  InventoryConfig config_;
  PnrGenerator pnr_gen_;
  std::vector<Flight> flights_;
  std::vector<Reservation> reservations_;
  std::unordered_map<std::string, std::size_t> by_pnr_;
  // Min-heap of (hold_expiry, reservation index) so expiry sweeps touch only
  // due holds instead of scanning all reservations.
  struct ExpiryEntry {
    sim::SimTime expiry;
    std::size_t index;
    bool operator>(const ExpiryEntry& o) const { return expiry > o.expiry; }
  };
  std::priority_queue<ExpiryEntry, std::vector<ExpiryEntry>, std::greater<ExpiryEntry>>
      expiry_heap_;
  // Per-flight seat counters (kept incrementally; validated in tests).
  std::unordered_map<FlightId, int> held_;
  std::unordered_map<FlightId, int> sold_;
  Stats stats_;
};

}  // namespace fraudsim::airline
