// Boarding-pass issuance and delivery.
//
// §IV-C: after ticketing, passengers may receive boarding passes by email or
// SMS. The SMS channel, unprotected by per-booking rate limits at the time,
// was the surface of the advanced pumping attack. This service enforces
// ticketed-state checks and (optionally) a per-booking-reference SMS cap —
// the mitigation the paper says was missing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "airline/inventory.hpp"
#include "sms/gateway.hpp"
#include "util/result.hpp"

namespace fraudsim::airline {

struct BoardingConfig {
  // Max boarding-pass SMS sends per booking reference; 0 = unlimited (the
  // vulnerable December-2022 configuration).
  std::uint64_t sms_per_booking_cap = 0;
  // Whether the SMS delivery option is offered at all (removing it was the
  // emergency mitigation that stopped the attack).
  bool sms_option_enabled = true;
};

class BoardingPassService : public util::Checkpointed<BoardingPassService> {
 public:
  BoardingPassService(InventoryManager& inventory, sms::SmsGateway& gateway,
                      BoardingConfig config);

  // Delivers a boarding pass via SMS for a ticketed PNR.
  enum class SmsResult : std::uint8_t {
    Sent,
    FeatureDisabled,
    UnknownPnr,
    NotTicketed,
    PerBookingCapReached,
  };
  // The deadline budget (attached by overload admission; unbounded by
  // default) travels into the gateway's retry queue.
  SmsResult request_sms(sim::SimTime now, const std::string& pnr, sms::PhoneNumber destination,
                        web::ActorId actor, overload::Deadline deadline = {});

  // Email delivery (free; always available for ticketed PNRs).
  util::Status request_email(sim::SimTime now, const std::string& pnr);

  [[nodiscard]] std::uint64_t sms_requests() const { return sms_requests_; }
  [[nodiscard]] std::uint64_t sms_sent() const { return sms_sent_; }
  [[nodiscard]] std::uint64_t email_sent() const { return email_sent_; }
  [[nodiscard]] std::uint64_t sms_count_for(const std::string& pnr) const;

  void set_sms_option_enabled(bool enabled) { config_.sms_option_enabled = enabled; }
  [[nodiscard]] bool sms_option_enabled() const { return config_.sms_option_enabled; }
  void set_sms_per_booking_cap(std::uint64_t cap) { config_.sms_per_booking_cap = cap; }

  // Checkpoint support (config knobs are runtime-mutable mitigations, so
  // they are part of the state).
  template <class Ar>
  void visit(Ar& ar) {
    ar(config_.sms_per_booking_cap, config_.sms_option_enabled, sms_requests_, sms_sent_,
       email_sent_, sms_per_pnr_);
  }

 private:
  InventoryManager& inventory_;
  sms::SmsGateway& gateway_;
  BoardingConfig config_;
  std::unordered_map<std::string, std::uint64_t> sms_per_pnr_;
  std::uint64_t sms_requests_ = 0;
  std::uint64_t sms_sent_ = 0;
  std::uint64_t email_sent_ = 0;
};

[[nodiscard]] const char* to_string(BoardingPassService::SmsResult r);

}  // namespace fraudsim::airline
