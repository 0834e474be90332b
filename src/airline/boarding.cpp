#include "airline/boarding.hpp"

namespace fraudsim::airline {

const char* to_string(BoardingPassService::SmsResult r) {
  using R = BoardingPassService::SmsResult;
  switch (r) {
    case R::Sent:
      return "sent";
    case R::FeatureDisabled:
      return "feature-disabled";
    case R::UnknownPnr:
      return "unknown-pnr";
    case R::NotTicketed:
      return "not-ticketed";
    case R::PerBookingCapReached:
      return "per-booking-cap";
  }
  return "?";
}

BoardingPassService::BoardingPassService(InventoryManager& inventory, sms::SmsGateway& gateway,
                                         BoardingConfig config)
    : inventory_(inventory), gateway_(gateway), config_(config) {}

BoardingPassService::SmsResult BoardingPassService::request_sms(sim::SimTime now,
                                                                const std::string& pnr,
                                                                sms::PhoneNumber destination,
                                                                web::ActorId actor,
                                                                overload::Deadline deadline) {
  ++sms_requests_;
  if (!config_.sms_option_enabled) return SmsResult::FeatureDisabled;
  const Reservation* r = inventory_.find(pnr);
  if (r == nullptr) return SmsResult::UnknownPnr;
  if (r->state != ReservationState::Ticketed) return SmsResult::NotTicketed;
  auto& count = sms_per_pnr_[pnr];
  if (config_.sms_per_booking_cap > 0 && count >= config_.sms_per_booking_cap) {
    return SmsResult::PerBookingCapReached;
  }
  ++count;
  ++sms_sent_;
  gateway_.send(now, std::move(destination), sms::SmsType::BoardingPass, actor, pnr, deadline);
  return SmsResult::Sent;
}

util::Status BoardingPassService::request_email(sim::SimTime now, const std::string& pnr) {
  (void)now;
  const Reservation* r = inventory_.find(pnr);
  if (r == nullptr) return util::Status::fail(util::ErrorCode::kNotFound, "unknown PNR " + pnr);
  if (r->state != ReservationState::Ticketed) {
    return util::Status::fail(util::ErrorCode::kInvalidState, "PNR " + pnr + " not ticketed");
  }
  ++email_sent_;
  return util::Status::ok();
}

std::uint64_t BoardingPassService::sms_count_for(const std::string& pnr) const {
  const auto it = sms_per_pnr_.find(pnr);
  return it == sms_per_pnr_.end() ? 0 : it->second;
}

}  // namespace fraudsim::airline
