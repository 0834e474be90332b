#include "airline/boarding.hpp"

#include <algorithm>
#include <vector>

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

void BoardingPassService::checkpoint(util::ByteWriter& out) const {
  out.u64(config_.sms_per_booking_cap);
  out.boolean(config_.sms_option_enabled);
  out.u64(sms_requests_);
  out.u64(sms_sent_);
  out.u64(email_sent_);
  // Sort before writing: sms_per_pnr_ is an unordered_map, and its
  // iteration order would otherwise leak hash-table layout into the
  // checkpoint bytes (and differ after a restore re-inserts).
  std::vector<const std::pair<const std::string, std::uint64_t>*> entries;
  entries.reserve(sms_per_pnr_.size());
  for (const auto& entry : sms_per_pnr_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  out.u64(entries.size());
  for (const auto* entry : entries) {
    out.str(entry->first);
    out.u64(entry->second);
  }
}

void BoardingPassService::restore(util::ByteReader& in) {
  config_.sms_per_booking_cap = in.u64();
  config_.sms_option_enabled = in.boolean();
  sms_requests_ = in.u64();
  sms_sent_ = in.u64();
  email_sent_ = in.u64();
  const auto n = in.u64();
  sms_per_pnr_.clear();
  for (std::uint64_t i = 0; i < n && in.ok(); ++i) {
    const std::string pnr = in.str();
    sms_per_pnr_[pnr] = in.u64();
  }
}

}  // namespace fraudsim::airline
