// Record payload codecs + the recording CallJournal.
//
// Every facade call is journalled as (client context, arguments, observed
// outcome). Encode and decode live side by side here so the wire layout has
// exactly one definition; the replay engine decodes with the same functions
// the recorder encoded with.
//
// The client context is recorded in full — including the complete
// fingerprint, not just its hash — because replay must re-present the same
// identity to the ingress policy and the fingerprint store.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "app/actors.hpp"
#include "app/journal.hpp"
#include "core/journal/journal.hpp"

namespace fraudsim::journal {

// --- ClientContext ---------------------------------------------------------
void encode_context(util::ByteWriter& out, const app::ClientContext& ctx);
[[nodiscard]] app::ClientContext decode_context(util::ByteReader& in);

// --- Decoded record bodies -------------------------------------------------
struct BrowseRecord {
  app::ClientContext ctx;
  web::Endpoint endpoint = web::Endpoint::Home;
  web::HttpMethod method = web::HttpMethod::Get;
  app::CallStatus result = app::CallStatus::Ok;
};
[[nodiscard]] BrowseRecord decode_browse(util::ByteReader& in);

struct HoldRecord {
  app::ClientContext ctx;
  airline::FlightId flight;
  std::vector<airline::Passenger> passengers;
  // Outcome (rejection detail is derivable on replay and not verified).
  app::CallStatus status = app::CallStatus::Ok;
  std::string pnr;
  bool decoy = false;
};
[[nodiscard]] HoldRecord decode_hold(util::ByteReader& in);

struct QuoteFareRecord {
  app::ClientContext ctx;
  airline::FlightId flight;
  util::Money fare;
};
[[nodiscard]] QuoteFareRecord decode_quote_fare(util::ByteReader& in);

struct PayRecord {
  app::ClientContext ctx;
  std::string pnr;
  app::CallStatus result = app::CallStatus::Ok;
};
[[nodiscard]] PayRecord decode_pay(util::ByteReader& in);

struct RequestOtpRecord {
  app::ClientContext ctx;
  std::string account;
  sms::PhoneNumber number;
  app::CallStatus status = app::CallStatus::Ok;
  std::string code;
};
[[nodiscard]] RequestOtpRecord decode_request_otp(util::ByteReader& in);

struct VerifyOtpRecord {
  app::ClientContext ctx;
  std::string account;
  std::string code;
  bool result = false;
};
[[nodiscard]] VerifyOtpRecord decode_verify_otp(util::ByteReader& in);

struct RetrieveBookingRecord {
  app::ClientContext ctx;
  std::string pnr;
  app::Application::BookingView result;
};
[[nodiscard]] RetrieveBookingRecord decode_retrieve_booking(util::ByteReader& in);

struct BoardingSmsRecord {
  app::ClientContext ctx;
  std::string pnr;
  sms::PhoneNumber number;
  app::CallStatus status = app::CallStatus::Ok;
  airline::BoardingPassService::SmsResult detail =
      airline::BoardingPassService::SmsResult::Sent;
};
[[nodiscard]] BoardingSmsRecord decode_boarding_sms(util::ByteReader& in);

struct BoardingEmailRecord {
  app::ClientContext ctx;
  std::string pnr;
  app::CallStatus result = app::CallStatus::Ok;
};
[[nodiscard]] BoardingEmailRecord decode_boarding_email(util::ByteReader& in);

struct ActorRecord {
  web::ActorId id;
  app::ActorKind kind = app::ActorKind::Human;
};
[[nodiscard]] ActorRecord decode_actor(util::ByteReader& in);

struct ControllerFitRecord {
  sim::SimTime from = 0;
  sim::SimTime to = 0;
};
[[nodiscard]] ControllerFitRecord decode_controller_fit(util::ByteReader& in);

// --- Recording journal -----------------------------------------------------
// app::CallJournal implementation that frames every hook into the writer.
// Write failures latch into status(): the run keeps going (recording must
// never perturb the platform), the harness surfaces the error afterwards.
class RecordingJournal final : public app::CallJournal {
 public:
  explicit RecordingJournal(JournalWriter& writer) : writer_(writer) {}

  [[nodiscard]] const util::Status& status() const { return status_; }

  // Facade-call hooks (app::CallJournal).
  void on_browse(sim::SimTime time, const app::ClientContext& ctx, web::Endpoint endpoint,
                 web::HttpMethod method, app::CallStatus result) override;
  void on_hold(sim::SimTime time, const app::ClientContext& ctx, airline::FlightId flight,
               const std::vector<airline::Passenger>& passengers,
               const app::HoldResult& result) override;
  void on_quote_fare(sim::SimTime time, const app::ClientContext& ctx, airline::FlightId flight,
                     util::Money result) override;
  void on_pay(sim::SimTime time, const app::ClientContext& ctx, const std::string& pnr,
              app::CallStatus result) override;
  void on_request_otp(sim::SimTime time, const app::ClientContext& ctx,
                      const std::string& account, const sms::PhoneNumber& number,
                      const app::OtpResult& result) override;
  void on_verify_otp(sim::SimTime time, const app::ClientContext& ctx,
                     const std::string& account, const std::string& code, bool result) override;
  void on_retrieve_booking(sim::SimTime time, const app::ClientContext& ctx,
                           const std::string& pnr,
                           const app::Application::BookingView& result) override;
  void on_boarding_sms(sim::SimTime time, const app::ClientContext& ctx, const std::string& pnr,
                       const sms::PhoneNumber& number,
                       const app::BoardingSmsResult& result) override;
  void on_boarding_email(sim::SimTime time, const app::ClientContext& ctx,
                         const std::string& pnr, app::CallStatus result) override;

  // Harness-driven records.
  void actor_registered(sim::SimTime time, web::ActorId id, app::ActorKind kind);
  void expiry_sweep(sim::SimTime time);
  void mitigation_sweep(sim::SimTime time);
  void controller_fit(sim::SimTime time, sim::SimTime from, sim::SimTime to);
  void mitigation_action(sim::SimTime time, const std::string& kind, const std::string& detail);
  void checkpoint_blob(sim::SimTime time, std::string_view blob);

 private:
  void append(RecordKind kind, sim::SimTime time, const util::ByteWriter& fields,
              std::string_view tail = {});

  JournalWriter& writer_;
  util::Status status_ = util::Status::ok();
};

}  // namespace fraudsim::journal
