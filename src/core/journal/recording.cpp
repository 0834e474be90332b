#include "core/journal/recording.hpp"

namespace fraudsim::journal {

template <class Fields>
void RecordingJournal::write(RecordKind kind, sim::SimTime time, const Fields& fields) {
  util::ByteWriter w;
  w(fields);
  append(kind, time, w);
}

void RecordingJournal::append(RecordKind kind, sim::SimTime time,
                              const util::ByteWriter& fields, std::string_view tail) {
  if (!status_.is_ok()) return;  // latched: stop at the first torn frame
  if (auto s = writer_.append(kind, time, fields, tail); !s.is_ok()) status_ = std::move(s);
}

void RecordingJournal::on_browse(sim::SimTime time, const app::ClientContext& ctx,
                                 web::Endpoint endpoint, web::HttpMethod method,
                                 app::CallStatus result) {
  write(RecordKind::Browse, time, BrowseRecord<Ref>{ctx, endpoint, method, result});
}

void RecordingJournal::on_hold(sim::SimTime time, const app::ClientContext& ctx,
                               airline::FlightId flight,
                               const std::vector<airline::Passenger>& passengers,
                               const app::HoldResult& result) {
  write(RecordKind::Hold, time,
        HoldRecord<Ref>{ctx, flight, passengers, result.status, result.pnr, result.decoy});
}

void RecordingJournal::on_quote_fare(sim::SimTime time, const app::ClientContext& ctx,
                                     airline::FlightId flight, util::Money result) {
  write(RecordKind::QuoteFare, time, QuoteFareRecord<Ref>{ctx, flight, result});
}

void RecordingJournal::on_pay(sim::SimTime time, const app::ClientContext& ctx,
                              const std::string& pnr, app::CallStatus result) {
  write(RecordKind::Pay, time, PayRecord<Ref>{ctx, pnr, result});
}

void RecordingJournal::on_request_otp(sim::SimTime time, const app::ClientContext& ctx,
                                      const std::string& account, const sms::PhoneNumber& number,
                                      const app::OtpResult& result) {
  write(RecordKind::RequestOtp, time,
        RequestOtpRecord<Ref>{ctx, account, number, result.status, result.code});
}

void RecordingJournal::on_verify_otp(sim::SimTime time, const app::ClientContext& ctx,
                                     const std::string& account, const std::string& code,
                                     bool result) {
  write(RecordKind::VerifyOtp, time, VerifyOtpRecord<Ref>{ctx, account, code, result});
}

void RecordingJournal::on_retrieve_booking(sim::SimTime time, const app::ClientContext& ctx,
                                           const std::string& pnr,
                                           const app::Application::BookingView& result) {
  write(RecordKind::RetrieveBooking, time,
        RetrieveBookingRecord<Ref>{ctx, pnr, result.found, result.held, result.ticketed});
}

void RecordingJournal::on_boarding_sms(sim::SimTime time, const app::ClientContext& ctx,
                                       const std::string& pnr, const sms::PhoneNumber& number,
                                       const app::BoardingSmsResult& result) {
  write(RecordKind::BoardingSms, time,
        BoardingSmsRecord<Ref>{ctx, pnr, number, result.status, result.detail});
}

void RecordingJournal::on_boarding_email(sim::SimTime time, const app::ClientContext& ctx,
                                         const std::string& pnr, app::CallStatus result) {
  write(RecordKind::BoardingEmail, time, BoardingEmailRecord<Ref>{ctx, pnr, result});
}

void RecordingJournal::actor_registered(sim::SimTime time, web::ActorId id,
                                        app::ActorKind kind) {
  write(RecordKind::ActorRegistered, time, ActorRecord<Ref>{id, kind});
}

void RecordingJournal::expiry_sweep(sim::SimTime time) {
  append(RecordKind::ExpirySweep, time, util::ByteWriter{});
}

void RecordingJournal::mitigation_sweep(sim::SimTime time) {
  append(RecordKind::MitigationSweep, time, util::ByteWriter{});
}

void RecordingJournal::controller_fit(sim::SimTime time, sim::SimTime from, sim::SimTime to) {
  write(RecordKind::ControllerFit, time, ControllerFitRecord<Ref>{from, to});
}

void RecordingJournal::mitigation_action(sim::SimTime time, const std::string& kind,
                                         const std::string& detail) {
  write(RecordKind::MitigationAction, time, MitigationActionRecord<Ref>{kind, detail});
}

void RecordingJournal::checkpoint_blob(sim::SimTime time, std::string_view blob) {
  // CheckpointRecord's encoding, with the blob passed through as the frame's
  // tail.
  util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(blob.size()));
  append(RecordKind::Checkpoint, time, w, blob);
}

}  // namespace fraudsim::journal
