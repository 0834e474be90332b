#include "core/journal/recording.hpp"

namespace fraudsim::journal {

namespace {

void encode_phone(util::ByteWriter& out, const sms::PhoneNumber& number) {
  out.u16(number.country.packed());
  out.str(number.subscriber);
}

sms::PhoneNumber decode_phone(util::ByteReader& in) {
  const std::uint16_t packed = in.u16();
  sms::PhoneNumber number{net::CountryCode(static_cast<char>(packed >> 8),
                                           static_cast<char>(packed & 0xFF)),
                          in.str()};
  return number;
}

}  // namespace

void encode_context(util::ByteWriter& out, const app::ClientContext& ctx) {
  out.u32(ctx.ip.value());
  out.u64(ctx.session.value());
  out(ctx.fingerprint);
  out.u64(ctx.actor.value());
  out.boolean(ctx.captcha_solved);
  out.boolean(ctx.loyalty_member);
  out(ctx.pointer_biometrics);
  out.str(ctx.payment_token);
}

app::ClientContext decode_context(util::ByteReader& in) {
  app::ClientContext ctx;
  ctx.ip = net::IpV4{in.u32()};
  ctx.session = web::SessionId{in.u64()};
  in(ctx.fingerprint);
  ctx.actor = web::ActorId{in.u64()};
  ctx.captcha_solved = in.boolean();
  ctx.loyalty_member = in.boolean();
  in(ctx.pointer_biometrics);
  ctx.payment_token = in.str();
  return ctx;
}

BrowseRecord decode_browse(util::ByteReader& in) {
  BrowseRecord r;
  r.ctx = decode_context(in);
  r.endpoint = static_cast<web::Endpoint>(in.u8());
  r.method = static_cast<web::HttpMethod>(in.u8());
  r.result = static_cast<app::CallStatus>(in.u8());
  return r;
}

HoldRecord decode_hold(util::ByteReader& in) {
  HoldRecord r;
  r.ctx = decode_context(in);
  r.flight = airline::FlightId{in.u64()};
  in(r.passengers);
  r.status = static_cast<app::CallStatus>(in.u8());
  r.pnr = in.str();
  r.decoy = in.boolean();
  return r;
}

QuoteFareRecord decode_quote_fare(util::ByteReader& in) {
  QuoteFareRecord r;
  r.ctx = decode_context(in);
  r.flight = airline::FlightId{in.u64()};
  r.fare = util::Money::from_micros(in.i64());
  return r;
}

PayRecord decode_pay(util::ByteReader& in) {
  PayRecord r;
  r.ctx = decode_context(in);
  r.pnr = in.str();
  r.result = static_cast<app::CallStatus>(in.u8());
  return r;
}

RequestOtpRecord decode_request_otp(util::ByteReader& in) {
  RequestOtpRecord r;
  r.ctx = decode_context(in);
  r.account = in.str();
  r.number = decode_phone(in);
  r.status = static_cast<app::CallStatus>(in.u8());
  r.code = in.str();
  return r;
}

VerifyOtpRecord decode_verify_otp(util::ByteReader& in) {
  VerifyOtpRecord r;
  r.ctx = decode_context(in);
  r.account = in.str();
  r.code = in.str();
  r.result = in.boolean();
  return r;
}

RetrieveBookingRecord decode_retrieve_booking(util::ByteReader& in) {
  RetrieveBookingRecord r;
  r.ctx = decode_context(in);
  r.pnr = in.str();
  r.result.found = in.boolean();
  r.result.held = in.boolean();
  r.result.ticketed = in.boolean();
  return r;
}

BoardingSmsRecord decode_boarding_sms(util::ByteReader& in) {
  BoardingSmsRecord r;
  r.ctx = decode_context(in);
  r.pnr = in.str();
  r.number = decode_phone(in);
  r.status = static_cast<app::CallStatus>(in.u8());
  r.detail = static_cast<airline::BoardingPassService::SmsResult>(in.u8());
  return r;
}

BoardingEmailRecord decode_boarding_email(util::ByteReader& in) {
  BoardingEmailRecord r;
  r.ctx = decode_context(in);
  r.pnr = in.str();
  r.result = static_cast<app::CallStatus>(in.u8());
  return r;
}

ActorRecord decode_actor(util::ByteReader& in) {
  ActorRecord r;
  r.id = web::ActorId{in.u64()};
  r.kind = static_cast<app::ActorKind>(in.u8());
  return r;
}

ControllerFitRecord decode_controller_fit(util::ByteReader& in) {
  ControllerFitRecord r;
  r.from = in.i64();
  r.to = in.i64();
  return r;
}

void RecordingJournal::append(RecordKind kind, sim::SimTime time,
                              const util::ByteWriter& fields, std::string_view tail) {
  if (!status_.is_ok()) return;  // latched: stop at the first torn frame
  if (auto s = writer_.append(kind, time, fields, tail); !s.is_ok()) status_ = std::move(s);
}

void RecordingJournal::on_browse(sim::SimTime time, const app::ClientContext& ctx,
                                 web::Endpoint endpoint, web::HttpMethod method,
                                 app::CallStatus result) {
  util::ByteWriter w;
  encode_context(w, ctx);
  w.u8(static_cast<std::uint8_t>(endpoint));
  w.u8(static_cast<std::uint8_t>(method));
  w.u8(static_cast<std::uint8_t>(result));
  append(RecordKind::Browse, time, w);
}

void RecordingJournal::on_hold(sim::SimTime time, const app::ClientContext& ctx,
                               airline::FlightId flight,
                               const std::vector<airline::Passenger>& passengers,
                               const app::HoldResult& result) {
  util::ByteWriter w;
  encode_context(w, ctx);
  w.u64(flight.value());
  w(passengers);
  w.u8(static_cast<std::uint8_t>(result.status));
  w.str(result.pnr);
  w.boolean(result.decoy);
  append(RecordKind::Hold, time, w);
}

void RecordingJournal::on_quote_fare(sim::SimTime time, const app::ClientContext& ctx,
                                     airline::FlightId flight, util::Money result) {
  util::ByteWriter w;
  encode_context(w, ctx);
  w.u64(flight.value());
  w.i64(result.micros());
  append(RecordKind::QuoteFare, time, w);
}

void RecordingJournal::on_pay(sim::SimTime time, const app::ClientContext& ctx,
                              const std::string& pnr, app::CallStatus result) {
  util::ByteWriter w;
  encode_context(w, ctx);
  w.str(pnr);
  w.u8(static_cast<std::uint8_t>(result));
  append(RecordKind::Pay, time, w);
}

void RecordingJournal::on_request_otp(sim::SimTime time, const app::ClientContext& ctx,
                                      const std::string& account, const sms::PhoneNumber& number,
                                      const app::OtpResult& result) {
  util::ByteWriter w;
  encode_context(w, ctx);
  w.str(account);
  encode_phone(w, number);
  w.u8(static_cast<std::uint8_t>(result.status));
  w.str(result.code);
  append(RecordKind::RequestOtp, time, w);
}

void RecordingJournal::on_verify_otp(sim::SimTime time, const app::ClientContext& ctx,
                                     const std::string& account, const std::string& code,
                                     bool result) {
  util::ByteWriter w;
  encode_context(w, ctx);
  w.str(account);
  w.str(code);
  w.boolean(result);
  append(RecordKind::VerifyOtp, time, w);
}

void RecordingJournal::on_retrieve_booking(sim::SimTime time, const app::ClientContext& ctx,
                                           const std::string& pnr,
                                           const app::Application::BookingView& result) {
  util::ByteWriter w;
  encode_context(w, ctx);
  w.str(pnr);
  w.boolean(result.found);
  w.boolean(result.held);
  w.boolean(result.ticketed);
  append(RecordKind::RetrieveBooking, time, w);
}

void RecordingJournal::on_boarding_sms(sim::SimTime time, const app::ClientContext& ctx,
                                       const std::string& pnr, const sms::PhoneNumber& number,
                                       const app::BoardingSmsResult& result) {
  util::ByteWriter w;
  encode_context(w, ctx);
  w.str(pnr);
  encode_phone(w, number);
  w.u8(static_cast<std::uint8_t>(result.status));
  w.u8(static_cast<std::uint8_t>(result.detail));
  append(RecordKind::BoardingSms, time, w);
}

void RecordingJournal::on_boarding_email(sim::SimTime time, const app::ClientContext& ctx,
                                         const std::string& pnr, app::CallStatus result) {
  util::ByteWriter w;
  encode_context(w, ctx);
  w.str(pnr);
  w.u8(static_cast<std::uint8_t>(result));
  append(RecordKind::BoardingEmail, time, w);
}

void RecordingJournal::actor_registered(sim::SimTime time, web::ActorId id,
                                        app::ActorKind kind) {
  util::ByteWriter w;
  w.u64(id.value());
  w.u8(static_cast<std::uint8_t>(kind));
  append(RecordKind::ActorRegistered, time, w);
}

void RecordingJournal::expiry_sweep(sim::SimTime time) {
  append(RecordKind::ExpirySweep, time, util::ByteWriter{});
}

void RecordingJournal::mitigation_sweep(sim::SimTime time) {
  append(RecordKind::MitigationSweep, time, util::ByteWriter{});
}

void RecordingJournal::controller_fit(sim::SimTime time, sim::SimTime from, sim::SimTime to) {
  util::ByteWriter w;
  w.i64(from);
  w.i64(to);
  append(RecordKind::ControllerFit, time, w);
}

void RecordingJournal::mitigation_action(sim::SimTime time, const std::string& kind,
                                         const std::string& detail) {
  util::ByteWriter w;
  w.str(kind);
  w.str(detail);
  append(RecordKind::MitigationAction, time, w);
}

void RecordingJournal::checkpoint_blob(sim::SimTime time, std::string_view blob) {
  // The str() encoding, with the blob passed through as the frame's tail.
  util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(blob.size()));
  append(RecordKind::Checkpoint, time, w, blob);
}

}  // namespace fraudsim::journal
