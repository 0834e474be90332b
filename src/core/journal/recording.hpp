// Record field lists + the recording CallJournal.
//
// Every facade call is journalled as (client context, arguments, observed
// outcome). Each record kind lists its fields exactly once, in a visit()
// over the archive (util/archive.hpp): RecordingJournal writes a record
// through it, and the replay engine reads the same record back through it
// (`util::ByteReader in(record.fields); BrowseRecord r{}; in(r);`), so the
// wire layout has one definition per kind.
//
// A record is a template over how it holds its fields. The recorder
// instantiates it with Ref, whose members point at the call's arguments and
// outcome, so journalling a call copies none of them; a decoded record takes
// the default, Own, and holds its values.
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

template <class T>
using Own = T;
template <class T>
using Ref = const T&;

// --- Facade calls: context, arguments, outcome -------------------------------
template <template <class> class F = Own>
struct BrowseRecord {
  F<app::ClientContext> ctx;
  F<web::Endpoint> endpoint;
  F<web::HttpMethod> method;
  F<app::CallStatus> result;
  template <class Ar>
  void visit(Ar& ar) {
    ar(ctx, endpoint, method, result);
  }
};

template <template <class> class F = Own>
struct HoldRecord {
  F<app::ClientContext> ctx;
  F<airline::FlightId> flight;
  F<std::vector<airline::Passenger>> passengers;
  // Outcome (rejection detail is derivable on replay and not verified).
  F<app::CallStatus> status;
  F<std::string> pnr;
  F<bool> decoy;
  template <class Ar>
  void visit(Ar& ar) {
    ar(ctx, flight, passengers, status, pnr, decoy);
  }
};

template <template <class> class F = Own>
struct QuoteFareRecord {
  F<app::ClientContext> ctx;
  F<airline::FlightId> flight;
  F<util::Money> fare;
  template <class Ar>
  void visit(Ar& ar) {
    ar(ctx, flight, fare);
  }
};

template <template <class> class F = Own>
struct PayRecord {
  F<app::ClientContext> ctx;
  F<std::string> pnr;
  F<app::CallStatus> result;
  template <class Ar>
  void visit(Ar& ar) {
    ar(ctx, pnr, result);
  }
};

template <template <class> class F = Own>
struct RequestOtpRecord {
  F<app::ClientContext> ctx;
  F<std::string> account;
  F<sms::PhoneNumber> number;
  F<app::CallStatus> status;
  F<std::string> code;
  template <class Ar>
  void visit(Ar& ar) {
    ar(ctx, account, number, status, code);
  }
};

template <template <class> class F = Own>
struct VerifyOtpRecord {
  F<app::ClientContext> ctx;
  F<std::string> account;
  F<std::string> code;
  F<bool> result;
  template <class Ar>
  void visit(Ar& ar) {
    ar(ctx, account, code, result);
  }
};

template <template <class> class F = Own>
struct RetrieveBookingRecord {
  F<app::ClientContext> ctx;
  F<std::string> pnr;
  // The booking view.
  F<bool> found;
  F<bool> held;
  F<bool> ticketed;
  template <class Ar>
  void visit(Ar& ar) {
    ar(ctx, pnr, found, held, ticketed);
  }
};

template <template <class> class F = Own>
struct BoardingSmsRecord {
  F<app::ClientContext> ctx;
  F<std::string> pnr;
  F<sms::PhoneNumber> number;
  F<app::CallStatus> status;
  F<airline::BoardingPassService::SmsResult> detail;
  template <class Ar>
  void visit(Ar& ar) {
    ar(ctx, pnr, number, status, detail);
  }
};

template <template <class> class F = Own>
struct BoardingEmailRecord {
  F<app::ClientContext> ctx;
  F<std::string> pnr;
  F<app::CallStatus> result;
  template <class Ar>
  void visit(Ar& ar) {
    ar(ctx, pnr, result);
  }
};

// --- Harness records ---------------------------------------------------------
template <template <class> class F = Own>
struct ActorRecord {
  F<web::ActorId> id;
  F<app::ActorKind> kind;
  template <class Ar>
  void visit(Ar& ar) {
    ar(id, kind);
  }
};

template <template <class> class F = Own>
struct ControllerFitRecord {
  F<sim::SimTime> from;
  F<sim::SimTime> to;
  template <class Ar>
  void visit(Ar& ar) {
    ar(from, to);
  }
};

template <template <class> class F = Own>
struct MitigationActionRecord {
  F<std::string> kind;
  F<std::string> detail;
  template <class Ar>
  void visit(Ar& ar) {
    ar(kind, detail);
  }
};

// A restore point: the platform state blob, read as a view into the record.
// The recorder streams the blob as the frame's tail instead of copying it
// into the fields (RecordingJournal::checkpoint_blob).
struct CheckpointRecord {
  std::string_view blob;
  template <class Ar>
  void visit(Ar& ar) {
    ar(blob);
  }
};

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
  // Writes `fields` through its visit() and frames it as a `kind` record.
  template <class Fields>
  void write(RecordKind kind, sim::SimTime time, const Fields& fields);
  void append(RecordKind kind, sim::SimTime time, const util::ByteWriter& fields,
              std::string_view tail = {});

  JournalWriter& writer_;
  util::Status status_ = util::Status::ok();
};

}  // namespace fraudsim::journal
