// HTTP request records.
//
// A request carries everything server-side telemetry would see (time, IP,
// session cookie, fingerprint digest, endpoint, status) plus the hidden
// ground-truth actor id used only for scoring detectors — never by the
// detectors themselves.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fingerprint/fingerprint.hpp"
#include "net/geo.hpp"
#include "net/ip.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "web/endpoint.hpp"

namespace fraudsim::web {

struct SessionTag {};
using SessionId = util::StrongId<SessionTag>;

struct ActorTag {};
using ActorId = util::StrongId<ActorTag>;

struct RequestTag {};
using RequestId = util::StrongId<RequestTag>;

struct HttpRequest {
  RequestId id;
  sim::SimTime time = 0;
  HttpMethod method = HttpMethod::Get;
  Endpoint endpoint = Endpoint::Home;
  net::IpV4 ip;
  SessionId session;
  fp::FpHash fp_hash;
  int status_code = 200;

  // Optional business parameters (set when the endpoint uses them).
  std::optional<std::uint64_t> flight_id;
  std::optional<std::string> booking_ref;
  std::optional<net::CountryCode> sms_destination;
  std::optional<int> nip;  // passengers in a hold request

  // Trace correlation: id of the request's root span in the platform's trace
  // recorder (0 = the request's trace was not sampled). Lets analysts join
  // web-log rows against span streams.
  std::uint64_t trace_id = 0;

  // Ground truth (scoring only).
  ActorId actor;

  // Wire field list (state checkpoints; util/archive.hpp): the full record
  // including the assigned id, so a restored web log is byte-equal to the
  // original on export.
  template <class Ar>
  void visit(Ar& ar) {
    ar(id, time, method, endpoint, ip, session, fp_hash, status_code, flight_id, booking_ref,
       sms_destination, nip, trace_id, actor);
  }
};

}  // namespace fraudsim::web
