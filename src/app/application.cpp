#include "app/application.hpp"

#include "app/journal.hpp"
#include "web/endpoint.hpp"

namespace fraudsim::app {

namespace {

// Finishes the request's root span when the serving method returns, whatever
// branch it returns through. Inert for unsampled traces.
class SpanGuard {
 public:
  SpanGuard(const obs::TraceContext& trace, sim::Simulation& sim) : trace_(trace), sim_(sim) {}
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() { trace_.finish(sim_.now()); }

 private:
  obs::TraceContext trace_;
  sim::Simulation& sim_;
};

}  // namespace

Application::Application(sim::Simulation& sim, const sms::CarrierNetwork& carriers,
                         ApplicationConfig config, sim::Rng rng)
    : sim_(sim),
      config_(config),
      obs_(config.trace),
      inventory_(config.inventory, rng.fork("pnr")),
      gateway_(carriers, config.gateway, &obs_.metrics),
      otp_(gateway_, rng.fork("otp"), sim::minutes(10), &obs_.metrics),
      boarding_(inventory_, gateway_, config.boarding),
      fares_(config.fares),
      policy_fault_(fault::FaultRegistry::global().point("app.policy.evaluate")),
      request_latency_fault_(fault::FaultRegistry::global().point("app.request.latency")),
      overload_(config.overload, &obs_.metrics) {
  if (config.honeypot_enabled) {
    decoy_ = std::make_unique<airline::InventoryManager>(config.inventory, rng.fork("decoy-pnr"));
  }
  counters_.requests = obs_.metrics.counter("app.requests");
  counters_.blocked = obs_.metrics.counter("app.blocked");
  counters_.challenged = obs_.metrics.counter("app.challenged");
  counters_.rate_limited = obs_.metrics.counter("app.rate_limited");
  counters_.honeypotted = obs_.metrics.counter("app.honeypotted");
  counters_.policy_faults = obs_.metrics.counter("app.policy_faults");
  counters_.shed = obs_.metrics.counter("app.shed");
  counters_.deadline_missed = obs_.metrics.counter("app.deadline_missed");
  // Rejection-by-code series, sized for every code so indexing by any
  // decision.code stays in bounds (unbound handles no-op on inc()).
  reject_by_code_.resize(static_cast<std::size_t>(util::ErrorCode::kCheckpointMismatch) + 1);
  for (const util::ErrorCode code :
       {util::ErrorCode::kRejected, util::ErrorCode::kRateLimited, util::ErrorCode::kShed,
        util::ErrorCode::kDeadlineExceeded, util::ErrorCode::kUpstreamFault}) {
    reject_by_code_[static_cast<std::size_t>(code)] =
        obs_.metrics.counter(std::string("app.reject.") + util::to_string(code));
  }
}

Application::Stats Application::stats() const {
  Stats s;
  s.requests = counters_.requests.value();
  s.blocked = counters_.blocked.value();
  s.challenged = counters_.challenged.value();
  s.rate_limited = counters_.rate_limited.value();
  s.honeypotted = counters_.honeypotted.value();
  s.policy_faults = counters_.policy_faults.value();
  s.shed = counters_.shed.value();
  s.deadline_missed = counters_.deadline_missed.value();
  return s;
}

std::unordered_map<std::string, std::uint64_t> Application::rule_hits() const {
  constexpr std::size_t kPrefixLen = 9;  // strlen("app.rule.")
  std::unordered_map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : obs_.metrics.counters_with_prefix("app.rule.")) {
    out.emplace(name.substr(kPrefixLen), value);
  }
  return out;
}

int Application::status_code_for(PolicyAction action) {
  switch (action) {
    case PolicyAction::Allow:
    case PolicyAction::Honeypot:  // indistinguishable from success
      return 200;
    case PolicyAction::Block:
      return 403;
    case PolicyAction::Challenge:
      return 401;
    case PolicyAction::RateLimited:
      return 429;
    case PolicyAction::Shed:
      return 503;
  }
  return 200;
}

Application::AdmitOutcome Application::admit(const ClientContext& ctx, web::Endpoint endpoint,
                                             web::HttpMethod method, web::HttpRequest&& extra) {
  web::HttpRequest request = std::move(extra);
  request.time = sim_.now();
  request.method = method;
  request.endpoint = endpoint;
  request.ip = ctx.ip;
  request.session = ctx.session;
  request.fp_hash = ctx.fingerprint.hash();
  request.actor = ctx.actor;

  AdmitOutcome out;
  out.fp_hash = request.fp_hash;
  out.trace = obs_.traces.start_trace(web::endpoint_path(endpoint), request.time);
  request.trace_id = out.trace.trace_id();

  // Overload admission runs before the ingress policy: a shed request never
  // consumes policy evaluation, fingerprint ingestion, or biometric capture —
  // that is the point of shedding at the front door.
  PolicyDecision& decision = out.decision;
  bool shed = false;
  if (overload_.enabled()) {
    const auto cls = ctx.loyalty_member ? overload::RequestClass::Priority
                                        : overload::RequestClass::Anonymous;
    out.trace.annotate("brownout", overload::to_string(overload_.brownout().state()));
    const int nip_cap = overload_.brownout().nip_cap();
    if (endpoint == web::Endpoint::HoldReservation && nip_cap > 0 && request.nip > nip_cap) {
      // Brownout trims bulk holds before they reach inventory: a 9-NiP spin
      // costs nine seats of work; under pressure only small parties pass.
      decision = PolicyDecision{PolicyAction::Shed, "overload.brownout.nip-cap",
                                util::ErrorCode::kShed};
      shed = true;
    } else {
      // Injected slow-dependency time ("app.request.latency", kLatency
      // scenarios) rides into the admission decision so a latency fault
      // consumes real deadline budget and queue capacity.
      const overload::Admission admission =
          overload_.on_request(request.time, cls, web::is_transactional(endpoint),
                               request_latency_fault_.consult(request.time).latency);
      if (admission.result == overload::AdmitResult::Admitted) {
        out.deadline = admission.deadline;
      } else {
        const bool deadline_shed = admission.result == overload::AdmitResult::ShedDeadline;
        decision = PolicyDecision{
            PolicyAction::Shed, std::string("overload.") + overload::to_string(admission.result),
            deadline_shed ? util::ErrorCode::kDeadlineExceeded : util::ErrorCode::kShed};
        shed = true;
        if (deadline_shed) counters_.deadline_missed.inc();
      }
    }
  }

  if (!shed) {
    IngressPolicy& policy = policy_ != nullptr ? *policy_ : allow_all_;
    if (policy_fault_.should_fail(request.time)) {
      // The policy dependency is down. Degrade per the configured mode instead
      // of taking the request path down with it.
      counters_.policy_faults.inc();
      out.trace.annotate("fault", "app.policy.evaluate");
      if (config_.policy_fault_mode == PolicyFaultMode::FailOpen) {
        decision = PolicyDecision{PolicyAction::Allow, "policy.fault.fail-open"};
      } else {
        decision = PolicyDecision{PolicyAction::Block, "policy.fault.fail-closed",
                                  util::ErrorCode::kUpstreamFault};
      }
    } else {
      decision = policy.evaluate(request, ctx);
    }
  }
  request.status_code = status_code_for(decision.action);

  if (!shed) {
    fp_store_.observe(ctx.fingerprint, request.fp_hash, request.time);
    if (ctx.pointer_biometrics) {
      biometric_log_.push_back(BiometricRecord{request.time, ctx.session, request.fp_hash,
                                               ctx.actor, *ctx.pointer_biometrics});
    }
  }
  weblog_.append(std::move(request));

  counters_.requests.inc();
  switch (decision.action) {
    case PolicyAction::Allow:
      break;
    case PolicyAction::Block:
      counters_.blocked.inc();
      break;
    case PolicyAction::Challenge:
      counters_.challenged.inc();
      break;
    case PolicyAction::RateLimited:
      counters_.rate_limited.inc();
      break;
    case PolicyAction::Honeypot:
      counters_.honeypotted.inc();
      break;
    case PolicyAction::Shed:
      counters_.shed.inc();
      break;
  }
  if (decision.code != util::ErrorCode::kOk) {
    reject_by_code_[static_cast<std::size_t>(decision.code)].inc();
  }
  if (!decision.rule.empty()) {
    auto it = rule_counters_.find(decision.rule);
    if (it == rule_counters_.end()) {
      it = rule_counters_
               .emplace(decision.rule, obs_.metrics.counter("app.rule." + decision.rule))
               .first;
    }
    it->second.inc();
    out.trace.annotate("rule", decision.rule);
  }
  // The serving method overrides this with the business outcome on the Allow
  // path; for terminal admission decisions the action IS the outcome.
  out.trace.set_outcome(to_string(decision.action));
  return out;
}

CallStatus Application::browse_impl(const ClientContext& ctx, web::Endpoint endpoint,
                                    web::HttpMethod method) {
  const auto adm = admit(ctx, endpoint, method, web::HttpRequest{});
  SpanGuard root(adm.trace, sim_);
  switch (adm.decision.action) {
    case PolicyAction::Allow:
    case PolicyAction::Honeypot:
      adm.trace.set_outcome("ok");
      return CallStatus::Ok;
    case PolicyAction::Block:
      return CallStatus::Blocked;
    case PolicyAction::Challenge:
      return CallStatus::Challenged;
    case PolicyAction::RateLimited:
      return CallStatus::RateLimited;
    case PolicyAction::Shed:
      return CallStatus::Overloaded;
  }
  return CallStatus::Ok;
}

HoldResult Application::hold_impl(const ClientContext& ctx, airline::FlightId flight,
                                  std::vector<airline::Passenger> passengers) {
  web::HttpRequest extra;
  extra.flight_id = flight.value();
  extra.nip = static_cast<int>(passengers.size());
  const auto adm =
      admit(ctx, web::Endpoint::HoldReservation, web::HttpMethod::Post, std::move(extra));
  SpanGuard root(adm.trace, sim_);

  HoldResult result;
  switch (adm.decision.action) {
    case PolicyAction::Block:
      result.status = CallStatus::Blocked;
      return result;
    case PolicyAction::Challenge:
      result.status = CallStatus::Challenged;
      return result;
    case PolicyAction::RateLimited:
      result.status = CallStatus::RateLimited;
      return result;
    case PolicyAction::Shed:
      result.status = CallStatus::Overloaded;
      return result;
    case PolicyAction::Honeypot: {
      // Serve from the decoy. Mirror the flight lazily; the decoy has its own
      // seat pool so real availability is untouched.
      if (decoy_ == nullptr) {
        // Honeypot requested but not provisioned: fall back to a hard block.
        result.status = CallStatus::Blocked;
        adm.trace.set_outcome("block");
        return result;
      }
      if (decoy_->flight(flight) == nullptr) {
        const airline::Flight* real = inventory_.flight(flight);
        if (real != nullptr) {
          // Decoy mirrors capacity so fill dynamics look authentic.
          decoy_->add_flight(real->airline, real->number, real->capacity, real->departure);
        }
      }
      const auto span = adm.trace.child("inventory.decoy_hold", sim_.now());
      auto outcome = decoy_->hold(sim_.now(), flight, std::move(passengers), ctx.actor, ctx.ip,
                                  adm.fp_hash);
      if (outcome.ok) {
        result.status = CallStatus::Ok;
        result.pnr = outcome.pnr;
        result.decoy = true;
        decoy_pnrs_.insert(outcome.pnr);
        span.set_outcome("ok");
      } else {
        result.status = CallStatus::BusinessReject;
        result.rejection = outcome.rejection;
        result.decoy = true;
        span.set_outcome("business-reject");
      }
      span.finish(sim_.now());
      return result;
    }
    case PolicyAction::Allow:
      break;
  }

  // Brownout shortens the hold TTL so speculative inventory pressure decays
  // faster while the platform is under load.
  std::optional<sim::SimDuration> ttl_override;
  if (overload_.enabled()) {
    const double scale = overload_.brownout().hold_ttl_scale();
    if (scale < 1.0) {
      ttl_override = static_cast<sim::SimDuration>(
          static_cast<double>(config_.inventory.hold_duration) * scale);
    }
  }
  const auto span = adm.trace.child("inventory.hold", sim_.now());
  auto outcome = inventory_.hold(sim_.now(), flight, std::move(passengers), ctx.actor, ctx.ip,
                                 adm.fp_hash, ttl_override);
  if (outcome.ok) {
    result.status = CallStatus::Ok;
    result.pnr = outcome.pnr;
    span.set_outcome("ok");
    adm.trace.set_outcome("ok");
  } else {
    result.status = CallStatus::BusinessReject;
    result.rejection = outcome.rejection;
    span.set_outcome("business-reject");
    adm.trace.set_outcome("business-reject");
  }
  span.finish(sim_.now());
  return result;
}

util::Money Application::quote_fare_impl(const ClientContext& ctx, airline::FlightId flight_id) {
  web::HttpRequest extra;
  extra.flight_id = flight_id.value();
  const auto adm =
      admit(ctx, web::Endpoint::FlightDetails, web::HttpMethod::Get, std::move(extra));
  SpanGuard root(adm.trace, sim_);
  if (adm.decision.action == PolicyAction::Shed) return util::Money{};
  const airline::Flight* flight = inventory_.flight(flight_id);
  if (flight == nullptr) return util::Money{};
  inventory_.expire_due(sim_.now());
  adm.trace.set_outcome("ok");
  return fares_.quote(*flight, inventory_.held_seats(flight_id),
                      inventory_.sold_seats(flight_id), sim_.now());
}

CallStatus Application::pay_impl(const ClientContext& ctx, const std::string& pnr) {
  web::HttpRequest extra;
  extra.booking_ref = pnr;
  const auto adm = admit(ctx, web::Endpoint::Payment, web::HttpMethod::Post, std::move(extra));
  SpanGuard root(adm.trace, sim_);
  switch (adm.decision.action) {
    case PolicyAction::Block:
      return CallStatus::Blocked;
    case PolicyAction::Challenge:
      return CallStatus::Challenged;
    case PolicyAction::RateLimited:
      return CallStatus::RateLimited;
    case PolicyAction::Shed:
      return CallStatus::Overloaded;
    case PolicyAction::Honeypot:
    case PolicyAction::Allow:
      break;
  }
  if (decoy_pnrs_.contains(pnr)) {
    // Paying a decoy hold "succeeds" from the caller's perspective; the decoy
    // environment simply marks it ticketed.
    (void)decoy_->ticket(sim_.now(), pnr);
    adm.trace.set_outcome("ok");
    return CallStatus::Ok;
  }
  const auto span = adm.trace.child("inventory.ticket", sim_.now());
  const auto status = inventory_.ticket(sim_.now(), pnr);
  if (status) {
    span.set_outcome("ok");
    adm.trace.set_outcome("ok");
  } else {
    span.set_outcome("business-reject");
    span.annotate("code", util::to_string(status.code()));
    adm.trace.set_outcome("business-reject");
  }
  span.finish(sim_.now());
  return status ? CallStatus::Ok : CallStatus::BusinessReject;
}

OtpResult Application::request_otp_impl(const ClientContext& ctx, const std::string& account,
                                        sms::PhoneNumber number) {
  web::HttpRequest extra;
  extra.sms_destination = number.country;
  const auto adm =
      admit(ctx, web::Endpoint::RequestOtp, web::HttpMethod::Post, std::move(extra));
  SpanGuard root(adm.trace, sim_);
  OtpResult result;
  switch (adm.decision.action) {
    case PolicyAction::Block:
      result.status = CallStatus::Blocked;
      return result;
    case PolicyAction::Challenge:
      result.status = CallStatus::Challenged;
      return result;
    case PolicyAction::RateLimited:
      result.status = CallStatus::RateLimited;
      return result;
    case PolicyAction::Shed:
      result.status = CallStatus::Overloaded;
      return result;
    case PolicyAction::Honeypot:
      // Decoy OTP: pretend success without sending anything.
      result.status = CallStatus::Ok;
      result.code = "000000";
      return result;
    case PolicyAction::Allow:
      break;
  }
  const auto span = adm.trace.child("otp.request", sim_.now());
  result.code = otp_.request(sim_.now(), account, std::move(number), ctx.actor, adm.deadline);
  span.set_outcome("ok");
  span.finish(sim_.now());
  adm.trace.set_outcome("ok");
  return result;
}

bool Application::verify_otp_impl(const ClientContext& ctx, const std::string& account,
                                  const std::string& code) {
  const auto adm =
      admit(ctx, web::Endpoint::VerifyOtp, web::HttpMethod::Post, web::HttpRequest{});
  SpanGuard root(adm.trace, sim_);
  if (adm.decision.action == PolicyAction::Shed) return false;
  const auto span = adm.trace.child("otp.verify", sim_.now());
  const bool ok = otp_.verify(sim_.now(), account, code);
  span.set_outcome(ok ? "ok" : "rejected");
  span.finish(sim_.now());
  adm.trace.set_outcome(ok ? "ok" : "rejected");
  return ok;
}

Application::BookingView Application::retrieve_booking_impl(const ClientContext& ctx,
                                                            const std::string& pnr) {
  web::HttpRequest extra;
  extra.booking_ref = pnr;
  const auto adm =
      admit(ctx, web::Endpoint::ManageBooking, web::HttpMethod::Get, std::move(extra));
  SpanGuard root(adm.trace, sim_);
  BookingView view;
  if (adm.decision.action == PolicyAction::Block ||
      adm.decision.action == PolicyAction::RateLimited ||
      adm.decision.action == PolicyAction::Shed) {
    return view;  // nothing disclosed
  }
  airline::InventoryManager& source =
      decoy_ != nullptr && decoy_pnrs_.contains(pnr) ? *decoy_ : inventory_;
  source.expire_due(sim_.now());
  const airline::Reservation* r = source.find(pnr);
  if (r == nullptr) return view;
  view.found = true;
  view.held = r->state == airline::ReservationState::Held;
  view.ticketed = r->state == airline::ReservationState::Ticketed;
  adm.trace.set_outcome("ok");
  return view;
}

BoardingSmsResult Application::request_boarding_sms_impl(const ClientContext& ctx,
                                                         const std::string& pnr,
                                                         sms::PhoneNumber number) {
  web::HttpRequest extra;
  extra.booking_ref = pnr;
  extra.sms_destination = number.country;
  const auto adm =
      admit(ctx, web::Endpoint::BoardingPassSms, web::HttpMethod::Post, std::move(extra));
  SpanGuard root(adm.trace, sim_);
  BoardingSmsResult result;
  switch (adm.decision.action) {
    case PolicyAction::Block:
      result.status = CallStatus::Blocked;
      return result;
    case PolicyAction::Challenge:
      result.status = CallStatus::Challenged;
      return result;
    case PolicyAction::RateLimited:
      result.status = CallStatus::RateLimited;
      return result;
    case PolicyAction::Shed:
      result.status = CallStatus::Overloaded;
      return result;
    case PolicyAction::Honeypot:
      // Decoy: pretend the SMS was sent; nothing reaches the gateway, so the
      // attacker earns nothing while believing the pump works.
      result.status = CallStatus::Ok;
      return result;
    case PolicyAction::Allow:
      break;
  }
  const auto span = adm.trace.child("sms.boarding", sim_.now());
  result.detail = boarding_.request_sms(sim_.now(), pnr, std::move(number), ctx.actor,
                                        adm.deadline);
  const bool sent = result.detail == airline::BoardingPassService::SmsResult::Sent;
  result.status = sent ? CallStatus::Ok : CallStatus::BusinessReject;
  span.set_outcome(sent ? "ok" : "business-reject");
  span.annotate("detail", airline::to_string(result.detail));
  span.finish(sim_.now());
  adm.trace.set_outcome(sent ? "ok" : "business-reject");
  return result;
}

CallStatus Application::request_boarding_email_impl(const ClientContext& ctx,
                                                    const std::string& pnr) {
  web::HttpRequest extra;
  extra.booking_ref = pnr;
  const auto adm =
      admit(ctx, web::Endpoint::BoardingPassEmail, web::HttpMethod::Post, std::move(extra));
  SpanGuard root(adm.trace, sim_);
  switch (adm.decision.action) {
    case PolicyAction::Block:
      return CallStatus::Blocked;
    case PolicyAction::Challenge:
      return CallStatus::Challenged;
    case PolicyAction::RateLimited:
      return CallStatus::RateLimited;
    case PolicyAction::Shed:
      return CallStatus::Overloaded;
    case PolicyAction::Honeypot:
      return CallStatus::Ok;
    case PolicyAction::Allow:
      break;
  }
  const bool ok = static_cast<bool>(boarding_.request_email(sim_.now(), pnr));
  adm.trace.set_outcome(ok ? "ok" : "business-reject");
  return ok ? CallStatus::Ok : CallStatus::BusinessReject;
}

// Public facade: serve via the impl, then report the completed call to the
// attached observers — the journal (record/replay) first, then the tap (the
// entity graph's inline ingest). Sim time cannot advance inside a call
// (single-threaded, no nested events), so now() is both the request and the
// observer timestamp.
CallStatus Application::browse(const ClientContext& ctx, web::Endpoint endpoint,
                               web::HttpMethod method) {
  const auto result = browse_impl(ctx, endpoint, method);
  if (journal_ != nullptr) journal_->on_browse(sim_.now(), ctx, endpoint, method, result);
  if (tap_ != nullptr) tap_->on_browse(sim_.now(), ctx, endpoint, method, result);
  return result;
}

HoldResult Application::hold(const ClientContext& ctx, airline::FlightId flight,
                             std::vector<airline::Passenger> passengers) {
  if (journal_ == nullptr && tap_ == nullptr) return hold_impl(ctx, flight, std::move(passengers));
  // The impl consumes the passenger list; keep a copy for the observers.
  const std::vector<airline::Passenger> recorded = passengers;
  const auto result = hold_impl(ctx, flight, std::move(passengers));
  if (journal_ != nullptr) journal_->on_hold(sim_.now(), ctx, flight, recorded, result);
  if (tap_ != nullptr) tap_->on_hold(sim_.now(), ctx, flight, recorded, result);
  return result;
}

util::Money Application::quote_fare(const ClientContext& ctx, airline::FlightId flight_id) {
  const auto result = quote_fare_impl(ctx, flight_id);
  if (journal_ != nullptr) journal_->on_quote_fare(sim_.now(), ctx, flight_id, result);
  if (tap_ != nullptr) tap_->on_quote_fare(sim_.now(), ctx, flight_id, result);
  return result;
}

CallStatus Application::pay(const ClientContext& ctx, const std::string& pnr) {
  const auto result = pay_impl(ctx, pnr);
  if (journal_ != nullptr) journal_->on_pay(sim_.now(), ctx, pnr, result);
  if (tap_ != nullptr) tap_->on_pay(sim_.now(), ctx, pnr, result);
  return result;
}

OtpResult Application::request_otp(const ClientContext& ctx, const std::string& account,
                                   sms::PhoneNumber number) {
  if (journal_ == nullptr && tap_ == nullptr) {
    return request_otp_impl(ctx, account, std::move(number));
  }
  const sms::PhoneNumber recorded = number;
  const auto result = request_otp_impl(ctx, account, std::move(number));
  if (journal_ != nullptr) journal_->on_request_otp(sim_.now(), ctx, account, recorded, result);
  if (tap_ != nullptr) tap_->on_request_otp(sim_.now(), ctx, account, recorded, result);
  return result;
}

bool Application::verify_otp(const ClientContext& ctx, const std::string& account,
                             const std::string& code) {
  const bool result = verify_otp_impl(ctx, account, code);
  if (journal_ != nullptr) journal_->on_verify_otp(sim_.now(), ctx, account, code, result);
  if (tap_ != nullptr) tap_->on_verify_otp(sim_.now(), ctx, account, code, result);
  return result;
}

Application::BookingView Application::retrieve_booking(const ClientContext& ctx,
                                                       const std::string& pnr) {
  const auto result = retrieve_booking_impl(ctx, pnr);
  if (journal_ != nullptr) journal_->on_retrieve_booking(sim_.now(), ctx, pnr, result);
  if (tap_ != nullptr) tap_->on_retrieve_booking(sim_.now(), ctx, pnr, result);
  return result;
}

BoardingSmsResult Application::request_boarding_sms(const ClientContext& ctx,
                                                    const std::string& pnr,
                                                    sms::PhoneNumber number) {
  if (journal_ == nullptr && tap_ == nullptr) {
    return request_boarding_sms_impl(ctx, pnr, std::move(number));
  }
  const sms::PhoneNumber recorded = number;
  const auto result = request_boarding_sms_impl(ctx, pnr, std::move(number));
  if (journal_ != nullptr) journal_->on_boarding_sms(sim_.now(), ctx, pnr, recorded, result);
  if (tap_ != nullptr) tap_->on_boarding_sms(sim_.now(), ctx, pnr, recorded, result);
  return result;
}

CallStatus Application::request_boarding_email(const ClientContext& ctx, const std::string& pnr) {
  const auto result = request_boarding_email_impl(ctx, pnr);
  if (journal_ != nullptr) journal_->on_boarding_email(sim_.now(), ctx, pnr, result);
  if (tap_ != nullptr) tap_->on_boarding_email(sim_.now(), ctx, pnr, result);
  return result;
}

airline::FlightId Application::add_flight(std::string airline_code, int number, int capacity,
                                          sim::SimTime departure) {
  return inventory_.add_flight(std::move(airline_code), number, capacity, departure);
}

void Application::set_policy(IngressPolicy* policy) { policy_ = policy; }

}  // namespace fraudsim::app
