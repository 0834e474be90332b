// The airline web application facade.
//
// Every actor — legitimate customer, seat-spinning bot, manual spinner,
// SMS-pumping ring — interacts with the platform exclusively through this
// facade. Each call:
//   1. records an HttpRequest in the web log (what server telemetry sees),
//   2. consults the IngressPolicy (the mitigation hook),
//   3. dispatches to the business substrate (inventory / SMS / OTP),
//   4. returns a result the caller can react to (blocks drive attacker
//      adaptation; challenges drive CAPTCHA economics).
//
// A honeypot decision transparently serves the request from a decoy
// inventory: the caller receives a normal-looking PNR and cannot tell the
// difference — the §V economic countermeasure.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "airline/boarding.hpp"
#include "airline/fares.hpp"
#include "airline/inventory.hpp"
#include "app/fp_store.hpp"
#include "app/policy.hpp"
#include "core/fault/fault.hpp"
#include "core/obs/obs.hpp"
#include "core/overload/overload.hpp"
#include "net/geo.hpp"
#include "sim/simulation.hpp"
#include "sms/gateway.hpp"
#include "sms/otp.hpp"
#include "web/weblog.hpp"

namespace fraudsim::app {

class CallJournal;  // app/journal.hpp — record/replay hook

// What admission does while the IngressPolicy itself is faulting (the
// "app.policy.evaluate" fault point): fail-open keeps the booking path alive
// and lets abuse through unchecked; fail-closed turns a detector outage into
// a self-inflicted denial of service. The paper's platforms run fail-open —
// detection must never take the booking path down.
enum class PolicyFaultMode : std::uint8_t { FailOpen, FailClosed };

struct ApplicationConfig {
  airline::InventoryConfig inventory;
  airline::BoardingConfig boarding;
  sms::GatewayConfig gateway;
  airline::FareConfig fares;
  // Run the decoy inventory for honeypot decisions.
  bool honeypot_enabled = false;
  PolicyFaultMode policy_fault_mode = PolicyFaultMode::FailOpen;
  // Overload control (bounded admission + deadline budgets + brownout).
  // Disabled by default: the request path is then byte-identical to a build
  // without the subsystem.
  overload::OverloadConfig overload;
  // Per-request trace recording (default-on, deterministically sampled).
  // Traces never perturb sim behaviour — set sample_every = 0 to disable.
  obs::TraceConfig trace;
};

enum class CallStatus : std::uint8_t {
  Ok,
  Blocked,        // 403 from policy
  Challenged,     // 401, retry with captcha_solved
  RateLimited,    // 429 from policy
  BusinessReject, // valid request rejected by business rules (cap, stock, state)
  Overloaded,     // 503: shed by admission control or timed out on its deadline
};

struct HoldResult {
  CallStatus status = CallStatus::Ok;
  std::string pnr;  // set when status == Ok
  std::optional<airline::HoldRejection> rejection;  // business rejection detail
  bool decoy = false;  // ground truth: the hold landed in the honeypot
};

struct OtpResult {
  CallStatus status = CallStatus::Ok;
  std::string code;  // set when status == Ok
};

struct BoardingSmsResult {
  CallStatus status = CallStatus::Ok;
  airline::BoardingPassService::SmsResult detail = airline::BoardingPassService::SmsResult::Sent;
};

class Application : public util::Checkpointed<Application> {
 public:
  Application(sim::Simulation& sim, const sms::CarrierNetwork& carriers, ApplicationConfig config,
              sim::Rng rng);

  // --- Traffic surface -----------------------------------------------------
  // Generic page view (search funnel, static assets, trap file...).
  CallStatus browse(const ClientContext& ctx, web::Endpoint endpoint,
                    web::HttpMethod method = web::HttpMethod::Get);

  HoldResult hold(const ClientContext& ctx, airline::FlightId flight,
                  std::vector<airline::Passenger> passengers);

  // Current per-seat fare quote (logs a FlightDetails view). Revenue
  // management prices on *apparent* demand: unpaid holds count as booked —
  // the §II-A dynamic-pricing manipulation surface. Holds absorbed by the
  // honeypot decoy do NOT reach the real revenue system.
  [[nodiscard]] util::Money quote_fare(const ClientContext& ctx, airline::FlightId flight);

  CallStatus pay(const ClientContext& ctx, const std::string& pnr);

  OtpResult request_otp(const ClientContext& ctx, const std::string& account,
                        sms::PhoneNumber number);
  bool verify_otp(const ClientContext& ctx, const std::string& account, const std::string& code);

  // "Manage my booking": what a customer (or a probing attacker) can see
  // about a PNR. Decoy PNRs report as alive-and-held for as long as the decoy
  // holds them.
  struct BookingView {
    bool found = false;
    bool held = false;      // the hold is still alive
    bool ticketed = false;
  };
  BookingView retrieve_booking(const ClientContext& ctx, const std::string& pnr);

  BoardingSmsResult request_boarding_sms(const ClientContext& ctx, const std::string& pnr,
                                         sms::PhoneNumber number);
  CallStatus request_boarding_email(const ClientContext& ctx, const std::string& pnr);

  // --- Administration ------------------------------------------------------
  airline::FlightId add_flight(std::string airline_code, int number, int capacity,
                               sim::SimTime departure);
  void set_policy(IngressPolicy* policy);  // non-owning; nullptr -> allow all
  // Attach a call journal (non-owning; nullptr detaches). Hooks fire after
  // each facade call completes; with none attached the call paths are
  // byte-identical to a build without journaling.
  void set_journal(CallJournal* journal) { journal_ = journal; }
  // Attach a second, read-only observer on the same hook interface (the
  // entity graph's inline ingest). Fires after the journal for every
  // completed call, in live AND replayed runs — replay re-invokes the facade,
  // so a tap attached on both sides sees the identical stream. Non-owning;
  // nullptr detaches.
  void set_tap(CallJournal* tap) { tap_ = tap; }

  // --- State checkpoints -----------------------------------------------------
  // Serialises all run state the platform owns (web log, fingerprint store,
  // inventories, gateway, OTP, boarding, overload, metrics, traces, biometric
  // log). Restore expects an Application built from the same config + seed;
  // counter/gauge handles held by other components stay valid because the
  // registry restores in place.
  template <class Ar>
  void visit(Ar& ar) {
    bool decoy = decoy_ != nullptr;
    ar(weblog_, fp_store_, inventory_, decoy);
    if constexpr (Ar::reading) {
      // A decoy frame restores only into a platform built with the decoy.
      if (decoy && decoy_ == nullptr) ar.fail();
    }
    if (decoy && decoy_ != nullptr) ar(*decoy_);
    ar(decoy_pnrs_, gateway_, otp_, boarding_, overload_, obs_.metrics, obs_.traces,
       biometric_log_);
  }

  // --- Telemetry (what detectors and benches read) --------------------------
  [[nodiscard]] const web::WebLog& weblog() const { return weblog_; }
  [[nodiscard]] const FingerprintStore& fingerprints() const { return fp_store_; }
  [[nodiscard]] airline::InventoryManager& inventory() { return inventory_; }
  [[nodiscard]] const airline::InventoryManager& inventory() const { return inventory_; }
  [[nodiscard]] airline::InventoryManager& decoy_inventory() { return *decoy_; }
  [[nodiscard]] const airline::InventoryManager& decoy_inventory() const { return *decoy_; }
  [[nodiscard]] bool honeypot_enabled() const { return decoy_ != nullptr; }
  [[nodiscard]] sms::SmsGateway& sms_gateway() { return gateway_; }
  [[nodiscard]] const sms::SmsGateway& sms_gateway() const { return gateway_; }
  [[nodiscard]] sms::OtpService& otp_service() { return otp_; }
  [[nodiscard]] airline::BoardingPassService& boarding() { return boarding_; }
  [[nodiscard]] const airline::BoardingPassService& boarding() const { return boarding_; }
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] overload::OverloadManager& overload() { return overload_; }
  [[nodiscard]] const overload::OverloadManager& overload() const { return overload_; }

  // The platform's observability context: every subsystem the application
  // owns (gateway, OTP, overload) registers its series here, so one snapshot
  // covers the whole platform.
  [[nodiscard]] obs::Observability& obs() { return obs_; }
  [[nodiscard]] const obs::Observability& obs() const { return obs_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return obs_.metrics; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const { return obs_.metrics; }
  [[nodiscard]] obs::TraceRecorder& traces() { return obs_.traces; }
  [[nodiscard]] const obs::TraceRecorder& traces() const { return obs_.traces; }

  // By-value view of the "app.*" counters (served from the metrics registry;
  // the registry cells are the only tally).
  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t blocked = 0;
    std::uint64_t challenged = 0;
    std::uint64_t rate_limited = 0;
    std::uint64_t honeypotted = 0;
    // Requests admitted (or rejected) without a policy verdict because the
    // ingress policy was faulting.
    std::uint64_t policy_faults = 0;
    // Requests dropped by overload control (admission watermarks, brownout
    // fail-fast, or deadline-aware shedding). Always 0 with overload off.
    std::uint64_t shed = 0;
    // Subset of `shed` dropped because the request could not finish inside
    // its deadline budget.
    std::uint64_t deadline_missed = 0;
  };
  [[nodiscard]] Stats stats() const;
  // Decisions per rule id, read from the "app.rule.*" counter series (how
  // long each blocking rule stayed effective is derived from this plus the
  // weblog timestamps).
  [[nodiscard]] std::unordered_map<std::string, std::uint64_t> rule_hits() const;

  // True if the PNR belongs to the decoy environment (scoring only).
  [[nodiscard]] bool is_decoy_pnr(const std::string& pnr) const {
    return decoy_pnrs_.contains(pnr);
  }

  // Biometric telemetry captured alongside requests (when clients supply it).
  struct BiometricRecord {
    sim::SimTime time = 0;
    web::SessionId session;
    fp::FpHash fingerprint;  // the identity enforcement can act on
    web::ActorId actor;      // ground truth (scoring only)
    biometrics::TrajectoryFeatures features;

    template <class Ar>
    void visit(Ar& ar) {
      ar(time, session, fingerprint, actor, features);
    }
  };
  [[nodiscard]] const std::vector<BiometricRecord>& biometric_log() const {
    return biometric_log_;
  }

 private:
  // Everything admit() produces for one request: the policy decision, the
  // deadline budget attached at admission (unbounded with overload off), and
  // the request's root trace span (inert when the trace was not sampled).
  // The caller owns the span: it opens children around business operations,
  // overrides the outcome, and finishes it before returning.
  struct AdmitOutcome {
    PolicyDecision decision;
    overload::Deadline deadline;
    obs::TraceContext trace;
  };

  // Logs the request, runs overload admission then the policy, updates the
  // "app.*" counters, and opens the request's root trace span.
  AdmitOutcome admit(const ClientContext& ctx, web::Endpoint endpoint, web::HttpMethod method,
                     web::HttpRequest&& extra);
  // The actual serving bodies; the public methods wrap them with the journal
  // hook so every return path is reported exactly once.
  CallStatus browse_impl(const ClientContext& ctx, web::Endpoint endpoint,
                         web::HttpMethod method);
  HoldResult hold_impl(const ClientContext& ctx, airline::FlightId flight,
                       std::vector<airline::Passenger> passengers);
  util::Money quote_fare_impl(const ClientContext& ctx, airline::FlightId flight);
  CallStatus pay_impl(const ClientContext& ctx, const std::string& pnr);
  OtpResult request_otp_impl(const ClientContext& ctx, const std::string& account,
                             sms::PhoneNumber number);
  bool verify_otp_impl(const ClientContext& ctx, const std::string& account,
                       const std::string& code);
  BookingView retrieve_booking_impl(const ClientContext& ctx, const std::string& pnr);
  BoardingSmsResult request_boarding_sms_impl(const ClientContext& ctx, const std::string& pnr,
                                              sms::PhoneNumber number);
  CallStatus request_boarding_email_impl(const ClientContext& ctx, const std::string& pnr);
  web::HttpRequest make_request(const ClientContext& ctx, web::Endpoint endpoint,
                                web::HttpMethod method) const;
  static int status_code_for(PolicyAction action);

  sim::Simulation& sim_;
  ApplicationConfig config_;
  // Declared before the subsystems that register series in it.
  obs::Observability obs_;
  web::WebLog weblog_;
  FingerprintStore fp_store_;
  airline::InventoryManager inventory_;
  std::unique_ptr<airline::InventoryManager> decoy_;
  sms::SmsGateway gateway_;
  sms::OtpService otp_;
  airline::BoardingPassService boarding_;
  airline::FareEngine fares_;
  IngressPolicy* policy_ = nullptr;
  CallJournal* journal_ = nullptr;
  CallJournal* tap_ = nullptr;
  AllowAllPolicy allow_all_;
  fault::FaultPoint& policy_fault_;
  // "app.request.latency": kLatency scenarios charge extra sim-time against
  // the overload admission model (consulted only with overload enabled).
  fault::FaultPoint& request_latency_fault_;
  overload::OverloadManager overload_;
  // "app.*" counter handles (cells live in obs_.metrics).
  struct StatCounters {
    obs::Counter requests;
    obs::Counter blocked;
    obs::Counter challenged;
    obs::Counter rate_limited;
    obs::Counter honeypotted;
    obs::Counter policy_faults;
    obs::Counter shed;
    obs::Counter deadline_missed;
  } counters_;
  // Per-ErrorCode rejection counters ("app.reject.<code>"), indexed by code.
  std::vector<obs::Counter> reject_by_code_;
  // Handle cache for dynamic "app.rule.<rule>" counters (one registry lookup
  // per distinct rule, then O(1)).
  std::unordered_map<std::string, obs::Counter> rule_counters_;
  std::unordered_set<std::string> decoy_pnrs_;
  std::vector<BiometricRecord> biometric_log_;
};

}  // namespace fraudsim::app
