// Decorators that time the platform's layers from outside.
//
// The application talks to its mitigation layer through app::IngressPolicy
// and to its journal and entity-graph tap through app::CallJournal. Wrapping
// those interfaces lets the benchmark open a span around every call into a
// layer, count decisions, and fold every call's outcome into a digest —
// without changing a line of the platform.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/journal.hpp"
#include "app/policy.hpp"
#include "harness.hpp"

namespace perfbench {

// One facade call seen from the layer hooks: it opens when the ingress policy
// is consulted and closes when the last CallJournal hook returns. Workloads
// whose calls are issued by simulated actors (not by the benchmark loop) get
// their per-call latency and "app.call" spans from here.
class CallWindow {
 public:
  explicit CallWindow(Tracer* tracer) : tracer_(tracer) {}

  void open() {
    if (open_) nested_ = true;
    open_ = true;
    ++calls_;
    if (tracer_ != nullptr) {
      tracer_->set_request(calls_);
      span_ = tracer_->begin("app.call");
    }
    start_ = now_ns();
  }
  void close() {
    const std::int64_t end = now_ns();
    if (!open_) {
      nested_ = true;
      return;
    }
    open_ = false;
    if (tracer_ != nullptr) {
      tracer_->end(span_);
      tracer_->set_request(0);
    }
    latency_us_.push_back(static_cast<double>(end - start_) / 1e3);
  }

  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  // False if a call opened inside another or closed without opening — the
  // hooks then do not bracket facade calls one to one.
  [[nodiscard]] bool well_formed() const { return !nested_ && !open_; }
  [[nodiscard]] const std::vector<double>& latency_us() const { return latency_us_; }

 private:
  Tracer* tracer_;
  bool open_ = false;
  bool nested_ = false;
  std::int32_t span_ = -1;
  std::int64_t start_ = 0;
  std::uint64_t calls_ = 0;
  std::vector<double> latency_us_;
};

// Times app::IngressPolicy::evaluate (the RuleEngine) and tallies decisions.
class TimedPolicy final : public fraudsim::app::IngressPolicy {
 public:
  TimedPolicy(fraudsim::app::IngressPolicy& inner, Tracer* tracer, CallWindow* window = nullptr)
      : inner_(inner), tracer_(tracer), window_(window) {}

  fraudsim::app::PolicyDecision evaluate(const fraudsim::web::HttpRequest& request,
                                         const fraudsim::app::ClientContext& ctx) override {
    if (window_ != nullptr) window_->open();
    const Scope scope(tracer_, "mitigate.evaluate");
    auto decision = inner_.evaluate(request, ctx);
    ++evaluations_;
    if (decision.action != fraudsim::app::PolicyAction::Allow) ++denials_;
    return decision;
  }

  [[nodiscard]] std::uint64_t evaluations() const { return evaluations_; }
  [[nodiscard]] std::uint64_t denials() const { return denials_; }

 private:
  fraudsim::app::IngressPolicy& inner_;
  Tracer* tracer_;
  CallWindow* window_;
  std::uint64_t evaluations_ = 0;
  std::uint64_t denials_ = 0;
};

// Times every app::CallJournal hook of the wrapped observer under one span
// name. Optionally folds each call's observed outcome into `digest`, and
// closes `window` after the hook (set on the last observer the application
// invokes).
class TimedJournal final : public fraudsim::app::CallJournal {
 public:
  TimedJournal(fraudsim::app::CallJournal& inner, const char* span, Tracer* tracer,
               Digest* digest = nullptr, CallWindow* window = nullptr)
      : inner_(inner), span_(span), tracer_(tracer), digest_(digest), window_(window) {}

  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t holds_ok() const { return holds_ok_; }

  void on_browse(fraudsim::sim::SimTime time, const fraudsim::app::ClientContext& ctx,
                 fraudsim::web::Endpoint endpoint, fraudsim::web::HttpMethod method,
                 fraudsim::app::CallStatus result) override {
    hook([&] { inner_.on_browse(time, ctx, endpoint, method, result); }, 1, result);
  }
  void on_hold(fraudsim::sim::SimTime time, const fraudsim::app::ClientContext& ctx,
               fraudsim::airline::FlightId flight,
               const std::vector<fraudsim::airline::Passenger>& passengers,
               const fraudsim::app::HoldResult& result) override {
    hook([&] { inner_.on_hold(time, ctx, flight, passengers, result); }, 2, result.status,
         result.pnr);
    if (result.status == fraudsim::app::CallStatus::Ok) ++holds_ok_;
  }
  void on_quote_fare(fraudsim::sim::SimTime time, const fraudsim::app::ClientContext& ctx,
                     fraudsim::airline::FlightId flight, fraudsim::util::Money result) override {
    hook([&] { inner_.on_quote_fare(time, ctx, flight, result); }, 3,
         fraudsim::app::CallStatus::Ok, {}, static_cast<std::uint64_t>(result.micros()));
  }
  void on_pay(fraudsim::sim::SimTime time, const fraudsim::app::ClientContext& ctx,
              const std::string& pnr, fraudsim::app::CallStatus result) override {
    hook([&] { inner_.on_pay(time, ctx, pnr, result); }, 4, result, pnr);
  }
  void on_request_otp(fraudsim::sim::SimTime time, const fraudsim::app::ClientContext& ctx,
                      const std::string& account, const fraudsim::sms::PhoneNumber& number,
                      const fraudsim::app::OtpResult& result) override {
    hook([&] { inner_.on_request_otp(time, ctx, account, number, result); }, 5, result.status,
         result.code);
  }
  void on_verify_otp(fraudsim::sim::SimTime time, const fraudsim::app::ClientContext& ctx,
                     const std::string& account, const std::string& code, bool result) override {
    hook([&] { inner_.on_verify_otp(time, ctx, account, code, result); }, 6,
         fraudsim::app::CallStatus::Ok, {}, result ? 1 : 0);
  }
  void on_retrieve_booking(fraudsim::sim::SimTime time, const fraudsim::app::ClientContext& ctx,
                           const std::string& pnr,
                           const fraudsim::app::Application::BookingView& result) override {
    hook([&] { inner_.on_retrieve_booking(time, ctx, pnr, result); }, 7,
         fraudsim::app::CallStatus::Ok, pnr,
         (result.found ? 1u : 0u) | (result.held ? 2u : 0u) | (result.ticketed ? 4u : 0u));
  }
  void on_boarding_sms(fraudsim::sim::SimTime time, const fraudsim::app::ClientContext& ctx,
                       const std::string& pnr, const fraudsim::sms::PhoneNumber& number,
                       const fraudsim::app::BoardingSmsResult& result) override {
    hook([&] { inner_.on_boarding_sms(time, ctx, pnr, number, result); }, 8, result.status, pnr,
         static_cast<std::uint64_t>(result.detail));
  }
  void on_boarding_email(fraudsim::sim::SimTime time, const fraudsim::app::ClientContext& ctx,
                         const std::string& pnr, fraudsim::app::CallStatus result) override {
    hook([&] { inner_.on_boarding_email(time, ctx, pnr, result); }, 9, result, pnr);
  }

 private:
  template <typename Fn>
  void hook(Fn&& fn, std::uint64_t kind, fraudsim::app::CallStatus status,
            std::string_view text = {}, std::uint64_t extra = 0) {
    {
      const Scope scope(tracer_, span_);
      fn();
    }
    ++calls_;
    if (digest_ != nullptr) {
      digest_->add(kind);
      digest_->add(static_cast<std::uint64_t>(status));
      digest_->add(text);
      digest_->add(extra);
    }
    if (window_ != nullptr) window_->close();
  }

  fraudsim::app::CallJournal& inner_;
  const char* span_;
  Tracer* tracer_;
  Digest* digest_;
  CallWindow* window_;
  std::uint64_t calls_ = 0;
  std::uint64_t holds_ok_ = 0;
};

}  // namespace perfbench
