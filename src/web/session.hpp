// Sessionization: grouping raw requests into user sessions.
//
// Mirrors the behaviour-based pipeline of §III-A: logs are grouped into
// sessions (by session cookie, with an inactivity timeout splitting long
// cookie reuse), and per-session features are then extracted for
// classification.
#pragma once

#include <span>
#include <vector>

#include "web/request.hpp"

namespace fraudsim::web {

struct Session {
  SessionId id;                     // cookie id (shared across splits)
  std::vector<HttpRequest> requests;  // time-ordered
  ActorId actor;                    // ground truth (scoring only)

  [[nodiscard]] sim::SimTime start() const { return requests.empty() ? 0 : requests.front().time; }
  [[nodiscard]] sim::SimTime end() const { return requests.empty() ? 0 : requests.back().time; }
  [[nodiscard]] sim::SimDuration duration() const { return end() - start(); }
};

class Sessionizer {
 public:
  // `inactivity_timeout`: a gap larger than this splits a cookie's stream
  // into separate sessions (standard 30-minute web-analytics convention).
  explicit Sessionizer(sim::SimDuration inactivity_timeout = sim::minutes(30));

  // Builds sessions from a time-ordered (or arbitrary-ordered) request set.
  // Sessions come in cookie order, then by start time; each session's
  // requests are time-ordered, equal times keeping their input order.
  [[nodiscard]] std::vector<Session> sessionize(std::span<const HttpRequest> requests) const;
  // The same over only the requests with time in [from, to): equal to
  // sessionizing WebLog::range(from, to), without copying the window first.
  [[nodiscard]] std::vector<Session> sessionize(std::span<const HttpRequest> requests,
                                                sim::SimTime from, sim::SimTime to) const;

 private:
  sim::SimDuration timeout_;
};

}  // namespace fraudsim::web
