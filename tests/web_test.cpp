#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/rng.hpp"
#include "web/endpoint.hpp"
#include "web/features.hpp"
#include "web/session.hpp"
#include "web/weblog.hpp"

namespace fraudsim::web {
namespace {

HttpRequest make_request(sim::SimTime t, std::uint64_t session, Endpoint endpoint,
                         HttpMethod method = HttpMethod::Get, std::uint64_t actor = 1) {
  HttpRequest r;
  r.time = t;
  r.session = SessionId{session};
  r.endpoint = endpoint;
  r.method = method;
  r.actor = ActorId{actor};
  return r;
}

// --- Endpoints ------------------------------------------------------------------

TEST(Endpoint, PathsAndDepth) {
  EXPECT_STREQ(endpoint_path(Endpoint::Home), "/");
  EXPECT_EQ(endpoint_depth(Endpoint::Home), 1);
  EXPECT_EQ(endpoint_depth(Endpoint::BoardingPassSms), 3);
}

TEST(Endpoint, Classification) {
  EXPECT_TRUE(is_search_endpoint(Endpoint::SearchFlights));
  EXPECT_FALSE(is_search_endpoint(Endpoint::Payment));
  EXPECT_TRUE(is_transactional(Endpoint::HoldReservation));
  EXPECT_TRUE(is_transactional(Endpoint::BoardingPassSms));
  EXPECT_FALSE(is_transactional(Endpoint::Home));
  EXPECT_TRUE(requires_login(Endpoint::BoardingPassSms));
  EXPECT_TRUE(requires_payment(Endpoint::BoardingPassSms));
  EXPECT_FALSE(requires_payment(Endpoint::RequestOtp));
}

// --- WebLog ---------------------------------------------------------------------

TEST(WebLog, AppendAssignsIds) {
  WebLog log;
  const auto& a = log.append(make_request(10, 1, Endpoint::Home));
  EXPECT_EQ(a.id.value(), 1u);
  const auto& b = log.append(make_request(20, 1, Endpoint::SearchFlights));
  EXPECT_EQ(b.id.value(), 2u);
  EXPECT_EQ(log.size(), 2u);
}

TEST(WebLog, RangeFiltersHalfOpen) {
  WebLog log;
  for (int t = 0; t < 10; ++t) log.append(make_request(t * 100, 1, Endpoint::Home));
  const auto mid = log.range(200, 500);
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid.front().time, 200);
  EXPECT_EQ(mid.back().time, 400);
}

TEST(WebLog, FilterByPredicate) {
  WebLog log;
  log.append(make_request(1, 1, Endpoint::Home));
  log.append(make_request(2, 1, Endpoint::TrapFile));
  const auto traps =
      log.filter([](const HttpRequest& r) { return r.endpoint == Endpoint::TrapFile; });
  EXPECT_EQ(traps.size(), 1u);
}

// --- Sessionizer -----------------------------------------------------------------

TEST(Sessionizer, GroupsByCookie) {
  Sessionizer sessionizer;
  std::vector<HttpRequest> requests;
  requests.push_back(make_request(0, 1, Endpoint::Home));
  requests.push_back(make_request(1000, 2, Endpoint::Home));
  requests.push_back(make_request(2000, 1, Endpoint::SearchFlights));
  const auto sessions = sessionizer.sessionize(requests);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].requests.size(), 2u);  // cookie 1
  EXPECT_EQ(sessions[1].requests.size(), 1u);  // cookie 2
}

TEST(Sessionizer, SplitsOnInactivityGap) {
  Sessionizer sessionizer(sim::minutes(30));
  std::vector<HttpRequest> requests;
  requests.push_back(make_request(0, 1, Endpoint::Home));
  requests.push_back(make_request(sim::minutes(10), 1, Endpoint::SearchFlights));
  requests.push_back(make_request(sim::hours(2), 1, Endpoint::Home));  // new visit
  const auto sessions = sessionizer.sessionize(requests);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].requests.size(), 2u);
  EXPECT_EQ(sessions[1].requests.size(), 1u);
}

TEST(Sessionizer, SortsOutOfOrderRequests) {
  Sessionizer sessionizer;
  std::vector<HttpRequest> requests;
  requests.push_back(make_request(5000, 1, Endpoint::SearchFlights));
  requests.push_back(make_request(1000, 1, Endpoint::Home));
  const auto sessions = sessionizer.sessionize(requests);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].requests.front().time, 1000);
  EXPECT_EQ(sessions[0].start(), 1000);
  EXPECT_EQ(sessions[0].end(), 5000);
  EXPECT_EQ(sessions[0].duration(), 4000);
}

// The sessionizer before it sorted keys: copy every request into a per-cookie
// map, stable-sort each cookie's full records by time, split on gaps.
std::vector<Session> oracle_sessionize(const std::vector<HttpRequest>& requests,
                                       sim::SimDuration timeout) {
  std::map<SessionId, std::vector<HttpRequest>> by_cookie;
  for (const auto& r : requests) by_cookie[r.session].push_back(r);
  std::vector<Session> sessions;
  for (auto& [cookie, reqs] : by_cookie) {
    std::stable_sort(reqs.begin(), reqs.end(),
                     [](const HttpRequest& a, const HttpRequest& b) { return a.time < b.time; });
    Session current;
    current.id = cookie;
    for (const auto& r : reqs) {
      if (!current.requests.empty() && r.time - current.requests.back().time > timeout) {
        sessions.push_back(std::move(current));
        current = Session{};
        current.id = cookie;
      }
      if (current.requests.empty()) current.actor = r.actor;
      current.requests.push_back(r);
    }
    if (!current.requests.empty()) sessions.push_back(std::move(current));
  }
  return sessions;
}

void expect_same_sessions(const std::vector<Session>& got, const std::vector<Session>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "session " << i;
    EXPECT_EQ(got[i].actor, want[i].actor) << "session " << i;
    ASSERT_EQ(got[i].requests.size(), want[i].requests.size()) << "session " << i;
    for (std::size_t k = 0; k < got[i].requests.size(); ++k) {
      // Ids are unique per request, so equal ids mean the same record in the
      // same place, ties included.
      EXPECT_EQ(got[i].requests[k].id, want[i].requests[k].id) << "session " << i << " #" << k;
      EXPECT_EQ(got[i].requests[k].time, want[i].requests[k].time);
      EXPECT_EQ(got[i].requests[k].endpoint, want[i].requests[k].endpoint);
    }
  }
}

// Seeded request sets: a few cookies whose ids differ in every byte
// position, times on a coarse grid so equal timestamps within a cookie are
// common, gaps of exactly `timeout` and `timeout + 1`, and a shuffled input
// order.
std::vector<HttpRequest> random_requests(sim::Rng& rng, std::size_t n, sim::SimDuration timeout) {
  const std::vector<std::uint64_t> ids = {1,           2,           255,
                                          256,         0x10000,     0x1000000001,
                                          0x100 << 20, 1ULL << 56,  0xff00000000000001,
                                          ~0ULL};
  std::vector<std::uint64_t> cookies;
  for (std::int64_t c = rng.uniform_int(1, 6); c > 0; --c) cookies.push_back(rng.pick(ids));
  std::vector<HttpRequest> requests;
  sim::SimTime t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 4)) {
      case 0:
        break;  // same time as the previous request
      case 1:
        t += timeout;  // exactly the timeout: same session
        break;
      case 2:
        t += timeout + 1;  // one past it: a new session
        break;
      default:
        t += rng.uniform_int(1, timeout / 4);
        break;
    }
    const auto endpoint = static_cast<Endpoint>(rng.uniform_int(0, 5));
    const auto actor = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
    HttpRequest r = make_request(t, rng.pick(cookies), endpoint, HttpMethod::Get, actor);
    r.id = RequestId{i + 1};
    requests.push_back(r);
  }
  rng.shuffle(requests.begin(), requests.end());
  return requests;
}

TEST(Sessionizer, MatchesMapAndStableSortOracle) {
  const sim::SimDuration timeout = sim::minutes(30);
  const Sessionizer sessionizer(timeout);
  sim::Rng rng(20);
  for (const std::size_t n : {0, 1, 2, 3, 17, 200, 2000}) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto requests = random_requests(rng, n, timeout);
      SCOPED_TRACE(testing::Message() << "n=" << n << " trial=" << trial);
      expect_same_sessions(sessionizer.sessionize(requests), oracle_sessionize(requests, timeout));

      // The [from, to) form equals filtering first, then sessionizing.
      const sim::SimTime last = requests.empty() ? 0 : std::max_element(
          requests.begin(), requests.end(),
          [](const HttpRequest& a, const HttpRequest& b) { return a.time < b.time; })->time;
      const sim::SimTime from = rng.uniform_int(0, last);
      const sim::SimTime to = rng.uniform_int(from, last + 1);
      std::vector<HttpRequest> window;
      for (const auto& r : requests) {
        if (r.time >= from && r.time < to) window.push_back(r);
      }
      expect_same_sessions(sessionizer.sessionize(requests, from, to),
                           oracle_sessionize(window, timeout));
    }
  }
  // One-request sessions: two cookies, each request one past the timeout
  // after the one before, input reversed.
  std::vector<HttpRequest> singles;
  for (std::uint64_t i = 0; i < 6; ++i) {
    singles.push_back(make_request(static_cast<sim::SimTime>(i) * (timeout + 1), i % 2 + 1,
                                   Endpoint::Home, HttpMethod::Get, i + 1));
    singles.back().id = RequestId{i + 1};
  }
  std::reverse(singles.begin(), singles.end());
  EXPECT_EQ(sessionizer.sessionize(singles).size(), 6u);
  expect_same_sessions(sessionizer.sessionize(singles), oracle_sessionize(singles, timeout));
  // An empty window, and an empty input.
  EXPECT_TRUE(sessionizer.sessionize(singles, 5, 5).empty());
  EXPECT_TRUE(sessionizer.sessionize({}, 0, 100).empty());
}

// --- Feature extraction -------------------------------------------------------------

TEST(Features, CountsAndRatios) {
  Session session;
  session.id = SessionId{1};
  session.requests.push_back(make_request(0, 1, Endpoint::Home));
  session.requests.push_back(make_request(sim::seconds(10), 1, Endpoint::SearchFlights));
  session.requests.push_back(make_request(sim::seconds(20), 1, Endpoint::SearchFlights));
  session.requests.push_back(
      make_request(sim::seconds(30), 1, Endpoint::HoldReservation, HttpMethod::Post));
  const auto f = extract_features(session);
  EXPECT_DOUBLE_EQ(f.total_requests, 4);
  EXPECT_DOUBLE_EQ(f.get_count, 3);
  EXPECT_DOUBLE_EQ(f.post_count, 1);
  EXPECT_DOUBLE_EQ(f.post_ratio, 0.25);
  EXPECT_DOUBLE_EQ(f.unique_endpoints, 3);
  EXPECT_DOUBLE_EQ(f.search_requests, 2);
  EXPECT_DOUBLE_EQ(f.search_ratio, 0.5);
  EXPECT_DOUBLE_EQ(f.transactional_ratio, 0.25);
  EXPECT_DOUBLE_EQ(f.mean_interarrival_seconds, 10.0);
  EXPECT_DOUBLE_EQ(f.duration_minutes, 0.5);
  EXPECT_DOUBLE_EQ(f.trap_file_hits, 0);
}

TEST(Features, TrapAndErrors) {
  Session session;
  session.requests.push_back(make_request(0, 1, Endpoint::TrapFile));
  auto err = make_request(1000, 1, Endpoint::SearchFlights);
  err.status_code = 403;
  session.requests.push_back(err);
  const auto f = extract_features(session);
  EXPECT_DOUBLE_EQ(f.trap_file_hits, 1);
  EXPECT_DOUBLE_EQ(f.error_ratio, 0.5);
}

TEST(Features, NightFraction) {
  Session session;
  session.requests.push_back(make_request(sim::hours(2), 1, Endpoint::Home));   // 02:00
  session.requests.push_back(make_request(sim::hours(14), 1, Endpoint::Home));  // 14:00
  const auto f = extract_features(session);
  EXPECT_DOUBLE_EQ(f.night_fraction, 0.5);
}

TEST(Features, EmptySessionIsZero) {
  Session session;
  const auto f = extract_features(session);
  EXPECT_DOUBLE_EQ(f.total_requests, 0);
  EXPECT_DOUBLE_EQ(f.requests_per_minute, 0);
}

TEST(Features, VectorShapeMatchesNames) {
  Session session;
  session.requests.push_back(make_request(0, 1, Endpoint::Home));
  const auto f = extract_features(session);
  EXPECT_EQ(f.as_vector().size(), SessionFeatures::kDimensions);
  EXPECT_EQ(SessionFeatures::names().size(), SessionFeatures::kDimensions);
}

TEST(Features, SingleRequestRatePinnedToMinuteFloor) {
  Session session;
  session.requests.push_back(make_request(0, 1, Endpoint::Home));
  const auto f = extract_features(session);
  // Duration 0 clamps to 1 second -> 60 req/min for a single request.
  EXPECT_NEAR(f.requests_per_minute, 60.0, 1e-9);
}

}  // namespace
}  // namespace fraudsim::web
