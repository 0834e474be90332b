#include "web/session.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <numeric>

namespace fraudsim::web {
namespace {

// One in-window request: its cookie, time and input position.
struct RequestKey {
  SessionId session;
  sim::SimTime time = 0;
  std::size_t index = 0;
};

// Orders keys by cookie, keeping input order among equal cookies: an LSD
// radix sort, one byte of the cookie per pass, skipping the bytes every key
// shares.
void sort_by_cookie(std::vector<RequestKey>& keys) {
  std::vector<RequestKey> sorted(keys.size());
  for (unsigned shift = 0; shift < 64; shift += 8) {
    const auto digit = [shift](const RequestKey& k) {
      return static_cast<std::size_t>((k.session.value() >> shift) & 0xff);
    };
    std::array<std::size_t, 257> start{};
    for (const RequestKey& k : keys) ++start[digit(k) + 1];
    if (std::find(start.begin() + 1, start.end(), keys.size()) != start.end()) continue;
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const RequestKey& k : keys) sorted[start[digit(k)]++] = k;
    keys.swap(sorted);
  }
}

// Sessions of the requests `keep` accepts, in cookie order; within a cookie
// by time, input order breaking ties: what a stable sort of the full records
// by (cookie, time) gives. Only the small keys are sorted, and each kept
// request is copied once, into its Session.
template <class Keep>
std::vector<Session> build_sessions(std::span<const HttpRequest> requests,
                                    sim::SimDuration timeout, Keep keep) {
  std::vector<RequestKey> keys;
  keys.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (keep(requests[i])) keys.push_back({requests[i].session, requests[i].time, i});
  }
  sort_by_cookie(keys);

  std::vector<Session> sessions;
  for (std::size_t cookie_begin = 0; cookie_begin < keys.size();) {
    std::size_t cookie_end = cookie_begin + 1;
    while (cookie_end < keys.size() && keys[cookie_end].session == keys[cookie_begin].session) {
      ++cookie_end;
    }
    const auto first = keys.begin() + static_cast<std::ptrdiff_t>(cookie_begin);
    const auto last = keys.begin() + static_cast<std::ptrdiff_t>(cookie_end);
    const auto by_time = [](const RequestKey& a, const RequestKey& b) { return a.time < b.time; };
    if (!std::is_sorted(first, last, by_time)) std::stable_sort(first, last, by_time);
    // Sessions: the cookie's requests split at gaps longer than the timeout.
    for (std::size_t begin = cookie_begin; begin < cookie_end;) {
      std::size_t end = begin + 1;
      while (end < cookie_end && keys[end].time - keys[end - 1].time <= timeout) ++end;
      Session& s = sessions.emplace_back();
      s.id = keys[begin].session;
      s.actor = requests[keys[begin].index].actor;
      s.requests.reserve(end - begin);
      for (std::size_t k = begin; k < end; ++k) s.requests.push_back(requests[keys[k].index]);
      begin = end;
    }
    cookie_begin = cookie_end;
  }
  return sessions;
}

}  // namespace

Sessionizer::Sessionizer(sim::SimDuration inactivity_timeout) : timeout_(inactivity_timeout) {}

std::vector<Session> Sessionizer::sessionize(std::span<const HttpRequest> requests) const {
  return build_sessions(requests, timeout_, [](const HttpRequest&) { return true; });
}

std::vector<Session> Sessionizer::sessionize(std::span<const HttpRequest> requests,
                                             sim::SimTime from, sim::SimTime to) const {
  return build_sessions(requests, timeout_, [from, to](const HttpRequest& r) {
    return r.time >= from && r.time < to;
  });
}

}  // namespace fraudsim::web
