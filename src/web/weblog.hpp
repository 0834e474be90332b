// Append-only web log.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "util/archive.hpp"
#include "web/request.hpp"

namespace fraudsim::web {

class WebLog : public util::Checkpointed<WebLog> {
 public:
  // Appends and assigns the request id. Returns the stored record.
  const HttpRequest& append(HttpRequest request);

  [[nodiscard]] std::span<const HttpRequest> all() const { return requests_; }
  [[nodiscard]] std::size_t size() const { return requests_.size(); }
  [[nodiscard]] bool empty() const { return requests_.empty(); }

  // Requests with time in [from, to).
  [[nodiscard]] std::vector<HttpRequest> range(sim::SimTime from, sim::SimTime to) const;

  // Requests matching a predicate.
  [[nodiscard]] std::vector<HttpRequest> filter(
      const std::function<bool(const HttpRequest&)>& pred) const;

  void clear();

  // Checkpoint support: full log contents plus the id counter, so restored
  // logs keep assigning ids from where the original left off.
  template <class Ar>
  void visit(Ar& ar) {
    ar(next_id_);
    encoded_.visit(ar, requests_);
  }

 private:
  std::vector<HttpRequest> requests_;
  std::uint64_t next_id_ = 1;
  // Requests are never edited once appended, so checkpoints re-encode only
  // the new ones.
  mutable util::EncodedPrefix encoded_;
};

}  // namespace fraudsim::web
