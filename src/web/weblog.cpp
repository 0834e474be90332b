#include "web/weblog.hpp"

namespace fraudsim::web {

const HttpRequest& WebLog::append(HttpRequest request) {
  request.id = RequestId{next_id_++};
  requests_.push_back(std::move(request));
  return requests_.back();
}

std::vector<HttpRequest> WebLog::range(sim::SimTime from, sim::SimTime to) const {
  std::vector<HttpRequest> out;
  for (const auto& r : requests_) {
    if (r.time >= from && r.time < to) out.push_back(r);
  }
  return out;
}

std::vector<HttpRequest> WebLog::filter(
    const std::function<bool(const HttpRequest&)>& pred) const {
  std::vector<HttpRequest> out;
  for (const auto& r : requests_) {
    if (pred(r)) out.push_back(r);
  }
  return out;
}

void WebLog::clear() {
  requests_.clear();
  next_id_ = 1;
}

}  // namespace fraudsim::web
