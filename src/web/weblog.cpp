#include "web/weblog.hpp"

#include <algorithm>
#include <iterator>

namespace fraudsim::web {

const HttpRequest& WebLog::append(HttpRequest request) {
  request.id = RequestId{next_id_++};
  requests_.push_back(std::move(request));
  return requests_.back();
}

std::vector<HttpRequest> WebLog::range(sim::SimTime from, sim::SimTime to) const {
  const auto in_range = [from, to](const HttpRequest& r) { return r.time >= from && r.time < to; };
  std::vector<HttpRequest> out;
  out.reserve(
      static_cast<std::size_t>(std::count_if(requests_.begin(), requests_.end(), in_range)));
  std::copy_if(requests_.begin(), requests_.end(), std::back_inserter(out), in_range);
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
  encoded_.reset();
}

}  // namespace fraudsim::web
