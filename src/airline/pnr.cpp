#include "airline/pnr.hpp"

#include <algorithm>
#include <vector>

namespace fraudsim::airline {

namespace {
constexpr char kAlpha[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
constexpr char kAlnum[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ23456789";  // no 0/1 (GDS-style)
}  // namespace

PnrGenerator::PnrGenerator(sim::Rng rng) : rng_(std::move(rng)) {}

std::string PnrGenerator::next() {
  for (;;) {
    std::string pnr(6, 'A');
    pnr[0] = kAlpha[static_cast<std::size_t>(rng_.uniform_int(0, 25))];
    for (std::size_t i = 1; i < 6; ++i) {
      pnr[i] = kAlnum[static_cast<std::size_t>(rng_.uniform_int(0, 33))];
    }
    if (issued_.insert(pnr).second) return pnr;
  }
}

void PnrGenerator::checkpoint(util::ByteWriter& out) const {
  rng_.checkpoint(out);
  // Sort before writing: issued_ is an unordered_set, and its iteration
  // order would otherwise leak hash-table layout into the checkpoint bytes
  // (and differ after a restore re-inserts).
  std::vector<const std::string*> pnrs;
  pnrs.reserve(issued_.size());
  for (const auto& pnr : issued_) pnrs.push_back(&pnr);
  std::sort(pnrs.begin(), pnrs.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  out.u64(pnrs.size());
  for (const std::string* pnr : pnrs) out.str(*pnr);
}

void PnrGenerator::restore(util::ByteReader& in) {
  rng_.restore(in);
  const auto n = in.u64();
  issued_.clear();
  for (std::uint64_t i = 0; i < n && in.ok(); ++i) issued_.insert(in.str());
}

}  // namespace fraudsim::airline
