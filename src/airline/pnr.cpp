#include "airline/pnr.hpp"

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

}  // namespace fraudsim::airline
