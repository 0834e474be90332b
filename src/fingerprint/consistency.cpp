#include "fingerprint/consistency.hpp"

#include <algorithm>

#include "fingerprint/population.hpp"

namespace fraudsim::fp {
namespace {

// Calls `violated(rule, detail)` for each rule `fp` breaks, in a fixed order.
template <class F>
void for_each_violation(const Fingerprint& fp, F&& violated) {
  // Safari ships only on Apple platforms.
  if (fp.browser == Browser::Safari && fp.os != Os::MacOs && fp.os != Os::Ios) {
    violated("browser-os", "Safari on a non-Apple OS");
  }
  // Edge is Windows-dominant; Edge on iOS/Android exists but reports as such —
  // our model only emits Edge/Windows, so anything else is a spoof artifact.
  if (fp.browser == Browser::Edge && fp.os != Os::Windows) {
    violated("browser-os", "Edge on a non-Windows OS");
  }
  // Mobile OS must be a mobile/tablet device with touch.
  if ((fp.os == Os::Ios || fp.os == Os::Android)) {
    if (fp.device == DeviceClass::Desktop) {
      violated("os-device", "mobile OS claiming a desktop device class");
    }
    if (!fp.touch_support) {
      violated("os-touch", "mobile OS without touch support");
    }
    if (fp.cpu_cores > 8) {
      violated("os-hardware", "mobile OS claiming >8 CPU cores");
    }
  }
  // Desktop OS with touch + phone-sized screen.
  if (fp.device == DeviceClass::Desktop && fp.touch_support && fp.screen_width < 500) {
    violated("device-screen", "desktop device with phone-sized touch screen");
  }
  // Phone-sized screens only occur on mobile devices.
  if (fp.device == DeviceClass::Desktop && fp.screen_width < 500 && fp.screen_height > 600) {
    violated("device-screen", "desktop claiming portrait phone screen");
  }
  // Claimed stack must reproduce the rendering digests. Recompute and compare.
  const RenderingHashes derived = rendering_hashes(fp);
  if (derived.canvas != fp.canvas_hash || derived.webgl != fp.webgl_hash ||
      derived.fonts != fp.fonts_hash) {
    violated("render-hash", "rendering digests inconsistent with claimed stack");
  }
}

}  // namespace

std::vector<ConsistencyViolation> ConsistencyChecker::check(const Fingerprint& fp) const {
  std::vector<ConsistencyViolation> out;
  for_each_violation(fp, [&out](std::string_view rule, std::string_view detail) {
    out.push_back({rule, detail});
  });
  return out;
}

std::size_t ConsistencyChecker::count_violations(const Fingerprint& fp,
                                                 ConsistencyViolation* first) const {
  std::size_t count = 0;
  for_each_violation(fp, [&](std::string_view rule, std::string_view detail) {
    if (count++ == 0 && first != nullptr) *first = {rule, detail};
  });
  return count;
}

double ConsistencyChecker::inconsistency_score(const Fingerprint& fp) const {
  return score(count_violations(fp));
}

double ConsistencyChecker::score(std::size_t violations) {
  return std::min(1.0, static_cast<double>(violations) / 3.0);
}

}  // namespace fraudsim::fp
