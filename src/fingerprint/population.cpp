#include "fingerprint/population.hpp"

#include <array>
#include <charconv>
#include <string_view>

#include "util/hash.hpp"

namespace fraudsim::fp {

namespace {

struct ScreenChoice {
  int w;
  int h;
};

constexpr std::array<ScreenChoice, 5> kDesktopScreens = {
    ScreenChoice{1920, 1080}, {2560, 1440}, {1366, 768}, {1536, 864}, {3840, 2160}};
constexpr std::array<ScreenChoice, 4> kMobileScreens = {
    ScreenChoice{390, 844}, {393, 873}, {412, 915}, {360, 800}};
constexpr std::array<ScreenChoice, 2> kTabletScreens = {ScreenChoice{820, 1180}, {768, 1024}};

constexpr std::array<const char*, 8> kLanguages = {"en-US", "en-GB", "fr-FR", "de-DE",
                                                   "es-ES", "zh-CN", "th-TH", "it-IT"};
constexpr std::array<int, 8> kTimezones = {0, 60, 120, -300, -480, 330, 480, 540};

}  // namespace

RenderingHashes rendering_hashes(const Fingerprint& fp) {
  // Digest of the rendering-relevant stack
  // "<browser>/<version>|<os>|<width>x<height>". Identical stacks collide —
  // that is the point: canvas hashes cluster heavily in real populations.
  // The longest stack is under 90 bytes; a longer one would be cut, never
  // overrun.
  char stack[128];
  std::size_t len = 0;
  const auto text = [&](std::string_view t) { len += t.copy(stack + len, sizeof(stack) - len); };
  const auto number = [&](int v) {
    const char* end = std::to_chars(stack + len, stack + sizeof(stack), v).ptr;
    len = static_cast<std::size_t>(end - stack);
  };
  text(to_string(fp.browser));
  text("/");
  number(fp.browser_version);
  text("|");
  text(to_string(fp.os));
  text("|");
  number(fp.screen_width);
  text("x");
  number(fp.screen_height);
  static const std::uint64_t kCanvas = util::fnv1a("canvas:");
  static const std::uint64_t kWebgl = util::fnv1a("webgl:");
  static const std::uint64_t kFonts = util::fnv1a("fonts:");
  const std::string_view view(stack, len);
  return {util::fnv1a_append(kCanvas, view), util::fnv1a_append(kWebgl, view),
          util::fnv1a_append(kFonts, to_string(fp.os))};
}

void derive_rendering_hashes(Fingerprint& fp) {
  const RenderingHashes hashes = rendering_hashes(fp);
  fp.canvas_hash = hashes.canvas;
  fp.webgl_hash = hashes.webgl;
  fp.fonts_hash = hashes.fonts;
}

Fingerprint PopulationModel::sample_base(sim::Rng& rng) const {
  Fingerprint fp;

  // Browser market share (coarse 2022-2024 global mix).
  constexpr std::array<double, 5> kBrowserShare = {0.63, 0.06, 0.20, 0.08, 0.03};
  fp.browser = static_cast<Browser>(rng.weighted_index(kBrowserShare));

  switch (fp.browser) {
    case Browser::Chrome:
      fp.browser_version = static_cast<int>(rng.uniform_int(100, 124));
      break;
    case Browser::Firefox:
      fp.browser_version = static_cast<int>(rng.uniform_int(100, 126));
      break;
    case Browser::Safari:
      fp.browser_version = static_cast<int>(rng.uniform_int(14, 17));
      break;
    case Browser::Edge:
      fp.browser_version = static_cast<int>(rng.uniform_int(100, 124));
      break;
    case Browser::Other:
      fp.browser_version = static_cast<int>(rng.uniform_int(1, 20));
      break;
  }

  // OS conditioned on browser.
  if (fp.browser == Browser::Safari) {
    fp.os = rng.bernoulli(0.55) ? Os::Ios : Os::MacOs;
  } else if (fp.browser == Browser::Edge) {
    fp.os = Os::Windows;
  } else {
    constexpr std::array<double, 5> kOsShare = {0.48, 0.12, 0.04, 0.30, 0.06};
    fp.os = static_cast<Os>(rng.weighted_index(kOsShare));
  }

  // Device class follows OS.
  switch (fp.os) {
    case Os::Android:
    case Os::Ios:
      fp.device = rng.bernoulli(0.1) ? DeviceClass::Tablet : DeviceClass::Mobile;
      break;
    default:
      fp.device = DeviceClass::Desktop;
      break;
  }

  switch (fp.device) {
    case DeviceClass::Desktop: {
      static constexpr std::array<int, 4> kCores = {4, 8, 12, 16};
      static constexpr std::array<int, 3> kMemory = {8, 16, 32};
      const auto& s = kDesktopScreens[static_cast<std::size_t>(rng.uniform_int(0, 4))];
      fp.screen_width = s.w;
      fp.screen_height = s.h;
      fp.cpu_cores = kCores[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      fp.memory_gb = kMemory[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      fp.touch_support = false;
      fp.plugin_count = static_cast<int>(rng.uniform_int(2, 6));
      break;
    }
    case DeviceClass::Mobile: {
      static constexpr std::array<int, 3> kCores = {4, 6, 8};
      static constexpr std::array<int, 3> kMemory = {4, 6, 8};
      const auto& s = kMobileScreens[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      fp.screen_width = s.w;
      fp.screen_height = s.h;
      fp.cpu_cores = kCores[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      fp.memory_gb = kMemory[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      fp.touch_support = true;
      fp.plugin_count = 0;
      break;
    }
    case DeviceClass::Tablet: {
      static constexpr std::array<int, 2> kCores = {6, 8};
      static constexpr std::array<int, 2> kMemory = {4, 8};
      const auto& s = kTabletScreens[static_cast<std::size_t>(rng.uniform_int(0, 1))];
      fp.screen_width = s.w;
      fp.screen_height = s.h;
      fp.cpu_cores = kCores[static_cast<std::size_t>(rng.uniform_int(0, 1))];
      fp.memory_gb = kMemory[static_cast<std::size_t>(rng.uniform_int(0, 1))];
      fp.touch_support = true;
      fp.plugin_count = 0;
      break;
    }
  }

  fp.language = kLanguages[static_cast<std::size_t>(rng.uniform_int(0, 7))];
  fp.timezone_offset_minutes = kTimezones[static_cast<std::size_t>(rng.uniform_int(0, 7))];
  fp.webdriver_flag = false;
  fp.headless_hint = false;
  derive_rendering_hashes(fp);
  return fp;
}

Fingerprint PopulationModel::sample(sim::Rng& rng) const { return sample_base(rng); }

Fingerprint PopulationModel::sample_naive_bot(sim::Rng& rng) const {
  // Default Puppeteer/Selenium stack: headless Chrome on Linux, automation
  // flags exposed, no plugins.
  Fingerprint fp;
  fp.browser = Browser::Chrome;
  fp.browser_version = static_cast<int>(rng.uniform_int(110, 124));
  fp.os = Os::Linux;
  fp.device = DeviceClass::Desktop;
  fp.screen_width = 800;
  fp.screen_height = 600;
  fp.cpu_cores = static_cast<int>(rng.uniform_int(2, 4));
  fp.memory_gb = 4;
  fp.touch_support = false;
  fp.plugin_count = 0;
  fp.language = "en-US";
  fp.timezone_offset_minutes = 0;
  fp.webdriver_flag = true;
  fp.headless_hint = true;
  derive_rendering_hashes(fp);
  return fp;
}

Fingerprint PopulationModel::sample_spoofed(sim::Rng& rng, const SpoofOptions& opts) const {
  Fingerprint fp = sample_base(rng);
  if (!opts.hide_automation) {
    fp.webdriver_flag = true;
  }
  if (opts.inconsistency_prob > 0.0 && rng.bernoulli(opts.inconsistency_prob)) {
    // Introduce one of the classic spoofing leaks; rendering hashes are NOT
    // re-derived, so the claimed stack and the rendered output disagree —
    // exactly what FP-inconsistency detectors look for.
    switch (rng.uniform_int(0, 3)) {
      case 0:  // impossible browser/OS combination
        fp.browser = Browser::Safari;
        fp.os = Os::Windows;
        break;
      case 1:  // mobile OS with desktop hardware
        fp.os = Os::Ios;
        fp.cpu_cores = 16;
        fp.touch_support = false;
        break;
      case 2:  // desktop claiming touch + mobile screen
        fp.device = DeviceClass::Desktop;
        fp.touch_support = true;
        fp.screen_width = 390;
        fp.screen_height = 844;
        break;
      default:  // zero plugins on a desktop Chrome claiming many cores
        fp.browser = Browser::Chrome;
        fp.os = Os::Windows;
        fp.device = DeviceClass::Desktop;
        fp.plugin_count = 0;
        break;
    }
  }
  return fp;
}

}  // namespace fraudsim::fp
