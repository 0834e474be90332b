// Browser fingerprint model.
//
// A Fingerprint is the attribute vector an anti-bot script would collect
// client-side: UA-derived browser/OS, hardware hints, rendering hashes, and
// automation artifacts (navigator.webdriver, headless tells). Knowledge-based
// detection (paper §III-B) operates on these attributes; fingerprint rotation
// (§IV-A, §IV-C) replaces the whole vector.
#pragma once

#include <cstdint>
#include <string>

#include "util/ids.hpp"

namespace fraudsim::fp {

enum class Browser : std::uint8_t { Chrome, Firefox, Safari, Edge, Other };
enum class Os : std::uint8_t { Windows, MacOs, Linux, Android, Ios };
enum class DeviceClass : std::uint8_t { Desktop, Mobile, Tablet };

[[nodiscard]] const char* to_string(Browser b);
[[nodiscard]] const char* to_string(Os os);
[[nodiscard]] const char* to_string(DeviceClass d);

// Stable 64-bit digest of a fingerprint's attribute vector.
struct FpHashTag {};
using FpHash = util::StrongId<FpHashTag>;

struct Fingerprint {
  Browser browser = Browser::Chrome;
  int browser_version = 100;
  Os os = Os::Windows;
  DeviceClass device = DeviceClass::Desktop;
  int screen_width = 1920;
  int screen_height = 1080;
  int timezone_offset_minutes = 0;  // UTC offset
  std::string language = "en-US";
  int cpu_cores = 8;
  int memory_gb = 8;
  bool touch_support = false;
  int plugin_count = 3;
  // Rendering digests: derived from (browser, version, os, gpu class) so
  // distinct users on identical stacks share them, as in reality.
  std::uint64_t canvas_hash = 0;
  std::uint64_t webgl_hash = 0;
  std::uint64_t fonts_hash = 0;
  // Automation artifacts.
  bool webdriver_flag = false;
  bool headless_hint = false;  // e.g. "HeadlessChrome" UA token, missing chrome object

  // Canonical attribute string (used for hashing and logging).
  [[nodiscard]] std::string canonical() const;
  [[nodiscard]] FpHash hash() const;
  // Synthesised user-agent string consistent with browser/os/version.
  [[nodiscard]] std::string user_agent() const;

  // Wire field list (journal records, state checkpoints; util/archive.hpp).
  template <class Ar>
  void visit(Ar& ar) {
    ar(browser, browser_version, os, device, screen_width, screen_height,
       timezone_offset_minutes, language, cpu_cores, memory_gb, touch_support, plugin_count,
       canvas_hash, webgl_hash, fonts_hash, webdriver_flag, headless_hint);
  }
};

[[nodiscard]] bool operator==(const Fingerprint& a, const Fingerprint& b);

}  // namespace fraudsim::fp
