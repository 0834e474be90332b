#include "fingerprint/fingerprint.hpp"

#include <sstream>

#include "util/hash.hpp"

namespace fraudsim::fp {

const char* to_string(Browser b) {
  switch (b) {
    case Browser::Chrome:
      return "Chrome";
    case Browser::Firefox:
      return "Firefox";
    case Browser::Safari:
      return "Safari";
    case Browser::Edge:
      return "Edge";
    case Browser::Other:
      return "Other";
  }
  return "?";
}

const char* to_string(Os os) {
  switch (os) {
    case Os::Windows:
      return "Windows NT 10.0";
    case Os::MacOs:
      return "Macintosh; Intel Mac OS X 10_15_7";
    case Os::Linux:
      return "X11; Linux x86_64";
    case Os::Android:
      return "Linux; Android 13";
    case Os::Ios:
      return "iPhone; CPU iPhone OS 16_5 like Mac OS X";
  }
  return "?";
}

const char* to_string(DeviceClass d) {
  switch (d) {
    case DeviceClass::Desktop:
      return "desktop";
    case DeviceClass::Mobile:
      return "mobile";
    case DeviceClass::Tablet:
      return "tablet";
  }
  return "?";
}

std::string Fingerprint::canonical() const {
  std::ostringstream out;
  out << to_string(browser) << '/' << browser_version << '|' << to_string(os) << '|'
      << to_string(device) << '|' << screen_width << 'x' << screen_height << '|'
      << timezone_offset_minutes << '|' << language << '|' << cpu_cores << 'c' << memory_gb << 'g'
      << '|' << (touch_support ? 'T' : 't') << plugin_count << '|' << canvas_hash << '|'
      << webgl_hash << '|' << fonts_hash << '|' << (webdriver_flag ? 'W' : 'w')
      << (headless_hint ? 'H' : 'h');
  return out.str();
}

FpHash Fingerprint::hash() const {
  // Reserve 0 as invalid by mapping any zero digest to 1.
  const std::uint64_t h = util::fnv1a(canonical());
  return FpHash{h == 0 ? 1 : h};
}

std::string Fingerprint::user_agent() const {
  std::ostringstream out;
  out << "Mozilla/5.0 (" << to_string(os) << ") ";
  switch (browser) {
    case Browser::Chrome:
      out << "AppleWebKit/537.36 (KHTML, like Gecko) Chrome/" << browser_version
          << ".0.0.0 Safari/537.36";
      break;
    case Browser::Edge:
      out << "AppleWebKit/537.36 (KHTML, like Gecko) Chrome/" << browser_version
          << ".0.0.0 Safari/537.36 Edg/" << browser_version << ".0";
      break;
    case Browser::Firefox:
      out << "Gecko/20100101 Firefox/" << browser_version << ".0";
      break;
    case Browser::Safari:
      out << "AppleWebKit/605.1.15 (KHTML, like Gecko) Version/" << browser_version
          << ".0 Safari/605.1.15";
      break;
    case Browser::Other:
      out << "UnknownEngine/1.0";
      break;
  }
  if (headless_hint && browser == Browser::Chrome) {
    // Real headless Chrome advertises itself unless patched.
    return "Mozilla/5.0 (" + std::string(to_string(os)) + ") AppleWebKit/537.36 " +
           "(KHTML, like Gecko) HeadlessChrome/" + std::to_string(browser_version) +
           ".0.0.0 Safari/537.36";
  }
  return out.str();
}

bool operator==(const Fingerprint& a, const Fingerprint& b) {
  return a.canonical() == b.canonical();
}

}  // namespace fraudsim::fp
