#include "util/strings.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace fraudsim::util {

namespace {

[[nodiscard]] bool is_vowel(char c) {
  switch (lower(c)) {
    case 'a':
    case 'e':
    case 'i':
    case 'o':
    case 'u':
      return true;
    default:
      return false;
  }
}

// Coarse English letter-bigram frequencies. Row = first letter, col = second
// letter, values are per-mille counts in a large English name/word corpus,
// quantised. Zero entries get a smoothing floor when scoring. This does not
// need to be precise: it only needs to separate "smith"/"garcia" from
// "ddfjrei" by a wide margin.
constexpr std::array<const char*, 26> kBigramRows = {
    // a        b         c         d         e         f         g
    "bcdglmnrstvyz",  // a is commonly followed by these
    "aeilorub",       // b
    "aehiklortu",     // c
    "aeiorsuy",       // d
    "adeglmnrstvwxy", // e
    "aeiloru",        // f
    "aehilnoru",      // g
    "aeiouy",         // h
    "acdeglmnorstvz", // i
    "aeiou",          // j
    "aeiloy",         // k
    "adeiklnostuvy",  // l
    "aabeiopuy",      // m
    "acdegiknostuy",  // n
    "bcdklmnoprstuvw",// o
    "aehiloprtu",     // p
    "u",              // q
    "adeghiklmnorstuy", // r
    "acehiklmnopqtuw",  // s
    "aehiorstuwy",    // t
    "bcdgilmnprst",   // u
    "aeio",           // v
    "aehio",          // w
    "aeit",           // x
    "aelnos",         // y
    "aeiozy",         // z
};

// The table above as bit rows: bit b of kCommonBigrams[a] is set when letter
// b commonly follows letter a.
constexpr std::array<std::uint32_t, 26> kCommonBigrams = [] {
  std::array<std::uint32_t, 26> rows{};
  for (std::size_t a = 0; a < rows.size(); ++a) {
    for (const char* p = kBigramRows[a]; *p != '\0'; ++p) {
      rows[a] |= std::uint32_t{1} << (*p - 'a');
    }
  }
  return rows;
}();

// True if (a, b) is a common bigram; both must be letters.
[[nodiscard]] bool common_bigram(char a, char b) {
  const std::uint32_t row = kCommonBigrams[static_cast<std::size_t>(lower(a) - 'a')];
  return ((row >> (lower(b) - 'a')) & 1U) != 0;
}

}  // namespace

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), lower);
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), upper);
  return out;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

double shannon_entropy(std::string_view s) {
  if (s.empty()) return 0.0;
  // Only the bytes that occur are visited, found through a 256-bit mask in
  // ascending byte order: the order a walk over all 256 counts takes, so the
  // sum is the same double bit for bit. Bytes with equal counts share one
  // log2 call.
  std::array<std::uint64_t, 4> seen{};
  std::array<std::size_t, 256> counts{};
  for (const unsigned char c : s) {
    seen[c >> 6] |= std::uint64_t{1} << (c & 63);
    ++counts[c];
  }
  double entropy = 0.0;
  const double n = static_cast<double>(s.size());
  std::size_t last_count = 0;
  double last_log = 0.0;
  for (std::size_t word = 0; word < seen.size(); ++word) {
    for (std::uint64_t bits = seen[word]; bits != 0; bits &= bits - 1) {
      const auto byte = word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      const std::size_t count = counts[byte];
      const double p = static_cast<double>(count) / n;
      if (count != last_count) {
        last_count = count;
        last_log = std::log2(p);
      }
      entropy -= p * last_log;
    }
  }
  return entropy;
}

double vowel_ratio(std::string_view s) {
  std::size_t alpha = 0;
  std::size_t vowels = 0;
  for (char c : s) {
    if (!is_alpha(c)) continue;
    ++alpha;
    if (is_vowel(c)) ++vowels;
  }
  if (alpha == 0) return 0.0;
  return static_cast<double>(vowels) / static_cast<double>(alpha);
}

double bigram_log_likelihood(std::string_view s) {
  // Score each adjacent alphabetic bigram: common bigrams get log(0.05),
  // uncommon ones log(0.002). Mean over bigrams. Scores therefore live in
  // [log 0.002, log 0.05] ≈ [-6.2, -3.0].
  constexpr double kCommon = -3.0;
  constexpr double kRare = -6.2;
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    if (!is_alpha(s[i]) || !is_alpha(s[i + 1])) continue;
    total += common_bigram(s[i], s[i + 1]) ? kCommon : kRare;
    ++n;
  }
  if (n == 0) return 0.0;
  return total / static_cast<double>(n);
}

std::size_t levenshtein(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<std::size_t> row(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    std::size_t prev_diag = row[0];
    row[0] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      const std::size_t prev_row = row[i];
      const std::size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, prev_diag + cost});
      prev_diag = prev_row;
    }
  }
  return row[a.size()];
}

bool within_edit_distance(std::string_view a, std::string_view b, std::size_t max_edits) {
  const std::size_t la = a.size();
  const std::size_t lb = b.size();
  const std::size_t diff = la > lb ? la - lb : lb - la;
  if (diff > max_edits) return false;
  return levenshtein(a, b) <= max_edits;
}

double gibberish_score(std::string_view s) {
  if (s.size() < 3) return 0.0;  // too short to judge
  // Normalise each signal into [0,1] where 1 = gibberish-like.
  // Entropy: names of length 5-10 typically have 2.0-3.0 bits/char; uniform
  // random lowercase approaches log2(min(len, 26)).
  const double max_entropy = std::log2(std::min<double>(26.0, static_cast<double>(s.size())));
  const double entropy_sig =
      max_entropy > 0 ? std::clamp(shannon_entropy(s) / max_entropy, 0.0, 1.0) : 0.0;

  // Vowel ratio: natural names ~[0.3, 0.55]; distance from that band.
  const double vr = vowel_ratio(s);
  double vowel_sig = 0.0;
  if (vr < 0.30) vowel_sig = (0.30 - vr) / 0.30;
  if (vr > 0.55) vowel_sig = (vr - 0.55) / 0.45;
  vowel_sig = std::clamp(vowel_sig, 0.0, 1.0);

  // Bigram plausibility: map [-6.2, -3.0] onto [1, 0].
  const double bll = bigram_log_likelihood(s);
  const double bigram_sig = std::clamp((bll - (-3.0)) / (-6.2 - (-3.0)), 0.0, 1.0);

  // Weighted blend; bigram model is the strongest single discriminator.
  return std::clamp(0.25 * entropy_sig + 0.25 * vowel_sig + 0.50 * bigram_sig, 0.0, 1.0);
}

}  // namespace fraudsim::util
