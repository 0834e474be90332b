// String utilities used by identity analysis and detectors.
//
// The passenger-name detectors in core/detect rely on three signals the paper
// describes: gibberish entries ("affjgdui"), repeated identities, and slight
// misspellings of a fixed name set. The primitives for all three live here:
// Shannon entropy, English-letter bigram plausibility, and Levenshtein
// distance.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace fraudsim::util {

// ASCII character classes. Detection verdicts must not depend on the host's C
// locale, so nothing here consults <cctype>: only A-Z and a-z are letters,
// and case mapping leaves every other byte (UTF-8 and 0x80-0xFF included) as
// it is.
[[nodiscard]] constexpr bool is_alpha(char c) noexcept {
  const auto folded = static_cast<unsigned char>(static_cast<unsigned char>(c) | 0x20);
  return folded >= 'a' && folded <= 'z';
}
[[nodiscard]] constexpr char lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}
[[nodiscard]] constexpr char upper(char c) noexcept {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

[[nodiscard]] std::string to_lower(std::string_view s);
[[nodiscard]] std::string to_upper(std::string_view s);

[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

// Shannon entropy in bits per character over the byte distribution of `s`.
// Empty strings have entropy 0.
[[nodiscard]] double shannon_entropy(std::string_view s);

// Fraction of characters that are vowels (aeiou, case-insensitive) among the
// alphabetic characters of `s`. Natural-language names sit around 0.35-0.5;
// keyboard-mash gibberish is usually far lower or higher.
[[nodiscard]] double vowel_ratio(std::string_view s);

// Mean log-likelihood per bigram of `s` under a coarse English letter-bigram
// model (built into the library). Higher = more plausible as a natural name.
// Returns 0 for strings shorter than 2 letters.
[[nodiscard]] double bigram_log_likelihood(std::string_view s);

// Classic Levenshtein edit distance (insert/delete/substitute, unit costs).
[[nodiscard]] std::size_t levenshtein(std::string_view a, std::string_view b);

// True if the strings are within `max_edits` edits of each other. Early-outs
// on length difference, cheaper than full levenshtein for filtering.
[[nodiscard]] bool within_edit_distance(std::string_view a, std::string_view b,
                                        std::size_t max_edits);

// Composite "gibberish score" in [0,1]; ~0 for plausible human names, ~1 for
// random character sequences. Combines entropy, vowel ratio, and the bigram
// model.
[[nodiscard]] double gibberish_score(std::string_view s);

}  // namespace fraudsim::util
