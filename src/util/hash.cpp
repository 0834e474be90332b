#include "util/hash.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace fraudsim::util {

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  return fnv1a_append(kFnvOffset, bytes);
}

std::uint64_t fnv1a_append(std::uint64_t state, std::string_view bytes) noexcept {
  for (unsigned char c : bytes) {
    state ^= c;
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return splitmix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

namespace {

// Slicing-by-8 tables: entries[0] is the classic bytewise table, and
// entries[k][b] is entries[0][b] carried through k more zero bytes, so one
// step folds eight input bytes with eight independent table loads.
struct Crc32Tables {
  std::uint32_t entries[8][256];
  constexpr Crc32Tables() : entries() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      entries[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
  }
};

constexpr Crc32Tables kCrc32{};

// Little-endian u32 from four bytes, whatever the host order or alignment.
constexpr std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

#if defined(__x86_64__)

// lane * x^k folded forward onto `next`: (lo * k.lo) ^ (hi * k.hi) ^ next.
__attribute__((target("pclmul"))) inline __m128i clmul_fold(__m128i lane, __m128i k,
                                                             __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00), _mm_clmulepi64_si128(lane, k, 0x11)),
      next);
}

// Folds 64-byte blocks with carry-less multiplies (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ", Intel, 2009): four
// 128-bit lanes each multiply by x^512 mod P per block, then fold into one
// lane, then 16-byte blocks, then reduce 128 bits to 32 with two more folds
// and a Barrett step. `n` is a multiple of 16 and at least 64; `c` is the
// inverted state the table loop carries, and the result is in the same form.
__attribute__((target("pclmul"))) std::uint32_t crc32_fold_clmul(std::uint32_t c,
                                                                  const unsigned char* p,
                                                                  std::size_t n) {
  // Bit-reflected constants for P = 0x104C11DB7 (the paper's k1..k5 and
  // mu): x^(512+32) and x^(512-32) mod P fold four lanes, x^(128+32) and
  // x^(128-32) mod P fold one, x^64 mod P takes 96 bits to 64, and P with
  // floor(x^64 / P) make the Barrett step.
  const __m128i k_fold4 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k_fold1 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k_fold64 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i k_barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };

  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = clmul_fold(x0, k_fold4, load(p));
    x1 = clmul_fold(x1, k_fold4, load(p + 16));
    x2 = clmul_fold(x2, k_fold4, load(p + 32));
    x3 = clmul_fold(x3, k_fold4, load(p + 48));
  }
  x0 = clmul_fold(clmul_fold(clmul_fold(x0, k_fold1, x1), k_fold1, x2), k_fold1, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = clmul_fold(x0, k_fold1, load(p));

  // 128 -> 96 bits: the low half times x^(128-32) onto the high half.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k_fold1, 0x10));
  // 96 -> 64 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k_fold64, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k_barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), k_barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x0, t), 4)));
}

#endif

// The slicing-by-8 loop over an inverted CRC state.
std::uint32_t crc32_fold_table(std::uint32_t c, const unsigned char* p, std::size_t n) {
  const auto& t = kCrc32.entries;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

}  // namespace

namespace detail {

bool crc32_clmul_available() noexcept {
#if defined(__x86_64__)
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return available;
#else
  return false;
#endif
}

std::uint32_t crc32_append_table(std::uint32_t crc, std::string_view bytes) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  return crc32_fold_table(crc ^ 0xFFFFFFFFu, p, bytes.size()) ^ 0xFFFFFFFFu;
}

}  // namespace detail

std::uint32_t crc32(std::string_view bytes) noexcept { return crc32_append(0, bytes); }

std::uint32_t crc32_append(std::uint32_t crc, std::string_view bytes) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
#if defined(__x86_64__)
  if (n >= 64 && detail::crc32_clmul_available()) {
    const std::size_t blocks = n & ~std::size_t{15};
    c = crc32_fold_clmul(c, p, blocks);
    p += blocks;
    n -= blocks;
  }
#endif
  return crc32_fold_table(c, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace fraudsim::util
