// Deterministic, platform-independent hashing.
//
// std::hash gives no cross-platform stability guarantees; fingerprint hashes
// and synthetic-data derivations must be reproducible across runs and
// machines, so everything here is explicit FNV-1a / SplitMix64.
#pragma once

#include <cstdint>
#include <string_view>

namespace fraudsim::util {

// 64-bit FNV-1a over bytes.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept;

// FNV-1a continuation: feed additional data into an existing hash state.
[[nodiscard]] std::uint64_t fnv1a_append(std::uint64_t state, std::string_view bytes) noexcept;

// SplitMix64 finaliser: cheap avalanche for integer mixing.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

// Combine two 64-bit hashes into one (order-dependent).
[[nodiscard]] std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept;

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over bytes. Used to
// frame journal records so torn or bit-rotted tails are detected on open.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes) noexcept;

// CRC-32 continuation: crc32_append(crc32(a), b) == crc32(a + b), and
// crc32(bytes) == crc32_append(0, bytes), so a frame's checksum can be taken
// over pieces that are never concatenated. On x86-64 CPUs with PCLMULQDQ
// (checked once at run time) spans of 64 bytes or more fold with carry-less
// multiplies; tails, short spans and other CPUs take a slicing-by-8 loop.
[[nodiscard]] std::uint32_t crc32_append(std::uint32_t crc, std::string_view bytes) noexcept;

// For tests that hold both CRC-32 paths to a bytewise reference: whether
// crc32_append folds with PCLMULQDQ on this CPU, and its slicing-by-8 path
// on its own.
namespace detail {
[[nodiscard]] bool crc32_clmul_available() noexcept;
[[nodiscard]] std::uint32_t crc32_append_table(std::uint32_t crc, std::string_view bytes) noexcept;
}  // namespace detail

}  // namespace fraudsim::util
