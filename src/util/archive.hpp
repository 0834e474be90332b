// Explicit little-endian byte serialisation for journal frames and state
// checkpoints.
//
// The journal format must be stable across builds and platforms, so nothing
// here relies on struct layout or host endianness: every integer is written
// byte-by-byte, doubles go through a bit_cast to u64, strings carry a u32
// length prefix. ByteReader mirrors ByteWriter and latches an `ok` flag on
// the first out-of-bounds read instead of throwing, so a truncated payload
// degrades into a single failed Status at the call site.
//
// Checkpointed state lists its fields once, in a member
//
//   template <class Ar> void visit(Ar& ar) { ar(a_, b_, c_); }
//
// and that one list both writes (Ar = ByteWriter) and reads (Ar =
// ByteReader), so the two directions cannot disagree. Work only a restore
// does (rebuilding derived indexes) goes in an `if constexpr (Ar::reading)`
// block of the same function. Deriving from Checkpointed<T> turns the visit
// into the public checkpoint()/restore() pair. The value's type picks its
// encoding:
//
//   bool                               u8
//   uint8/16/32/64                     their own width
//   every other integer                i64
//   enum                               u8
//   floating point                     f64
//   std::string                        u32 length + bytes
//   T[N], std::array                   N elements, no count
//   std::pair                          first, second
//   std::optional                      bool + value
//   vector, deque, set                 u64 count + elements
//   map                                u64 count + (key, value) entries
//   unordered_set, unordered_map       the same, written sorted by key, so
//                                      the bytes never depend on hash-table
//                                      layout (an unordered key without a <
//                                      does not compile)
//   any other class                    its own visit()
//
// Readers stop at the first failed read and never reserve more elements than
// the remaining bytes could hold (every element takes at least one byte), so
// a hostile count neither allocates nor spins.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace fraudsim::util {

// std::size_t fields take the unsigned rule; frames written on one host must
// read on another, so the archive targets 64-bit size_t only.
static_assert(sizeof(std::size_t) == 8, "checkpoint frames encode std::size_t as u64");

class ByteWriter {
 public:
  static constexpr bool reading = false;

  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  // Appends bytes verbatim (no length prefix) — for embedding an
  // already-serialised sub-payload into a frame.
  void raw(std::string_view s) { buf_.append(s.data(), s.size()); }

  // Writes each value in the encoding its type selects (table above).
  template <class... T>
  void operator()(const T&... values) {
    (put(values), ...);
  }

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  void put_le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }

  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      boolean(v);
    } else if constexpr (std::is_enum_v<T>) {
      u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_floating_point_v<T>) {
      f64(static_cast<double>(v));
    } else if constexpr (std::is_unsigned_v<T>) {
      put_le(v, sizeof(T));
    } else if constexpr (std::is_integral_v<T>) {
      i64(static_cast<std::int64_t>(v));
    } else if constexpr (std::is_array_v<T>) {
      for (const auto& e : v) put(e);
    } else {
      // visit() only reads its fields when the archive writes.
      const_cast<T&>(v).visit(*this);
    }
  }
  void put(const std::string& v) { str(v); }
  template <class A, class B>
  void put(const std::pair<A, B>& v) {
    put(v.first);
    put(v.second);
  }
  template <class T, std::size_t N>
  void put(const std::array<T, N>& v) {
    for (const auto& e : v) put(e);
  }
  template <class T>
  void put(const std::optional<T>& v) {
    boolean(v.has_value());
    if (v) put(*v);
  }

  template <class T, class A>
  void put(const std::vector<T, A>& v) {
    put_range(v);
  }
  template <class T, class A>
  void put(const std::deque<T, A>& v) {
    put_range(v);
  }
  template <class K, class C, class A>
  void put(const std::set<K, C, A>& v) {
    put_range(v);
  }
  template <class K, class V, class C, class A>
  void put(const std::map<K, V, C, A>& v) {
    put_range(v);
  }
  template <class K, class H, class E, class A>
  void put(const std::unordered_set<K, H, E, A>& v) {
    put_sorted(v, [](const K& k) -> const K& { return k; });
  }
  template <class K, class V, class H, class E, class A>
  void put(const std::unordered_map<K, V, H, E, A>& v) {
    put_sorted(v, [](const std::pair<const K, V>& e) -> const K& { return e.first; });
  }

  template <class R>
  void put_range(const R& r) {
    u64(r.size());
    for (const auto& e : r) put(e);
  }
  template <class R, class Key>
  void put_sorted(const R& r, Key key) {
    std::vector<const typename R::value_type*> order;
    order.reserve(r.size());
    for (const auto& e : r) order.push_back(&e);
    std::sort(order.begin(), order.end(), [&](const auto* a, const auto* b) {
      return key(*a) < key(*b);
    });
    u64(order.size());
    for (const auto* e : order) put(*e);
  }

  std::string buf_;
};

class ByteReader {
 public:
  static constexpr bool reading = true;

  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(get_le(1)); }
  [[nodiscard]] std::uint16_t u16() { return static_cast<std::uint16_t>(get_le(2)); }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
  [[nodiscard]] std::uint64_t u64() { return get_le(8); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string str() {
    const auto n = u32();
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return {};
    }
    std::string out(bytes_.substr(pos_, n));
    pos_ += n;
    return out;
  }

  // Reads each value in the encoding its type selects (table above).
  template <class... T>
  void operator()(T&... values) {
    (get(values), ...);
  }

  // True while every read so far stayed in bounds.
  [[nodiscard]] bool ok() const { return ok_; }
  // True when the payload was consumed exactly (no trailing garbage).
  [[nodiscard]] bool exhausted() const { return ok_ && pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const { return ok_ ? bytes_.size() - pos_ : 0; }
  // Marks the payload invalid: for a visit() that reads a value no writer
  // produces.
  void fail() { ok_ = false; }

 private:
  [[nodiscard]] std::uint64_t get_le(int n) {
    if (!ok_ || bytes_.size() - pos_ < static_cast<std::size_t>(n)) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = boolean();
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(u8());
    } else if constexpr (std::is_floating_point_v<T>) {
      v = static_cast<T>(f64());
    } else if constexpr (std::is_unsigned_v<T>) {
      v = static_cast<T>(get_le(sizeof(T)));
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(i64());
    } else if constexpr (std::is_array_v<T>) {
      for (auto& e : v) get(e);
    } else {
      v.visit(*this);
    }
  }
  void get(std::string& v) { v = str(); }
  template <class A, class B>
  void get(std::pair<A, B>& v) {
    get(v.first);
    get(v.second);
  }
  template <class T, std::size_t N>
  void get(std::array<T, N>& v) {
    for (auto& e : v) get(e);
  }
  template <class T>
  void get(std::optional<T>& v) {
    v.reset();
    if (boolean()) get(v.emplace());
  }
  template <class T, class A>
  void get(std::vector<T, A>& v) {
    v.clear();
    const std::uint64_t n = u64();
    v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, remaining())));
    get_elements<T>(n, [&](T&& e) { v.push_back(std::move(e)); });
  }
  template <class T, class A>
  void get(std::deque<T, A>& v) {
    v.clear();
    get_elements<T>(u64(), [&](T&& e) { v.push_back(std::move(e)); });
  }
  template <class K, class C, class A>
  void get(std::set<K, C, A>& v) {
    v.clear();
    get_elements<K>(u64(), [&](K&& k) { v.emplace_hint(v.end(), std::move(k)); });
  }
  template <class K, class V, class C, class A>
  void get(std::map<K, V, C, A>& v) {
    v.clear();
    get_elements<std::pair<K, V>>(
        u64(), [&](std::pair<K, V>&& e) { v.emplace_hint(v.end(), std::move(e)); });
  }
  template <class K, class H, class E, class A>
  void get(std::unordered_set<K, H, E, A>& v) {
    v.clear();
    get_elements<K>(u64(), [&](K&& k) { v.insert(std::move(k)); });
  }
  template <class K, class V, class H, class E, class A>
  void get(std::unordered_map<K, V, H, E, A>& v) {
    v.clear();
    get_elements<std::pair<K, V>>(u64(), [&](std::pair<K, V>&& e) { v.insert(std::move(e)); });
  }

  // Reads up to `n` elements, handing each complete one to `add`; stops at
  // the first failed read.
  template <class T, class Add>
  void get_elements(std::uint64_t n, Add add) {
    for (std::uint64_t i = 0; i < n && ok_; ++i) {
      T e{};
      get(e);
      if (!ok_) return;
      add(std::move(e));
    }
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Turns a component's visit() into its public checkpoint()/restore() pair.
template <class T>
class Checkpointed {
 public:
  void checkpoint(ByteWriter& out) const { out(static_cast<const T&>(*this)); }
  void restore(ByteReader& in) { in(static_cast<T&>(*this)); }
};

}  // namespace fraudsim::util
