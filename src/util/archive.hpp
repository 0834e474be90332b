// Explicit little-endian byte serialisation for journal frames and state
// checkpoints.
//
// The journal format must be stable across builds and platforms, so nothing
// here relies on struct layout or host endianness: every integer's bytes are
// composed from its value low byte first, doubles go through a bit_cast to
// u64, strings carry a u32 length prefix. ByteReader mirrors ByteWriter and
// latches an `ok` flag on the first out-of-bounds read instead of throwing,
// so a truncated payload degrades into a single failed Status at the call
// site.
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
//   std::string_view (reading only)    the same, as a view into the payload
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
#include <cstring>
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

// Stores the low `n` bytes of `v` at `at`, low byte first.
inline void store_le(char* at, std::uint64_t v, std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &v, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) at[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

// Writes through a pointer into a std::string: one capacity check per value,
// and take() hands the string over uncopied. The string's size is the part
// made writable so far, and only the first size() bytes are written. That
// part starts as the string's inline buffer, so a writer that stays within
// it never allocates; after that it grows by its own size, at least 256 bytes
// and at most 64 KiB at a time, while the capacity under it at least doubles
// on each reallocation. Appending N bytes so costs O(N), and no more than
// 64 KiB past the last byte written is ever touched.
class ByteWriter {
 public:
  static constexpr bool reading = false;

  ByteWriter() = default;
  ByteWriter(const ByteWriter&) = default;
  ByteWriter& operator=(const ByteWriter&) = default;
  // A moved-from writer is empty, whatever the moved-from string holds.
  ByteWriter(ByteWriter&& other) noexcept
      : buf_(std::move(other.buf_)), size_(std::exchange(other.size_, 0)) {}
  ByteWriter& operator=(ByteWriter&& other) noexcept {
    buf_ = std::move(other.buf_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  void u8(std::uint8_t v) { *grow(1) = static_cast<char>(v); }
  void u16(std::uint16_t v) { store_le(grow(2), v, 2); }
  void u32(std::uint32_t v) { store_le(grow(4), v, 4); }
  void u64(std::uint64_t v) { store_le(grow(8), v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s);
  }
  // Appends bytes verbatim (no length prefix) — for embedding an
  // already-serialised sub-payload into a frame.
  void raw(std::string_view s) {
    if (!s.empty()) std::memcpy(grow(s.size()), s.data(), s.size());
  }

  // Writes each value in the encoding its type selects (table above).
  template <class... T>
  void operator()(const T&... values) {
    (put(values), ...);
  }

  [[nodiscard]] std::string_view bytes() const { return {buf_.data(), size_}; }
  // Hands the bytes over and leaves the writer empty.
  [[nodiscard]] std::string take() {
    std::string out;
    buf_.resize(size_);
    out.swap(buf_);
    size_ = 0;
    return out;
  }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  // Reserves `n` bytes at the end and returns where they start.
  char* grow(std::size_t n) {
    if (buf_.size() - size_ < n) extend(n);
    char* at = buf_.data() + size_;
    size_ += n;
    return at;
  }
  void extend(std::size_t n) {
    constexpr std::size_t kMinStep = 256;
    constexpr std::size_t kMaxStep = std::size_t{64} << 10;
    const std::size_t step =
        buf_.empty() ? buf_.capacity() : std::clamp(buf_.size(), kMinStep, kMaxStep);
    const std::size_t want = std::max(size_ + n, buf_.size() + step);
    if (want > buf_.capacity()) buf_.reserve(std::max(want, 2 * buf_.capacity()));
    buf_.resize(want);
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
      store_le(grow(sizeof(T)), v, sizeof(T));
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
  std::size_t size_ = 0;
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
  [[nodiscard]] std::string str() { return std::string(view()); }
  // The str() encoding, read as a view into the payload.
  [[nodiscard]] std::string_view view() {
    const auto n = u32();
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return {};
    }
    const std::string_view out = bytes_.substr(pos_, n);
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
  void get(std::string_view& v) { v = view(); }
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

// The kept encoding of an append-only vector: elements that never change
// once appended. A checkpoint encodes only the elements appended since the
// previous one and copies the rest, writing the same bytes as encoding the
// whole vector afresh. A restore drops it; so must the owner wherever the
// vector changes other than by appending (reset()). The owner declares it
// `mutable`, since checkpointing is const.
class EncodedPrefix {
 public:
  template <class T, class A>
  void visit(ByteWriter& out, const std::vector<T, A>& log) {
    if (log.size() < count_) reset();  // shrank without a reset(): encode it whole
    out.u64(log.size());
    out.raw(bytes_);
    const std::size_t mark = out.size();
    for (std::size_t i = count_; i < log.size(); ++i) out(log[i]);
    bytes_.append(out.bytes().substr(mark));
    count_ = log.size();
  }
  template <class T, class A>
  void visit(ByteReader& in, std::vector<T, A>& log) {
    in(log);
    reset();
  }

  void reset() {
    bytes_.clear();
    count_ = 0;
  }

 private:
  std::string bytes_;      // encoding of the first count_ elements
  std::size_t count_ = 0;
};

// Turns a component's visit() into its public checkpoint()/restore() pair.
template <class T>
class Checkpointed {
 public:
  void checkpoint(ByteWriter& out) const { out(static_cast<const T&>(*this)); }
  void restore(ByteReader& in) { in(static_cast<T&>(*this)); }
};

}  // namespace fraudsim::util
