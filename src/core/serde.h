// Canonical little-endian byte serialization for persistent artifacts.
//
// The artifact store keeps every stage output on disk in the same
// canonical form the cache keys are built from (field order fixed by the
// codec, numbers as raw little-endian bit patterns): deserializing a
// record therefore reproduces the exact bytes a fresh build would have
// produced, which is what makes a store-warm run bit-identical to a cold
// one. Doubles round-trip by bit pattern — no text formatting, no
// -0.0/NaN normalization (unlike KeyHasher, which normalizes -0.0 because
// keys must treat equal values as equal; payloads must preserve bits).
//
// Reader is fail-safe, never throwing and never reading past the end: any
// short or malformed read latches ok() to false and yields zeros, so a
// truncated or corrupted record decodes to "reject and rebuild", not UB.
//
// On little-endian hosts the in-memory representation already is the
// canonical one, so integers and f64 arrays move with one memcpy; the
// byte loops are the big-endian path. Both produce the same bytes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace vcoadc::core::serde {

inline constexpr bool kNativeLittleEndian =
    std::endian::native == std::endian::little;

/// The unsigned integer stored little-endian in the sizeof(U) bytes at p.
template <typename U>
U load_le(const std::uint8_t* p) {
  U v = 0;
  if constexpr (kNativeLittleEndian) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      v |= static_cast<U>(U{p[i]} << (8 * i));
    }
  }
  return v;
}

/// Appends canonical bytes. The buffer grows ahead of the bytes written
/// (its spare tail zero), so each write is a bounds check and a copy;
/// bytes() and take() trim it to what was written.
class Writer {
 public:
  void u8(std::uint8_t v) { *grow(1) = v; }

  void u32(std::uint32_t v) { put_le(v); }

  void u64(std::uint64_t v) { put_le(v); }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Raw bit pattern — exact round trip, including NaN payloads and -0.0.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed bytes.
  void str(std::string_view s) {
    u64(s.size());
    if (!s.empty()) std::memcpy(grow(s.size()), s.data(), s.size());
  }

  void size(std::size_t n) { u64(n); }

  /// Length-prefixed f64 array: the count, then each element's bit
  /// pattern — the same bytes as size(n) followed by n f64() calls.
  void f64s(const std::vector<double>& v) {
    size(v.size());
    if constexpr (kNativeLittleEndian) {
      if (v.empty()) return;
      std::memcpy(grow(v.size() * sizeof(double)), v.data(),
                  v.size() * sizeof(double));
    } else {
      for (const double d : v) f64(d);
    }
  }

  /// Length-prefixed i32 array: the count, then each element as 4
  /// little-endian bytes.
  void i32s(const std::vector<int>& v) {
    size(v.size());
    if constexpr (kNativeLittleEndian && sizeof(int) == 4) {
      if (v.empty()) return;
      std::memcpy(grow(v.size() * 4), v.data(), v.size() * 4);
    } else {
      for (const int x : v) u32(static_cast<std::uint32_t>(x));
    }
  }

  /// Length-prefixed byte array: the count, then one byte per element.
  /// Every element must lie in [0, 255]; the caller checks.
  template <typename Int>
  void u8s(const std::vector<Int>& v) {
    size(v.size());
    std::uint8_t* out = grow(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(v[i]);
    }
  }

  /// Appends n zero bytes (no count) and returns where they start, for a
  /// codec that fills them in place; valid until the next write.
  std::uint8_t* raw(std::size_t n) { return grow(n); }

  /// Inserts another writer's bytes (no count) at byte offset `at`,
  /// moving the bytes after it up.
  void insert(std::size_t at, const Writer& other) {
    const std::size_t n = other.size_;
    if (n == 0) return;
    grow(n);
    std::memmove(buf_.data() + at + n, buf_.data() + at, size_ - n - at);
    std::memcpy(buf_.data() + at, other.buf_.data(), n);
  }

  /// Bytes written so far.
  std::size_t length() const { return size_; }

  const std::vector<std::uint8_t>& bytes() {
    buf_.resize(size_);
    return buf_;
  }
  std::vector<std::uint8_t> take() {
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
  }

 private:
  /// Room for n more bytes (zero until written); returns where they start.
  std::uint8_t* grow(std::size_t n) {
    if (buf_.size() - size_ < n) {
      buf_.resize(std::max({std::size_t{64}, 2 * buf_.size(), size_ + n}));
    }
    std::uint8_t* p = buf_.data() + size_;
    size_ += n;
    return p;
  }

  template <typename U>
  void put_le(U v) {
    std::uint8_t* p = grow(sizeof v);
    if constexpr (kNativeLittleEndian) {
      std::memcpy(p, &v, sizeof v);
    } else {
      for (std::size_t i = 0; i < sizeof v; ++i) {
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
    }
  }

  std::vector<std::uint8_t> buf_;  ///< [0, size_) written, the rest zero
  std::size_t size_ = 0;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t n) : p_(data), n_(n) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  /// False once any read ran past the end (or a bounded read overflowed);
  /// every subsequent read yields zero. Check once after decoding.
  bool ok() const { return ok_; }
  std::size_t remaining() const { return n_ - pos_; }
  bool at_end() const { return pos_ == n_; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return p_[pos_ - 1];
  }

  std::uint32_t u32() {
    return take(4) ? load_le<std::uint32_t>(p_ + pos_ - 4) : 0;
  }

  std::uint64_t u64() {
    return take(8) ? load_le<std::uint64_t>(p_ + pos_ - 8) : 0;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  bool boolean() { return u8() != 0; }

  std::string str() { return std::string(view()); }

  /// A Writer::str as a view into the buffer: no copy, valid as long as
  /// the buffer is.
  std::string_view view() {
    const std::uint64_t len = u64();
    if (!ok_ || len > remaining()) {
      ok_ = false;
      return {};
    }
    const std::string_view s(reinterpret_cast<const char*>(p_ + pos_),
                             static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  /// A u32 index into a table of `bound` entries. An index at or past the
  /// bound latches !ok() and yields 0, so a caller still checks ok()
  /// before it uses the index.
  std::uint32_t index(std::size_t bound) {
    const std::uint32_t i = u32();
    if (i >= bound) {
      ok_ = false;
      return 0;
    }
    return i;
  }

  /// Element-count read, bounded by the remaining payload so a corrupted
  /// count can never drive a multi-gigabyte reserve: every element costs
  /// at least one byte, so a valid count is <= remaining().
  std::size_t size() {
    const std::uint64_t n = u64();
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::size_t>(n);
  }

  /// Reads a Writer::f64s array into `out`. The count is checked against
  /// the bytes left (n <= remaining() / 8, which cannot overflow) before
  /// anything is allocated; a short or oversized count latches !ok() and
  /// leaves `out` empty.
  void f64s(std::vector<double>& out) {
    out.clear();
    const std::uint64_t n = u64();
    if (!ok_ || n > remaining() / sizeof(double)) {
      ok_ = false;
      return;
    }
    const std::size_t count = static_cast<std::size_t>(n);
    out.resize(count);
    if constexpr (kNativeLittleEndian) {
      if (count == 0) return;
      std::memcpy(out.data(), p_ + pos_, count * sizeof(double));
      pos_ += count * sizeof(double);
    } else {
      for (double& d : out) d = f64();
    }
  }

  /// Reads a Writer::i32s array into `out`. Checked like f64s: a count
  /// past the bytes left latches !ok() and leaves `out` empty.
  void i32s(std::vector<int>& out) {
    out.clear();
    const std::uint64_t n = u64();
    if (!ok_ || n > remaining() / 4) {
      ok_ = false;
      return;
    }
    const std::size_t count = static_cast<std::size_t>(n);
    out.resize(count);
    if constexpr (kNativeLittleEndian && sizeof(int) == 4) {
      if (count == 0) return;
      std::memcpy(out.data(), p_ + pos_, count * 4);
      pos_ += count * 4;
    } else {
      for (int& x : out) x = static_cast<int>(u32());
    }
  }

  /// Reads a Writer::u8s array into `out`, one element per byte. Checked
  /// like f64s: a count past the bytes left latches !ok() before anything
  /// is allocated and leaves `out` empty.
  template <typename Int>
  void u8s(std::vector<Int>& out) {
    out.clear();
    const std::uint64_t n = u64();
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return;
    }
    const std::size_t count = static_cast<std::size_t>(n);
    out.resize(count);
    for (std::size_t i = 0; i < count; ++i) out[i] = p_[pos_ + i];
    pos_ += count;
  }

  /// The next n bytes (a Writer::raw block), or nullptr with !ok() latched
  /// when fewer remain.
  const std::uint8_t* raw(std::size_t n) {
    if (!take(n)) return nullptr;
    return p_ + pos_ - n;
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace vcoadc::core::serde
