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

#include <bit>
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

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

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
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void size(std::size_t n) { u64(n); }

  /// Length-prefixed f64 array: the count, then each element's bit
  /// pattern — the same bytes as size(n) followed by n f64() calls.
  void f64s(const std::vector<double>& v) {
    size(v.size());
    if constexpr (kNativeLittleEndian) {
      if (v.empty()) return;
      const std::size_t at = buf_.size();
      buf_.resize(at + v.size() * sizeof(double));
      std::memcpy(buf_.data() + at, v.data(), v.size() * sizeof(double));
    } else {
      for (const double d : v) f64(d);
    }
  }

  /// Length-prefixed byte array: the count, then one byte per element.
  /// Every element must lie in [0, 255]; the caller checks.
  template <typename Int>
  void u8s(const std::vector<Int>& v) {
    size(v.size());
    const std::size_t at = buf_.size();
    buf_.resize(at + v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      buf_[at + i] = static_cast<std::uint8_t>(v[i]);
    }
  }

  /// Appends n zero bytes (no count) and returns where they start, for a
  /// codec that fills them in place; valid until the next write.
  std::uint8_t* raw(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <typename U>
  void put_le(U v) {
    if constexpr (kNativeLittleEndian) {
      const std::size_t at = buf_.size();
      buf_.resize(at + sizeof v);
      std::memcpy(buf_.data() + at, &v, sizeof v);
    } else {
      for (std::size_t i = 0; i < sizeof v; ++i) {
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    }
  }

  std::vector<std::uint8_t> buf_;
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

  std::string str() {
    const std::uint64_t len = u64();
    if (!ok_ || len > remaining()) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p_ + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
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
