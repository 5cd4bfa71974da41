// Content-addressed artifact cache for the stage-graph flow.
//
// Every stage output (cell library, netlist, floorplan, placement, routed
// layout, simulation run) is keyed by a content hash of *exactly the
// inputs that influence its bytes*: the relevant AdcSpec fields plus the
// relevant options sub-struct, canonically serialized (field tags +
// little-endian raw bytes) and digested with two independent FNV-1a lanes
// into a 128-bit key. Keys are therefore stable across processes and
// across machines of the same endianness; a cached artifact is the very
// object a fresh build would have produced, so cached re-runs are
// bit-identical to fresh ones by construction.
//
// The cache itself is bounded (LRU over ready entries), thread-safe, and
// single-flight: when N workers ask for the same missing key at once, one
// builds while the others wait on a shared future — a Monte-Carlo batch,
// a corner sweep and a datasheet run over the same spec build the shared
// prefix exactly once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <typeindex>

namespace vcoadc::core {

/// Canonical key-format version, hashed into every stage key and written
/// into every persistent-store record header. Bump when a stage's
/// serialization or semantics change incompatibly: old in-process cache
/// entries can then never alias new ones, and old on-disk records are
/// rejected as version-skew misses instead of being deserialized wrong.
inline constexpr std::uint64_t kKeyFormatVersion = 1;

/// 128-bit content-hash key (two independent FNV-1a-64 lanes).
struct CacheKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const CacheKey& o) const {
    return lo == o.lo && hi == o.hi;
  }
  bool operator!=(const CacheKey& o) const { return !(*this == o); }
  bool operator<(const CacheKey& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  std::string hex() const;
};

/// Canonical-serialization hasher. Feed fields in a fixed order with
/// explicit tags; the digest depends only on the fed bytes, never on
/// addresses or process state.
class KeyHasher {
 public:
  KeyHasher() = default;

  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  ///< bit pattern; -0.0 normalized to +0.0
  void boolean(bool v) { u64(v ? 1 : 0); }
  void str(std::string_view s);  ///< length-prefixed
  /// Field/stage tag: keeps adjacent fields from aliasing and gives every
  /// stage its own key namespace.
  void tag(std::string_view t) { str(t); }

  CacheKey digest() const { return {lo_, hi_}; }

 private:
  // FNV-1a offset bases: lane 0 is the standard basis, lane 1 a distinct
  // odd constant so the two 64-bit lanes decorrelate.
  std::uint64_t lo_ = 14695981039346656037ull;
  std::uint64_t hi_ = 0x9e3779b97f4a7c15ull;
};

struct ArtifactCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;      ///< lookups that had to build
  std::uint64_t evictions = 0;
  std::size_t entries = 0;       ///< ready entries currently resident
  /// Resident bytes as the entries were sized at insert; a flow stage
  /// sizes its artifact by its codec payload, not its heap footprint.
  std::size_t bytes = 0;
  double hit_rate() const {
    const double n = static_cast<double>(hits + misses);
    return n > 0 ? static_cast<double>(hits) / n : 0.0;
  }
};

/// Bounded, thread-safe, type-erased artifact store.
class ArtifactCache {
 public:
  explicit ArtifactCache(std::size_t max_entries = 512);

  /// Returns the cached artifact for `key`, building it with `build` on a
  /// miss. Concurrent callers with the same key share one build. `build`
  /// returns shared_ptr<const T>; `entry_bytes` (optional; sizeof(T)
  /// without one) sizes the entry once, when it is stored, and
  /// `out_bytes` receives that stored size on every later hit as on the
  /// building miss, so a cached artifact is never measured twice. A key
  /// that resolves to a different artifact type is a programming error
  /// (stage tags make it unreachable); it is reported to stderr and the
  /// artifact is rebuilt uncached rather than aborting. A build that
  /// returns null (a stage that refused its input) is never stored: the
  /// failure is returned to this caller, waiters get null, and the next
  /// lookup rebuilds.
  template <typename T, typename BuildFn>
  std::shared_ptr<const T> get_or_build(
      const CacheKey& key, BuildFn&& build,
      std::function<std::size_t(const T&)> entry_bytes = {},
      bool* out_hit = nullptr, std::size_t* out_bytes = nullptr) {
    auto size_of = [&entry_bytes](const std::shared_ptr<const T>& v) {
      return (entry_bytes && v) ? entry_bytes(*v) : sizeof(T);
    };
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      if (it->second.type != std::type_index(typeid(T))) {
        std::fprintf(stderr,
                     "ArtifactCache: key %s maps to a different artifact "
                     "type (stage-tag bug); rebuilding uncached\n",
                     key.hex().c_str());
        lock.unlock();
        if (out_hit) *out_hit = false;
        std::shared_ptr<const T> value = build();
        if (out_bytes) *out_bytes = size_of(value);
        return value;
      }
      ++hits_;
      if (out_hit) *out_hit = true;
      if (it->second.ready) touch(it);
      auto fut = it->second.fut;
      lock.unlock();
      // Either ready (get() returns immediately) or another thread is
      // building this key right now — wait for its result.
      const Stored& stored = fut.get();
      if (out_bytes) *out_bytes = stored.bytes;
      return std::static_pointer_cast<const T>(stored.value);
    }
    ++misses_;
    if (out_hit) *out_hit = false;
    std::promise<Stored> prom;
    {
      Slot slot;
      slot.type = std::type_index(typeid(T));
      slot.fut = prom.get_future().share();
      map_.emplace(key, std::move(slot));
    }
    lock.unlock();
    // Build outside the lock; same-key callers block on the shared future.
    std::shared_ptr<const T> value;
    try {
      value = build();
    } catch (...) {
      prom.set_exception(std::current_exception());
      lock.lock();
      map_.erase(key);
      throw;
    }
    const std::size_t nbytes = size_of(value);
    if (out_bytes) *out_bytes = nbytes;
    prom.set_value(Stored{value, nbytes});
    lock.lock();
    if (value == nullptr) {
      // Failed build (stage refused its input): unblock same-key waiters
      // with the null, but never let the failure become a cached artifact.
      map_.erase(key);
      return nullptr;
    }
    auto it2 = map_.find(key);
    if (it2 != map_.end()) {
      it2->second.ready = true;
      lru_.push_front(key);
      it2->second.lru = lru_.begin();
      bytes_ += nbytes;
      evict_over_capacity();
    }
    return value;
  }

  ArtifactCacheStats stats() const;
  std::size_t max_entries() const { return max_entries_; }
  void clear();

 private:
  /// What a build publishes to its waiters: the artifact and the size it
  /// was stored with.
  struct Stored {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };
  struct Slot {
    std::shared_future<Stored> fut;
    std::type_index type = std::type_index(typeid(void));
    bool ready = false;
    std::list<CacheKey>::iterator lru;
  };

  void touch(std::map<CacheKey, Slot>::iterator it);
  void evict_over_capacity();  ///< caller holds mutex_

  mutable std::mutex mutex_;
  std::map<CacheKey, Slot> map_;
  std::list<CacheKey> lru_;  ///< front = most recently used, ready only
  std::size_t max_entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::size_t bytes_ = 0;
};

/// The process-wide cache the flow uses by default (ExecContext::cache's
/// default target). Bounded; safe to share across threads and drivers.
ArtifactCache& default_artifact_cache();

}  // namespace vcoadc::core
