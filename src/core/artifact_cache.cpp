#include "core/artifact_cache.h"

#include <cstring>

namespace vcoadc::core {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
}

std::string CacheKey::hex() const {
  char buf[36];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

void KeyHasher::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    lo_ = (lo_ ^ p[i]) * kFnvPrime;
    // Lane 1 folds the byte position in as well, so the two lanes stay
    // decorrelated even on inputs FNV is weak against.
    hi_ = (hi_ ^ (p[i] + 0x9eu) ^ (i & 0xffu)) * kFnvPrime;
  }
}

void KeyHasher::u64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  bytes(b, 8);
}

void KeyHasher::f64(double v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0 and +0.0
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void KeyHasher::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

ArtifactCache::ArtifactCache(std::size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

void ArtifactCache::touch(std::map<CacheKey, Slot>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it->second.lru);
}

void ArtifactCache::evict_over_capacity() {
  std::size_t ready = lru_.size();
  while (ready > max_entries_) {
    const CacheKey victim = lru_.back();
    lru_.pop_back();
    auto it = map_.find(victim);
    if (it != map_.end()) {
      bytes_ -= it->second.fut.get().bytes;  // ready: get() never blocks
      map_.erase(it);
    }
    ++evictions_;
    --ready;
  }
}

ArtifactCacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ArtifactCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  return s;
}

void ArtifactCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  // In-flight builds keep their slots: erasing a not-yet-ready slot would
  // orphan the builder's map_.find on completion (harmless) but also let a
  // second builder start — allowed, since both produce identical bytes.
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->second.ready) {
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
  lru_.clear();
  bytes_ = 0;
}

ArtifactCache& default_artifact_cache() {
  static ArtifactCache cache(512);
  return cache;
}

}  // namespace vcoadc::core
