// ArtifactStore: the disk-backed second tier under the in-process
// ArtifactCache.
//
// The cache makes warm re-runs inside one process ~free; the store makes
// them free across processes. Every record is addressed by the same
// 128-bit content-hash key the cache uses, serialized in the canonical
// field-tag/little-endian form (see serde.h) and framed with a header that
// folds in kKeyFormatVersion plus a per-artifact-type tag and format
// version, so a record can never be deserialized as the wrong type or
// against stale semantics.
//
// Durability policy:
//   - writes are write-then-rename: a record is either fully present or
//     absent, never torn, even with concurrent writers (last one wins,
//     and all writers of one key write identical bytes by construction);
//   - loads verify a whole-record checksum before any field is trusted. A
//     record that fails it is a miss: version skew when its magic and
//     container-version fields name an older container format (one that
//     checksummed differently), corrupt otherwise;
//   - every failure mode (absent, truncated, corrupted, wrong version,
//     wrong type tag) degrades to a miss — the stage rebuilds — with a
//     kWarning Diagnostic for the non-absent cases; the store never
//     throws across its boundary and never crashes the flow;
//   - lifecycle: gc(max_bytes) bounds the directory by LRU-over-mtime
//     eviction (an unlinked record is never torn for a reader that
//     already opened it), sweep_tmp() reclaims the *.tmp.* orphans of
//     killed writers in tmp/ (age-gated; runs at open, which lists tmp/
//     alone and so costs the same at any store size, and inside gc, whose
//     scan of every shard also sweeps the orphans older builds left next
//     to their records), and shard directories left empty are compacted
//     away (tmp/ is kept).
//
// On-disk layout: <dir>/<first-2-hex-of-key>/<32-hex-key>.art, and
// <dir>/tmp/<32-hex-key>.art.tmp.<pid>.<serial> while save() writes a
// record (renamed into its shard when complete: one filesystem, so the
// rename is atomic).
// Record framing (all little-endian, via serde::Writer):
//   u32  magic 'VCAD'             u32  container version (2)
//   u64  kKeyFormatVersion        u64  key.lo       u64 key.hi
//   str  type_tag                 u32  type_version
//   u64  payload size             ...  payload bytes
//   u64  checksum over every preceding record byte: four 64-bit lanes fed
//        8-byte little-endian words round-robin, each step
//        h = (h ^ w) * odd; h ^= h >> 29, then the zero-padded byte tail,
//        the length, an odd-weighted lane sum and a final avalanche.
//        Container version 1 used a byte-serial FNV-1a-64 here.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact_cache.h"
#include "util/diag.h"

namespace vcoadc::core {

struct ArtifactStoreStats {
  std::uint64_t hits = 0;    ///< loads served from disk
  std::uint64_t misses = 0;  ///< loads with no usable record
  // Miss breakdown (misses == absent + corrupt + version_skew):
  std::uint64_t absent = 0;        ///< no record on disk (the normal miss)
  std::uint64_t corrupt = 0;       ///< checksum/framing/decode failure
  std::uint64_t version_skew = 0;  ///< container/key-format/type version
  std::uint64_t writes = 0;
  std::uint64_t write_failures = 0;
  /// Bytes of record data actually *served*: a hit later demoted by
  /// note_decode_failure (the codec rejected the payload) has its record
  /// bytes subtracted again, so this never over-reports delivered data.
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  // Lifecycle counters (see gc() / sweep_tmp()):
  std::uint64_t evictions = 0;           ///< records removed by gc
  std::uint64_t gc_bytes_reclaimed = 0;  ///< on-disk bytes those freed
  std::uint64_t tmp_swept = 0;  ///< stale *.tmp.* orphans removed
  double hit_rate() const {
    const double n = static_cast<double>(hits + misses);
    return n > 0 ? static_cast<double>(hits) / n : 0.0;
  }
};

/// Key-addressed persistent byte store. Thread-safe; cheap to construct
/// (one mkdir). Typed encode/decode lives in artifact_serde.h — the store
/// itself only frames, checksums and atomically persists raw payloads,
/// which keeps it self-contained enough for the sanitizer test variants.
class ArtifactStore {
 public:
  /// Opens (creating directories as needed) the store rooted at `dir`.
  /// A root that cannot be created leaves the store in a degraded state:
  /// every load is an absent-miss and every save a write_failure.
  explicit ArtifactStore(std::string dir);

  const std::string& dir() const { return dir_; }
  bool ok() const { return ok_; }

  /// Persists `payload` under (key, type_tag, type_version) atomically.
  /// Returns false (and emits a kWarning through `diag` when given) on
  /// any I/O failure; the previous record, if any, stays intact.
  bool save(const CacheKey& key, std::string_view type_tag,
            std::uint32_t type_version,
            const std::vector<std::uint8_t>& payload,
            util::DiagSink* diag = nullptr);

  /// Loads the payload for (key, type_tag, type_version). Returns false on
  /// a miss (`payload` left empty): absent records silently,
  /// corrupt/version-skewed/mistagged records with a kWarning through
  /// `diag`. On a hit `record_bytes`, when given, receives the record's
  /// size on disk. Never throws.
  bool load(const CacheKey& key, std::string_view type_tag,
            std::uint32_t type_version, std::vector<std::uint8_t>* payload,
            util::DiagSink* diag = nullptr,
            std::uint64_t* record_bytes = nullptr);

  /// Demotes an already-counted hit to a corrupt-miss: called by the flow
  /// when a record's frame verified but its payload failed to decode (the
  /// codec rejected it), so the stats still satisfy "hits == stage builds
  /// actually avoided". `record_bytes` is the size load() reported for the
  /// rejected hit, taken back out of bytes_read.
  void note_decode_failure(const CacheKey& key, std::string_view type_tag,
                           util::DiagSink* diag, std::uint64_t record_bytes);

  /// Final path of the record for `key` (exposed for tests that corrupt
  /// or inspect records directly).
  std::string path_for(const CacheKey& key) const;

  /// Age threshold for sweep_tmp(): a *.tmp.* file older than this is an
  /// orphan of a killed writer (live writers hold a tmp for milliseconds,
  /// the rename window), younger ones are presumed in flight and left
  /// alone.
  static constexpr double kDefaultTmpMaxAgeS = 900.0;

  struct GcResult {
    std::uint64_t bytes_before = 0;  ///< record bytes found by the scan
    std::uint64_t bytes_after = 0;   ///< record bytes kept (<= max_bytes)
    std::uint64_t evicted = 0;       ///< records unlinked
    std::uint64_t tmp_swept = 0;     ///< stale tmp orphans unlinked
  };

  /// Size-bounded LRU garbage collection over record mtimes: sweeps stale
  /// tmp orphans (in tmp/, and in the shard directories where builds
  /// before tmp/ wrote them), then unlinks oldest-modified records until
  /// the resident total is <= max_bytes, and finally removes shard
  /// directories left empty (compaction; tmp/ stays). A record is never
  /// torn mid-read: loads read from one open handle, which POSIX keeps
  /// valid across an unlink, and a load that opens after the unlink sees
  /// a clean absent-miss (the stage rebuilds). Thread-safe; never throws.
  GcResult gc(std::uint64_t max_bytes, util::DiagSink* diag = nullptr);

  /// Removes the *.tmp.* files in tmp/ older than `max_age_s` — the leak
  /// left by killed/crashed writers (save() is write-then-rename; a
  /// writer that dies between the two strands its tmp forever). Runs at
  /// store open and inside gc(). Age-gating keeps live concurrent
  /// writers' fresh tmp files untouched. Returns the number swept.
  std::uint64_t sweep_tmp(double max_age_s = kDefaultTmpMaxAgeS,
                          util::DiagSink* diag = nullptr);

  ArtifactStoreStats stats() const;

 private:
  void warn(util::DiagSink* diag, const std::string& item,
            std::string reason) const;
  /// Unlinks one stale tmp file; false (with a warning when the unlink
  /// failed rather than found nothing) if it did not go.
  bool remove_tmp(const std::filesystem::path& path, util::DiagSink* diag);

  std::string dir_;
  bool ok_ = false;
  mutable std::mutex mutex_;  ///< guards stats_, tmp_counter_
  ArtifactStoreStats stats_;
  std::uint64_t tmp_counter_ = 0;
};

}  // namespace vcoadc::core
