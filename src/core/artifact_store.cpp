#include "core/artifact_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <vector>

#include "core/serde.h"
#include "util/strings.h"

#if defined(_WIN32)
#include <process.h>
#define VCOADC_GETPID _getpid
#else
#include <unistd.h>
#define VCOADC_GETPID ::getpid
#endif

namespace vcoadc::core {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x44414356u;  // "VCAD" little-endian
// 2: the trailer became record_checksum (1 used a byte-serial FNV-1a-64).
constexpr std::uint32_t kContainerVersion = 2;

// Framing overhead without the type tag's characters: magic + container
// version + key-format version + key echo + tag length + type version +
// payload size + trailing checksum.
constexpr std::size_t kFixedFrameBytes = 4 + 4 + 8 + 16 + 8 + 4 + 8 + 8;

/// One lane step. Both halves are bijections — of h for a fixed word and
/// of the word for a fixed h — so two inputs that differ in one word leave
/// the lane in different states, and later steps keep them apart.
std::uint64_t lane_step(std::uint64_t h, std::uint64_t w) {
  h = (h ^ w) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 29);
}

/// The record checksum: four independent lanes over the record's
/// little-endian 8-byte words (word i feeds lane i % 4, so the multiply
/// chains overlap), the byte tail zero-padded into one more word, then the
/// lanes summed under distinct odd multipliers with the length folded in,
/// and a final avalanche. A change confined to one word moves one lane,
/// hence the sum, hence the result: it is always caught. Reads 8 bytes per
/// step where FNV-1a read one.
std::uint64_t record_checksum(const std::uint8_t* data, std::size_t n) {
  std::uint64_t lane[4] = {0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
                           0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull};
  auto word = [data](std::size_t at) {
    return serde::load_le<std::uint64_t>(data + at);
  };
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    lane[0] = lane_step(lane[0], word(i));
    lane[1] = lane_step(lane[1], word(i + 8));
    lane[2] = lane_step(lane[2], word(i + 16));
    lane[3] = lane_step(lane[3], word(i + 24));
  }
  std::size_t k = 0;
  for (; i + 8 <= n; i += 8, ++k) lane[k] = lane_step(lane[k], word(i));
  if (i < n) {
    std::uint64_t tail = 0;
    for (std::size_t b = 0; i + b < n; ++b) {
      tail |= std::uint64_t{data[i + b]} << (8 * b);
    }
    lane[k] = lane_step(lane[k], tail);
  }
  std::uint64_t h = lane[0] * 0xbf58476d1ce4e5b9ull +
                    lane[1] * 0x94d049bb133111ebull +
                    lane[2] * 0xff51afd7ed558ccdull +
                    lane[3] * 0xc4ceb9fe1a85ec53ull + n;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

/// Reads a whole file; false on open/read failure.
bool read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  if (len < 0) {
    std::fclose(f);
    return false;
  }
  std::fseek(f, 0, SEEK_SET);
  out->resize(static_cast<std::size_t>(len));
  const std::size_t got =
      len > 0 ? std::fread(out->data(), 1, out->size(), f) : 0;
  std::fclose(f);
  return got == out->size();
}

bool write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t put =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  return put == bytes.size() && flushed;
}

}  // namespace

/// The directory every save() writes its tmp file in before the rename.
constexpr const char* kTmpDir = "tmp";

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  ok_ = !ec && fs::is_directory(dir_, ec) && !ec;
  // Startup sweep: tmp files are orphans of writers killed mid-save (the
  // write-then-rename window). Age-gated, so a store opened next to live
  // writer processes never touches their in-flight files. It lists tmp/
  // alone, so opening costs the same however many records the store holds.
  if (ok_) sweep_tmp();
}

void ArtifactStore::warn(util::DiagSink* diag, const std::string& item,
                         std::string reason) const {
  if (diag != nullptr) {
    diag->add(util::Diagnostic{util::Severity::kWarning, "artifact_store",
                               item, std::move(reason)});
  }
}

std::string ArtifactStore::path_for(const CacheKey& key) const {
  const std::string hex = key.hex();
  return dir_ + "/" + hex.substr(0, 2) + "/" + hex + ".art";
}

bool ArtifactStore::save(const CacheKey& key, std::string_view type_tag,
                         std::uint32_t type_version,
                         const std::vector<std::uint8_t>& payload,
                         util::DiagSink* diag) {
  const std::string final_path = path_for(key);
  auto fail = [&](std::string reason) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.write_failures;
    }
    warn(diag, key.hex(), std::move(reason));
    return false;
  };
  if (!ok_) return fail("store root is unusable: " + dir_);

  serde::Writer w;
  w.u32(kMagic);
  w.u32(kContainerVersion);
  w.u64(kKeyFormatVersion);
  w.u64(key.lo);
  w.u64(key.hi);
  w.str(type_tag);
  w.u32(type_version);
  w.u64(payload.size());
  std::vector<std::uint8_t> record = w.take();
  record.insert(record.end(), payload.begin(), payload.end());
  {
    serde::Writer trailer;
    trailer.u64(record_checksum(record.data(), record.size()));
    const auto& t = trailer.bytes();
    record.insert(record.end(), t.begin(), t.end());
  }

  std::uint64_t serial = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    serial = ++tmp_counter_;
  }
  // Unique temp name per (process, attempt) in <dir>/tmp/: concurrent
  // writers never share a temp file, and the final rename stays on one
  // filesystem, so it is atomic and a reader sees either a complete old
  // record or a complete new one.
  const std::string tmp_dir = dir_ + "/" + kTmpDir;
  const std::string tmp_path = util::format(
      "%s/%s.art.tmp.%d.%llu", tmp_dir.c_str(), key.hex().c_str(),
      static_cast<int>(VCOADC_GETPID()),
      static_cast<unsigned long long>(serial));

  std::error_code ec;
  fs::create_directories(tmp_dir, ec);
  if (ec) return fail("cannot create tmp directory: " + ec.message());
  fs::create_directories(fs::path(final_path).parent_path(), ec);
  if (ec) return fail("cannot create shard directory: " + ec.message());
  if (!write_file(tmp_path, record)) {
    fs::remove(tmp_path, ec);
    return fail("write failed: " + tmp_path);
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return fail("rename failed: " + ec.message());
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.writes;
    stats_.bytes_written += record.size();
  }
  return true;
}

bool ArtifactStore::load(const CacheKey& key, std::string_view type_tag,
                         std::uint32_t type_version,
                         std::vector<std::uint8_t>* payload,
                         util::DiagSink* diag, std::uint64_t* record_bytes,
                         std::size_t* payload_at) {
  enum class Miss { kAbsent, kCorrupt, kVersionSkew };
  auto miss = [&](Miss why, std::string reason) {
    payload->clear();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.misses;
      if (why == Miss::kAbsent) ++stats_.absent;
      if (why == Miss::kCorrupt) ++stats_.corrupt;
      if (why == Miss::kVersionSkew) ++stats_.version_skew;
    }
    if (why != Miss::kAbsent) warn(diag, key.hex(), std::move(reason));
    return false;
  };

  // The record is read straight into the caller's buffer, with no second
  // buffer. On a hit the checksum is cut off the end; the frame in front
  // stays when the caller takes the payload's offset, and otherwise
  // `erase` moves the payload down over it, one memmove of the payload.
  std::vector<std::uint8_t>& record = *payload;
  if (!ok_ || !read_file(path_for(key), &record)) {
    return miss(Miss::kAbsent, {});
  }
  if (record.size() < kFixedFrameBytes) {
    return miss(Miss::kCorrupt, "record truncated below frame size");
  }
  // Checksum first: nothing in a record that fails it is trusted. Its
  // magic and container version only word the miss — a record in an older
  // container format (checksummed another way) is version skew, anything
  // else is corrupt. Both rebuild.
  serde::Reader trailer(record.data() + record.size() - 8, 8);
  if (trailer.u64() != record_checksum(record.data(), record.size() - 8)) {
    serde::Reader head(record.data(), 8);
    const bool ours = head.u32() == kMagic;
    if (const std::uint32_t v = head.u32();
        ours && v >= 1 && v < kContainerVersion) {
      return miss(Miss::kVersionSkew,
                  util::format("container version %u, want %u", v,
                               kContainerVersion));
    }
    return miss(Miss::kCorrupt, "checksum mismatch (corrupt record)");
  }
  serde::Reader r(record.data(), record.size() - 8);
  if (r.u32() != kMagic) {
    return miss(Miss::kCorrupt, "bad magic (not an artifact record)");
  }
  if (const std::uint32_t v = r.u32(); v != kContainerVersion) {
    return miss(Miss::kVersionSkew,
                util::format("container version %u, want %u", v,
                             kContainerVersion));
  }
  if (const std::uint64_t v = r.u64(); v != kKeyFormatVersion) {
    return miss(Miss::kVersionSkew,
                util::format("key format version %llu, want %llu",
                             static_cast<unsigned long long>(v),
                             static_cast<unsigned long long>(
                                 kKeyFormatVersion)));
  }
  if (r.u64() != key.lo || r.u64() != key.hi) {
    return miss(Miss::kCorrupt, "key echo mismatch (misfiled record)");
  }
  if (const std::string tag = r.str(); tag != type_tag) {
    return miss(Miss::kCorrupt,
                "type tag '" + tag + "' where '" + std::string(type_tag) +
                    "' was expected (stage-tag bug?)");
  }
  if (const std::uint32_t v = r.u32(); v != type_version) {
    return miss(Miss::kVersionSkew,
                util::format("type format version %u, want %u", v,
                             type_version));
  }
  const std::uint64_t n = r.u64();
  if (!r.ok() || n != r.remaining()) {
    return miss(Miss::kCorrupt, "payload size disagrees with record size");
  }
  const std::uint64_t size = record.size();
  record.resize(record.size() - 8);
  if (payload_at != nullptr) {
    *payload_at = record.size() - static_cast<std::size_t>(n);
  } else {
    record.erase(record.begin(),
                 record.end() - static_cast<std::ptrdiff_t>(n));
  }
  if (record_bytes != nullptr) *record_bytes = size;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    stats_.bytes_read += size;
  }
  return true;
}

void ArtifactStore::note_decode_failure(const CacheKey& key,
                                        std::string_view type_tag,
                                        util::DiagSink* diag,
                                        std::uint64_t record_bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stats_.hits > 0) --stats_.hits;
    ++stats_.misses;
    ++stats_.corrupt;
    // The demoted hit's bytes were never data actually served — undo the
    // bytes_read the load charged, so byte counters never over-report.
    // (The miss-taxonomy invariant misses == absent + corrupt +
    // version_skew is preserved: the demotion increments both sides.)
    stats_.bytes_read -= std::min(stats_.bytes_read, record_bytes);
  }
  warn(diag, key.hex(),
       "payload failed to decode as '" + std::string(type_tag) +
           "'; rebuilding");
}

namespace {

/// True for a save() tmp file (`<hex>.art.tmp.<pid>.<serial>`) at least
/// `max_age_s` old at `now`: an orphan of a killed writer. Younger ones
/// may be a live writer's in-flight file.
bool stale_tmp(const fs::directory_entry& e, double max_age_s,
               fs::file_time_type now) {
  if (e.path().filename().string().find(".tmp.") == std::string::npos) {
    return false;
  }
  std::error_code ec;
  const auto mtime = fs::last_write_time(e.path(), ec);
  if (ec) return false;  // vanished mid-scan (a writer just renamed it)
  return std::chrono::duration<double>(now - mtime).count() >= max_age_s;
}

}  // namespace

bool ArtifactStore::remove_tmp(const fs::path& path, util::DiagSink* diag) {
  std::error_code ec;
  if (fs::remove(path, ec) && !ec) return true;
  if (ec) {
    warn(diag, path.filename().string(),
         "tmp sweep could not remove: " + ec.message());
  }
  return false;
}

std::uint64_t ArtifactStore::sweep_tmp(double max_age_s,
                                       util::DiagSink* diag) {
  if (!ok_) return 0;
  const auto now = fs::file_time_type::clock::now();
  std::uint64_t swept = 0;
  std::error_code ec;
  for (fs::directory_iterator it(fs::path(dir_) / kTmpDir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (stale_tmp(*it, max_age_s, now) && remove_tmp(it->path(), diag)) {
      ++swept;
    }
  }
  if (swept > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.tmp_swept += swept;
  }
  return swept;
}

ArtifactStore::GcResult ArtifactStore::gc(std::uint64_t max_bytes,
                                          util::DiagSink* diag) {
  GcResult res;
  if (!ok_) return res;
  res.tmp_swept = sweep_tmp(kDefaultTmpMaxAgeS, diag);

  // Scan every shard for records, oldest-mtime-first eviction order. The
  // scan is lock-free over the filesystem: records written concurrently
  // with it may be missed this pass, so the bound is exact when quiescent
  // and converges under churn (the serve loop re-runs gc after writes).
  struct Rec {
    std::string path;
    std::uint64_t size = 0;
    fs::file_time_type mtime;
  };
  std::vector<Rec> recs;
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  std::uint64_t shard_tmp_swept = 0;
  for (fs::directory_iterator shard(dir_, ec), end;
       !ec && shard != end; shard.increment(ec)) {
    std::error_code sec;
    if (!shard->is_directory(sec) || sec) continue;
    if (shard->path().filename() == kTmpDir) continue;
    for (fs::directory_iterator it(shard->path(), sec), send;
         !sec && it != send; it.increment(sec)) {
      // Builds before tmp/ left their orphans in the shard directories.
      if (stale_tmp(*it, kDefaultTmpMaxAgeS, now)) {
        if (remove_tmp(it->path(), diag)) ++shard_tmp_swept;
        continue;
      }
      if (it->path().extension() != ".art") continue;
      std::error_code fec;
      Rec r;
      r.path = it->path().string();
      r.size = it->file_size(fec);
      if (fec) continue;
      r.mtime = fs::last_write_time(it->path(), fec);
      if (fec) continue;
      res.bytes_before += r.size;
      recs.push_back(std::move(r));
    }
  }
  std::sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
  });

  std::uint64_t total = res.bytes_before;
  std::uint64_t freed = 0;
  for (const Rec& r : recs) {
    if (total <= max_bytes) break;
    std::error_code fec;
    // unlink, not truncate: a reader holding the record open keeps its
    // complete bytes (POSIX unlink semantics), so no load is ever torn
    // mid-read; the next opener gets a clean absent-miss and rebuilds.
    if (fs::remove(r.path, fec) && !fec) {
      total -= r.size;
      freed += r.size;
      ++res.evicted;
    } else if (fec) {
      warn(diag, r.path, "gc could not evict: " + fec.message());
    }
  }
  res.bytes_after = total;

  // Compaction: shard directories whose every record was evicted are
  // removed. A concurrent writer that loses the (benign) race re-creates
  // its shard in save(); at worst that one save reports write_failure
  // and the stage keeps its built artifact.
  for (fs::directory_iterator shard(dir_, ec), end;
       !ec && shard != end; shard.increment(ec)) {
    std::error_code sec;
    if (!shard->is_directory(sec) || sec) continue;
    if (shard->path().filename() == kTmpDir) continue;  // save()'s, kept
    if (fs::is_empty(shard->path(), sec) && !sec) {
      fs::remove(shard->path(), sec);
    }
  }

  res.tmp_swept += shard_tmp_swept;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.evictions += res.evicted;
    stats_.gc_bytes_reclaimed += freed;
    stats_.tmp_swept += shard_tmp_swept;
  }
  return res;
}

ArtifactStoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace vcoadc::core
