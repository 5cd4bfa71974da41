// ArtifactStore: the persistent tier's durability contract. Every failure
// mode (absent, truncated, corrupted, version-skewed, mistagged) must
// degrade to a miss-plus-diagnostic, never a crash or a wrong artifact —
// and a warm start from a populated store must reproduce a cold run
// bit-identically with zero cold stage builds (the cross-process
// acceptance test of the persistence layer; the serve round-trip ctest
// repeats it across real processes).
#include "core/artifact_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/adc.h"
#include "core/artifact_serde.h"
#include "core/eval.h"
#include "core/flow.h"
#include "core/serde.h"
#include "util/diag.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/trace.h"

namespace fs = std::filesystem;
using namespace vcoadc;

namespace {

/// Fresh per-test store root under the system temp dir; removed on
/// destruction so repeated ctest runs never see stale records. The process
/// id keeps the plain and sanitizer builds of this suite apart when ctest
/// runs them concurrently.
struct TempStoreDir {
  fs::path path;
  explicit TempStoreDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("vcoadc_store_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~TempStoreDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::vector<std::uint8_t> make_payload(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return p;
}

constexpr core::CacheKey kKey{0x1234567890abcdefull, 0xfedcba0987654321ull};

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

/// Saves a small record (a 45-byte payload: the checksum's word loop, its
/// zero-padded byte tail and the trailer all take part), then loads every
/// variant `damaged(original, i)` yields for i = 0, 1, ... until it
/// returns false. Each variant must be a corrupt miss with exactly one
/// warning.
void expect_each_variant_is_corrupt_miss(
    const std::string& tag,
    const std::function<bool(const std::vector<std::uint8_t>&, std::size_t,
                             std::vector<std::uint8_t>*)>& damaged) {
  TempStoreDir dir(tag);
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(45, 11)));
  const std::string path = store.path_for(kKey);
  const std::vector<std::uint8_t> original = read_bytes(path);
  ASSERT_FALSE(original.empty());

  std::vector<std::uint8_t> bytes;
  std::uint64_t cases = 0;
  for (std::size_t i = 0; damaged(original, i, &bytes); ++i) {
    write_bytes(path, bytes);
    util::DiagSink diags;
    std::vector<std::uint8_t> loaded;
    ASSERT_FALSE(store.load(kKey, "unit", 1, &loaded, &diags))
        << "variant " << i << " was accepted";
    EXPECT_TRUE(loaded.empty());
    ASSERT_EQ(diags.size(), 1u) << "variant " << i;
    EXPECT_FALSE(diags.has_errors());
    ++cases;
    ASSERT_EQ(store.stats().corrupt, cases) << "variant " << i << ": "
                                            << diags.render();
  }
  EXPECT_GT(cases, 0u);
  EXPECT_EQ(store.stats().hits, 0u);
  EXPECT_EQ(store.stats().misses, cases);

  // The undamaged record still loads.
  write_bytes(path, original);
  std::vector<std::uint8_t> loaded;
  EXPECT_TRUE(store.load(kKey, "unit", 1, &loaded));
  EXPECT_EQ(loaded, make_payload(45, 11));
}

TEST(ArtifactStoreTest, SaveThenLoadRoundTripsBytes) {
  TempStoreDir dir("roundtrip");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.ok());

  const auto payload = make_payload(4096, 7);
  util::DiagSink diags;
  ASSERT_TRUE(store.save(kKey, "unit", 1, payload, &diags));
  std::vector<std::uint8_t> loaded;
  ASSERT_TRUE(store.load(kKey, "unit", 1, &loaded, &diags));
  EXPECT_EQ(loaded, payload);
  EXPECT_TRUE(diags.empty());

  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.writes, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 0u);
  EXPECT_GT(st.bytes_written, payload.size());
}

// A load that takes the payload's offset leaves the frame in front of the
// payload instead of moving the payload down over it: the payload is the
// buffer's tail from that offset, byte for byte, at every payload size (an
// empty one, the checksum's tail lengths, a page and then some).
TEST(ArtifactStoreTest, LoadAtPayloadOffsetRoundTripsEverySize) {
  TempStoreDir dir("offset");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.ok());
  std::uint64_t hits = 0;
  for (const std::size_t n : {0, 1, 7, 4099}) {
    SCOPED_TRACE(n);
    const core::CacheKey key{kKey.lo + n, kKey.hi};
    const auto payload = make_payload(n, static_cast<std::uint8_t>(n));
    ASSERT_TRUE(store.save(key, "unit", 1, payload));
    std::vector<std::uint8_t> record;
    std::uint64_t record_bytes = 0;
    std::size_t at = 0;
    ASSERT_TRUE(store.load(key, "unit", 1, &record, nullptr, &record_bytes,
                           &at));
    ++hits;
    ASSERT_LE(at, record.size());
    EXPECT_EQ(record.size() - at, n);
    EXPECT_TRUE(std::equal(record.begin() + static_cast<std::ptrdiff_t>(at),
                           record.end(), payload.begin(), payload.end()));
    // The frame is what stays in front: the record on disk less its
    // 8-byte checksum is exactly the buffer.
    EXPECT_EQ(record_bytes, record.size() + 8);
    const std::vector<std::uint8_t> on_disk = read_bytes(store.path_for(key));
    EXPECT_TRUE(std::equal(record.begin(), record.end(), on_disk.begin(),
                           on_disk.end() - 8));

    // Without the offset the same record loads as the bare payload.
    std::vector<std::uint8_t> bare;
    ASSERT_TRUE(store.load(key, "unit", 1, &bare));
    ++hits;
    EXPECT_EQ(bare, payload);
  }
  EXPECT_EQ(store.stats().hits, hits);
  EXPECT_EQ(store.stats().misses, 0u);
}

TEST(ArtifactStoreTest, AbsentRecordIsSilentMiss) {
  TempStoreDir dir("absent");
  core::ArtifactStore store(dir.str());
  util::DiagSink diags;
  std::vector<std::uint8_t> loaded;
  EXPECT_FALSE(store.load(kKey, "unit", 1, &loaded, &diags));
  EXPECT_TRUE(diags.empty()) << diags.render();  // the normal miss is quiet
  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.absent, 1u);
}

TEST(ArtifactStoreTest, CorruptRecordIsMissWithWarning) {
  TempStoreDir dir("corrupt");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(512, 3)));

  // Flip one payload byte in place; the whole-record checksum must catch it.
  const std::string path = store.path_for(kKey);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(100);
    char b = 0;
    f.seekg(100);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(100);
    f.write(&b, 1);
  }

  util::DiagSink diags;
  std::vector<std::uint8_t> loaded;
  EXPECT_FALSE(store.load(kKey, "unit", 1, &loaded, &diags));
  EXPECT_EQ(diags.size(), 1u);
  EXPECT_FALSE(diags.has_errors());  // kWarning: the flow rebuilds and goes on
  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.corrupt, 1u);
  EXPECT_EQ(st.misses, 1u);

  // Every single-bit flip of a small record — header, payload and
  // trailer — is caught.
  expect_each_variant_is_corrupt_miss(
      "corrupt_bits",
      [](const std::vector<std::uint8_t>& rec, std::size_t i,
         std::vector<std::uint8_t>* out) {
        if (i >= rec.size() * 8) return false;
        *out = rec;
        (*out)[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
        return true;
      });

  // Two swapped 8-byte payload words: adjacent words (they feed different
  // checksum lanes) and words four apart (the same lane).
  expect_each_variant_is_corrupt_miss(
      "corrupt_swaps",
      [](const std::vector<std::uint8_t>& rec, std::size_t i,
         std::vector<std::uint8_t>* out) {
        constexpr std::ptrdiff_t kOther[] = {8, 32};
        if (i >= std::size(kOther)) return false;
        *out = rec;
        // The 45-byte payload sits just before the 8-byte trailer.
        const auto payload = out->end() - 8 - 45;
        std::swap_ranges(payload, payload + 8, payload + kOther[i]);
        return *out != rec;
      });
}

TEST(ArtifactStoreTest, TruncatedRecordIsMissWithWarning) {
  TempStoreDir dir("truncated");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(512, 9)));
  fs::resize_file(store.path_for(kKey), 40);

  util::DiagSink diags;
  std::vector<std::uint8_t> loaded;
  EXPECT_FALSE(store.load(kKey, "unit", 1, &loaded, &diags));
  EXPECT_EQ(diags.size(), 1u);
  EXPECT_EQ(store.stats().corrupt, 1u);

  // Truncation of a small record to every shorter length, down to empty.
  expect_each_variant_is_corrupt_miss(
      "truncated_all",
      [](const std::vector<std::uint8_t>& rec, std::size_t i,
         std::vector<std::uint8_t>* out) {
        if (i >= rec.size()) return false;
        out->assign(rec.begin(), rec.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      });
}

TEST(ArtifactStoreTest, OlderContainerVersionIsVersionSkewMiss) {
  TempStoreDir dir("container_v1");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(64, 6)));
  const std::string path = store.path_for(kKey);
  // Patch the container-version field (bytes 4..7) to 1, the format that
  // checksummed with FNV-1a: the checksum no longer matches, but the miss
  // is worded as version skew rather than corruption.
  std::vector<std::uint8_t> rec = read_bytes(path);
  ASSERT_GE(rec.size(), 8u);
  rec[4] = 1;
  rec[5] = rec[6] = rec[7] = 0;
  write_bytes(path, rec);

  util::DiagSink diags;
  std::vector<std::uint8_t> loaded;
  EXPECT_FALSE(store.load(kKey, "unit", 1, &loaded, &diags));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_FALSE(diags.has_errors());
  EXPECT_NE(diags.render().find("container version 1"), std::string::npos)
      << diags.render();
  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.version_skew, 1u);
  EXPECT_EQ(st.corrupt, 0u);
  EXPECT_EQ(st.misses, 1u);
}

TEST(ArtifactStoreTest, TypeVersionBumpIsVersionSkewMiss) {
  TempStoreDir dir("verskew");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(64, 1)));

  util::DiagSink diags;
  std::vector<std::uint8_t> loaded;
  // A reader one format version ahead must refuse the old record rather
  // than decode it against new semantics.
  EXPECT_FALSE(store.load(kKey, "unit", 2, &loaded, &diags));
  EXPECT_EQ(diags.size(), 1u);
  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.version_skew, 1u);
  EXPECT_EQ(st.hits, 0u);
}

TEST(ArtifactStoreTest, WrongTypeTagIsMissWithWarning) {
  TempStoreDir dir("wrongtag");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "placement", 1, make_payload(64, 2)));

  util::DiagSink diags;
  std::vector<std::uint8_t> loaded;
  EXPECT_FALSE(store.load(kKey, "floorplan", 1, &loaded, &diags));
  EXPECT_EQ(diags.size(), 1u);
  EXPECT_EQ(store.stats().hits, 0u);
}

TEST(ArtifactStoreTest, NoteDecodeFailureDemotesHitToCorruptMiss) {
  TempStoreDir dir("demote");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(64, 4)));
  std::vector<std::uint8_t> loaded;
  std::uint64_t record_bytes = 0;
  ASSERT_TRUE(store.load(kKey, "unit", 1, &loaded, nullptr, &record_bytes));
  ASSERT_EQ(store.stats().hits, 1u);
  const std::uint64_t served = store.stats().bytes_read;
  ASSERT_GT(served, 0u);  // the hit counted its record bytes

  util::DiagSink diags;
  store.note_decode_failure(kKey, "unit", &diags, record_bytes);
  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.hits, 0u);  // the stage rebuilt after all: not an avoided build
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.corrupt, 1u);
  // Regression: the demoted hit's record bytes must leave bytes_read too —
  // a rejected record was never *served* — and the miss taxonomy must
  // still tile the misses exactly.
  EXPECT_EQ(st.bytes_read, 0u);
  EXPECT_EQ(st.misses, st.absent + st.corrupt + st.version_skew);
  EXPECT_EQ(diags.size(), 1u);

  // A later genuine hit counts afresh (the per-key bookkeeping reset).
  ASSERT_TRUE(store.load(kKey, "unit", 1, &loaded));
  EXPECT_EQ(store.stats().bytes_read, served);
  EXPECT_EQ(store.stats().misses,
            store.stats().absent + store.stats().corrupt +
                store.stats().version_skew);
}

TEST(ArtifactStoreTest, UnusableRootDegradesToMissesAndWriteFailures) {
  TempStoreDir dir("degraded");
  // Make the root path a *file* so the store cannot create its directory.
  fs::create_directories(dir.path.parent_path());
  { std::ofstream(dir.str()) << "not a directory"; }

  core::ArtifactStore store(dir.str());
  EXPECT_FALSE(store.ok());
  util::DiagSink diags;
  EXPECT_FALSE(store.save(kKey, "unit", 1, make_payload(16, 5), &diags));
  std::vector<std::uint8_t> loaded;
  EXPECT_FALSE(store.load(kKey, "unit", 1, &loaded, &diags));
  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.write_failures, 1u);
  EXPECT_EQ(st.misses, 1u);
}

TEST(ArtifactStoreTest, OverwriteSameKeyKeepsLatestIntact) {
  TempStoreDir dir("overwrite");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(128, 1)));
  const auto second = make_payload(256, 2);
  ASSERT_TRUE(store.save(kKey, "unit", 1, second));
  std::vector<std::uint8_t> loaded;
  ASSERT_TRUE(store.load(kKey, "unit", 1, &loaded));
  EXPECT_EQ(loaded, second);
}

// --- lifecycle: tmp-sweep and size-bounded GC -----------------------------

/// Backdates a file's mtime by `seconds`, so age-gated sweeps and LRU
/// ordering are deterministic regardless of test speed.
void age_file(const fs::path& p, int seconds) {
  fs::last_write_time(p,
                      fs::last_write_time(p) - std::chrono::seconds(seconds));
}

std::uint64_t dir_record_bytes(const fs::path& root) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    if (e.is_regular_file() && e.path().extension() == ".art") {
      total += static_cast<std::uint64_t>(e.file_size());
    }
  }
  return total;
}

// Regression: a writer killed between write and rename leaked its *.tmp.*
// file forever. Opening a store must sweep such orphans — but only old
// ones, so a concurrent live writer's fresh tmp is never stolen. save()
// writes its tmp files in <dir>/tmp/, the one directory the open sweep
// lists.
TEST(ArtifactStoreTest, OpenSweepsStaleTmpOrphanKeepsFreshTmp) {
  TempStoreDir dir("tmpsweep");
  {
    core::ArtifactStore store(dir.str());
    ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(64, 9)));
  }
  const fs::path tmp = dir.path / "tmp";
  ASSERT_TRUE(fs::is_directory(tmp));
  const fs::path orphan = tmp / "deadbeef.art.tmp.12345.0";
  const fs::path fresh = tmp / "cafef00d.art.tmp.12345.1";
  std::ofstream(orphan) << "killed writer leftovers";
  std::ofstream(fresh) << "in-flight writer";
  age_file(orphan, 3600);  // an hour stale: clearly orphaned

  core::ArtifactStore reopened(dir.str());
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(fs::exists(orphan)) << "stale tmp must be swept at open";
  EXPECT_TRUE(fs::exists(fresh)) << "fresh tmp may be a live writer's";
  EXPECT_EQ(reopened.stats().tmp_swept, 1u);

  // The real record survived the sweep.
  std::vector<std::uint8_t> loaded;
  EXPECT_TRUE(reopened.load(kKey, "unit", 1, &loaded));
  fs::remove(fresh);
}

// Builds before tmp/ wrote their tmp files into the shard directory, next
// to the record. The open sweep no longer lists the shards, so gc(), which
// scans every shard anyway, sweeps what those builds left behind: stale
// orphans go, a fresh one stays, the record survives and tmp/ is kept.
TEST(ArtifactStoreTest, GcSweepsStaleTmpOrphanInShardDir) {
  TempStoreDir dir("tmpsweep_shard");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(64, 9)));
  const fs::path shard = fs::path(store.path_for(kKey)).parent_path();
  const fs::path orphan = shard / "deadbeef.art.tmp.12345.0";
  const fs::path fresh = shard / "cafef00d.art.tmp.12345.1";
  std::ofstream(orphan) << "killed writer leftovers";
  std::ofstream(fresh) << "in-flight writer";
  age_file(orphan, 3600);

  core::ArtifactStore reopened(dir.str());
  EXPECT_TRUE(fs::exists(orphan)) << "the open sweep lists tmp/ alone";
  EXPECT_EQ(reopened.stats().tmp_swept, 0u);

  const core::ArtifactStore::GcResult gr = reopened.gc(1ull << 30);
  EXPECT_EQ(gr.tmp_swept, 1u);
  EXPECT_EQ(gr.evicted, 0u);
  EXPECT_FALSE(fs::exists(orphan)) << "stale shard tmp must be swept by gc";
  EXPECT_TRUE(fs::exists(fresh)) << "fresh tmp may be a live writer's";
  EXPECT_EQ(reopened.stats().tmp_swept, 1u);
  EXPECT_TRUE(fs::is_directory(dir.path / "tmp")) << "gc keeps tmp/";
  std::vector<std::uint8_t> loaded;
  EXPECT_TRUE(reopened.load(kKey, "unit", 1, &loaded));
  fs::remove(fresh);
}

TEST(ArtifactStoreTest, GcEvictsOldestFirstDownToTheBound) {
  TempStoreDir dir("gc_lru");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.ok());

  // Four records, mtimes spaced so LRU order is unambiguous: key 0 is the
  // oldest, key 3 the newest.
  constexpr int kN = 4;
  std::uint64_t record_size = 0;
  for (int i = 0; i < kN; ++i) {
    const core::CacheKey key{static_cast<std::uint64_t>(i + 1), 0x77ull};
    ASSERT_TRUE(store.save(key, "unit", 1, make_payload(2048, 3)));
    const fs::path p = store.path_for(key);
    record_size = static_cast<std::uint64_t>(fs::file_size(p));
    age_file(p, (kN - i) * 100);
  }

  // Bound to two records' worth: the two oldest must go.
  const core::ArtifactStore::GcResult gr = store.gc(2 * record_size);
  EXPECT_EQ(gr.evicted, 2u);
  EXPECT_EQ(gr.bytes_before, static_cast<std::uint64_t>(kN) * record_size);
  EXPECT_LE(gr.bytes_after, 2 * record_size);
  EXPECT_LE(dir_record_bytes(dir.path), 2 * record_size);

  std::vector<std::uint8_t> loaded;
  EXPECT_FALSE(store.load(core::CacheKey{1, 0x77ull}, "unit", 1, &loaded));
  EXPECT_FALSE(store.load(core::CacheKey{2, 0x77ull}, "unit", 1, &loaded));
  EXPECT_TRUE(store.load(core::CacheKey{3, 0x77ull}, "unit", 1, &loaded));
  EXPECT_TRUE(store.load(core::CacheKey{4, 0x77ull}, "unit", 1, &loaded));

  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.evictions, 2u);
  EXPECT_EQ(st.gc_bytes_reclaimed, 2 * record_size);
  // Evicted records read as clean absent-misses, keeping the taxonomy
  // tiling intact.
  EXPECT_EQ(st.misses, st.absent + st.corrupt + st.version_skew);
}

TEST(ArtifactStoreTest, GcCompactsEmptyShardDirsAndIsIdempotent) {
  TempStoreDir dir("gc_compact");
  core::ArtifactStore store(dir.str());
  const core::CacheKey key{0xabcdull, 0x1ull};
  ASSERT_TRUE(store.save(key, "unit", 1, make_payload(512, 5)));
  const fs::path shard = fs::path(store.path_for(key)).parent_path();
  ASSERT_TRUE(fs::exists(shard));

  // Bound of zero evicts everything; the shard dir goes with its record,
  // while save()'s tmp/ stays.
  const auto gr = store.gc(0);
  EXPECT_EQ(gr.evicted, 1u);
  EXPECT_EQ(gr.bytes_after, 0u);
  EXPECT_FALSE(fs::exists(shard)) << "empty shard dirs are compacted away";
  EXPECT_TRUE(fs::is_directory(dir.path / "tmp")) << "tmp/ is never compacted";

  // A second pass over the now-empty store is a no-op, not an error.
  const auto gr2 = store.gc(0);
  EXPECT_EQ(gr2.evicted, 0u);
  EXPECT_EQ(gr2.bytes_before, 0u);

  // The store still works after full eviction.
  ASSERT_TRUE(store.save(key, "unit", 1, make_payload(512, 6)));
  std::vector<std::uint8_t> loaded;
  EXPECT_TRUE(store.load(key, "unit", 1, &loaded));
}

TEST(ArtifactStoreTest, GcUnderBoundEvictsNothing) {
  TempStoreDir dir("gc_under");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(512, 8)));
  const auto gr = store.gc(1ull << 30);
  EXPECT_EQ(gr.evicted, 0u);
  EXPECT_EQ(gr.bytes_before, gr.bytes_after);
  EXPECT_EQ(store.stats().evictions, 0u);
  std::vector<std::uint8_t> loaded;
  EXPECT_TRUE(store.load(kKey, "unit", 1, &loaded));
}

// --- typed codec round-trips ----------------------------------------------

core::AdcSpec small_spec() {
  core::AdcSpec spec = core::AdcSpec::paper_40nm();
  spec.num_slices = 6;
  spec.fs_hz = 400e6;
  spec.bandwidth_hz = 2e6;
  return spec;
}

TEST(ArtifactSerdeTest, CellLibraryRoundTripsBitExactly) {
  core::ExecContext ctx;
  core::Flow flow(ctx);
  const auto lib = flow.tech_library(small_spec());
  ASSERT_NE(lib, nullptr);

  const auto& codec = core::cell_library_codec();
  core::serde::Writer w;
  codec.encode(*lib, w);
  core::serde::Reader r(w.bytes());
  const auto back = codec.decode(r);
  ASSERT_NE(back, nullptr);

  // Re-encoding the decoded library must produce the same bytes: the
  // canonical form is a fixed point, which is what makes store records
  // stable across processes.
  core::serde::Writer w2;
  codec.encode(*back, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
  EXPECT_EQ(back->cells().size(), lib->cells().size());
}

TEST(ArtifactSerdeTest, RunResultRoundTripsBitExactly) {
  core::ExecContext ctx;
  core::Flow flow(ctx);
  core::SimulationOptions sim;
  sim.n_samples = 1 << 12;
  const auto run = flow.sim_run(small_spec(), sim);
  ASSERT_NE(run, nullptr);

  const auto& codec = core::run_result_codec();
  core::serde::Writer w;
  codec.encode(*run, w);
  core::serde::Reader r(w.bytes());
  const auto back = codec.decode(r);
  ASSERT_NE(back, nullptr);

  EXPECT_EQ(back->sndr.sndr_db, run->sndr.sndr_db);  // bit-exact, not near
  EXPECT_EQ(back->fom_fj, run->fom_fj);
  EXPECT_EQ(back->mod.output, run->mod.output);
  EXPECT_EQ(back->spectrum.dbfs, run->spectrum.dbfs);
  core::serde::Writer w2;
  codec.encode(*back, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(ArtifactSerdeTest, SynthesisResultRoundTripRepointsCells) {
  core::ExecContext ctx;
  core::Flow flow(ctx);
  const auto res = flow.synthesis(small_spec());
  ASSERT_NE(res, nullptr);
  ASSERT_NE(res->layout, nullptr);

  const auto& codec = core::synthesis_codec();
  core::serde::Writer w;
  codec.encode(*res, w);
  core::serde::Reader r(w.bytes());
  const auto back = codec.decode(r);
  ASSERT_NE(back, nullptr);
  ASSERT_NE(back->layout, nullptr);

  const auto& flat = res->layout->flat();
  const auto& flat2 = back->layout->flat();
  ASSERT_EQ(flat2.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    ASSERT_NE(flat2[i].cell, nullptr);
    // Pointers were re-aimed at the embedded library, but the pointee
    // carries the same cell definition.
    EXPECT_EQ(flat2[i].cell->name, flat[i].cell->name);
    EXPECT_EQ(flat2[i].cell->width_m, flat[i].cell->width_m);
  }
  EXPECT_EQ(back->stats.die_area_m2, res->stats.die_area_m2);
  EXPECT_EQ(back->drc.violations.size(), res->drc.violations.size());
  EXPECT_EQ(back->detailed_routing.total_vias, res->detailed_routing.total_vias);
}

TEST(ArtifactSerdeTest, HdlEmitRoundTripReparsesTheStoredText) {
  core::AdcSpec spec = small_spec();
  spec.num_slices = 4;
  core::ExecContext ctx;
  core::Flow flow(ctx);
  const auto hdl = flow.hdl_emit(spec);
  ASSERT_NE(hdl, nullptr);

  const auto& codec = core::hdl_emit_codec();
  core::serde::Writer w;
  codec.encode(*hdl, w);
  core::serde::Reader r(w.bytes());
  const auto back = codec.decode(r);
  ASSERT_NE(back, nullptr);

  // The text is the artifact of record: byte-identical through the store,
  // and the decoded view is re-parsed from it (same top, same modules).
  EXPECT_EQ(back->verilog, hdl->verilog);
  EXPECT_EQ(back->top, hdl->top);
  EXPECT_EQ(back->instances_compared, hdl->instances_compared);
  ASSERT_NE(back->parsed, nullptr);
  EXPECT_EQ(back->parsed->top(), hdl->parsed->top());
  EXPECT_EQ(back->parsed->modules().size(), hdl->parsed->modules().size());
  core::serde::Writer w2;
  codec.encode(*back, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());

  // Corrupting the stored text past parseability is a decode miss, not a
  // half-parsed design: the codec's re-parse is the integrity check.
  core::HdlEmitResult mangled = *hdl;
  mangled.verilog = "module broken (;"; // unparseable on purpose
  core::serde::Writer wm;
  codec.encode(mangled, wm);
  core::serde::Reader rm(wm.bytes());
  EXPECT_EQ(codec.decode(rm), nullptr);
}

TEST(ArtifactSerdeTest, GateSimResultRoundTripsBitExactly) {
  core::AdcSpec spec = small_spec();
  spec.num_slices = 4;
  core::ExecContext ctx;
  core::Flow flow(ctx);
  core::GateSimOptions gopts;
  gopts.sim.n_samples = 64;
  const auto gate = flow.gate_sim(spec, gopts);
  ASSERT_NE(gate, nullptr);

  const auto& codec = core::gate_sim_codec();
  core::serde::Writer w;
  codec.encode(*gate, w);
  core::serde::Reader r(w.bytes());
  const auto back = codec.decode(r);
  ASSERT_NE(back, nullptr);

  EXPECT_EQ(back->comparator_ok, gate->comparator_ok);
  EXPECT_EQ(back->ring_period_s, gate->ring_period_s);  // bit-exact f64
  EXPECT_EQ(back->ring_period_pred_s, gate->ring_period_pred_s);
  EXPECT_EQ(back->ring_ok, gate->ring_ok);
  EXPECT_EQ(back->n_samples, gate->n_samples);
  EXPECT_EQ(back->num_slices, gate->num_slices);
  EXPECT_EQ(back->decoded, gate->decoded);
  EXPECT_EQ(back->decimated, gate->decimated);
  EXPECT_EQ(back->matches_behavioral, gate->matches_behavioral);
  EXPECT_EQ(back->transitions, gate->transitions);
  core::serde::Writer w2;
  codec.encode(*back, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(ArtifactSerdeTest, TimingReportRoundTripsBitExactly) {
  core::ExecContext ctx;
  core::Flow flow(ctx);
  const auto t = flow.timing(small_spec());
  ASSERT_NE(t, nullptr);
  ASSERT_FALSE(t->critical_path.empty());

  const auto& codec = core::timing_codec();
  core::serde::Writer w;
  codec.encode(*t, w);
  core::serde::Reader r(w.bytes());
  const auto back = codec.decode(r);
  ASSERT_NE(back, nullptr);

  EXPECT_EQ(back->critical_delay_s, t->critical_delay_s);  // bit-exact f64
  ASSERT_EQ(back->critical_path.size(), t->critical_path.size());
  for (std::size_t i = 0; i < t->critical_path.size(); ++i) {
    EXPECT_EQ(back->critical_path[i].through_gate,
              t->critical_path[i].through_gate);
    EXPECT_EQ(back->critical_path[i].to_net, t->critical_path[i].to_net);
    EXPECT_EQ(back->critical_path[i].arc_delay_s,
              t->critical_path[i].arc_delay_s);
    EXPECT_EQ(back->critical_path[i].arrival_s,
              t->critical_path[i].arrival_s);
  }
  EXPECT_EQ(back->clock_period_s, t->clock_period_s);
  EXPECT_EQ(back->slack_s, t->slack_s);
  EXPECT_EQ(back->max_clock_hz, t->max_clock_hz);
  EXPECT_EQ(back->loops_cut, t->loops_cut);
  EXPECT_EQ(back->num_gates, t->num_gates);
  EXPECT_EQ(back->num_arcs, t->num_arcs);
  core::serde::Writer w2;
  codec.encode(*back, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(ArtifactSerdeTest, PowerGridCheckRoundTripsBitExactly) {
  core::ExecContext ctx;
  core::Flow flow(ctx);
  const auto c = flow.power_grid(small_spec());
  ASSERT_NE(c, nullptr);
  ASSERT_GT(c->cells_checked, 0);

  const auto& codec = core::power_grid_codec();
  core::serde::Writer w;
  codec.encode(*c, w);
  core::serde::Reader r(w.bytes());
  const auto back = codec.decode(r);
  ASSERT_NE(back, nullptr);

  EXPECT_EQ(back->cells_checked, c->cells_checked);
  EXPECT_EQ(back->unconnected_cells, c->unconnected_cells);
  EXPECT_EQ(back->wrong_rail_cells, c->wrong_rail_cells);
  EXPECT_EQ(back->max_ir_drop_v, c->max_ir_drop_v);  // bit-exact f64
  EXPECT_EQ(back->worst_rail, c->worst_rail);
  EXPECT_EQ(back->problems, c->problems);
  core::serde::Writer w2;
  codec.encode(*back, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

/// One stage artifact's canonical bytes plus its codec's decoder (true
/// when the decode yields an artifact).
struct EncodedArtifact {
  std::string type_tag;
  std::vector<std::uint8_t> bytes;
  std::function<bool(core::serde::Reader&)> decodes;
};

template <typename T>
EncodedArtifact encoded(const core::ArtifactCodec<T>& codec,
                        const T* artifact) {
  EncodedArtifact e;
  e.type_tag = codec.type_tag;
  if (artifact == nullptr) return e;  // the caller asserts non-empty bytes
  core::serde::Writer w;
  codec.encode(*artifact, w);
  e.bytes = w.take();
  e.decodes = [&codec](core::serde::Reader& r) {
    return codec.decode(r) != nullptr;
  };
  return e;
}

/// One codec's payload over a real artifact of a 4-slice design. Only the
/// stages that artifact needs are built.
EncodedArtifact codec_payload(const std::string& tag) {
  core::AdcSpec spec = small_spec();
  spec.num_slices = 4;
  core::ExecContext ctx;
  core::Flow flow(ctx);
  if (tag == "cell_library") {
    return encoded(core::cell_library_codec(), flow.tech_library(spec).get());
  }
  if (tag == "design_bundle") {
    const core::DesignBundle bundle = flow.netlist(spec);
    return encoded(core::design_bundle_codec(),
                   bundle.design != nullptr ? &bundle : nullptr);
  }
  if (tag == "floorplan") {
    return encoded(core::floorplan_codec(), flow.floorplan(spec).get());
  }
  if (tag == "placement") {
    return encoded(core::placement_codec(), flow.placement(spec).get());
  }
  if (tag == "synthesis") {
    return encoded(core::synthesis_codec(), flow.synthesis(spec).get());
  }
  if (tag == "run_result") {
    core::SimulationOptions sim;
    sim.n_samples = 64;
    return encoded(core::run_result_codec(), flow.sim_run(spec, sim).get());
  }
  if (tag == "hdl_emit") {
    return encoded(core::hdl_emit_codec(), flow.hdl_emit(spec).get());
  }
  if (tag == "gate_sim") {
    core::GateSimOptions gopts;
    gopts.sim.n_samples = 64;
    return encoded(core::gate_sim_codec(), flow.gate_sim(spec, gopts).get());
  }
  if (tag == "timing") {
    return encoded(core::timing_codec(), flow.timing(spec).get());
  }
  if (tag == "power_grid") {
    return encoded(core::power_grid_codec(), flow.power_grid(spec).get());
  }
  ADD_FAILURE() << "no artifact for codec " << tag;
  return {};
}

/// An array count inside a codec payload: its byte offset and the bytes
/// each element takes.
struct CountAt {
  std::size_t at;
  std::size_t elem_bytes;
};

struct CodecCase {
  const char* tag;
  std::vector<CountAt> counts;  ///< counts the crafted-payload probe hits
  /// Tests the cut sweep is split into, so ctest runs a long sweep (it
  /// grows with the square of the payload) in parallel.
  int cut_shards = 1;
};

/// One test's share of a codec's cut sweep: the cuts 8 * i with
/// i % cut_shards == shard. Shard 0 also runs the crafted-count probes and
/// keeps the codec's bare test name.
struct CodecShard {
  CodecCase codec;
  int shard = 0;
};

/// Names the case by its tag (and shard): gtest would otherwise print the
/// struct's raw bytes (pointers included) into the test listing.
void PrintTo(const CodecShard& s, std::ostream* os) {
  *os << s.codec.tag;
  if (s.shard != 0) {
    *os << " cut shard " << s.shard << " of " << s.codec.cut_shards;
  }
}

// The run_result payload is of 64 samples, every array in compact form:
// the counts' u8s count sits at byte 25 (after fin, amplitude, full scale
// and the counts' flag), spectrum.power's f64s count at byte 146 (after
// the 64 count bytes, the output's slice-count byte, the empty slice_bits
// count and the five modulator means). The gate_sim
// payload's `decoded` count sits at byte 34 (after two bools, two f64s,
// n_samples and num_slices). The synthesis and floorplan sweeps are the
// long ones: 16 s and 2.9 s unsharded under asan.
const std::vector<CodecCase> kCodecCases = {
    {"cell_library", {}},
    {"design_bundle", {}},
    {"floorplan", {}, 2},
    {"placement", {}},
    {"synthesis", {}, 8},
    {"run_result", {{25, 1}, {25 + 8 + 64 + 1 + 8 + 5 * 8, 8}}},
    {"hdl_emit", {}},
    {"gate_sim", {{34, 8}}},
    {"timing", {}},
    {"power_grid", {}},
};

std::vector<CodecShard> codec_shards() {
  std::vector<CodecShard> shards;
  for (const CodecCase& c : kCodecCases) {
    for (int k = 0; k < c.cut_shards; ++k) shards.push_back({c, k});
  }
  return shards;
}

class ArtifactSerdeCodec : public ::testing::TestWithParam<CodecShard> {};

TEST_P(ArtifactSerdeCodec, DecoderRejectsTruncatedPayload) {
  // The codec's payload cut at every 8-byte boundary short of the whole
  // (this shard's share of them): each prefix decodes to null, never UB,
  // never an artifact. Each probed array count is then overwritten with
  // counts that claim more than the payload holds (one element past the
  // end, 2^61, 2^64 - 1): null with the reader latched !ok().
  const CodecCase& c = GetParam().codec;
  const int shard = GetParam().shard;
  const EncodedArtifact e = codec_payload(c.tag);
  ASSERT_EQ(e.type_tag, c.tag);
  ASSERT_FALSE(e.bytes.empty()) << "stage refused its input";
  core::serde::Reader whole(e.bytes);
  ASSERT_TRUE(e.decodes(whole));
  const std::size_t step = 8 * static_cast<std::size_t>(c.cut_shards);
  for (std::size_t cut = 8 * static_cast<std::size_t>(shard);
       cut < e.bytes.size(); cut += step) {
    core::serde::Reader r(e.bytes.data(), cut);
    ASSERT_FALSE(e.decodes(r)) << "prefix of " << cut << " of "
                               << e.bytes.size() << " bytes decoded";
  }
  if (shard != 0) return;

  for (const CountAt& probe : c.counts) {
    SCOPED_TRACE(probe.at);
    ASSERT_GT(e.bytes.size(), probe.at + 8);
    const std::uint64_t remaining = e.bytes.size() - probe.at - 8;
    // The probe sits on a real count: non-zero, and its elements fit.
    const std::uint64_t stored =
        core::serde::load_le<std::uint64_t>(e.bytes.data() + probe.at);
    ASSERT_GT(stored, 0u);
    ASSERT_LE(stored, remaining / probe.elem_bytes);
    for (const std::uint64_t count : {remaining / probe.elem_bytes + 1,
                                      std::uint64_t{1} << 61,
                                      ~std::uint64_t{0}}) {
      SCOPED_TRACE(count);
      std::vector<std::uint8_t> crafted = e.bytes;
      for (int b = 0; b < 8; ++b) {
        crafted[probe.at + b] = static_cast<std::uint8_t>(count >> (8 * b));
      }
      core::serde::Reader r(crafted);
      EXPECT_FALSE(e.decodes(r));
      EXPECT_FALSE(r.ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryCodec, ArtifactSerdeCodec, ::testing::ValuesIn(codec_shards()),
    [](const ::testing::TestParamInfo<CodecShard>& info) {
      const std::string tag = info.param.codec.tag;
      if (info.param.shard == 0) return tag;
      return tag + "_cuts" + std::to_string(info.param.shard);
    });

// --- run_result v2: lean records -----------------------------------------

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const double d : v) out.push_back(bits(d));
  return out;
}

/// Every field of two runs, doubles by bit pattern (a NaN or a signed zero
/// counts too).
void expect_same_run(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(bits(a.fin_hz), bits(b.fin_hz));
  EXPECT_EQ(bits(a.amplitude_v), bits(b.amplitude_v));
  EXPECT_EQ(bits(a.full_scale_v), bits(b.full_scale_v));
  EXPECT_EQ(bits(a.mod.output), bits(b.mod.output));
  EXPECT_EQ(a.mod.counts, b.mod.counts);
  EXPECT_EQ(a.mod.slice_bits, b.mod.slice_bits);
  EXPECT_EQ(bits(a.mod.mean_vctrlp), bits(b.mod.mean_vctrlp));
  EXPECT_EQ(bits(a.mod.mean_vctrln), bits(b.mod.mean_vctrln));
  EXPECT_EQ(bits(a.mod.mean_freq1_hz), bits(b.mod.mean_freq1_hz));
  EXPECT_EQ(bits(a.mod.mean_freq2_hz), bits(b.mod.mean_freq2_hz));
  EXPECT_EQ(bits(a.mod.bit_toggle_rate), bits(b.mod.bit_toggle_rate));
  EXPECT_EQ(bits(a.spectrum.freq_hz), bits(b.spectrum.freq_hz));
  EXPECT_EQ(bits(a.spectrum.power), bits(b.spectrum.power));
  EXPECT_EQ(bits(a.spectrum.dbfs), bits(b.spectrum.dbfs));
  EXPECT_EQ(bits(a.spectrum.fs_hz), bits(b.spectrum.fs_hz));
  EXPECT_EQ(bits(a.spectrum.bin_hz), bits(b.spectrum.bin_hz));
  EXPECT_EQ(bits(a.spectrum.enbw_bins), bits(b.spectrum.enbw_bins));
  EXPECT_EQ(a.spectrum.window, b.spectrum.window);
  EXPECT_EQ(bits(a.sndr.fundamental_hz), bits(b.sndr.fundamental_hz));
  EXPECT_EQ(bits(a.sndr.fundamental_dbfs), bits(b.sndr.fundamental_dbfs));
  EXPECT_EQ(bits(a.sndr.signal_power), bits(b.sndr.signal_power));
  EXPECT_EQ(bits(a.sndr.nad_power), bits(b.sndr.nad_power));
  EXPECT_EQ(bits(a.sndr.noise_power), bits(b.sndr.noise_power));
  EXPECT_EQ(bits(a.sndr.distortion_power), bits(b.sndr.distortion_power));
  EXPECT_EQ(bits(a.sndr.sndr_db), bits(b.sndr.sndr_db));
  EXPECT_EQ(bits(a.sndr.snr_db), bits(b.sndr.snr_db));
  EXPECT_EQ(bits(a.sndr.thd_db), bits(b.sndr.thd_db));
  EXPECT_EQ(bits(a.sndr.sfdr_db), bits(b.sndr.sfdr_db));
  EXPECT_EQ(bits(a.sndr.enob), bits(b.sndr.enob));
  EXPECT_EQ(bits(a.shaping.db_per_decade), bits(b.shaping.db_per_decade));
  EXPECT_EQ(bits(a.shaping.r_squared), bits(b.shaping.r_squared));
  ASSERT_EQ(a.idle_tones.size(), b.idle_tones.size());
  for (std::size_t i = 0; i < a.idle_tones.size(); ++i) {
    EXPECT_EQ(bits(a.idle_tones[i].freq_hz), bits(b.idle_tones[i].freq_hz));
    EXPECT_EQ(bits(a.idle_tones[i].dbfs), bits(b.idle_tones[i].dbfs));
    EXPECT_EQ(bits(a.idle_tones[i].above_floor_db),
              bits(b.idle_tones[i].above_floor_db));
  }
  EXPECT_EQ(bits(a.power.vco_w), bits(b.power.vco_w));
  EXPECT_EQ(bits(a.power.sampling_w), bits(b.power.sampling_w));
  EXPECT_EQ(bits(a.power.dac_drive_w), bits(b.power.dac_drive_w));
  EXPECT_EQ(bits(a.power.buffer_sw_w), bits(b.power.buffer_sw_w));
  EXPECT_EQ(bits(a.power.wire_w), bits(b.power.wire_w));
  EXPECT_EQ(bits(a.power.leakage_w), bits(b.power.leakage_w));
  EXPECT_EQ(bits(a.power.dac_static_w), bits(b.power.dac_static_w));
  EXPECT_EQ(bits(a.power.buffer_bias_w), bits(b.power.buffer_bias_w));
  EXPECT_EQ(bits(a.fom_fj), bits(b.fom_fj));
}

/// Encodes `run`, checks that the decoded run equals it field for field
/// and re-encodes to the same bytes, and returns the payload size.
std::size_t expect_round_trip(const core::RunResult& run) {
  const auto& codec = core::run_result_codec();
  core::serde::Writer w;
  codec.encode(run, w);
  core::serde::Reader r(w.bytes());
  const auto back = codec.decode(r);
  EXPECT_NE(back, nullptr);
  if (back == nullptr) return 0;
  expect_same_run(*back, run);
  core::serde::Writer w2;
  codec.encode(*back, w2);
  EXPECT_EQ(w2.bytes(), w.bytes());
  return w.bytes().size();
}

/// `run` with one output sample and one frequency bin moved by one ulp:
/// neither array can then be rebuilt on decode.
core::RunResult with_ulp_moves(core::RunResult run) {
  double& y = run.mod.output[run.mod.output.size() / 2];
  y = std::nextafter(y, 2.0);
  double& f = run.spectrum.freq_hz.back();
  f = std::nextafter(f, 0.0);
  return run;
}

/// A simulated run round-trips in compact form: moving one output sample
/// and one bin by an ulp costs exactly the explicit arrays (8 + 8n bytes
/// for the output, 8 + 8 * bins for the frequencies), and that run
/// round-trips too.
void expect_lean_round_trip(const core::RunResult& run) {
  ASSERT_FALSE(run.mod.output.empty());
  ASSERT_FALSE(run.spectrum.freq_hz.empty());
  const std::size_t lean = expect_round_trip(run);
  const std::size_t full = expect_round_trip(with_ulp_moves(run));
  const std::size_t n = run.mod.output.size();
  const std::size_t bins = run.spectrum.freq_hz.size();
  EXPECT_EQ(full - lean, (8 + 8 * n) + (8 + 8 * bins));
}

/// The paper's 40 nm spec at `slices` slices, clocked where the ring
/// still fits the node at that stage count.
core::AdcSpec spec_with_slices(int slices) {
  core::AdcSpec spec = small_spec();
  spec.num_slices = slices;
  if (slices > 16) spec.fs_hz = 100e6;
  return spec;
}

/// One lean round-trip test: a slice count, a kind of run (a scalar run,
/// lanes 0 and 7 of a W=8 group, or a scalar run that records its slice
/// bits) and this test's share of the length sweep 2^4 ... 2^14. Each
/// length simulates about twice as long as the one below it, so shard k of
/// the first length_shards - 1 takes 2^(14 - k) alone and the last shard
/// every shorter length; with two shards the longest length and the ten
/// below it take about equal time. Shard 0 keeps the case's unsharded name.
struct LeanCase {
  int slices = 0;
  std::string kind;
  int length_shards = 1;
  int shard = 0;
};

/// Prints shard 0 as gtest printed the (slices, kind) tuple it replaced.
void PrintTo(const LeanCase& c, std::ostream* os) {
  *os << "(" << c.slices << ", \"" << c.kind << "\"";
  if (c.shard != 0) {
    *os << ", length shard " << c.shard << " of " << c.length_shards;
  }
  *os << ")";
}

/// Every slice count under every kind. The 64-slice W=8 group is the long
/// one (5.3 s unsharded under asan, 99 % of it the simulation, not the round
/// trips), so its sweep is split in two.
std::vector<LeanCase> lean_cases() {
  std::vector<LeanCase> cases;
  for (int slices : {2, 16, 64}) {
    for (const char* kind : {"scalar", "lanes", "record_bits"}) {
      const int shards = slices == 64 && std::string(kind) == "lanes" ? 2 : 1;
      for (int k = 0; k < shards; ++k) {
        cases.push_back({slices, kind, shards, k});
      }
    }
  }
  return cases;
}

class ArtifactSerdeLeanRun : public ::testing::TestWithParam<LeanCase> {};

TEST_P(ArtifactSerdeLeanRun, RoundTripsEveryField) {
  const LeanCase& c = GetParam();
  const core::AdcSpec spec = spec_with_slices(c.slices);
  ASSERT_TRUE(spec.validate().empty());
  core::ExecContext ctx;
  const core::AdcDesign design(spec, ctx);
  ASSERT_TRUE(design.ok());
  const int last = c.length_shards - 1;
  const int lg_hi = 14 - c.shard;
  const int lg_lo = c.shard < last ? lg_hi : 4;
  for (int lg = lg_lo; lg <= lg_hi; ++lg) {
    SCOPED_TRACE(lg);
    core::SimulationOptions sim;
    sim.n_samples = std::size_t{1} << lg;
    if (c.kind == "lanes") {
      std::vector<core::SimulationOptions> group(8, sim);
      for (std::size_t k = 0; k < group.size(); ++k) group[k].seed = 500 + k;
      msim::BatchedWorkspace ws;
      const std::vector<core::RunResult> lanes =
          design.simulate_batch(group, ws);
      ASSERT_EQ(lanes.size(), 8u);
      expect_lean_round_trip(lanes[0]);
      expect_lean_round_trip(lanes[7]);
    } else {
      sim.record_bits = c.kind == "record_bits";
      const core::RunResult run = design.simulate(sim);
      if (sim.record_bits) {
        ASSERT_EQ(run.mod.slice_bits.size(),
                  static_cast<std::size_t>(c.slices));
      }
      expect_lean_round_trip(run);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SlicesAndRuns, ArtifactSerdeLeanRun, ::testing::ValuesIn(lean_cases()),
    [](const ::testing::TestParamInfo<LeanCase>& info) {
      const LeanCase& c = info.param;
      std::string name = "n" + std::to_string(c.slices) + "_" + c.kind;
      if (c.shard != 0) name += "_lengths" + std::to_string(c.shard);
      return name;
    });

TEST(ArtifactSerdeTest, RunResultExplicitFormsStayLossless) {
  core::ExecContext ctx;
  core::Flow flow(ctx);
  core::SimulationOptions sim;
  sim.n_samples = 1 << 8;
  const auto run = flow.sim_run(small_spec(), sim);
  ASSERT_NE(run, nullptr);
  const std::size_t lean = expect_round_trip(*run);

  // One output sample and one bin an ulp off the rebuilt value: both go
  // out explicitly, bit for bit.
  const core::RunResult moved = with_ulp_moves(*run);
  const std::size_t n = run->mod.output.size();
  const std::size_t bins = run->spectrum.freq_hz.size();
  EXPECT_EQ(expect_round_trip(moved) - lean, (8 + 8 * n) + (8 + 8 * bins));

  // A count no byte holds: the counts go out as i64s (7 more bytes per
  // sample), and the output with them.
  core::RunResult wide = *run;
  wide.mod.counts[1] = 256;
  EXPECT_EQ(expect_round_trip(wide) - lean, 7 * n + (8 + 8 * n));
  wide.mod.counts[1] = -1;
  EXPECT_EQ(expect_round_trip(wide) - lean, 7 * n + (8 + 8 * n));

  // Arrays the modulator never produces: sizes that disagree, and a -0.0
  // output where the rebuild gives +0.0.
  core::RunResult odd = *run;
  odd.mod.output.pop_back();
  odd.spectrum.freq_hz.push_back(1.0);
  expect_round_trip(odd);
  core::RunResult signed_zero = *run;
  signed_zero.mod.counts[0] = small_spec().num_slices / 2;
  signed_zero.mod.output[0] = -0.0;
  EXPECT_EQ(expect_round_trip(signed_zero) - lean, 8 + 8 * n);
  expect_round_trip(core::RunResult{});
}

/// The byte offset of the slice-bit list's count in run_result's payload
/// for `run` (which must hold slices): everything ahead of it does not
/// depend on the bits, so it is where the payloads with and without them
/// first differ (n against 0).
std::size_t slice_list_offset(const core::RunResult& run) {
  const auto& codec = core::run_result_codec();
  core::RunResult bare = run;
  bare.mod.slice_bits.clear();
  core::serde::Writer wb;
  codec.encode(bare, wb);
  core::serde::Writer wr;
  codec.encode(run, wr);
  const std::vector<std::uint8_t>& plain = wb.bytes();
  const std::vector<std::uint8_t>& full = wr.bytes();
  return static_cast<std::size_t>(
      std::mismatch(plain.begin(), plain.end(), full.begin(), full.end())
          .first -
      plain.begin());
}

/// run_result's payload for `run` with its slice bits written by the
/// bit-at-a-time loop the codec used before it moved each slice's bytes in
/// bulk, kept verbatim as the byte reference; the rest is the codec's
/// payload for `run` without slice bits.
std::vector<std::uint8_t> reference_payload(const core::RunResult& run) {
  core::RunResult bare = run;
  bare.mod.slice_bits.clear();
  core::serde::Writer wb;
  core::run_result_codec().encode(bare, wb);
  const std::vector<std::uint8_t>& plain = wb.bytes();
  const std::size_t at = slice_list_offset(run);
  EXPECT_LE(at + 8, plain.size());
  if (at + 8 > plain.size()) return {};
  EXPECT_EQ(core::serde::load_le<std::uint64_t>(plain.data() + at), 0u);

  core::serde::Writer w;
  for (std::size_t i = 0; i < at; ++i) w.u8(plain[i]);
  w.size(run.mod.slice_bits.size());
  for (const auto& bits : run.mod.slice_bits) {
    w.size(bits.size());
    std::uint8_t acc = 0;
    int fill = 0;
    for (const bool b : bits) {
      acc = static_cast<std::uint8_t>(acc | ((b ? 1 : 0) << fill));
      if (++fill == 8) {
        w.u8(acc);
        acc = 0;
        fill = 0;
      }
    }
    if (fill != 0) w.u8(acc);
  }
  for (std::size_t i = at + 8; i < plain.size(); ++i) w.u8(plain[i]);
  return w.take();
}

TEST(ArtifactSerdeTest, SliceBitsBytesMatchTheBitLoopAtEveryLength) {
  // Every length from 0 to 130 bits (empty, partial and whole bytes and
  // words), one slice of random bits built by push_back and one cut down
  // from 130 set bits, so the bits past its end are still set in the
  // vector's storage and must not reach the payload.
  core::ExecContext ctx;
  core::Flow flow(ctx);
  core::SimulationOptions sim;
  sim.n_samples = 1 << 6;
  const auto base = flow.sim_run(small_spec(), sim);
  ASSERT_NE(base, nullptr);
  util::Rng rng(11);
  for (std::size_t len = 0; len <= 130; ++len) {
    SCOPED_TRACE(len);
    core::RunResult run = *base;
    std::vector<bool> random;
    for (std::size_t j = 0; j < len; ++j) random.push_back(rng.bernoulli(0.5));
    std::vector<bool> cut(130, true);
    cut.resize(len);
    run.mod.slice_bits = {random, cut};
    core::serde::Writer w;
    core::run_result_codec().encode(run, w);
    EXPECT_EQ(w.bytes(), reference_payload(run));
    expect_round_trip(run);

    // Set high bits in the first slice's last byte are ignored on decode,
    // as the bit loop ignored them: the same bits come back, and they
    // re-encode to the canonical bytes.
    if (len % 8 == 0) continue;
    std::vector<std::uint8_t> dirty = w.bytes();
    dirty[slice_list_offset(run) + 8 + 8 + (len + 7) / 8 - 1] |=
        static_cast<std::uint8_t>(0xFFu << len % 8);
    core::serde::Reader r(dirty);
    const auto back = core::run_result_codec().decode(r);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->mod.slice_bits, run.mod.slice_bits);
    core::serde::Writer again;
    core::run_result_codec().encode(*back, again);
    EXPECT_EQ(again.bytes(), w.bytes());
  }
}

TEST(ArtifactSerdeTest, RecordBitsRunBytesMatchTheBitLoop) {
  core::ExecContext ctx;
  core::Flow flow(ctx);
  core::SimulationOptions sim;
  sim.n_samples = 1 << 12;
  sim.record_bits = true;
  const auto run = flow.sim_run(core::AdcSpec::paper_40nm(), sim);
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(run->mod.slice_bits.size(),
            static_cast<std::size_t>(core::AdcSpec::paper_40nm().num_slices));
  core::serde::Writer w;
  core::run_result_codec().encode(*run, w);
  EXPECT_EQ(w.bytes(), reference_payload(*run));
  expect_round_trip(*run);

  // A cut inside the first slice's bytes (past the list count and its bit
  // count) is refused like any other truncation.
  const std::size_t cut = slice_list_offset(*run) + 8 + 8 + 100;
  ASSERT_LT(cut, w.bytes().size());
  core::serde::Reader r(w.bytes().data(), cut);
  EXPECT_EQ(core::run_result_codec().decode(r), nullptr);
  EXPECT_FALSE(r.ok());
}

TEST(SerdeTest, RawBlocksRoundTripAndRejectAShortRead) {
  core::serde::Writer w;
  w.u8(1);
  std::uint8_t* block = w.raw(3);
  block[0] = 7;
  block[2] = 9;
  core::serde::Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 1);
  const std::uint8_t* got = r.raw(3);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(std::vector<std::uint8_t>(got, got + 3),
            (std::vector<std::uint8_t>{7, 0, 9}));
  EXPECT_TRUE(r.ok() && r.at_end());
  core::serde::Reader short_read(w.bytes());
  EXPECT_EQ(short_read.raw(5), nullptr);
  EXPECT_FALSE(short_read.ok());
}

TEST(SerdeTest, U8sRoundTripAndRejectACountPastTheEnd) {
  const std::vector<int> v = {0, 1, 64, 255};
  core::serde::Writer w;
  w.u8s(v);
  w.u8(9);
  std::vector<int> back;
  core::serde::Reader r(w.bytes());
  r.u8s(back);
  EXPECT_EQ(back, v);
  EXPECT_EQ(r.u8(), 9);
  EXPECT_TRUE(r.ok() && r.at_end());

  // The count claims one byte more than follows it: rejected before any
  // element is read, with `out` left empty.
  std::vector<std::uint8_t> crafted = w.bytes();
  crafted[0] = static_cast<std::uint8_t>(crafted.size() - 8 + 1);
  back = {7};
  core::serde::Reader rc(crafted);
  rc.u8s(back);
  EXPECT_FALSE(rc.ok());
  EXPECT_TRUE(back.empty());
}

// --- design_bundle, floorplan and synthesis v2: name tables ---------------

/// Every field of two StdCells, doubles by bit pattern.
void expect_same_cell(const netlist::StdCell& a, const netlist::StdCell& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.function, b.function);
  EXPECT_EQ(a.drive, b.drive);
  EXPECT_EQ(bits(a.width_m), bits(b.width_m));
  EXPECT_EQ(bits(a.height_m), bits(b.height_m));
  ASSERT_EQ(a.pins.size(), b.pins.size());
  for (std::size_t i = 0; i < a.pins.size(); ++i) {
    EXPECT_EQ(a.pins[i].name, b.pins[i].name);
    EXPECT_EQ(a.pins[i].dir, b.pins[i].dir);
  }
  EXPECT_EQ(bits(a.input_cap_f), bits(b.input_cap_f));
  EXPECT_EQ(bits(a.leakage_w), bits(b.leakage_w));
  EXPECT_EQ(a.is_resistor, b.is_resistor);
  EXPECT_EQ(bits(a.resistance_ohms), bits(b.resistance_ohms));
  EXPECT_EQ(a.power_pin, b.power_pin);
  EXPECT_EQ(a.ground_pin, b.ground_pin);
}

/// Every field of two flat netlists: the cells (compared by value, as
/// decoded cells point into the record's own library), both name tables
/// and the connection array with its offsets.
void expect_same_flat(const netlist::FlatNetlist& a,
                      const netlist::FlatNetlist& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].path);
    EXPECT_EQ(a[i].path, b[i].path);
    ASSERT_EQ(a[i].cell == nullptr, b[i].cell == nullptr);
    if (a[i].cell != nullptr) expect_same_cell(*a[i].cell, *b[i].cell);
    EXPECT_EQ(a[i].power_domain, b[i].power_domain);
    EXPECT_EQ(a[i].group, b[i].group);
  }
  EXPECT_EQ(a.nets(), b.nets());
  EXPECT_EQ(a.pin_names(), b.pin_names());
  EXPECT_EQ(a.pin_offsets(), b.pin_offsets());
  EXPECT_EQ(a.connections(), b.connections());
}

void expect_same_rect(const synth::Rect& a, const synth::Rect& b) {
  EXPECT_EQ(bits(a.x), bits(b.x));
  EXPECT_EQ(bits(a.y), bits(b.y));
  EXPECT_EQ(bits(a.w), bits(b.w));
  EXPECT_EQ(bits(a.h), bits(b.h));
}

void expect_same_floorplan(const synth::Floorplan& a,
                           const synth::Floorplan& b) {
  expect_same_rect(a.die, b.die);
  EXPECT_EQ(bits(a.row_height_m), bits(b.row_height_m));
  EXPECT_EQ(bits(a.site_width_m), bits(b.site_width_m));
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    const synth::PlacedRegion& ra = a.regions[i];
    const synth::PlacedRegion& rb = b.regions[i];
    EXPECT_EQ(ra.spec.name, rb.spec.name);
    EXPECT_EQ(ra.spec.is_group, rb.spec.is_group);
    EXPECT_EQ(ra.spec.members, rb.spec.members);
    EXPECT_EQ(bits(ra.spec.cell_area_m2), bits(rb.spec.cell_area_m2));
    EXPECT_EQ(bits(ra.spec.max_cell_width_m), bits(rb.spec.max_cell_width_m));
    expect_same_rect(ra.rect, rb.rect);
  }
}

void expect_same_design(const netlist::Design& a, const netlist::Design& b) {
  EXPECT_EQ(a.top(), b.top());
  ASSERT_EQ(a.modules().size(), b.modules().size());
  for (std::size_t m = 0; m < a.modules().size(); ++m) {
    const netlist::Module& ma = a.modules()[m];
    const netlist::Module& mb = b.modules()[m];
    SCOPED_TRACE(ma.name());
    EXPECT_EQ(ma.name(), mb.name());
    ASSERT_EQ(ma.ports().size(), mb.ports().size());
    for (std::size_t p = 0; p < ma.ports().size(); ++p) {
      EXPECT_EQ(ma.ports()[p].name, mb.ports()[p].name);
      EXPECT_EQ(ma.ports()[p].dir, mb.ports()[p].dir);
    }
    EXPECT_EQ(ma.nets(), mb.nets());
    ASSERT_EQ(ma.instances().size(), mb.instances().size());
    for (std::size_t i = 0; i < ma.instances().size(); ++i) {
      const netlist::Instance& ia = ma.instances()[i];
      const netlist::Instance& ib = mb.instances()[i];
      EXPECT_EQ(ia.name, ib.name);
      EXPECT_EQ(ia.master, ib.master);
      EXPECT_EQ(ia.conn, ib.conn);
      EXPECT_EQ(ia.power_domain, ib.power_domain);
      EXPECT_EQ(ia.group, ib.group);
    }
  }
}

void expect_same_synthesis(const synth::SynthesisResult& a,
                           const synth::SynthesisResult& b) {
  EXPECT_EQ(a.floorplan_spec, b.floorplan_spec);
  ASSERT_NE(a.layout, nullptr);
  ASSERT_NE(b.layout, nullptr);
  expect_same_flat(a.layout->flat(), b.layout->flat());
  expect_same_floorplan(a.layout->floorplan(), b.layout->floorplan());
  const auto& ca = a.layout->placement().cells;
  const auto& cb = b.layout->placement().cells;
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].flat_index, cb[i].flat_index);
    expect_same_rect(ca[i].rect, cb[i].rect);
    EXPECT_EQ(ca[i].row, cb[i].row);
    EXPECT_EQ(ca[i].region, cb[i].region);
  }
  EXPECT_EQ(a.layout->placement().overflow, b.layout->placement().overflow);
  ASSERT_EQ(a.routing.nets.size(), b.routing.nets.size());
  for (std::size_t i = 0; i < a.routing.nets.size(); ++i) {
    EXPECT_EQ(a.routing.nets[i].net, b.routing.nets[i].net);
    EXPECT_EQ(a.routing.nets[i].pins, b.routing.nets[i].pins);
    EXPECT_EQ(bits(a.routing.nets[i].hpwl_m), bits(b.routing.nets[i].hpwl_m));
    EXPECT_EQ(bits(a.routing.nets[i].est_length_m),
              bits(b.routing.nets[i].est_length_m));
  }
  EXPECT_EQ(bits(a.routing.total_hpwl_m), bits(b.routing.total_hpwl_m));
  EXPECT_EQ(bits(a.routing.total_est_length_m),
            bits(b.routing.total_est_length_m));
  EXPECT_EQ(a.routing.congestion.nx, b.routing.congestion.nx);
  EXPECT_EQ(a.routing.congestion.ny, b.routing.congestion.ny);
  EXPECT_EQ(bits(a.routing.congestion.demand), bits(b.routing.congestion.demand));
  EXPECT_EQ(bits(a.routing.congestion.max_demand),
            bits(b.routing.congestion.max_demand));
  EXPECT_EQ(bits(a.routing.congestion.mean_demand),
            bits(b.routing.congestion.mean_demand));
  EXPECT_EQ(bits(a.routing.wire_cap_f), bits(b.routing.wire_cap_f));
  const synth::MazeRouteResult& ma = a.detailed_routing;
  const synth::MazeRouteResult& mb = b.detailed_routing;
  ASSERT_EQ(ma.nets.size(), mb.nets.size());
  for (std::size_t i = 0; i < ma.nets.size(); ++i) {
    EXPECT_EQ(ma.nets[i].name, mb.nets[i].name);
    EXPECT_EQ(ma.nets[i].pins, mb.nets[i].pins);
    EXPECT_EQ(ma.nets[i].paths, mb.nets[i].paths);
    EXPECT_EQ(bits(ma.nets[i].wirelength_m), bits(mb.nets[i].wirelength_m));
    EXPECT_EQ(ma.nets[i].vias, mb.nets[i].vias);
    EXPECT_EQ(ma.nets[i].routed, mb.nets[i].routed);
  }
  EXPECT_EQ(bits(ma.total_wirelength_m), bits(mb.total_wirelength_m));
  EXPECT_EQ(ma.total_vias, mb.total_vias);
  EXPECT_EQ(ma.failed_nets, mb.failed_nets);
  EXPECT_EQ(ma.overflowed_edges, mb.overflowed_edges);
  EXPECT_EQ(ma.grid_x, mb.grid_x);
  EXPECT_EQ(ma.grid_y, mb.grid_y);
  ASSERT_EQ(a.drc.violations.size(), b.drc.violations.size());
  for (std::size_t i = 0; i < a.drc.violations.size(); ++i) {
    EXPECT_EQ(a.drc.violations[i].kind, b.drc.violations[i].kind);
    EXPECT_EQ(a.drc.violations[i].detail, b.drc.violations[i].detail);
  }
  EXPECT_EQ(bits(a.stats.die_area_m2), bits(b.stats.die_area_m2));
  EXPECT_EQ(bits(a.stats.cell_area_m2), bits(b.stats.cell_area_m2));
  EXPECT_EQ(bits(a.stats.utilization), bits(b.stats.utilization));
  EXPECT_EQ(a.stats.num_cells, b.stats.num_cells);
  EXPECT_EQ(a.stats.num_rows, b.stats.num_rows);
  EXPECT_EQ(a.stats.num_regions, b.stats.num_regions);
}

/// Encodes `artifact`, decodes it, and checks that the decoded artifact
/// re-encodes to the same bytes. Returns the decoded artifact and, through
/// `bytes`, the payload.
template <typename T>
std::shared_ptr<const T> round_trip(const core::ArtifactCodec<T>& codec,
                                    const T& artifact,
                                    std::vector<std::uint8_t>* bytes) {
  core::serde::Writer w;
  codec.encode(artifact, w);
  *bytes = w.take();
  core::serde::Reader r(*bytes);
  auto back = codec.decode(r);
  EXPECT_NE(back, nullptr);
  if (back == nullptr) return nullptr;
  core::serde::Writer again;
  codec.encode(*back, again);
  EXPECT_EQ(again.bytes(), *bytes) << codec.type_tag << " is no fixed point";
  return back;
}

/// The paper's two specs and a small routed one.
std::vector<core::AdcSpec> name_table_specs() {
  return {core::AdcSpec::paper_40nm(), core::AdcSpec::paper_180nm(),
          small_spec()};
}

TEST(ArtifactSerdeNameTable, DesignBundleRoundTripsEveryField) {
  for (const core::AdcSpec& spec : name_table_specs()) {
    SCOPED_TRACE(spec.node_nm);
    core::ExecContext ctx;
    core::Flow flow(ctx);
    const core::DesignBundle bundle = flow.netlist(spec);
    ASSERT_NE(bundle.design, nullptr);
    std::vector<std::uint8_t> bytes;
    const auto back = round_trip(core::design_bundle_codec(), bundle, &bytes);
    ASSERT_NE(back, nullptr);
    ASSERT_EQ(back->lib->cells().size(), bundle.lib->cells().size());
    for (std::size_t i = 0; i < bundle.lib->cells().size(); ++i) {
      expect_same_cell(back->lib->cells()[i], bundle.lib->cells()[i]);
    }
    EXPECT_EQ(&back->design->library(), back->lib.get());
    expect_same_design(*back->design, *bundle.design);
  }
}

TEST(ArtifactSerdeNameTable, FloorplanRoundTripsEveryField) {
  for (const core::AdcSpec& spec : name_table_specs()) {
    SCOPED_TRACE(spec.node_nm);
    core::ExecContext ctx;
    core::Flow flow(ctx);
    const auto fp = flow.floorplan(spec);
    ASSERT_NE(fp, nullptr);
    std::vector<std::uint8_t> bytes;
    const auto back = round_trip(core::floorplan_codec(), *fp, &bytes);
    ASSERT_NE(back, nullptr);
    ASSERT_NE(back->flat, nullptr);
    expect_same_flat(*back->flat, *fp->flat);
    expect_same_floorplan(back->fp, fp->fp);
    EXPECT_EQ(back->floorplan_spec, fp->floorplan_spec);
    EXPECT_NE(back->owner, nullptr);
  }
}

TEST(ArtifactSerdeNameTable, SynthesisRoundTripsEveryField) {
  for (const core::AdcSpec& spec : name_table_specs()) {
    SCOPED_TRACE(spec.node_nm);
    core::ExecContext ctx;
    core::Flow flow(ctx);
    const auto syn = flow.synthesis(spec);
    ASSERT_NE(syn, nullptr);
    ASSERT_FALSE(syn->detailed_routing.nets.empty());
    std::vector<std::uint8_t> bytes;
    const auto back = round_trip(core::synthesis_codec(), *syn, &bytes);
    ASSERT_NE(back, nullptr);
    expect_same_synthesis(*back, *syn);
    EXPECT_NE(back->owner, nullptr);
  }
}

/// A v2 record's name table and body, for an embedded library (`lib`'s
/// cell_library encoding) that starts at byte `at`.
struct RecordLayout {
  std::uint64_t names = 0;  ///< entries in the name table
  std::size_t body = 0;     ///< offset of the body's first byte
};

RecordLayout layout_of(const std::vector<std::uint8_t>& bytes, std::size_t at,
                       const netlist::CellLibrary& lib) {
  core::serde::Writer w;
  core::cell_library_codec().encode(lib, w);
  const std::vector<std::uint8_t>& lib_bytes = w.bytes();
  EXPECT_TRUE(std::equal(lib_bytes.begin(), lib_bytes.end(),
                         bytes.begin() + static_cast<std::ptrdiff_t>(at)))
      << "the embedded library does not lead the record";
  core::serde::Reader r(bytes.data() + at + lib_bytes.size(),
                        bytes.size() - at - lib_bytes.size());
  RecordLayout layout;
  layout.names = r.size();
  for (std::uint64_t i = 0; i < layout.names; ++i) r.str();
  EXPECT_TRUE(r.ok());
  layout.body = bytes.size() - r.remaining();
  return layout;
}

/// Overwrites the u32 (or, with `wide`, the u64) at `at` with `value`:
/// the codec must return null with the reader latched !ok().
template <typename T>
void expect_rejected(const core::ArtifactCodec<T>& codec,
                     std::vector<std::uint8_t> bytes, std::size_t at,
                     std::uint64_t value, bool wide = false) {
  SCOPED_TRACE(util::format("%s: %llu at byte %zu", codec.type_tag,
                            static_cast<unsigned long long>(value), at));
  const int width = wide ? 8 : 4;
  ASSERT_LE(at + width, bytes.size());
  for (int b = 0; b < width; ++b) {
    bytes[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
  core::serde::Reader r(bytes);
  EXPECT_EQ(codec.decode(r), nullptr);
  EXPECT_FALSE(r.ok());
}

/// The cells `flat` uses, distinct, in first-use order: the library a
/// flat-carrying record embeds.
netlist::CellLibrary used_cells(const netlist::FlatNetlist& flat) {
  netlist::CellLibrary used("store");
  for (const netlist::FlatInstance& fi : flat) {
    if (fi.cell != nullptr && !used.contains(fi.cell->name)) {
      used.add(*fi.cell);
    }
  }
  return used;
}

TEST(ArtifactSerdeNameTable, IndexPastItsTableDecodesToNull) {
  core::ExecContext ctx;
  core::Flow flow(ctx);
  const core::AdcSpec spec = small_spec();

  // design_bundle: after its flag byte and the library, the body opens
  // with the top module's name index.
  const core::DesignBundle bundle = flow.netlist(spec);
  ASSERT_NE(bundle.design, nullptr);
  std::vector<std::uint8_t> bytes;
  ASSERT_NE(round_trip(core::design_bundle_codec(), bundle, &bytes), nullptr);
  RecordLayout layout = layout_of(bytes, 1, *bundle.lib);
  ASSERT_GT(layout.names, 0u);
  expect_rejected(core::design_bundle_codec(), bytes, layout.body,
                  layout.names);
  expect_rejected(core::design_bundle_codec(), bytes, layout.body,
                  0xffffffffu);

  // floorplan: the body is the flat count, then the first instance's path
  // index and its cell index (0 = none, else position + 1) into the
  // library of the cells the flat vector uses, in first-use order.
  const auto fp = flow.floorplan(spec);
  ASSERT_NE(fp, nullptr);
  ASSERT_NE(round_trip(core::floorplan_codec(), *fp, &bytes), nullptr);
  const netlist::CellLibrary used = used_cells(*fp->flat);
  layout = layout_of(bytes, 0, used);
  ASSERT_EQ(core::serde::load_le<std::uint64_t>(bytes.data() + layout.body),
            fp->flat->size());
  const std::size_t path_at = layout.body + 8;
  const std::size_t cell_at = path_at + 4;
  ASSERT_GT(core::serde::load_le<std::uint32_t>(bytes.data() + cell_at), 0u);
  expect_rejected(core::floorplan_codec(), bytes, path_at, layout.names);
  expect_rejected(core::floorplan_codec(), bytes, cell_at,
                  used.cells().size() + 1);
  expect_rejected(core::floorplan_codec(), bytes, cell_at, 0xffffffffu);
}

/// In a floorplan record the flat cells (16 bytes each) are followed by
/// the net and pin table sizes, the CSR offsets and the (pin, net) words,
/// which index the record's first names. A record whose words break the
/// netlist's invariants decodes to null.
TEST(ArtifactSerdeNameTable, FlatNetlistWordsOutsideTheirTablesDecodeToNull) {
  core::ExecContext ctx;
  core::Flow flow(ctx);
  const auto fp = flow.floorplan(small_spec());
  ASSERT_NE(fp, nullptr);
  std::vector<std::uint8_t> bytes;
  ASSERT_NE(round_trip(core::floorplan_codec(), *fp, &bytes), nullptr);
  const netlist::FlatNetlist& flat = *fp->flat;
  const RecordLayout layout = layout_of(bytes, 0, used_cells(flat));
  const std::size_t sizes_at = layout.body + 8 + 16 * flat.size();
  const std::size_t offsets_at = sizes_at + 16;
  const std::size_t conn_at = offsets_at + 4 * (flat.size() + 1);
  ASSERT_EQ(core::serde::load_le<std::uint64_t>(bytes.data() + sizes_at),
            flat.nets().size());
  ASSERT_EQ(core::serde::load_le<std::uint64_t>(bytes.data() + sizes_at + 8),
            flat.pin_names().size());
  ASSERT_EQ(core::serde::load_le<std::uint32_t>(bytes.data() + conn_at + 4),
            flat.connections().front().net);

  /// Whether the record decodes with the `width` bytes at `at` set to
  /// `value`.
  auto decodes = [&](std::size_t at, std::uint64_t value, int width) {
    std::vector<std::uint8_t> b = bytes;
    for (int k = 0; k < width; ++k) {
      b[at + k] = static_cast<std::uint8_t>(value >> (8 * k));
    }
    core::serde::Reader r(b);
    return core::floorplan_codec().decode(r) != nullptr;
  };
  EXPECT_TRUE(decodes(conn_at + 4, flat.connections().front().net, 4));
  EXPECT_FALSE(decodes(sizes_at, layout.names + 1, 8));  // nets past names
  EXPECT_FALSE(decodes(sizes_at, flat.nets().size() - 1, 8));
  EXPECT_FALSE(decodes(offsets_at, 1, 4));  // the first offset is not 0
  EXPECT_FALSE(decodes(conn_at, flat.pin_names().size(), 4));  // pin id
  EXPECT_FALSE(decodes(conn_at + 4, flat.nets().size(), 4));    // net id
}

TEST(ArtifactSerdeNameTable, PathLengthPastThePayloadDecodesToNull) {
  core::ExecContext ctx;
  core::Flow flow(ctx);
  const auto syn = flow.synthesis(small_spec());
  ASSERT_NE(syn, nullptr);
  std::vector<std::uint8_t> bytes;
  ASSERT_NE(round_trip(core::synthesis_codec(), *syn, &bytes), nullptr);

  // The first path's length is where the record first differs from that
  // of the same result with one more point on that path.
  synth::SynthesisResult longer = syn->clone();
  std::size_t net = 0;
  while (net < longer.detailed_routing.nets.size() &&
         longer.detailed_routing.nets[net].paths.empty()) {
    ++net;
  }
  ASSERT_LT(net, longer.detailed_routing.nets.size());
  std::vector<synth::GridPoint>& path =
      longer.detailed_routing.nets[net].paths.front();
  ASSERT_FALSE(path.empty());
  path.push_back(path.back());
  core::serde::Writer w;
  core::synthesis_codec().encode(longer, w);
  const std::vector<std::uint8_t>& other = w.bytes();
  const auto diff = std::mismatch(bytes.begin(), bytes.end(), other.begin());
  ASSERT_NE(diff.first, bytes.end());
  const auto at = static_cast<std::size_t>(diff.first - bytes.begin());
  ASSERT_EQ(core::serde::load_le<std::uint64_t>(bytes.data() + at),
            syn->detailed_routing.nets[net].paths.front().size());

  const std::uint64_t room = (bytes.size() - at - 8) / 12;
  for (const std::uint64_t n :
       {room + 1, std::uint64_t{1} << 61, ~std::uint64_t{0}}) {
    expect_rejected(core::synthesis_codec(), bytes, at, n, /*wide=*/true);
  }
}

// --- the cross-process acceptance test ------------------------------------

/// Process A (fresh cache + store over an empty dir) runs a datasheet with
/// Monte-Carlo; process B (fresh cache, fresh store handle, same dir) runs
/// the same request. B must be bit-identical to A with *zero* store
/// misses: every stage artifact came off disk, none were rebuilt cold.
/// Fresh ArtifactCache + ArtifactStore instances are exactly the state a
/// new process starts with; the serve round-trip ctest repeats this with
/// two real processes.
TEST(ArtifactStoreTest, CrossProcessWarmStartIsBitIdenticalWithZeroColdBuilds) {
  TempStoreDir dir("warmstart");

  core::EvalRequest req;
  req.kind = core::EvalKind::kDatasheet;
  req.spec = small_spec();
  req.datasheet.n_samples = 1 << 12;
  req.datasheet.mc_runs = 2;

  // "Process" A: cold, populates the store.
  core::ArtifactCache cache_a(64);
  core::ArtifactStore store_a(dir.str());
  core::ExecContext ctx_a;
  ctx_a.threads = 1;
  ctx_a.cache = &cache_a;
  ctx_a.store = &store_a;
  const core::EvalResponse resp_a = core::evaluate(req, ctx_a);
  ASSERT_TRUE(resp_a.ok);
  ASSERT_GT(store_a.stats().writes, 0u);

  // "Process" B: warm from disk only.
  core::ArtifactCache cache_b(64);
  core::ArtifactStore store_b(dir.str());
  util::Trace trace_b;
  core::ExecContext ctx_b;
  ctx_b.threads = 1;
  ctx_b.cache = &cache_b;
  ctx_b.store = &store_b;
  ctx_b.trace = &trace_b;
  const core::EvalResponse resp_b = core::evaluate(req, ctx_b);
  ASSERT_TRUE(resp_b.ok);

  const core::ArtifactStoreStats sb = store_b.stats();
  EXPECT_EQ(sb.misses, 0u) << "cold stage builds in the warm process";
  EXPECT_GT(sb.hits, 0u);
  // STA and the power-grid check are stages too: B reads them off disk.
  for (const std::string stage : {"timing", "power_grid"}) {
    SCOPED_TRACE(stage);
    int from_store = 0;
    for (const util::TraceEvent& e : trace_b.events()) {
      if (e.name != stage) continue;
      EXPECT_EQ(e.cache_hit, 0);  // a miss in B's fresh cache...
      EXPECT_NE(e.detail.find("src=store"), std::string::npos);  // ...on disk
      ++from_store;
    }
    EXPECT_EQ(from_store, 1);
  }
  EXPECT_EQ(resp_b.datasheet.timing.critical_delay_s,
            resp_a.datasheet.timing.critical_delay_s);
  EXPECT_EQ(resp_b.datasheet.timing.slack_s, resp_a.datasheet.timing.slack_s);
  EXPECT_EQ(resp_b.datasheet.power_grid.max_ir_drop_v,
            resp_a.datasheet.power_grid.max_ir_drop_v);
  EXPECT_EQ(resp_b.datasheet.power_grid.cells_checked,
            resp_a.datasheet.power_grid.cells_checked);

  // Bit-identical, not approximately equal: the store hands back the very
  // artifact bytes process A computed.
  EXPECT_EQ(resp_b.datasheet.nominal.sndr.sndr_db,
            resp_a.datasheet.nominal.sndr.sndr_db);
  EXPECT_EQ(resp_b.datasheet.nominal.power.total_w(),
            resp_a.datasheet.nominal.power.total_w());
  EXPECT_EQ(resp_b.datasheet.area_mm2, resp_a.datasheet.area_mm2);
  EXPECT_EQ(resp_b.datasheet.mc.sndr_db, resp_a.datasheet.mc.sndr_db);
  EXPECT_EQ(resp_b.datasheet.render(), resp_a.datasheet.render());

  // Same equality through the wire format the serve protocol reports.
  const std::string fp_a =
      core::eval_result_fingerprint(core::eval_result_to_json(resp_a));
  const std::string fp_b =
      core::eval_result_fingerprint(core::eval_result_to_json(resp_b));
  EXPECT_EQ(fp_a, fp_b);
}

/// A store written before run_result v2 holds its runs as type_version 1
/// records. A new process reads each as a version-skew miss, rebuilds it
/// to the same result fingerprint and writes it back as v2, so the process
/// after that builds nothing.
TEST(ArtifactStoreTest, RunResultV1RecordIsVersionSkewMissRebuiltBitIdentical) {
  TempStoreDir dir("run_v1");
  core::EvalRequest req;
  req.kind = core::EvalKind::kDatasheet;
  req.spec = small_spec();
  req.datasheet.n_samples = 1 << 12;
  req.datasheet.mc_runs = 2;
  // One request in a "process" of its own: fresh cache and store handle.
  auto run_process = [&](core::ArtifactStoreStats* stats) {
    core::ArtifactCache cache(64);
    core::ArtifactStore store(dir.str());
    core::ExecContext ctx;
    ctx.threads = 1;
    ctx.cache = &cache;
    ctx.store = &store;
    const core::EvalResponse resp = core::evaluate(req, ctx);
    EXPECT_TRUE(resp.ok);
    *stats = store.stats();
    return core::eval_result_fingerprint(core::eval_result_to_json(resp));
  };
  core::ArtifactStoreStats cold;
  const std::string fp = run_process(&cold);
  ASSERT_GT(cold.writes, 0u);

  // Re-frame every run_result record as type_version 1. The store checks
  // the type version before any decode, so the payload layout is moot.
  std::vector<fs::path> records;
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    if (entry.path().extension() == ".art") records.push_back(entry.path());
  }
  core::ArtifactStore store(dir.str());
  std::uint64_t runs = 0;
  for (const fs::path& path : records) {
    const std::string hex = path.stem().string();  // hi then lo, 16 each
    const core::CacheKey key{std::stoull(hex.substr(16), nullptr, 16),
                             std::stoull(hex.substr(0, 16), nullptr, 16)};
    ASSERT_EQ(store.path_for(key), path.string());
    std::vector<std::uint8_t> payload;
    if (!store.load(key, "run_result", 2, &payload)) continue;
    ASSERT_TRUE(store.save(key, "run_result", 1, payload));
    ++runs;
  }
  ASSERT_GT(runs, 0u);

  core::ArtifactStoreStats skewed;
  EXPECT_EQ(run_process(&skewed), fp);
  EXPECT_EQ(skewed.version_skew, runs);
  EXPECT_EQ(skewed.misses, runs);
  EXPECT_EQ(skewed.writes, runs);
  core::ArtifactStoreStats warm;
  EXPECT_EQ(run_process(&warm), fp);
  EXPECT_EQ(warm.misses, 0u);
  EXPECT_EQ(warm.writes, 0u);
}

/// Re-frames the records of each codec in `tags` at `old_version` after a
/// cold datasheet: a new process must read each as a version-skew miss (a
/// route miss rebuilds from the floorplan, which may rebuild from the
/// netlist), rebuild it to the same result fingerprint and write it back at
/// the codec's current version, so the process after that builds nothing.
void expect_old_records_rebuilt(const char* dir_name,
                                const std::vector<std::string>& tags,
                                std::uint32_t old_version) {
  const std::map<std::string, std::uint32_t> current = {
      {"design_bundle", core::design_bundle_codec().type_version},
      {"floorplan", core::floorplan_codec().type_version},
      {"synthesis", core::synthesis_codec().type_version}};
  TempStoreDir dir(dir_name);
  core::EvalRequest req;
  req.kind = core::EvalKind::kDatasheet;
  req.spec = small_spec();
  req.datasheet.n_samples = 1 << 12;
  req.datasheet.mc_runs = 2;
  auto run_process = [&](core::ArtifactStoreStats* stats) {
    core::ArtifactCache cache(64);
    core::ArtifactStore store(dir.str());
    core::ExecContext ctx;
    ctx.threads = 1;
    ctx.cache = &cache;
    ctx.store = &store;
    const core::EvalResponse resp = core::evaluate(req, ctx);
    EXPECT_TRUE(resp.ok);
    *stats = store.stats();
    return core::eval_result_fingerprint(core::eval_result_to_json(resp));
  };
  core::ArtifactStoreStats cold;
  const std::string fp = run_process(&cold);
  ASSERT_GT(cold.writes, 0u);

  struct Reframed {
    core::CacheKey key;
    std::string tag;
  };
  std::vector<Reframed> reframed;
  core::ArtifactStore store(dir.str());
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    if (entry.path().extension() != ".art") continue;
    const std::string hex = entry.path().stem().string();
    const core::CacheKey key{std::stoull(hex.substr(16), nullptr, 16),
                             std::stoull(hex.substr(0, 16), nullptr, 16)};
    for (const std::string& tag : tags) {
      ASSERT_LT(old_version, current.at(tag)) << tag;
      std::vector<std::uint8_t> payload;
      if (!store.load(key, tag, current.at(tag), &payload)) continue;
      ASSERT_TRUE(store.save(key, tag, old_version, payload));
      reframed.push_back({key, tag});
    }
  }
  for (const std::string& tag : tags) {
    EXPECT_TRUE(std::any_of(reframed.begin(), reframed.end(),
                            [&](const Reframed& r) { return r.tag == tag; }))
        << "no " << tag << " record to re-frame";
  }

  core::ArtifactStoreStats skewed;
  EXPECT_EQ(run_process(&skewed), fp);
  EXPECT_EQ(skewed.version_skew, reframed.size());
  EXPECT_EQ(skewed.misses, reframed.size());
  EXPECT_EQ(skewed.writes, reframed.size());
  for (const Reframed& r : reframed) {
    std::vector<std::uint8_t> payload;
    EXPECT_TRUE(store.load(r.key, r.tag, current.at(r.tag), &payload))
        << r.tag << " was not rewritten at its current version";
  }
  core::ArtifactStoreStats warm;
  EXPECT_EQ(run_process(&warm), fp);
  EXPECT_EQ(warm.misses, 0u);
  EXPECT_EQ(warm.writes, 0u);
}

/// A store written before the name-table codecs holds its netlist,
/// floorplan and route records as type_version 1.
TEST(ArtifactStoreTest, NameTableV1RecordsAreVersionSkewMissesRebuiltBitIdentical) {
  expect_old_records_rebuilt("names_v1",
                             {"design_bundle", "floorplan", "synthesis"}, 1);
}

/// A store written before the flat netlist's tables led the record's name
/// table holds its floorplan and route records as type_version 2.
TEST(ArtifactStoreTest, FlatNetlistV2RecordsAreVersionSkewMissesRebuiltBitIdentical) {
  expect_old_records_rebuilt("flat_v2", {"floorplan", "synthesis"}, 2);
}

/// A corrupted record in the store must not poison a warm run: the stage
/// rebuilds from scratch, the result is still correct, and the store
/// reports the record as a corrupt miss with a warning diagnostic.
TEST(ArtifactStoreTest, WarmStartSurvivesCorruptedRecord) {
  TempStoreDir dir("warmcorrupt");

  core::AdcSpec spec = small_spec();
  core::SimulationOptions sim;
  sim.n_samples = 1 << 12;

  core::ArtifactCache cache_a(64);
  core::ArtifactStore store_a(dir.str());
  core::ExecContext ctx_a;
  ctx_a.threads = 1;
  ctx_a.cache = &cache_a;
  ctx_a.store = &store_a;
  core::Flow flow_a(ctx_a);
  const auto run_a = flow_a.sim_run(spec, sim);
  ASSERT_NE(run_a, nullptr);

  // Corrupt every record on disk (flip a byte well inside each payload).
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    if (!entry.is_regular_file()) continue;
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    char b = 0;
    f.seekg(70);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0xff);
    f.seekp(70);
    f.write(&b, 1);
  }

  core::ArtifactCache cache_b(64);
  core::ArtifactStore store_b(dir.str());
  util::DiagSink diags_b;
  core::ExecContext ctx_b;
  ctx_b.threads = 1;
  ctx_b.cache = &cache_b;
  ctx_b.store = &store_b;
  ctx_b.diag = &diags_b;
  core::Flow flow_b(ctx_b);
  const auto run_b = flow_b.sim_run(spec, sim);
  ASSERT_NE(run_b, nullptr);
  EXPECT_EQ(run_b->sndr.sndr_db, run_a->sndr.sndr_db);  // rebuilt correctly
  EXPECT_GT(store_b.stats().corrupt, 0u);
  EXPECT_FALSE(diags_b.has_errors());  // warnings only: the flow degraded soft
  EXPECT_GT(diags_b.size(), 0u);
}

}  // namespace
