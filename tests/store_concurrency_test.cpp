// ArtifactStore under concurrent writers and readers: the write-then-
// rename durability claim ("a record is either fully present or absent,
// never torn") is exactly what a race detector plus content checks can
// falsify. Self-contained over artifact_store + artifact_cache (CacheKey)
// and util/diag so it compiles standalone into the tsan./asan. ctest
// variants.
#include "core/artifact_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "util/diag.h"

namespace fs = std::filesystem;
using namespace vcoadc;

namespace {

/// A store directory of this process's own: the plain and sanitizer
/// variants of a test run concurrently under `ctest -j`.
struct TempStoreDir {
  fs::path path;
  explicit TempStoreDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("vcoadc_store_conc_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~TempStoreDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// A payload whose every byte identifies its writer, so a torn mix of two
/// writers cannot masquerade as either.
std::vector<std::uint8_t> writer_payload(std::uint8_t writer,
                                         std::size_t n = 8192) {
  return std::vector<std::uint8_t>(n, writer);
}

bool is_uniform(const std::vector<std::uint8_t>& p, std::uint8_t* writer) {
  if (p.empty()) return false;
  for (std::uint8_t b : p) {
    if (b != p[0]) return false;
  }
  *writer = p[0];
  return true;
}

TEST(StoreConcurrencyTest, SameKeyWritersNeverTearTheRecord) {
  TempStoreDir dir("samekey");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.ok());
  const core::CacheKey key{0xaaaaull, 0xbbbbull};

  constexpr int kWriters = 8;
  constexpr int kRounds = 16;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    threads.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&store, &key, w] {
        store.save(key, "conc", 1,
                   writer_payload(static_cast<std::uint8_t>(w + 1)));
      });
    }
    for (auto& t : threads) t.join();

    // Whoever won the final rename, the record must be whole: one
    // writer's payload end to end, never an interleaving.
    std::vector<std::uint8_t> loaded;
    util::DiagSink diags;
    ASSERT_TRUE(store.load(key, "conc", 1, &loaded, &diags))
        << diags.render();
    std::uint8_t writer = 0;
    ASSERT_TRUE(is_uniform(loaded, &writer));
    EXPECT_GE(writer, 1);
    EXPECT_LE(writer, kWriters);
    EXPECT_EQ(loaded.size(), 8192u);
  }
}

TEST(StoreConcurrencyTest, DistinctKeysWriteAndReadBackIndependently) {
  TempStoreDir dir("distinct");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.ok());

  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 24;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        const core::CacheKey key{static_cast<std::uint64_t>(t),
                                 static_cast<std::uint64_t>(i)};
        const auto payload =
            writer_payload(static_cast<std::uint8_t>(t * 32 + i), 512);
        ASSERT_TRUE(store.save(key, "conc", 1, payload));
        std::vector<std::uint8_t> loaded;
        ASSERT_TRUE(store.load(key, "conc", 1, &loaded));
        ASSERT_EQ(loaded, payload);
      }
    });
  }
  for (auto& t : threads) t.join();

  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.writes, static_cast<std::uint64_t>(kThreads * kKeysPerThread));
  EXPECT_EQ(st.hits, static_cast<std::uint64_t>(kThreads * kKeysPerThread));
  EXPECT_EQ(st.write_failures, 0u);
}

TEST(StoreConcurrencyTest, ReadersDuringRewritesSeeOnlyWholeRecords) {
  TempStoreDir dir("rw");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.ok());
  const core::CacheKey key{0x1111ull, 0x2222ull};
  ASSERT_TRUE(store.save(key, "conc", 1, writer_payload(1)));

  std::atomic<bool> stop{false};
  std::atomic<int> good_loads{0};
  std::thread writer([&] {
    std::uint8_t w = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      w = static_cast<std::uint8_t>(w % 7 + 1);
      store.save(key, "conc", 1, writer_payload(w));
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        std::vector<std::uint8_t> loaded;
        // Absent is legal mid-rename on some filesystems; torn is not.
        if (store.load(key, "conc", 1, &loaded)) {
          std::uint8_t writer_id = 0;
          ASSERT_TRUE(is_uniform(loaded, &writer_id));
          ASSERT_GE(writer_id, 1);
          ASSERT_LE(writer_id, 7);
          good_loads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
  EXPECT_GT(good_loads.load(), 0);
}

TEST(StoreConcurrencyTest, StatsStayCoherentUnderContention) {
  TempStoreDir dir("stats");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.ok());

  constexpr int kThreads = 6;
  constexpr int kOps = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kOps; ++i) {
        const core::CacheKey key{static_cast<std::uint64_t>(i % 5),
                                 static_cast<std::uint64_t>(t)};
        std::vector<std::uint8_t> loaded;
        store.load(key, "conc", 1, &loaded);  // may hit or miss
        store.save(key, "conc", 1, writer_payload(2, 64));
        (void)store.stats();  // concurrent snapshot must not race
      }
    });
  }
  for (auto& t : threads) t.join();

  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.writes, static_cast<std::uint64_t>(kThreads * kOps));
  EXPECT_EQ(st.hits + st.misses, static_cast<std::uint64_t>(kThreads * kOps));
  EXPECT_EQ(st.misses, st.absent + st.corrupt + st.version_skew);
}

/// Record bytes currently resident under `root` (final .art files only).
std::uint64_t resident_record_bytes(const fs::path& root) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec) && it->path().extension() == ".art") {
      total += static_cast<std::uint64_t>(it->file_size(ec));
    }
  }
  return total;
}

// GC racing live writers and readers: eviction must never surface as a
// torn record — a concurrent reader sees either a whole record or a clean
// absent-miss (POSIX unlink keeps an opened record readable; an unopened
// one simply vanishes) — and once the writers stop, one more pass must
// leave the directory at or under the bound.
TEST(StoreConcurrencyTest, GcUnderConcurrentLoadNeverTearsAndBoundsTheDir) {
  TempStoreDir dir("gc_load");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.ok());

  constexpr std::uint64_t kMaxBytes = 64 * 1024;
  constexpr int kWriters = 3;
  constexpr int kKeysPerWriter = 40;
  constexpr std::size_t kPayload = 4096;

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Writers churn distinct keys, repeatedly pushing the store over the
  // bound while GC runs.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kKeysPerWriter; ++i) {
        const core::CacheKey key{static_cast<std::uint64_t>(w),
                                 static_cast<std::uint64_t>(i)};
        store.save(key, "conc", 1,
                   writer_payload(static_cast<std::uint8_t>(w * 64 + i % 61),
                                  kPayload));
      }
    });
  }
  // Readers: every successful load is a whole, single-writer record.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const core::CacheKey key{i % kWriters,
                                 (i / kWriters) % kKeysPerWriter};
        std::vector<std::uint8_t> loaded;
        if (store.load(key, "conc", 1, &loaded)) {
          std::uint8_t writer_id = 0;
          ASSERT_TRUE(is_uniform(loaded, &writer_id));
          ASSERT_EQ(loaded.size(), kPayload);
        }
        ++i;
      }
    });
  }
  // The GC thread hammers the bound the whole time.
  std::thread gc([&store, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      store.gc(kMaxBytes);
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  gc.join();

  // Quiescent pass: with no writers racing, the bound must hold exactly.
  const auto gr = store.gc(kMaxBytes);
  EXPECT_LE(gr.bytes_after, kMaxBytes);
  EXPECT_LE(resident_record_bytes(dir.path), kMaxBytes);

  // No torn records anywhere: every survivor still loads whole, and the
  // miss taxonomy shows zero corruption — eviction degrades to clean
  // absent-misses only.
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      const core::CacheKey key{static_cast<std::uint64_t>(w),
                               static_cast<std::uint64_t>(i)};
      std::vector<std::uint8_t> loaded;
      util::DiagSink diags;
      if (store.load(key, "conc", 1, &loaded, &diags)) {
        std::uint8_t writer_id = 0;
        ASSERT_TRUE(is_uniform(loaded, &writer_id));
      }
      EXPECT_EQ(diags.size(), 0u) << diags.render();
    }
  }
  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.corrupt, 0u);
  EXPECT_EQ(st.version_skew, 0u);
  EXPECT_EQ(st.misses, st.absent + st.corrupt + st.version_skew);
  // (write_failures is NOT asserted zero: gc's shard compaction may
  // legitimately race one save's fresh empty shard dir — the save
  // reports the failure and the record is simply absent, never torn.)
}

}  // namespace
