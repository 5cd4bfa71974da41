// Concurrency tests for the artifact cache and trace sink, kept
// self-contained (artifact_cache.cpp + trace.cpp + thread_pool.cpp only)
// so they can be recompiled under ThreadSanitizer and UBSan as the
// tsan.* / ubsan.* tier-1 variants without dragging the simulator in.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_cache.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace {

using vcoadc::core::ArtifactCache;
using vcoadc::core::CacheKey;
using vcoadc::core::KeyHasher;

CacheKey key_of(std::uint64_t n) {
  KeyHasher h;
  h.tag("test");
  h.u64(n);
  return h.digest();
}

TEST(KeyHasherParallel, DigestIsPureFunctionOfInput) {
  // Hammer the hasher from many threads: the digest depends only on the
  // fed bytes, so every thread must compute the same keys.
  const CacheKey expect0 = key_of(0);
  const CacheKey expect7 = key_of(7);
  std::atomic<int> mismatches{0};
  vcoadc::util::parallel_for_each(8, 64, [&](std::size_t i) {
    if (key_of(0) != expect0) ++mismatches;
    if (key_of(7) != expect7) ++mismatches;
    if (key_of(i) == key_of(i + 1)) ++mismatches;  // no trivial collisions
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(KeyHasherParallel, FieldOrderAndTagsMatter) {
  KeyHasher a;
  a.tag("x");
  a.u64(1);
  a.tag("y");
  a.u64(2);
  KeyHasher b;
  b.tag("y");
  b.u64(2);
  b.tag("x");
  b.u64(1);
  EXPECT_NE(a.digest(), b.digest());

  // -0.0 normalizes to +0.0 (one value, one key).
  KeyHasher n, p;
  n.f64(-0.0);
  p.f64(0.0);
  EXPECT_EQ(n.digest(), p.digest());
}

TEST(ArtifactCacheParallel, SingleFlightBuildsOnce) {
  ArtifactCache cache(16);
  std::atomic<int> builds{0};
  const CacheKey key = key_of(42);

  std::vector<std::shared_ptr<const int>> got(64);
  vcoadc::util::parallel_for_each(8, 64, [&](std::size_t i) {
    got[i] = cache.get_or_build<int>(key, [&builds]() {
      ++builds;
      // Widen the race window so concurrent callers really do pile onto
      // the in-flight future rather than serializing by luck.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return std::make_shared<const int>(1234);
    });
  });

  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 63u);
  for (const auto& p : got) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 1234);
    EXPECT_EQ(p.get(), got.front().get());  // shared, not rebuilt
  }
}

TEST(ArtifactCacheParallel, DistinctKeysBuildIndependently) {
  ArtifactCache cache(256);
  std::atomic<int> builds{0};
  vcoadc::util::parallel_for_each(8, 128, [&](std::size_t i) {
    const auto v = cache.get_or_build<std::uint64_t>(
        key_of(i % 32), [&builds, i]() {
          ++builds;
          return std::make_shared<const std::uint64_t>(i % 32);
        });
    EXPECT_EQ(*v, i % 32);  // never someone else's artifact
  });
  // 32 distinct keys; single-flight means each built at least once and the
  // hit/miss totals add up.
  EXPECT_GE(builds.load(), 32);
  EXPECT_EQ(builds.load(), static_cast<int>(cache.stats().misses));
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 128u);
  EXPECT_EQ(cache.stats().entries, 32u);
}

TEST(ArtifactCacheParallel, LruStaysBoundedUnderChurn) {
  ArtifactCache cache(8);
  vcoadc::util::parallel_for_each(8, 512, [&](std::size_t i) {
    cache.get_or_build<std::size_t>(key_of(i), [i]() {
      return std::make_shared<const std::size_t>(i);
    });
  });
  const auto st = cache.stats();
  EXPECT_LE(st.entries, 8u);
  EXPECT_EQ(st.misses, 512u);
  EXPECT_EQ(st.evictions, 512u - st.entries);
  EXPECT_EQ(cache.max_entries(), 8u);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ArtifactCacheParallel, FailedBuildDoesNotPoisonTheKey) {
  ArtifactCache cache(16);
  const CacheKey key = key_of(9);
  EXPECT_THROW(cache.get_or_build<int>(key, []() -> std::shared_ptr<const int> {
    throw std::runtime_error("transient");
  }), std::runtime_error);
  // The key is buildable again after the failure.
  const auto v = cache.get_or_build<int>(
      key, []() { return std::make_shared<const int>(7); });
  EXPECT_EQ(*v, 7);
}

TEST(ArtifactCacheParallel, ApproxBytesFeedStats) {
  ArtifactCache cache(16);
  cache.get_or_build<std::string>(
      key_of(1), []() { return std::make_shared<const std::string>("hello"); },
      [](const std::string& s) { return s.size(); });
  EXPECT_EQ(cache.stats().bytes, 5u);
}

TEST(TraceParallel, ConcurrentSpansStayWellFormed) {
  vcoadc::util::Trace trace;
  vcoadc::util::parallel_for_each(8, 64, [&](std::size_t i) {
    vcoadc::util::TraceSpan outer(&trace, "outer");
    vcoadc::util::TraceSpan inner(&trace, "inner");
    inner.cache(i % 2 == 0, 10);
  });
  const auto evs = trace.events();
  ASSERT_EQ(evs.size(), 128u);
  int outers = 0, inners = 0;
  for (const auto& e : evs) {
    if (e.name == "outer") {
      ++outers;
      // Roots: no span is open on the calling thread, and an outer span
      // never nests under another thread's span.
      EXPECT_EQ(e.parent, -1);
    }
    if (e.name == "inner") {
      ++inners;
      // Nesting is per-thread: the parent is this thread's own outer span.
      ASSERT_GE(e.parent, 0);
      EXPECT_EQ(evs[static_cast<std::size_t>(e.parent)].name, "outer");
    }
  }
  EXPECT_EQ(outers, 64);
  EXPECT_EQ(inners, 64);

  // Both renderings stay parseable under the collapsed counts.
  const std::string tree = trace.render_tree();
  EXPECT_NE(tree.find("outer x64"), std::string::npos);
  const std::string jsonl = trace.render_jsonl();
  EXPECT_NE(jsonl.find("\"name\":\"inner\""), std::string::npos);
}

TEST(TraceParallel, CallerRunTasksNestUnderTheCallersSpan) {
  // A fan-out's tasks run on the calling thread and on helpers: the spans
  // of the caller's tasks nest under its open span, a helper's are roots.
  vcoadc::util::Trace trace;
  const auto caller = std::this_thread::get_id();
  std::vector<char> on_caller(16);  // not vector<bool>: a byte per task
  std::vector<int> tokens(16);
  int request = -1;
  {
    vcoadc::util::TraceSpan span(&trace, "request");
    request = static_cast<int>(trace.events().size()) - 1;
    vcoadc::util::parallel_for_each(2, 16, [&](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      on_caller[i] = std::this_thread::get_id() == caller;
      tokens[i] = trace.begin("task");
      trace.end(tokens[i]);
    });
  }
  const auto evs = trace.events();
  ASSERT_EQ(evs[static_cast<std::size_t>(request)].name, "request");
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(evs[static_cast<std::size_t>(tokens[i])].parent,
              on_caller[i] ? request : -1)
        << "task " << i;
  }
}

TEST(TraceParallel, NullTraceIsANoOp) {
  // The flow traces unconditionally; a null sink must cost nothing and
  // crash nowhere, including from worker threads.
  vcoadc::util::parallel_for_each(4, 32, [&](std::size_t) {
    vcoadc::util::TraceSpan span(nullptr, "ghost");
    span.note("ignored");
    span.cache(true, 1);
  });
  SUCCEED();
}

}  // namespace
