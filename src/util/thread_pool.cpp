#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <system_error>

namespace vcoadc::util {

ThreadPool::ThreadPool(std::size_t num_workers) {
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::hardware_workers() {
  // Read once: glibc answers hardware_concurrency() from /sys, and every
  // fan-out asks.
  static const std::size_t workers =
      std::max(1u, std::thread::hardware_concurrency());
  return workers;
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping: a queued task owns a promise
      // someone may still be waiting on.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

namespace detail {

namespace {

/// One parallel_for_each call, on its caller's stack: the index counter,
/// the type-erased body, the first failure by index, and how many helpers
/// are working on it. The caller returns only once that count is zero.
struct FanOut {
  std::size_t n = 0;
  void (*call)(void*, std::size_t) = nullptr;
  void* body = nullptr;
  std::atomic<std::size_t> next{0};

  std::mutex error_mutex;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  // Guarded by Helpers::mutex_.
  std::size_t joined = 0;
  std::condition_variable left;  ///< signalled when `joined` drops to 0

  /// Claims and runs indices until none is left.
  void run_indices() {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        call(body, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  }
};

/// The process-wide helper threads. Each helper sleeps on its own condition
/// variable until a caller hands it a FanOut; idle helpers form a stack,
/// so the most recently used one (warm thread-local scratch) goes first.
class Helpers {
 public:
  static Helpers& instance() {
    static Helpers helpers;
    return helpers;
  }

  Helpers(const Helpers&) = delete;
  Helpers& operator=(const Helpers&) = delete;

  ~Helpers() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    for (auto& h : helpers_) h->wake.notify_one();
    for (auto& h : helpers_) h->thread.join();
  }

  /// Runs `f` on the calling thread with up to `wanted` idle helpers.
  void run(FanOut& f, std::size_t wanted) {
    wanted = std::min(wanted, ThreadPool::hardware_workers() - 1);
    std::vector<Helper*> picked;
    picked.reserve(wanted);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      grow(wanted);
      while (picked.size() < wanted && !idle_.empty()) {
        Helper* h = idle_.back();
        idle_.pop_back();
        h->job = &f;
        picked.push_back(h);
      }
    }
    for (Helper* h : picked) h->wake.notify_one();
    f.run_indices();
    std::unique_lock<std::mutex> lock(mutex_);
    // A helper that has not picked its hand-off up yet would only find
    // every index taken: take the hand-off back instead of waiting for it
    // to wake.
    for (Helper* h : picked) {
      if (h->job == &f) {
        h->job = nullptr;
        idle_.push_back(h);
      }
    }
    f.left.wait(lock, [&f] { return f.joined == 0; });
  }

 private:
  struct Helper {
    std::condition_variable wake;
    FanOut* job = nullptr;  // guarded by mutex_
    std::thread thread;
  };

  Helpers() = default;

  /// Starts helpers until there are `count`. Called with mutex_ held. A
  /// helper the system refuses to start is simply not there: the callers
  /// work through every index themselves.
  void grow(std::size_t count) {
    helpers_.reserve(count);  // the push_backs below must not throw
    idle_.reserve(count);
    while (helpers_.size() < count) {
      auto h = std::make_unique<Helper>();
      try {
        h->thread = std::thread([this, p = h.get()] { loop(*p); });
      } catch (const std::system_error&) {
        return;
      }
      idle_.push_back(h.get());
      helpers_.push_back(std::move(h));
    }
  }

  void loop(Helper& h) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      h.wake.wait(lock, [&] { return stop_ || h.job != nullptr; });
      if (h.job == nullptr) return;  // stopping
      FanOut& f = *h.job;
      h.job = nullptr;
      ++f.joined;
      lock.unlock();
      f.run_indices();
      lock.lock();
      // Still under the lock: the caller cannot return (and destroy f)
      // before this notify is done.
      if (--f.joined == 0) f.left.notify_one();
      idle_.push_back(&h);
    }
  }

  std::mutex mutex_;
  std::vector<Helper*> idle_;  // guarded by mutex_
  bool stop_ = false;          // guarded by mutex_
  std::vector<std::unique_ptr<Helper>> helpers_;  // guarded by mutex_
};

}  // namespace

void fan_out(std::size_t threads, std::size_t n,
             void (*call)(void* body, std::size_t i), void* body) {
  FanOut f;
  f.n = n;
  f.call = call;
  f.body = body;
  const std::size_t workers = std::min(threads, n);
  if (workers > 1) {
    Helpers::instance().run(f, workers - 1);
  } else {
    f.run_indices();
  }
  if (f.error) std::rethrow_exception(f.error);
}

}  // namespace detail

}  // namespace vcoadc::util
