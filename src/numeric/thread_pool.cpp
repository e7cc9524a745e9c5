#include "realm/numeric/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "realm/obs/counters.hpp"
#include "realm/obs/histogram.hpp"
#include "realm/obs/trace.hpp"

namespace realm::num {

namespace {

// REALM_OBS_TEST_SLOWDOWN=<us>: sleeps that long after every task, inline or
// pooled.  CI's bench-history regression gate sets it to fake a hot-path
// regression and asserts realm_benchdiff catches it; unset (the only state
// outside that job) costs one cached-load branch per task.
std::uint64_t test_slowdown_us() noexcept {
  static const std::uint64_t v = [] {
    const char* s = std::getenv("REALM_OBS_TEST_SLOWDOWN");
    if (s == nullptr || *s == '\0') return std::uint64_t{0};
    char* end = nullptr;
    const unsigned long long n = std::strtoull(s, &end, 10);
    return end != nullptr && *end == '\0' ? std::uint64_t{n} : std::uint64_t{0};
  }();
  return v;
}

inline void maybe_inject_test_slowdown() {
  if (const std::uint64_t us = test_slowdown_us(); us != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds{us});
  }
}

// One parallel region: lives on its run() caller's stack.  Tasks are claimed
// from the atomic cursor, so load balancing is dynamic and no per-task queue
// allocation is needed; everything else is guarded by Impl::m.
struct Region {
  std::size_t count = 0;
  const std::function<void(std::size_t)>* task = nullptr;
  std::atomic<std::size_t> cursor{0};
  unsigned max_helpers = 0;     // min(parallelism - 1, workers)
  unsigned helpers = 0;         // workers draining it right now
  bool helped = false;          // any worker ever joined
  std::uint64_t start_ns = 0;   // publish time, for queue-wait telemetry
  std::uint64_t trace_rid = 0;  // caller's request id, adopted by helpers
  std::exception_ptr first_error;

  [[nodiscard]] bool wants_helper() const noexcept {
    return helpers < max_helpers &&
           cursor.load(std::memory_order_relaxed) < count;
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::mutex m;
  std::condition_variable work_ready;   // a region opened, or stop
  std::condition_variable helper_left;  // some region's helper count fell
  std::vector<std::thread> threads;
  std::vector<Region*> open;  // regions still accepting helpers
  unsigned active = 0;        // workers draining any region
  bool stop = false;

  // The open region that wants a helper and has the fewest; null if none.
  // Called with m held.
  [[nodiscard]] Region* pick() const noexcept {
    Region* best = nullptr;
    for (Region* r : open) {
      if (r->wants_helper() && (best == nullptr || r->helpers < best->helpers)) best = r;
    }
    return best;
  }

  void worker_loop() {
    std::unique_lock lock{m};
    for (;;) {
      Region* r = nullptr;
      work_ready.wait(lock, [&] { return stop || (r = pick()) != nullptr; });
      if (stop) return;
      ++r->helpers;
      r->helped = true;
      ++active;
      obs::gauge_set(obs::Gauge::kPoolActiveWorkers, active);
      // Dispatch latency: time from the caller publishing the region to this
      // worker starting on it.  The histogram carries the distribution
      // (p50/p95/p99 of worker wake-up); the summed counter stays as its
      // backward-compatible total.
      const std::uint64_t wait_ns = obs::now_ns() - r->start_ns;
      obs::counter_add(obs::Counter::kPoolQueueWaitNs, wait_ns);
      obs::value_hist_record(obs::ValueHist::kPoolQueueWaitNs, wait_ns);
      const std::uint64_t rid = r->trace_rid;
      lock.unlock();
      {
        // Helpers adopt the publishing caller's trace context so pool/task
        // spans inside a served request carry its request id.
        obs::ScopedTraceContext ctx{rid};
        drain(*r);
      }
      lock.lock();
      --active;
      obs::gauge_set(obs::Gauge::kPoolActiveWorkers, active);
      if (--r->helpers == 0) helper_left.notify_all();
    }
  }

  // Claims and runs tasks until the region is exhausted.  Called without
  // holding m.
  void drain(Region& r) {
    const std::size_t n = r.count;
    const auto& fn = *r.task;
    std::uint64_t executed = 0;
    for (;;) {
      const std::size_t i = r.cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      // Occupancy gauge for the sampler: tasks are block-granularity, so one
      // relaxed store per claim is noise next to the work itself.
      obs::gauge_set(obs::Gauge::kPoolQueueDepth,
                     n - i > 1 ? static_cast<std::uint64_t>(n - i - 1) : 0);
      ++executed;
      REALM_TRACE_SCOPE("pool/task");
      maybe_inject_test_slowdown();
      try {
        fn(i);
      } catch (...) {
        obs::counter_add(obs::Counter::kPoolTasksFailed, 1);
        std::lock_guard lock{m};
        // Only the region's first exception propagates to its caller; any
        // further one is swallowed here.  That silent-loss path has hidden
        // bugs inside instrumented regions before, so debug builds make it
        // loud.
        assert(r.first_error == nullptr &&
               "ThreadPool task threw while another failure was already "
               "pending; this exception would be silently swallowed");
        if (!r.first_error) r.first_error = std::current_exception();
      }
    }
    if (executed != 0) {
      obs::counter_add(obs::Counter::kPoolTasksExecuted, executed);
    }
  }
};

ThreadPool::ThreadPool(unsigned workers) : impl_{new Impl} {
  impl_->threads.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    impl_->threads.emplace_back([this] { impl_->worker_loop(); });
  }
  obs::gauge_set(obs::Gauge::kPoolWorkers, workers);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock{impl_->m};
    impl_->stop = true;
  }
  impl_->work_ready.notify_all();
  for (auto& t : impl_->threads) t.join();
  delete impl_;
}

unsigned ThreadPool::workers() const noexcept {
  return static_cast<unsigned>(impl_->threads.size());
}

void ThreadPool::run(std::size_t count, unsigned parallelism,
                     const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  if (parallelism == 0) parallelism = workers() + 1;

  // Nothing to parallelize: run inline without publishing a region.
  if (parallelism <= 1 || count <= 1 || workers() == 0) {
    for (std::size_t i = 0; i < count; ++i) {
      REALM_TRACE_SCOPE("pool/task");
      maybe_inject_test_slowdown();
      task(i);
    }
    obs::counter_add(obs::Counter::kPoolTasksExecuted, count);
    return;
  }

  obs::counter_add(obs::Counter::kPoolRegions, 1);
  Region r;
  r.count = count;
  r.task = &task;
  r.max_helpers = std::min(parallelism - 1, workers());
  r.trace_rid = obs::current_trace_rid();
  {
    std::lock_guard lock{impl_->m};
    r.start_ns = obs::now_ns();
    impl_->open.push_back(&r);
  }
  impl_->work_ready.notify_all();

  impl_->drain(r);  // the caller is a full participant

  // Every task is claimed now.  Close the region to new helpers and wait only
  // for the ones still finishing a claimed task, so a run() nested inside a
  // task never waits on work nobody has picked up.
  std::unique_lock lock{impl_->m};
  std::erase(impl_->open, &r);
  impl_->helper_left.wait(lock, [&] { return r.helpers == 0; });
  if (!r.helped) {
    // Starvation: a region that asked for parallelism ran entirely on its
    // caller, because every worker was busy in other regions (or none woke
    // before the caller had claimed every task).
    obs::counter_add(obs::Counter::kPoolTasksInline, count);
  }
  if (r.first_error) std::rethrow_exception(r.first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool{[] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 0;
  }()};
  return pool;
}

}  // namespace realm::num
