// Persistent process-wide worker pool for the evaluation engines.
//
// The Monte-Carlo and exhaustive error harnesses repeatedly fan out
// independent shards; spawning fresh std::threads per call (the seed
// implementation) costs ~50 us per thread and dominates short sweeps such as
// the 65-design Fig. 4 run.  This pool is created once (lazily) and reused
// for every subsequent parallel region.
//
// Several regions may be open at once: each run() publishes its region to a
// short list and drains it itself, and an idle worker joins the open region
// that has the fewest active helpers (up to that region's parallelism - 1).
// Two callers — say, the serving layer's two executors — therefore share the
// workers instead of one of them running its whole job on one core.
//
// Determinism contract: the pool only *executes* tasks — which shard runs on
// which OS thread never influences results.  Callers that need reproducible
// output must (and in this library do) partition work and merge results by
// task index, independent of the parallelism actually achieved.

#pragma once

#include <cstddef>
#include <functional>

namespace realm::num {

class ThreadPool {
 public:
  /// Creates `workers` background threads.  The caller of run() always
  /// participates too, so a pool with W workers executes up to W+1 tasks
  /// of one region concurrently.
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned workers() const noexcept;

  /// Runs task(0) ... task(count-1), blocking until all complete.  At most
  /// `parallelism` tasks execute concurrently (0 = workers()+1); the calling
  /// thread participates and, once every task is claimed, waits only for the
  /// helpers still finishing theirs.  Concurrent run() calls from different
  /// threads each get their own region, and a run() nested inside a task is
  /// deadlock-free because its caller never waits on an unclaimed task.
  /// Helpers adopt the caller's trace request id.  The first exception thrown
  /// by one of this region's tasks is rethrown on this caller after the
  /// region completes; other regions never see it.
  void run(std::size_t count, unsigned parallelism,
           const std::function<void(std::size_t)>& task);

  /// The process-wide pool, lazily constructed with hardware_concurrency-1
  /// workers (so a fully parallel region matches the core count).
  static ThreadPool& global();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace realm::num
