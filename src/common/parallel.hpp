// Deterministic parallel-execution primitives for the sweep layers.
//
// A small process-wide worker pool distributes task indices through an atomic
// cursor (chunked work sharing).  Two invariants make every parallel result
// reproducible bit-for-bit regardless of the thread count:
//
//   1. The decomposition of work into tasks/chunks depends only on the
//      problem size -- never on the number of threads.
//   2. parallelReduce folds the per-chunk partial results serially in
//      ascending chunk-index order, so floating-point sums associate the
//      same way whether one thread or sixteen computed the partials.
//
// The thread count comes from the TAUHLS_THREADS environment variable
// (clamped to >= 1) and defaults to std::thread::hardware_concurrency();
// the tauhlsc `--threads` flag overrides both via setGlobalThreadCount.
// Nested parallel regions (a parallelFor issued from inside a task) queue
// helpers on the same pool like a top-level region does, so a sweep inside
// a pipeline pass spreads over the idle lanes without spawning threads.
// Once a region is drained its caller withdraws the helpers that have not
// started, so no lane waits on a queued helper and nesting cannot deadlock;
// while it waits for the helpers that have, it runs other queued helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace tauhls::common {

/// Threads the global pool starts with: TAUHLS_THREADS if set and valid
/// (clamped to [1, 256]), else hardware_concurrency(), else 1.
int configuredThreadCount();

class ThreadPool {
 public:
  /// A pool of `threadCount` execution lanes: the calling thread of forEach
  /// participates, so threadCount == 1 spawns no workers and runs inline.
  explicit ThreadPool(int threadCount);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threadCount() const { return threadCount_; }

  /// Invoke fn(i) for every i in [0, numTasks), each index exactly once.
  /// Blocks until all tasks finish.  The first exception thrown by a task is
  /// rethrown here after the region drains (remaining tasks are skipped).
  /// Calls issued from inside a task queue helpers like top-level calls.
  void forEach(std::size_t numTasks,
               const std::function<void(std::size_t)>& fn);

  /// True while the calling thread is executing a task of any ThreadPool.
  static bool insideWorker();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int threadCount_ = 1;
};

/// The process-wide pool, lazily created with configuredThreadCount().
ThreadPool& globalThreadPool();

/// Replace the global pool with one of `threadCount` lanes (the `--threads`
/// CLI flag).  Must not race with in-flight parallel regions.
void setGlobalThreadCount(int threadCount);

/// fn(i) for every i in [0, numTasks) on the global pool.
void parallelFor(std::size_t numTasks,
                 const std::function<void(std::size_t)>& fn);

/// Deterministic map-reduce: computes partial(chunk) for every chunk in
/// [0, numChunks) in parallel, then folds the partials serially in ascending
/// chunk order -- identical association for every thread count.
template <typename T, typename Partial, typename Combine>
T parallelReduce(std::size_t numChunks, T init, Partial&& partial,
                 Combine&& combine) {
  std::vector<T> results(numChunks);
  parallelFor(numChunks,
              [&](std::size_t chunk) { results[chunk] = partial(chunk); });
  T acc = std::move(init);
  for (std::size_t chunk = 0; chunk < numChunks; ++chunk) {
    acc = combine(std::move(acc), std::move(results[chunk]));
  }
  return acc;
}

/// The fixed chunk grid for `totalItems` items: number of contiguous chunks,
/// a function of the problem size only (never of the thread count), so that
/// chunked reductions are reproducible.  At most `targetChunks` chunks; every
/// chunk except possibly the last holds ceil(total/chunks) items.
std::uint64_t chunkCountFor(std::uint64_t totalItems,
                            std::uint64_t targetChunks = 256);

}  // namespace tauhls::common
