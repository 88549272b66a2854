#include "common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/error.hpp"

namespace tauhls::common {

namespace {
thread_local bool tInsideWorker = false;

struct WorkerScope {
  bool previous;
  WorkerScope() : previous(tInsideWorker) { tInsideWorker = true; }
  ~WorkerScope() { tInsideWorker = previous; }
};
}  // namespace

int configuredThreadCount() {
  if (const char* env = std::getenv("TAUHLS_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<int>(v > 256 ? 256 : v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {
// Shared state of one forEach region.  Helpers and the caller pull indices
// from `next` until the range is exhausted or a task failed.
struct Region {
  std::size_t numTasks = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex errorMutex;
  std::exception_ptr error;  // the first task exception; under errorMutex
  int joined = 0;            // helpers running drain(); under the pool mutex

  void drain() {
    WorkerScope scope;
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= numTasks) return;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  }
};
}  // namespace

// The queue holds one entry per helper a region asked for.  A helper is
// popped by an idle worker or by a forEach caller waiting for its own
// helpers; either way it joins the region and drains it.  One condition
// variable wakes both kinds of waiter: a task was queued, a helper finished,
// or the pool is stopping.
struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable changed;
  std::deque<Region*> tasks;
  std::vector<std::thread> workers;
  bool stopping = false;

  // Pops the front helper and runs it with `lock` released.
  void runFront(std::unique_lock<std::mutex>& lock) {
    Region* region = tasks.front();
    tasks.pop_front();
    ++region->joined;
    lock.unlock();
    region->drain();
    lock.lock();
    if (--region->joined == 0) changed.notify_all();
  }

  void workerLoop() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      changed.wait(lock, [&] { return stopping || !tasks.empty(); });
      if (tasks.empty()) return;  // stopping and drained
      runFront(lock);
    }
  }
};

ThreadPool::ThreadPool(int threadCount)
    : impl_(std::make_unique<Impl>()),
      threadCount_(threadCount < 1 ? 1 : threadCount) {
  // The forEach caller is one lane; spawn the rest.
  for (int i = 1; i < threadCount_; ++i) {
    impl_->workers.emplace_back([impl = impl_.get()] { impl->workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->changed.notify_all();
  for (std::thread& w : impl_->workers) w.join();
}

bool ThreadPool::insideWorker() { return tInsideWorker; }

void ThreadPool::forEach(std::size_t numTasks,
                         const std::function<void(std::size_t)>& fn) {
  if (numTasks == 0) return;
  if (threadCount_ <= 1 || numTasks == 1) {
    WorkerScope scope;
    for (std::size_t i = 0; i < numTasks; ++i) fn(i);
    return;
  }

  Region region;
  region.numTasks = numTasks;
  region.fn = &fn;
  const std::size_t maxHelpers = static_cast<std::size_t>(threadCount_) - 1;
  const std::size_t helpers = numTasks - 1 < maxHelpers ? numTasks - 1
                                                        : maxHelpers;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->tasks.insert(impl_->tasks.end(), helpers, &region);
  }
  impl_->changed.notify_all();

  region.drain();  // the calling thread is a lane too
  {
    // Every index is claimed, so a helper that has not started yet would
    // find nothing to do: withdraw it.  No lane then waits on a helper that
    // is still queued, so nesting cannot deadlock even with every lane
    // waiting.  Wait only for the helpers that joined, running other
    // regions' queued helpers meanwhile instead of idling.
    std::unique_lock<std::mutex> lock(impl_->mutex);
    std::erase(impl_->tasks, &region);
    for (;;) {
      impl_->changed.wait(lock, [&] {
        return region.joined == 0 || !impl_->tasks.empty();
      });
      if (region.joined == 0) break;
      impl_->runFront(lock);
    }
  }
  if (region.error) std::rethrow_exception(region.error);
}

namespace {
std::mutex gPoolMutex;
std::unique_ptr<ThreadPool> gPool;
}  // namespace

ThreadPool& globalThreadPool() {
  std::lock_guard<std::mutex> lock(gPoolMutex);
  if (!gPool) gPool = std::make_unique<ThreadPool>(configuredThreadCount());
  return *gPool;
}

void setGlobalThreadCount(int threadCount) {
  TAUHLS_CHECK(threadCount >= 1, "thread count must be >= 1");
  std::lock_guard<std::mutex> lock(gPoolMutex);
  gPool = std::make_unique<ThreadPool>(threadCount);
}

void parallelFor(std::size_t numTasks,
                 const std::function<void(std::size_t)>& fn) {
  globalThreadPool().forEach(numTasks, fn);
}

std::uint64_t chunkCountFor(std::uint64_t totalItems,
                            std::uint64_t targetChunks) {
  if (totalItems == 0) return 0;
  return totalItems < targetChunks ? totalItems : targetChunks;
}

}  // namespace tauhls::common
