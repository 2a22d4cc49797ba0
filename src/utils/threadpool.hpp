// Shared-memory parallelism primitives.
//
// fca::parallel_for_range is the single entry point used by the math
// kernels. It partitions [begin, end) into contiguous grains and executes
// them either on OpenMP (when compiled in) or on the process-wide
// ThreadPool. On a single-core host it degrades to a serial loop with no
// thread hand-off.
//
// Nesting: a thread that is already executing a pool task (or that entered a
// ThreadPool::SerialRegion) runs any nested parallel_for_range serially
// instead of re-submitting to the pool. This keeps outer task-level
// parallelism (e.g. fl::RoundExecutor fanning clients out) from deadlocking
// against inner kernel parallelism or oversubscribing the worker set. The
// kernels partition disjoint outputs with a fixed per-element accumulation
// order, so serial and parallel execution of the same loop are bit-identical.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fca {

/// Work-queue thread pool. One instance is shared per process (see
/// global_pool()); standalone instances are used in tests.
class ThreadPool {
 public:
  /// Creates exactly `threads` workers (0 is a valid, worker-less pool).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (may be zero on single-core machines, in which
  /// case submitted work runs inline in wait_all()).
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues a task. Never blocks. Tasks must not let exceptions escape —
  /// use parallel_for_range or fl::RoundExecutor, which wrap bodies and
  /// rethrow on the waiting thread, instead of submitting throwing work
  /// directly.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has completed. Also drains the queue
  /// on the calling thread so a zero-worker pool still makes progress.
  void wait_all();

  /// True when the calling thread is executing a pool task (any pool) or is
  /// inside a SerialRegion. parallel_for_range uses this to degrade to a serial
  /// loop instead of nesting, which would deadlock wait_all().
  static bool in_task();

  /// RAII marker that makes the current thread behave as if it were inside a
  /// pool task: nested parallel_for_range calls run serially until the
  /// region is exited. RoundExecutor wraps client bodies in one of these on
  /// every lane (including the caller's) so client-level parallelism is never
  /// multiplied by kernel-level parallelism.
  class SerialRegion {
   public:
    SerialRegion();
    ~SerialRegion();
    SerialRegion(const SerialRegion&) = delete;
    SerialRegion& operator=(const SerialRegion&) = delete;
  };

 private:
  void worker_loop();
  bool run_one();  // pops and runs one task; returns false if queue empty

  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int in_flight_ = 0;  // queued + running
  bool stop_ = false;
};

/// Process-wide pool used by parallel_for_range.
ThreadPool& global_pool();

/// Number of parallel_for_range bodies the calling thread is
/// nested inside, counted the same whether a loop ran its chunks on the pool
/// or inline (nested in a task or SerialRegion, or too small to split).
/// Observability uses this to tell "on the thread that owns this work" apart
/// from "inside a parallel kernel launch", where span emission would depend
/// on scheduling.
int parallel_for_depth();

/// Executes fn(lo, hi) over whole grains of [begin, end), potentially in
/// parallel, which lets kernels keep per-chunk accumulators. `grain` is the
/// minimum number of iterations per task; loops smaller than one grain run
/// serially on the calling thread. fn must be safe for disjoint ranges
/// concurrently. An exception thrown by fn is captured and rethrown on the
/// calling thread once the loop has drained (the exception of the
/// lowest-indexed failing chunk wins, deterministically).
void parallel_for_range(int64_t begin, int64_t end,
                        const std::function<void(int64_t, int64_t)>& fn,
                        int64_t grain = 256);

}  // namespace fca
