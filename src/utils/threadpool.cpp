#include "utils/threadpool.hpp"

#include <algorithm>

#include "utils/error.hpp"

namespace fca {
namespace {

/// Depth of pool tasks / SerialRegions the current thread is inside. Static
/// and pool-agnostic: a task of any pool marks the thread, so nested
/// parallel_for_range (which always targets the global pool) degrades to
/// serial no matter which pool scheduled the enclosing task.
thread_local int t_task_depth = 0;

/// Number of parallel_for_range bodies the current thread is running, however
/// each loop was scheduled — the counter behind parallel_for_depth().
thread_local int t_for_depth = 0;

/// RAII depth bump around a task body; exception-safe so accounting survives
/// a throwing task (parallel_for_range wrappers catch, but keep this robust).
struct TaskDepthScope {
  TaskDepthScope() { ++t_task_depth; }
  ~TaskDepthScope() { --t_task_depth; }
};

/// RAII bump of t_for_depth around one parallel_for_range body invocation.
struct ForBodyScope {
  ForBodyScope() { ++t_for_depth; }
  ~ForBodyScope() { --t_for_depth; }
};

}  // namespace

bool ThreadPool::in_task() { return t_task_depth > 0; }

ThreadPool::SerialRegion::SerialRegion() { ++t_task_depth; }
ThreadPool::SerialRegion::~SerialRegion() { --t_task_depth; }

ThreadPool::ThreadPool(unsigned threads) {
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lk(mu_);
    FCA_CHECK_MSG(!stop_, "submit() on a stopped ThreadPool");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

bool ThreadPool::run_one() {
  std::function<void()> task;
  {
    std::lock_guard lk(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  {
    TaskDepthScope depth;
    task();
  }
  {
    std::lock_guard lk(mu_);
    --in_flight_;
    if (in_flight_ == 0) cv_done_.notify_all();
  }
  return true;
}

void ThreadPool::wait_all() {
  // Help drain the queue: guarantees progress even with zero workers and
  // reduces tail latency otherwise.
  while (run_one()) {
  }
  std::unique_lock lk(mu_);
  cv_done_.wait(lk, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      TaskDepthScope depth;
      task();
    }
    {
      std::lock_guard lk(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

ThreadPool& global_pool() {
  // One worker per hardware thread besides the caller's, which joins in
  // through wait_all(); a single-core host gets a worker-less pool.
  static ThreadPool pool([] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 0u;
  }());
  return pool;
}

void parallel_for_range(int64_t begin, int64_t end,
                        const std::function<void(int64_t, int64_t)>& fn,
                        int64_t grain) {
  if (begin >= end) return;
  FCA_CHECK(grain > 0);
  const int64_t n = end - begin;
  // Nested invocation (from a pool task or a SerialRegion) runs serially:
  // re-submitting would let wait_all() block on the enclosing task itself.
  if (ThreadPool::in_task()) {
    ForBodyScope body;
    fn(begin, end);
    return;
  }
  ThreadPool& pool = global_pool();
  const int64_t max_tasks = static_cast<int64_t>(pool.size()) + 1;
  if (n <= grain || max_tasks <= 1) {
    ForBodyScope body;
    fn(begin, end);
    return;
  }
  const int64_t chunks = std::min(max_tasks * 4, (n + grain - 1) / grain);
  const int64_t step = (n + chunks - 1) / chunks;
  // The lowest failing chunk's exception is the one rethrown, so a failing
  // loop reports the same error no matter how chunks are scheduled.
  std::mutex err_mu;
  std::exception_ptr first_err;
  int64_t first_err_lo = end;
  for (int64_t lo = begin; lo < end; lo += step) {
    const int64_t hi = std::min(lo + step, end);
    pool.submit([&fn, &err_mu, &first_err, &first_err_lo, lo, hi] {
      ForBodyScope body;
      try {
        fn(lo, hi);
      } catch (...) {
        std::lock_guard lk(err_mu);
        if (!first_err || lo < first_err_lo) {
          first_err = std::current_exception();
          first_err_lo = lo;
        }
      }
    });
  }
  pool.wait_all();
  if (first_err) std::rethrow_exception(first_err);
}

int parallel_for_depth() { return t_for_depth; }

}  // namespace fca
