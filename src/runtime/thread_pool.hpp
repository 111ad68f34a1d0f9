#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rt::runtime {

/// Fixed-size thread pool shared by every parallel engine in the stack: the
/// campaign scheduler, the dataset-generation launch grids, and the pooled
/// oracle trainings.
///
/// Deliberately simple — a single locked queue, no work stealing: the tasks
/// fanned over it are coarse (a campaign drive, a training launch, a whole
/// training), so queue contention is negligible and the scheduling order never affects results
/// (every task writes to its own pre-assigned output slot, and all
/// randomness is counter-based per task, see `stats::Rng::from_stream`).
///
/// `ThreadPool(1)` runs every task inline on the calling thread — no worker
/// is spawned — which keeps the serial path trivially deterministic and
/// debuggable.
class ThreadPool {
 public:
  /// `threads == 0` means `default_threads()`.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute work (>= 1; 1 means inline execution).
  [[nodiscard]] unsigned size() const { return size_; }

  /// Enqueues a task. Inline mode (size()==1) executes it immediately.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. Rethrows the first
  /// exception any task raised (subsequent ones are dropped).
  void wait_idle();

  /// Runs fn(0) .. fn(n-1), blocking until all complete. Equivalent to
  /// submit()ing each index and wait_idle(), but shares one counter instead
  /// of n queue nodes.
  void parallel_for(int n, const std::function<void(int)>& fn);

  /// hardware_concurrency(), clamped to >= 1.
  [[nodiscard]] static unsigned default_threads();

 private:
  void worker_loop();
  void record_exception() noexcept;

  unsigned size_{1};
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t in_flight_{0};
  bool stopping_{false};
  std::exception_ptr first_error_;
};

}  // namespace rt::runtime
