// Minimal fixed-size thread pool with a blocking parallel_for.
//
// The one host threading substrate of the repo: the virtual GPU runs a
// launch's thread blocks on it (vgpu/kernel.h) and the trainer runs its
// feature loops on it (train/boost.h). The pool follows CP.4 ("think in
// terms of tasks"): callers submit a range and a chunk body, never raw
// threads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fdet::core {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means one per CPU the process may run on
  /// (its affinity mask, what `nproc` reports; min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task; returns immediately.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs body(begin, end) over [0, n) split into roughly 4×threads
  /// chunks and blocks until complete. The calling thread claims chunks
  /// too, so a call never waits on busy workers; called from one of this
  /// pool's own workers it runs every chunk inline, in order. When chunks
  /// throw, the exception rethrown is the one of the lowest-indexed
  /// failing chunk — the one a serial run would have thrown — and chunks
  /// after a failed one may be skipped.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Process-wide default pool (lazily constructed, sized like ThreadPool(0)).
ThreadPool& default_pool();

}  // namespace fdet::core
