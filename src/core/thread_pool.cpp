#include "core/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>

#include "core/check.h"

namespace fdet::core {
namespace {

/// The pool whose worker loop runs on this thread, if any.
thread_local const ThreadPool* t_worker_of = nullptr;

std::size_t affinity_cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

/// One parallel_for call: chunks are claimed in index order by the caller
/// and by helper tasks. Shared-owned so a helper that starts after the
/// call returned finds nothing left to claim and never touches `body`.
struct ParallelJob {
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 0;
  std::size_t chunks = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failed{kNone};  ///< lowest failing chunk so far
  std::exception_ptr error;                ///< its exception (under mutex)
  std::size_t finished = 0;                ///< chunks done (under mutex)
  std::mutex mutex;
  std::condition_variable done;

  void run_chunks() {
    std::size_t claimed = 0;
    for (std::size_t c = next.fetch_add(1); c < chunks;
         c = next.fetch_add(1)) {
      ++claimed;
      // Chunks are claimed in increasing order, so every chunk below a
      // failure has already been claimed and still runs; later ones are
      // skipped.
      if (c > failed.load(std::memory_order_acquire)) {
        continue;
      }
      try {
        (*body)(c * chunk, std::min(n, (c + 1) * chunk));
      } catch (...) {
        std::lock_guard lock(mutex);
        if (c < failed.load(std::memory_order_relaxed)) {
          failed.store(c, std::memory_order_release);
          error = std::current_exception();
        }
      }
    }
    if (claimed > 0) {
      std::lock_guard lock(mutex);
      finished += claimed;
      if (finished == chunks) {
        done.notify_all();
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, affinity_cpu_count());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    FDET_CHECK(!stopping_) << "submit() on a stopping pool";
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) {
    return;
  }
  const std::size_t chunks =
      std::min(n, std::max<std::size_t>(1, thread_count() * 4));
  const std::size_t chunk = (n + chunks - 1) / chunks;

  if (t_worker_of == this) {
    // Nested call from a worker: helpers could all be waiting on us.
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      body(begin, std::min(n, begin + chunk));
    }
    return;
  }

  auto job = std::make_shared<ParallelJob>();
  job->body = &body;
  job->n = n;
  job->chunk = chunk;
  job->chunks = (n + chunk - 1) / chunk;
  const std::size_t helpers = std::min(job->chunks - 1, thread_count());
  for (std::size_t i = 0; i < helpers; ++i) {
    submit([job] { job->run_chunks(); });
  }
  job->run_chunks();

  std::unique_lock lock(job->mutex);
  job->done.wait(lock, [&] { return job->finished == job->chunks; });
  if (job->error) {
    std::rethrow_exception(job->error);
  }
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard lock(mutex_);
      if (--in_flight_ == 0) {
        idle_.notify_all();
      }
    }
  }
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace fdet::core
