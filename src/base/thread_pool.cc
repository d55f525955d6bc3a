#include "base/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace calm {

namespace {

// Set while a thread (worker or caller) is executing ParallelFor work, so
// re-entrant ParallelFor calls degrade to a serial loop instead of waiting
// on workers that may themselves be waiting.
thread_local bool t_inside_parallel_for = false;

void SerialFor(size_t begin, size_t end,
               const std::function<void(size_t)>& fn) {
  for (size_t i = begin; i < end; ++i) fn(i);
}

}  // namespace

struct ThreadPool::Impl {
  size_t num_threads;
  std::vector<std::thread> workers;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> tasks;  // guarded by mu
  bool stop = false;                        // guarded by mu

  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop || !tasks.empty(); });
        if (stop && tasks.empty()) return;
        task = std::move(tasks.front());
        tasks.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(size_t num_threads) : impl_(new Impl) {
  impl_->num_threads = num_threads == 0 ? 1 : num_threads;
  size_t workers = impl_->num_threads - 1;
  impl_->workers.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    impl_->workers.emplace_back([impl = impl_.get()] { impl->WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
}

size_t ThreadPool::num_threads() const { return impl_->num_threads; }

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn,
                             size_t max_helpers) {
  if (begin >= end) return;
  size_t range = end - begin;
  size_t helpers = impl_->workers.size();
  if (helpers > max_helpers) helpers = max_helpers;
  if (helpers > range - 1) helpers = range - 1;
  if (helpers == 0 || t_inside_parallel_for) {
    bool saved = t_inside_parallel_for;
    t_inside_parallel_for = true;
    try {
      SerialFor(begin, end, fn);
    } catch (...) {
      t_inside_parallel_for = saved;
      throw;
    }
    t_inside_parallel_for = saved;
    return;
  }

  // Shared job state: dynamic chunks off an atomic cursor, first exception
  // wins, outstanding counts participating threads still inside Run().
  struct Job {
    std::atomic<size_t> next;
    size_t end;
    size_t chunk;
    const std::function<void(size_t)>* fn;
    std::mutex mu;
    std::condition_variable done_cv;
    size_t outstanding;            // guarded by mu
    std::exception_ptr exception;  // guarded by mu
    std::atomic<bool> cancelled{false};

    void Run() {
      t_inside_parallel_for = true;
      for (;;) {
        size_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= end || cancelled.load(std::memory_order_relaxed)) break;
        size_t hi = lo + chunk < end ? lo + chunk : end;
        try {
          for (size_t i = lo; i < hi; ++i) (*fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!exception) exception = std::current_exception();
          cancelled.store(true, std::memory_order_relaxed);
          break;
        }
      }
      t_inside_parallel_for = false;
      std::lock_guard<std::mutex> lock(mu);
      if (--outstanding == 0) done_cv.notify_all();
    }
  };

  auto job = std::make_shared<Job>();
  job->next.store(begin, std::memory_order_relaxed);
  job->end = end;
  // Small chunks for load balance; the checkers' per-index work is lumpy
  // (candidate spaces shrink as the early-exit cursor advances).
  job->chunk = range / ((helpers + 1) * 8);
  if (job->chunk == 0) job->chunk = 1;
  job->fn = &fn;
  job->outstanding = helpers + 1;

  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (size_t i = 0; i < helpers; ++i) {
      impl_->tasks.emplace_back([job] { job->Run(); });
    }
  }
  impl_->cv.notify_all();

  job->Run();  // the caller participates

  // The exception moves out under the lock: the worker that drops the last
  // Job reference must not free it while the caller's handler reads it.
  std::exception_ptr exception;
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->done_cv.wait(lock, [&] { return job->outstanding == 0; });
    exception = std::move(job->exception);
  }
  if (exception) std::rethrow_exception(exception);
}

namespace {

std::atomic<size_t> g_thread_override{0};

size_t EnvThreads() {
  static size_t cached = [] {
    const char* env = std::getenv("CALM_THREADS");
    if (env != nullptr) {
      char* parse_end = nullptr;
      unsigned long n = std::strtoul(env, &parse_end, 10);
      if (parse_end != env && *parse_end == '\0' && n > 0) {
        return static_cast<size_t>(n);
      }
    }
    unsigned hw = std::thread::hardware_concurrency();
    return static_cast<size_t>(hw == 0 ? 1 : hw);
  }();
  return cached;
}

}  // namespace

size_t DefaultThreads() {
  size_t n = g_thread_override.load(std::memory_order_relaxed);
  return n != 0 ? n : EnvThreads();
}

void SetDefaultThreads(size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

ThreadPool& ThreadPool::Global() {
  static std::mutex* mu = new std::mutex;
  static std::unique_ptr<ThreadPool>* pool = new std::unique_ptr<ThreadPool>;
  size_t want = DefaultThreads();
  std::lock_guard<std::mutex> lock(*mu);
  if (!*pool || (*pool)->num_threads() != want) {
    pool->reset();  // join the old workers before spawning replacements
    *pool = std::make_unique<ThreadPool>(want);
  }
  return **pool;
}

void ParallelFor(size_t count, size_t threads,
                 const std::function<void(size_t)>& fn) {
  if (threads == 0) threads = DefaultThreads();
  if (threads <= 1 || count <= 1 || t_inside_parallel_for) {
    bool saved = t_inside_parallel_for;
    t_inside_parallel_for = true;
    try {
      SerialFor(0, count, fn);
    } catch (...) {
      t_inside_parallel_for = saved;
      throw;
    }
    t_inside_parallel_for = saved;
    return;
  }
  ThreadPool::Global().ParallelFor(0, count, fn, threads - 1);
}

}  // namespace calm
