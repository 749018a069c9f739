#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

namespace ads::common {
namespace {

/// Set for the duration of WorkerLoop so nested ParallelFor calls on the
/// same pool can detect they are already on a worker and run inline.
thread_local const ThreadPool* g_current_pool = nullptr;

size_t GlobalWorkerCount() {
  size_t n = 0;
  if (const char* env = std::getenv("ADS_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) n = static_cast<size_t>(v);
  }
  if (n == 0) n = std::max<size_t>(1, std::thread::hardware_concurrency());
  // One worker buys no concurrency over the calling thread; run inline.
  return n <= 1 ? 0 : n;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Schedule(std::function<void()> task) {
  if (workers_.empty() || InWorker()) {
    // Inline mode, or a worker scheduling onto its own pool (running
    // inline avoids deadlock when every worker blocks on subtasks).
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back({std::move(task), nullptr});
  }
  work_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  g_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this]() { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) break;  // shutting down and drained
      task = std::move(queue_.front().run);
      queue_.pop_front();
    }
    task();  // accounts for itself; exceptions go to its future
  }
  g_current_pool = nullptr;
}

ThreadPoolStats ThreadPool::Stats() const {
  ThreadPoolStats stats;
  stats.workers = workers_.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queued = queue_.size();
  }
  stats.active = active_.load();
  stats.executed = executed_.load();
  return stats;
}

bool ThreadPool::InWorker() const { return g_current_pool == this; }

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  // Chunk boundaries are a pure function of (begin, end, grain) so that
  // chunk-order reductions are identical no matter how work is placed.
  if (workers_.empty() || InWorker() || end - begin <= grain) {
    for (size_t cb = begin; cb < end; cb += grain) {
      fn(cb, std::min(end, cb + grain));
      ++executed_;
    }
    return;
  }
  const size_t num_chunks = (end - begin + grain - 1) / grain;
  // Completion state of this call, shared with its helper tasks. A helper
  // that a worker starts after the call returned finds no chunk left and
  // touches only this state — never `fn` or the caller's stack.
  struct CallState {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;  // guarded by mu
    std::vector<std::exception_ptr> errors;
  };
  auto state = std::make_shared<CallState>();
  state->errors.resize(num_chunks);
  // Claims and runs chunks until none is left. Each chunk counts itself
  // (TaskScope) before it counts as done, so Stats() is exact on return.
  auto run_chunks = [this, state, begin, end, grain, num_chunks, &fn]() {
    for (size_t c = state->next++; c < num_chunks; c = state->next++) {
      const size_t cb = begin + c * grain;
      {
        TaskScope scope(this);
        try {
          fn(cb, std::min(end, cb + grain));
        } catch (...) {
          state->errors[c] = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(state->mu);
      if (++state->done == num_chunks) state->cv.notify_all();
    }
  };
  // Helpers let idle workers join in; the caller claims chunks as well,
  // so it never sleeps while a chunk is still unclaimed.
  const size_t helpers = std::min(num_chunks - 1, workers_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t h = 0; h < helpers; ++h) {
      queue_.push_back({run_chunks, state.get()});
    }
  }
  for (size_t h = 0; h < helpers; ++h) work_available_.notify_one();
  run_chunks();
  {
    // Every chunk is claimed: helpers no worker has started yet would only
    // find nothing to do, so they leave the queue with the call.
    std::lock_guard<std::mutex> lock(mu_);
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [&](const QueuedTask& t) {
                                  return t.owner == state.get();
                                }),
                 queue_.end());
  }
  std::unique_lock<std::mutex> done_lock(state->mu);
  state->cv.wait(done_lock, [&]() { return state->done == num_chunks; });
  for (auto& e : state->errors) {
    if (e) std::rethrow_exception(e);  // first failing chunk wins
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(GlobalWorkerCount());
  return *pool;
}

ThreadPool& ThreadPool::Serial() {
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void parallel_for(size_t begin, size_t end, size_t grain,
                  const std::function<void(size_t, size_t)>& fn) {
  ThreadPool::Global().ParallelFor(begin, end, grain, fn);
}

void parallel_for(ThreadPool& pool, size_t begin, size_t end, size_t grain,
                  const std::function<void(size_t, size_t)>& fn) {
  pool.ParallelFor(begin, end, grain, fn);
}

}  // namespace ads::common
