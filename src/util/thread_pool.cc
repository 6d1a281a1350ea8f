#include "util/thread_pool.h"

#include <algorithm>

namespace holim {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (num_threads == 1) return;  // inline mode
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t chunks = std::min(count, num_threads() * 4);
  ParallelForBlocks(count, (count + chunks - 1) / chunks,
                    [&fn](std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) fn(i);
                    });
}

void ThreadPool::ParallelForBlocks(
    std::size_t count, std::size_t block_size,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (block_size == 0) block_size = 1;
  // Fixed before any task is submitted: workers compare `done` against it,
  // so it must not mutate while tasks are already running.
  const std::size_t launched = (count + block_size - 1) / block_size;
  if (num_threads() == 1 || launched == 1) {
    for (std::size_t lo = 0; lo < count; lo += block_size) {
      fn(lo, std::min(count, lo + block_size));
    }
    return;
  }
  std::size_t done = 0;  // guarded by done_mu
  std::mutex done_mu;
  std::condition_variable done_cv;
  for (std::size_t c = 0; c < launched; ++c) {
    const std::size_t lo = c * block_size;
    const std::size_t hi = std::min(count, lo + block_size);
    Submit([&, lo, hi] {
      fn(lo, hi);
      // Update and notify under the lock: the caller cannot observe
      // done == launched and destroy these stack objects until the worker
      // has released the mutex and is done touching them.
      std::lock_guard<std::mutex> lock(done_mu);
      ++done;
      if (done == launched) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done == launched; });
}

}  // namespace holim
