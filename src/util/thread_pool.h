#ifndef HOLIM_UTIL_THREAD_POOL_H_
#define HOLIM_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace holim {

/// \brief Minimal fixed-size worker pool used by the Monte-Carlo engines.
///
/// Tasks are plain std::function<void()>; `ParallelFor` blocks until all
/// chunks complete. With `num_threads == 1` work runs inline on the calling
/// thread, which keeps single-core runs free of synchronization overhead.
///
/// Kernels take an optional `ThreadPool*`; nullptr always means serial on
/// the calling thread (there is no process-wide default pool). Sites that
/// need a pool object for the serial case use a local `ThreadPool(1)`,
/// which starts no threads.
class ThreadPool {
 public:
  /// `num_threads == 0` selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return threads_.empty() ? 1 : threads_.size(); }

  /// Runs fn(i) for i in [0, count), partitioned into contiguous chunks.
  /// Blocks until all iterations finish.
  void ParallelFor(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Runs fn(lo, hi) over [0, count) split into fixed `block_size` ranges:
  /// [0, b), [b, 2b), ... The partition depends only on `block_size` — never
  /// on the thread count — so per-block work (and any per-block accumulation
  /// order) is identical for every pool size. This is the barrier-per-level
  /// primitive of the score-sweep kernel (see algo/score_sweep.h).
  /// Blocks until all ranges finish.
  void ParallelForBlocks(
      std::size_t count, std::size_t block_size,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

}  // namespace holim

#endif  // HOLIM_UTIL_THREAD_POOL_H_
