#pragma once

// A small fixed-size thread pool plus blocking parallel_for.
//
// All host-side parallelism in cuMF goes through this pool: simulated GPU
// kernels fan their thread blocks out over it, and the CPU baselines (FPSGD,
// NOMAD, CCD++) use it as their worker set. Keeping one shared pool
// avoids oversubscription when several simulated devices execute at once.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/types.hpp"

namespace cumf::util {

class ThreadPool {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Runs one queued task on the calling thread if any is pending. Returns
  /// false when the queue was empty. Lets blocked waiters help drain the
  /// queue, which is what makes nested parallel_for deadlock-free.
  bool try_run_one();

  /// Block until every task submitted so far has finished.
  void wait_idle();

  /// Process-wide default pool (hardware concurrency).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Run fn(i) for i in [begin, end), blocking until done. Splits the range into
/// chunks of at least `min_chunk`; degenerates to a serial loop for tiny
/// ranges or a single-thread pool.
void parallel_for(ThreadPool& pool, nnz_t begin, nnz_t end,
                  const std::function<void(nnz_t)>& fn, nnz_t min_chunk = 1);

/// Chunked variant: fn(chunk_begin, chunk_end) per worker chunk. This is the
/// primitive the simulated-kernel layer uses (a chunk ~ a wave of thread
/// blocks).
void parallel_for_chunks(ThreadPool& pool, nnz_t begin, nnz_t end,
                         const std::function<void(nnz_t, nnz_t)>& fn,
                         std::size_t num_chunks = 0);

}  // namespace cumf::util
