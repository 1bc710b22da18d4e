#pragma once

// A small fixed-size thread pool and its one fork-join, parallel_for_chunks.
//
// Host-side parallelism in cuMF goes through this pool: simulated GPU
// kernels fan their thread blocks out over it, the serving engine fans its
// shard × user-block sweeps out over it, and the FPSGD and CCD++ baselines
// use it as their worker set. NOMAD runs dedicated threads instead (see
// baselines/nomad.cpp). Keeping one shared pool avoids oversubscription when
// several simulated devices execute at once.
//
// Wait rule: the caller of parallel_for_chunks runs chunks itself and then
// waits only for helpers that have started — never for a task still queued.
// A helper dequeued after every chunk was claimed claims nothing and never
// calls fn. So a caller never runs another job's work, and nested or
// concurrent calls cannot deadlock even when every pool worker is blocked.

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

  /// Process-wide default pool (hardware concurrency).
  static ThreadPool& global();

 private:
  friend void parallel_for_chunks(ThreadPool&, nnz_t, nnz_t,
                                  const std::function<void(nnz_t, nnz_t)>&,
                                  std::size_t);

  void submit(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  bool stop_ = false;
};

/// Run fn(chunk_begin, chunk_end) over [begin, end) split into `num_chunks`
/// contiguous chunks (0 picks 4 per pool thread), blocking until every chunk
/// has run. The caller and up to size() helpers pull chunks from a shared
/// counter (a chunk ~ a wave of thread blocks). Degenerates to one serial
/// fn(begin, end) for a single chunk or a single-thread pool.
void parallel_for_chunks(ThreadPool& pool, nnz_t begin, nnz_t end,
                         const std::function<void(nnz_t, nnz_t)>& fn,
                         std::size_t num_chunks = 0);

}  // namespace cumf::util
