#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "obs/trace.hpp"

namespace cumf::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::worker_loop() {
  obs::TraceCollector::global().set_thread_name("pool.worker");
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for_chunks(ThreadPool& pool, nnz_t begin, nnz_t end,
                         const std::function<void(nnz_t, nnz_t)>& fn,
                         std::size_t num_chunks) {
  if (begin >= end) return;
  const nnz_t n = end - begin;
  if (num_chunks == 0) num_chunks = pool.size() * 4;
  num_chunks = std::min<std::size_t>(num_chunks, static_cast<std::size_t>(n));
  if (num_chunks <= 1 || pool.size() <= 1) {
    fn(begin, end);
    return;
  }

  // Caller and helpers pull chunk ids from one counter. A helper joins
  // `active` before it claims, so once the caller has drained the counter it
  // need wait only for helpers already holding a chunk (see the header).
  struct Join {
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    std::size_t active = 0;
  };
  const nnz_t chunk = (n + static_cast<nnz_t>(num_chunks) - 1) /
                      static_cast<nnz_t>(num_chunks);
  auto join = std::make_shared<Join>();
  auto run_chunks = [=, &fn] {
    for (;;) {
      const std::size_t c = join->next.fetch_add(1);
      if (c >= num_chunks) return;
      const nnz_t lo = begin + static_cast<nnz_t>(c) * chunk;
      const nnz_t hi = std::min(end, lo + chunk);
      if (lo < hi) fn(lo, hi);
    }
  };

  const std::size_t helpers = std::min(pool.size(), num_chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([join, run_chunks] {
      {
        std::lock_guard lock(join->mu);
        ++join->active;
      }
      run_chunks();
      std::lock_guard lock(join->mu);
      if (--join->active == 0) join->cv.notify_one();
    });
  }
  run_chunks();
  std::unique_lock lock(join->mu);
  join->cv.wait(lock, [&join] { return join->active == 0; });
}

}  // namespace cumf::util
