#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>

namespace colscore {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t threads = thread_count();
  if (threads <= 1 || count == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  if (grain == 0) grain = std::max<std::size_t>(1, count / (threads * 8));

  // Completion tracks claimed-and-running CHUNKS, not queued helper tasks.
  // Helpers that never get scheduled are harmless (they claim nothing and
  // never touch `body` once next >= end), so the caller does not need to
  // execute foreign queue entries while it waits. That matters beyond
  // latency: a waiting thread that ran an arbitrary queued task could
  // re-enter protocol code mid-frame — and protocol frames keep live state
  // in the per-thread RunWorkspace, which an interleaved second run would
  // overwrite. A waiting thread therefore only ever waits for in-flight
  // chunk bodies; loops self-complete through the caller's own claiming
  // loop, so nesting cannot deadlock.
  struct Shared {
    std::atomic<std::size_t> next;
    std::atomic<std::size_t> in_flight{0};
    std::size_t end = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::exception_ptr error;
    std::mutex error_mutex;
  };
  auto shared = std::make_shared<Shared>();
  shared->next.store(begin);
  shared->end = end;
  shared->body = &body;

  const std::size_t n_tasks = std::min(threads, (count + grain - 1) / grain);

  auto run_chunks = [grain](const std::shared_ptr<Shared>& s) {
    for (;;) {
      // in_flight brackets the claim: once a thread holds a chunk with
      // lo < end, the caller cannot observe (next >= end && in_flight == 0)
      // and so cannot return while s->body is being used.
      s->in_flight.fetch_add(1);
      const std::size_t lo = s->next.fetch_add(grain);
      if (lo >= s->end) {
        if (s->in_flight.fetch_sub(1) == 1) {
          std::lock_guard done_lock(s->done_mutex);
          s->done_cv.notify_all();
        }
        break;
      }
      const std::size_t hi = std::min(s->end, lo + grain);
      try {
        for (std::size_t i = lo; i < hi; ++i) (*s->body)(i);
      } catch (...) {
        std::lock_guard lock(s->error_mutex);
        if (!s->error) s->error = std::current_exception();
        s->next.store(s->end);  // cancel remaining chunks
      }
      if (s->in_flight.fetch_sub(1) == 1) {
        std::lock_guard done_lock(s->done_mutex);
        s->done_cv.notify_all();
      }
    }
  };

  {
    std::lock_guard lock(mutex_);
    for (std::size_t t = 0; t + 1 < n_tasks; ++t)
      tasks_.emplace([shared, run_chunks] { run_chunks(shared); });
  }
  cv_.notify_all();

  // The calling thread participates too; when its claiming loop exits,
  // every chunk has been claimed (next >= end) and only bodies already
  // running on other threads remain.
  run_chunks(shared);
  while (shared->in_flight.load() != 0) {
    std::unique_lock lock(shared->done_mutex);
    shared->done_cv.wait_for(lock, std::chrono::microseconds(50),
                             [&] { return shared->in_flight.load() == 0; });
  }
  if (shared->error) std::rethrow_exception(shared->error);
}

}  // namespace colscore
