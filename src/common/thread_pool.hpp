// Fixed-size worker pool with a chunked parallel_for.
//
// All parallelism in the simulator is data-parallel over players or objects;
// a simple chunk-claiming loop keeps results deterministic (each index is
// processed exactly once, and per-index RNG streams are derived from stable
// keys, never from thread identity).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace colscore {

class ThreadPool {
 public:
  /// Largest worker count accepted from outside input (a suite file's
  /// "threads", the CLI's --threads); checked where the input enters, before
  /// any pool exists, so a typo is a named error rather than thousands of OS
  /// threads. Tests and benches ask for at most a few dozen.
  static constexpr std::size_t kMaxThreads = 1024;

  /// threads == 0 selects hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Runs body(i) for every i in [begin, end); blocks until done.
  /// Exceptions from body are rethrown (first one wins).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 0);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Library code does not drive a pool directly: parallel loops run through an
// explicit ExecPolicy (exec_policy.hpp) over a pool some caller owns — a
// suite, a test, a bench — and there is no process-wide pool.

}  // namespace colscore
