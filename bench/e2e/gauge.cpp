// The host-speed gauge (see bench.hpp). A POSIX timer sends a real-time
// signal to the gauged thread every kPeriodNs; the handler times the
// reference kernel and files the sample in a ring, which the timed code
// reads once the run has moved on. The handler runs on the timed thread
// itself, so it samples the core that thread runs on, and a sample never
// overlaps the code it interrupts: the interval's own time excludes it
// exactly.
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bench.hpp"

// glibc names the Linux-specific target-thread field of sigevent only
// through this union member.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace colscore::bench {

namespace {

// About kReferenceIdleMs on an idle core.
constexpr std::uint64_t kKernelIterations = 100'000;
// 40 samples a second, about 1.5% of the gauged thread's time.
constexpr long kPeriodNs = 25'000'000;
// Samples an interval's scale rests on at least (about 0.2 s of them).
constexpr std::uint64_t kMinSamples = 8;
// 27 minutes of samples, longer than any invocation.
constexpr std::uint64_t kRingSize = 1 << 16;

std::int64_t g_sample_ns[kRingSize];
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::int64_t> g_busy_ns{0};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
              std::atomic<std::int64_t>::is_always_lock_free);

std::int64_t now_ns() {
  timespec t{};
  clock_gettime(CLOCK_MONOTONIC, &t);
  return t.tv_sec * 1'000'000'000LL + t.tv_nsec;
}

/// Four xorshift64 chains side by side. The empty asm makes every chain an
/// input and an output of each iteration, so the chains stay in
/// general-purpose registers (no SIMD) and the loop can be neither dropped
/// nor shortened.
std::uint64_t reference_kernel() {
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (std::uint64_t i = 0; i < kKernelIterations; ++i) {
    a ^= a << 13; b ^= b << 13; c ^= c << 13; d ^= d << 13;
    a ^= a >> 7;  b ^= b >> 7;  c ^= c >> 7;  d ^= d >> 7;
    a ^= a << 17; b ^= b << 17; c ^= c << 17; d ^= d << 17;
    asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d));
  }
  return a ^ b ^ c ^ d;
}

/// Async-signal-safe: clock reads, register arithmetic and lock-free
/// atomics only.
void on_tick(int) {
  const int saved_errno = errno;
  const std::int64_t start = now_ns();
  const std::uint64_t x = reference_kernel();
  asm volatile("" : : "r"(x));
  const std::int64_t end = now_ns();
  const std::uint64_t i = g_count.load(std::memory_order_relaxed);
  g_sample_ns[i % kRingSize] = end - start;
  g_count.store(i + 1, std::memory_order_release);
  g_busy_ns.fetch_add(now_ns() - start, std::memory_order_relaxed);
  errno = saved_errno;
}

}  // namespace

void start_gauge() {
  static bool started = false;
  if (started) return;
  struct sigaction action{};
  action.sa_handler = on_tick;
  action.sa_flags = SA_RESTART;  // interrupted system calls resume
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGRTMIN, &action, nullptr) != 0)
    throw std::runtime_error("gauge: sigaction failed");
  sigevent event{};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGRTMIN;
  event.sigev_notify_thread_id = static_cast<pid_t>(syscall(SYS_gettid));
  timer_t timer{};
  if (timer_create(CLOCK_MONOTONIC, &event, &timer) != 0)
    throw std::runtime_error("gauge: timer_create failed");
  itimerspec period{};
  period.it_interval.tv_nsec = kPeriodNs;
  period.it_value.tv_nsec = kPeriodNs;
  if (timer_settime(timer, 0, &period, nullptr) != 0)
    throw std::runtime_error("gauge: timer_settime failed");
  started = true;
}

GaugeTimer::GaugeTimer()
    : start_ns_(now_ns()),
      busy_ns_(g_busy_ns.load(std::memory_order_relaxed)),
      first_(g_count.load(std::memory_order_acquire)) {}

Interval GaugeTimer::stop() const {
  const std::int64_t end_ns = now_ns();
  Interval interval;
  interval.end = g_count.load(std::memory_order_acquire);
  interval.first = first_;
  const std::int64_t busy = g_busy_ns.load(std::memory_order_relaxed) - busy_ns_;
  interval.seconds = static_cast<double>(end_ns - start_ns_ - busy) * 1e-9;
  return interval;
}

double scaled_seconds(const Interval& interval) {
  const std::uint64_t count = g_count.load(std::memory_order_acquire);
  const std::uint64_t oldest = count > kRingSize ? count - kRingSize : 0;
  std::uint64_t first = std::max(interval.first, oldest);
  std::uint64_t end = std::min(interval.end, count);
  while (end - first < kMinSamples && (first > oldest || end < count)) {
    if (first > oldest) --first;
    if (end < count && end - first < kMinSamples) ++end;
  }
  if (end == first) return interval.seconds;
  double sum_ns = 0.0;
  for (std::uint64_t i = first; i < end; ++i)
    sum_ns += static_cast<double>(g_sample_ns[i % kRingSize]);
  const double mean_ms = sum_ns / static_cast<double>(end - first) / 1e6;
  return interval.seconds * kReferenceIdleMs / mean_ms;
}

double host_slowdown() {
  const std::uint64_t count = g_count.load(std::memory_order_acquire);
  const std::uint64_t oldest = count > kRingSize ? count - kRingSize : 0;
  std::vector<double> ms;
  for (std::uint64_t i = oldest; i < count; ++i)
    ms.push_back(static_cast<double>(g_sample_ns[i % kRingSize]) / 1e6);
  return ms.empty() ? 1.0 : median(ms) / kReferenceIdleMs;
}

}  // namespace colscore::bench
