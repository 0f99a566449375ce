#include "host.hpp"

#include <sys/resource.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_new_calls{0};
std::atomic<std::uint64_t> g_new_bytes{0};

void note_allocation(std::size_t bytes) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
    g_new_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t bytes) {
  note_allocation(bytes);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

void* checked_aligned(std::size_t bytes, std::align_val_t align) {
  note_allocation(bytes);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (bytes + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

// Replacement global allocation functions: the only way to see the
// program's heap traffic from outside it. The array and nothrow forms of
// the standard library forward to these.
void* operator new(std::size_t bytes) { return checked_malloc(bytes); }
void* operator new[](std::size_t bytes) { return checked_malloc(bytes); }
void* operator new(std::size_t bytes, std::align_val_t a) { return checked_aligned(bytes, a); }
void* operator new[](std::size_t bytes, std::align_val_t a) {
  return checked_aligned(bytes, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double wall_seconds() { return clock_seconds(CLOCK_MONOTONIC); }

HostSample HostSample::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostSample s;
  s.wall = wall_seconds();
  s.cpu = cpu_seconds();
  s.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
  s.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  s.new_calls = g_new_calls.load(std::memory_order_relaxed);
  s.new_bytes = g_new_bytes.load(std::memory_order_relaxed);
  return s;
}

HostSample HostSample::operator-(const HostSample& o) const {
  HostSample d;
  d.wall = wall - o.wall;
  d.cpu = cpu - o.cpu;
  d.minflt = minflt - o.minflt;
  d.ctx_switches = ctx_switches - o.ctx_switches;
  d.new_calls = new_calls - o.new_calls;
  d.new_bytes = new_bytes - o.new_bytes;
  return d;
}

HostSample& HostSample::operator+=(const HostSample& o) {
  wall += o.wall;
  cpu += o.cpu;
  minflt += o.minflt;
  ctx_switches += o.ctx_switches;
  new_calls += o.new_calls;
  new_bytes += o.new_bytes;
  return *this;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void count_allocations(bool on) { g_counting.store(on, std::memory_order_relaxed); }

namespace {

// Sizes give the parts about 5, 10 and 5 ms of CPU on a 4-core x86 host;
// the ratio to the program's costs matters, not the absolute.
constexpr std::size_t kTwiddleWords = 16 * 1024;  // 128 KiB: L2-resident
constexpr int kTwiddlePasses = 48;
constexpr std::size_t kZeroFillBytes = 16u << 20;
constexpr int kZeroFillRounds = 3;
constexpr int kPingPongRounds = 300;

std::uint64_t twiddle() {
  std::vector<std::uint64_t> buf(kTwiddleWords);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& w : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
  std::uint64_t acc = 0;
  for (int pass = 0; pass < kTwiddlePasses; ++pass) {
    for (auto& w : buf) {
      const std::uint64_t v = w ^ (w >> 29) ^ (w << 11);
      w = (v << 7) | (v >> 57);
      acc += static_cast<std::uint64_t>(__builtin_popcountll(v)) ^ (acc >> 3);
    }
  }
  return acc;
}

std::uint64_t zero_fill() {
  std::uint64_t acc = 0;
  for (int r = 0; r < kZeroFillRounds; ++r) {
    auto block = std::make_unique<std::byte[]>(kZeroFillBytes);  // value-init: zeroed
    for (std::size_t off = 0; off < kZeroFillBytes; off += 4096) {
      block[off] = static_cast<std::byte>(off >> 12);
      acc += static_cast<std::uint64_t>(block[off ^ 64]);
    }
  }
  return acc;
}

void ping_pong() {
  std::mutex m;
  std::condition_variable cv;
  int turn = 0;  // guarded by m: 0 = main thread's turn, 1 = partner's
  std::thread partner([&] {
    for (int i = 0; i < kPingPongRounds; ++i) {
      std::unique_lock lock(m);
      cv.wait(lock, [&] { return turn == 1; });
      turn = 0;
      cv.notify_all();
    }
  });
  for (int i = 0; i < kPingPongRounds; ++i) {
    std::unique_lock lock(m);
    turn = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return turn == 0; });
  }
  partner.join();
}

}  // namespace

ReferenceTimes reference_unit() {
  ReferenceTimes t;
  double c = cpu_seconds();
  volatile std::uint64_t sink = twiddle();
  t.twiddle = cpu_seconds() - c;
  c = cpu_seconds();
  sink = zero_fill();
  (void)sink;
  t.zero_fill = cpu_seconds() - c;
  c = cpu_seconds();
  ping_pong();
  t.ping_pong = cpu_seconds() - c;
  return t;
}

}  // namespace perfbench
