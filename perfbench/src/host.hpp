// Host-side meters for the benchmark: process clocks, getrusage counters,
// heap traffic seen by a replacement operator new, and the reference task
// that host costs are normalised against.
#pragma once

#include <cstdint>

namespace perfbench {

/// Process CPU time (user + sys, every thread, finished ones included).
[[nodiscard]] double cpu_seconds();
/// Monotonic wall clock.
[[nodiscard]] double wall_seconds();

/// One reading of every host counter; subtract two to get a delta.
struct HostSample {
  double wall = 0.0;
  double cpu = 0.0;
  std::uint64_t minflt = 0;
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary
  std::uint64_t new_calls = 0;
  std::uint64_t new_bytes = 0;

  [[nodiscard]] static HostSample now();
  HostSample operator-(const HostSample& o) const;
  HostSample& operator+=(const HostSample& o);
};

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// operator new counting is off unless a traced run turns it on, so the
/// untraced run pays one relaxed load per allocation.
void count_allocations(bool on);

/// Process CPU seconds spent in each part of one reference unit.
struct ReferenceTimes {
  double twiddle = 0.0;
  double zero_fill = 0.0;
  double ping_pong = 0.0;
};

/// How a workload weighs the parts when it normalises host cost: the mix
/// of host work its own ops do. Constant per workload, so a change in the
/// program's host work moves host_cost_per_op and not the yardstick.
struct ReferenceMix {
  double twiddle = 1.0;
  double zero_fill = 1.0;
  double ping_pong = 1.0;
  [[nodiscard]] double weigh(const ReferenceTimes& t) const {
    return twiddle * t.twiddle + zero_fill * t.zero_fill + ping_pong * t.ping_pong;
  }
};

/// One unit of the reference task: the three kinds of host work the
/// simulator does, in fixed amounts, each timed with the process CPU clock.
///   * bit twiddling over a cache-resident buffer (the codecs, CRC32C);
///   * a zero-filled multi-MiB allocation, touched then freed (the device
///     heap and buffer pools);
///   * a two-thread condition-variable ping-pong (the engine's actor
///     hand-off).
ReferenceTimes reference_unit();

}  // namespace perfbench
