// The benchmark's three closed-loop workloads. Each drives the public API
// (mpi::World/Rank, core::CompressionManager, core::Telemetry, net::Fabric,
// fault::FaultInjector, the codecs, apps::awp) with exactly one operation
// in flight, and checks every operation's output against a host oracle.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/telemetry.hpp"
#include "host.hpp"
#include "sim/stats.hpp"

namespace perfbench {

/// What one operation produced, as the simulator saw it.
struct OpResult {
  double sim_us = 0.0;          // the workload's per-op latency
  double span_us = 0.0;         // simulated time the op occupied (goodput)
  std::uint64_t user_bytes = 0; // uncompressed user bytes delivered
  bool status_ok = true;        // every mpi::Status of the op was ok()
};

/// Cumulative simulated-side counters read through public accessors.
/// Subtract two readings for a delta.
struct SimCounters {
  std::array<double, gcmpi::sim::Breakdown::kPhases> phase_us{};  // sender + receiver
  std::uint64_t considered = 0;
  std::uint64_t compressed = 0;
  std::uint64_t original_bytes = 0;  // over compressed sends
  std::uint64_t wire_bytes = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t fabric_bytes = 0;
  std::uint64_t control_packets = 0;
  std::uint64_t drops = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t warm_sends = 0;
  std::uint64_t credit_stalls = 0;

  SimCounters operator-(const SimCounters& o) const;
  SimCounters& operator+=(const SimCounters& o);
};

/// Metrics only one workload can see (selection counts, AWP splits),
/// accumulated over the ops since begin_sample().
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate inputs and oracles from the seed. Not part of set-up time.
  virtual void generate(std::uint64_t seed) = 0;
  /// Build the World(s) and run the warm-up ops. `telemetry` may be null.
  virtual void setup(gcmpi::core::Telemetry* telemetry) = 0;
  virtual void teardown() = 0;

  /// Ops in one round: every round runs the same multiset in the same
  /// seeded order, so rounds are comparable host-cost blocks.
  [[nodiscard]] virtual int round_ops() const = 0;
  /// Rounds whose ops form the simulated sample (a fixed count, so the
  /// simulated metrics do not depend on host speed).
  [[nodiscard]] virtual int sample_rounds() const = 0;
  /// Size/op class of round slot i (per-class latency medians).
  [[nodiscard]] virtual std::string op_class(int i) const = 0;

  /// Untimed: poison receive buffers and stage in-place inputs.
  virtual void prepare_op(int i) = 0;
  /// Timed: run round slot i to completion.
  virtual OpResult run_op(int i) = 0;
  /// Untimed: compare the op's outputs with the oracle.
  [[nodiscard]] virtual bool check_op(int i) = 0;

  [[nodiscard]] virtual SimCounters counters() = 0;
  /// Reset the per-workload layer accumulators (start of the sample).
  virtual void begin_sample() = 0;
  /// Per-workload layer metrics accumulated since begin_sample(), given
  /// the sample's op count and its counter delta.
  [[nodiscard]] virtual LayerValues layer_values(int sample_ops,
                                                 const SimCounters& delta) const = 0;
  /// Weights of the reference parts for this workload's host cost.
  [[nodiscard]] virtual ReferenceMix reference_mix() const = 0;
  /// The float payloads the codec replay runs over.
  [[nodiscard]] virtual std::vector<std::span<const float>> payloads() const = 0;
};

/// `variant` selects a known-worse or host-only configuration for the
/// sensitivity checks ("" = the benchmark's configuration). Throws
/// std::invalid_argument on an unknown workload or variant.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const std::string& variant);

}  // namespace perfbench
