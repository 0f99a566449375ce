#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "apps/awp/distributed.hpp"
#include "apps/awp/elastic.hpp"
#include "compress/reduce.hpp"
#include "compress/zfp.hpp"
#include "core/collective.hpp"
#include "data/datasets.hpp"
#include "fault/injector.hpp"
#include "mpi/world.hpp"
#include "net/cluster.hpp"

namespace perfbench {

using namespace gcmpi;

SimCounters SimCounters::operator-(const SimCounters& o) const {
  SimCounters d = *this;
  for (std::size_t i = 0; i < d.phase_us.size(); ++i) d.phase_us[i] -= o.phase_us[i];
  d.considered -= o.considered;
  d.compressed -= o.compressed;
  d.original_bytes -= o.original_bytes;
  d.wire_bytes -= o.wire_bytes;
  d.plan_hits -= o.plan_hits;
  d.plan_misses -= o.plan_misses;
  d.fabric_bytes -= o.fabric_bytes;
  d.control_packets -= o.control_packets;
  d.drops -= o.drops;
  d.corruptions -= o.corruptions;
  d.warm_sends -= o.warm_sends;
  d.credit_stalls -= o.credit_stalls;
  return d;
}

SimCounters& SimCounters::operator+=(const SimCounters& o) {
  for (std::size_t i = 0; i < phase_us.size(); ++i) phase_us[i] += o.phase_us[i];
  considered += o.considered;
  compressed += o.compressed;
  original_bytes += o.original_bytes;
  wire_bytes += o.wire_bytes;
  plan_hits += o.plan_hits;
  plan_misses += o.plan_misses;
  fabric_bytes += o.fabric_bytes;
  control_packets += o.control_packets;
  drops += o.drops;
  corruptions += o.corruptions;
  warm_sends += o.warm_sends;
  credit_stalls += o.credit_stalls;
  return *this;
}

namespace {

constexpr int kUserTag = 7;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Seeded Fisher-Yates over 0..n-1 (std::shuffle's output is not portable
/// across standard libraries; this is).
std::vector<int> seeded_order(int n, std::uint64_t seed) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(mix(seed, static_cast<std::uint64_t>(i)) %
                                    static_cast<std::uint64_t>(i + 1));
    std::swap(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(j)]);
  }
  return order;
}

SimCounters read_world(mpi::World& world, const fault::FaultInjector* fault) {
  SimCounters c;
  for (int r = 0; r < world.size(); ++r) {
    auto& mgr = world.compression_of(r);
    for (std::size_t p = 0; p < sim::Breakdown::kPhases; ++p) {
      const auto phase = static_cast<sim::Phase>(p);
      c.phase_us[p] += mgr.sender_breakdown().get(phase).to_us() +
                       mgr.receiver_breakdown().get(phase).to_us();
    }
    const auto& st = mgr.stats();
    c.considered += st.messages_considered;
    c.compressed += st.messages_compressed;
    c.original_bytes += st.original_bytes;
    c.wire_bytes += st.wire_bytes;
    c.plan_hits += mgr.plan_stats().hits;
    c.plan_misses += mgr.plan_stats().misses;
  }
  c.fabric_bytes = world.fabric().bytes_moved();
  c.control_packets = world.fabric().control_packets();
  for (const auto& [key, ch] : world.channels()) {
    c.warm_sends += ch.warm_sends;
    c.credit_stalls += ch.credit_stalls;
  }
  if (fault != nullptr) {
    c.drops = fault->stats().drops;
    c.corruptions = fault->stats().corruptions;
  }
  return c;
}

/// A nominal message size plus a seeded 0-2% (rounded down to whole
/// 4 KiB pages, so MPC chunks and reduce_scatter shards stay whole). The
/// jitter keeps seeds from sharing identical simulated latencies (ZFP's
/// fixed-rate size does not depend on the data) and never crosses a
/// selection floor, which all sit at nominal sizes.
std::uint64_t jittered(std::uint64_t nominal, std::uint64_t draw) {
  const std::uint64_t extra = nominal / 50 * (draw % 1001) / 1000;
  return nominal + extra / 4096 * 4096;
}

/// `n` values of a Table III dataset: a seeded window (at a whole MPC
/// chunk) into one fixed-seed stream of it. Every seed then sees data of
/// the same character, so a seed moves costs far less than regenerating
/// the dataset would (that swung host cost by 15% between seeds).
std::vector<float> dataset_window(const std::string& name, std::size_t n, std::uint64_t draw) {
  constexpr std::size_t kChunk = 1024;
  const std::size_t slack = std::max<std::size_t>(n / 8, kChunk) / kChunk * kChunk;
  const std::vector<float> stream = data::generate(name, n + slack);
  const std::size_t off = draw % (slack / kChunk + 1) * kChunk;
  return {stream.begin() + static_cast<std::ptrdiff_t>(off),
          stream.begin() + static_cast<std::ptrdiff_t>(off + n)};
}

std::string size_label(std::uint64_t bytes) {
  return bytes >= (1u << 20) ? std::to_string(bytes >> 20) + "m"
                             : std::to_string(bytes >> 10) + "k";
}

// ---------------------------------------------------------------------------
// p2p_lossy: large device-resident messages, 2 ranks, lossy wire.
// ---------------------------------------------------------------------------

constexpr int kP2pSizes = 8;  // 256 KiB .. 32 MiB
constexpr int kP2pLanes = 2;  // mpc_opt(), zfp_opt(16)

std::uint64_t p2p_bytes(int k) { return (256ull << 10) << k; }

class P2pLossy final : public Workload {
 public:
  explicit P2pLossy(bool mpc_naive) : mpc_naive_(mpc_naive) {}

  void generate(std::uint64_t seed) override {
    const auto& sets = data::table3_datasets();
    for (int lane = 0; lane < kP2pLanes; ++lane) {
      for (int k = 0; k < kP2pSizes; ++k) {
        // Dataset per (lane, size) is fixed; the seed varies the content.
        const auto& info = sets[static_cast<std::size_t>(k + 3 * lane) % sets.size()];
        auto& p = payload_[lane][k];
        const std::uint64_t bytes = jittered(p2p_bytes(k), mix(seed, 50u + 16u * lane + k));
        p = dataset_window(info.name, bytes / 4, mix(seed, 16u * lane + k));
        double max_abs = 0.0;
        for (float v : p) max_abs = std::max(max_abs, std::fabs(static_cast<double>(v)));
        if (lane == 1) zfp_bound_[k] = comp::ZfpCodec(16).error_bound(max_abs);
      }
      fault_seed_[lane] = mix(seed, 100 + static_cast<std::uint64_t>(lane));
    }
    order_ = seeded_order(kP2pLanes * kP2pSizes, mix(seed, 7));
  }

  void setup(core::Telemetry* telemetry) override {
    for (int lane = 0; lane < kP2pLanes; ++lane) {
      Lane& L = lanes_[lane];
      L.engine = std::make_unique<sim::Engine>();
      L.fault = std::make_unique<fault::FaultInjector>(
          fault::FaultPlan::lossy(fault_seed_[lane], 0.01, 0.01));
      mpi::WorldOptions opts;
      opts.telemetry = telemetry;
      opts.fault = L.fault.get();
      opts.pipeline.enabled = true;  // chunk_bytes 0 = cost-model auto chunking
      const auto cfg = lane == 0 ? (mpc_naive_ ? core::CompressionConfig::mpc_naive()
                                               : core::CompressionConfig::mpc_opt())
                                 : core::CompressionConfig::zfp_opt(16);
      L.world = std::make_unique<mpi::World>(*L.engine, net::longhorn(2, 1), cfg, opts);
      for (int k = 0; k < kP2pSizes; ++k) {
        const auto& p = payload_[lane][k];
        L.send[k] = static_cast<float*>(L.world->gpu_of(0).malloc_device_untimed(p.size() * 4));
        std::memcpy(L.send[k], p.data(), p.size() * 4);
      }
      const std::uint64_t largest = jittered(p2p_bytes(kP2pSizes - 1), 1000);  // any seed
      L.recv = static_cast<float*>(L.world->gpu_of(1).malloc_device_untimed(largest));
    }
  }

  void teardown() override {
    for (auto& L : lanes_) {
      L.world.reset();  // before the engine and injector it refers to
      L.fault.reset();
      L.engine.reset();
    }
  }

  int round_ops() const override { return kP2pLanes * kP2pSizes; }
  int sample_rounds() const override { return 6; }
  std::string op_class(int i) const override { return "p2p_" + size_label(p2p_bytes(size_of(i))); }

  void prepare_op(int i) override {
    const auto& p = payload_[lane_of(i)][size_of(i)];
    std::memset(lanes_[lane_of(i)].recv, 0xFF, p.size() * 4);  // NaN poison
  }

  OpResult run_op(int i) override {
    return transfer(lanes_[lane_of(i)], size_of(i), payload_[lane_of(i)][size_of(i)].size() * 4);
  }

  bool check_op(int i) override {
    const int k = size_of(i);
    const auto& want = payload_[lane_of(i)][k];
    const float* got = lanes_[lane_of(i)].recv;
    if (lane_of(i) == 0) return std::memcmp(got, want.data(), want.size() * 4) == 0;
    for (std::size_t j = 0; j < want.size(); ++j) {
      const double err = std::fabs(static_cast<double>(got[j]) - static_cast<double>(want[j]));
      if (!(err <= zfp_bound_[k])) return false;
    }
    return true;
  }

  SimCounters counters() override {
    SimCounters c;
    for (auto& L : lanes_) c += read_world(*L.world, L.fault.get());
    return c;
  }

  void begin_sample() override {}
  LayerValues layer_values(int, const SimCounters&) const override { return {}; }

  // Codec compute is nearly all of an op's CPU (a traced run counts 7 minor
  // faults and 15 context switches per op), so only the twiddling part
  // tracks its host speed; with the full mix the seed-to-seed spread of
  // host_cost_per_op was 6-8% instead of 4%.
  ReferenceMix reference_mix() const override { return {1.0, 0.0, 0.0}; }

  std::vector<std::span<const float>> payloads() const override {
    std::vector<std::span<const float>> out;
    for (const auto& lane : payload_) {
      for (const auto& p : lane) out.emplace_back(p);
    }
    return out;
  }

 private:
  struct Lane {
    std::unique_ptr<sim::Engine> engine;
    std::unique_ptr<fault::FaultInjector> fault;
    std::unique_ptr<mpi::World> world;
    std::array<float*, kP2pSizes> send{};
    float* recv = nullptr;
  };

  int lane_of(int i) const { return order_[static_cast<std::size_t>(i)] / kP2pSizes; }
  int size_of(int i) const { return order_[static_cast<std::size_t>(i)] % kP2pSizes; }

  /// One message from the send call to receive completion. Every rank
  /// first moves to the engine's current time: World::run restarts its
  /// actors at time zero, and the common entry keeps ops from overlapping.
  static OpResult transfer(Lane& L, int k, std::uint64_t bytes) {
    const sim::Time entry = L.engine->now();
    sim::Time sent, done;
    mpi::Status send_status, recv_status;
    L.world->run([&](mpi::Rank& R) {
      R.ctx().advance_to(entry);
      if (R.rank() == 0) {
        sent = R.now();
        auto req = R.isend(L.send[k], bytes, 1, kUserTag);
        send_status = R.wait(req);
      } else {
        recv_status = R.recv(L.recv, bytes, 0, kUserTag);
        done = R.now();
      }
    });
    OpResult r;
    r.sim_us = (done - sent).to_us();
    r.span_us = r.sim_us;
    r.user_bytes = bytes;
    r.status_ok = send_status.ok() && recv_status.ok() && recv_status.bytes == bytes;
    return r;
  }

  bool mpc_naive_;
  std::array<std::array<std::vector<float>, kP2pSizes>, kP2pLanes> payload_;
  std::array<double, kP2pSizes> zfp_bound_{};
  std::array<std::uint64_t, kP2pLanes> fault_seed_{};
  std::vector<int> order_;
  std::array<Lane, kP2pLanes> lanes_;
};

// ---------------------------------------------------------------------------
// coll_auto: the eight collectives on 2x4 under Auto selection.
// ---------------------------------------------------------------------------

enum class Coll { Allreduce, ReduceScatter, Reduce, Bcast, Allgather, Alltoall, Gather, Scatter };

const char* coll_name(Coll c) {
  switch (c) {
    case Coll::Allreduce: return "allreduce";
    case Coll::ReduceScatter: return "reduce_scatter";
    case Coll::Reduce: return "reduce";
    case Coll::Bcast: return "bcast";
    case Coll::Allgather: return "allgather";
    case Coll::Alltoall: return "alltoall";
    case Coll::Gather: return "gather";
    case Coll::Scatter: return "scatter";
  }
  return "?";
}

struct CollOp {
  Coll kind;
  std::uint64_t bytes;  // whole vector (reductions, bcast) or per-rank block
};

// Sizes straddle the Auto floors on 2x4: allreduce/reduce_scatter ring or
// hierarchical from 4 MiB, bcast hierarchical from 1 MiB, allgather/
// gather/scatter hierarchical from 256 KiB blocks, batched alltoall from
// 1 MiB blocks (8 MiB per rank). 19 slots: an odd count puts the median
// inside one slot. Reductions and bcast stop at 4 MiB to keep a round near
// 2 s of host CPU.
constexpr std::uint64_t KiB = 1024, MiB = 1024 * 1024;
const std::vector<CollOp> kCollMix = {
    {Coll::Allreduce, 1 * MiB},  {Coll::Bcast, 256 * KiB},     {Coll::Alltoall, 256 * KiB},
    {Coll::Gather, 64 * KiB},    {Coll::ReduceScatter, 1 * MiB}, {Coll::Allgather, 64 * KiB},
    {Coll::Reduce, 64 * KiB},    {Coll::Scatter, 64 * KiB},    {Coll::Allreduce, 2 * MiB},
    {Coll::Bcast, 1 * MiB},      {Coll::Allgather, 256 * KiB}, {Coll::Alltoall, 1 * MiB},
    {Coll::Gather, 512 * KiB},   {Coll::ReduceScatter, 4 * MiB}, {Coll::Scatter, 512 * KiB},
    {Coll::Allreduce, 4 * MiB},  {Coll::Reduce, 4 * MiB},      {Coll::Bcast, 4 * MiB},
    {Coll::Allgather, 1 * MiB},
};
constexpr int kCollNodes = 2, kCollGpn = 4, kCollRanks = kCollNodes * kCollGpn;
constexpr std::uint64_t kCollBufBytes = 8 * MiB + 256 * KiB;  // largest extent + jitter

/// Host replay of Rank::reduce's binomial fold to root 0 (accumulator
/// first, children in ascending mask order).
std::vector<float> binomial_reduce_oracle(std::vector<std::vector<float>> acc) {
  const int P = static_cast<int>(acc.size());
  const std::size_t n = acc[0].size();
  for (int mask = 1; mask < P; mask <<= 1) {
    for (int v = 0; v < P; v += 2 * mask) {
      if (v + mask < P) {
        comp::reduce_inplace(acc[static_cast<std::size_t>(v)].data(),
                             acc[static_cast<std::size_t>(v + mask)].data(), n,
                             comp::ReduceOp::Sum);
      }
    }
  }
  return std::move(acc[0]);
}

class CollAuto final : public Workload {
 public:
  CollAuto(bool force_linear, bool verify_checksums) : verify_checksums_(verify_checksums) {
    if (force_linear) {
      tuning_.algorithm = core::CollectiveAlgorithm::Linear;
      tuning_.alltoall_algorithm = core::CollectiveAlgorithm::Linear;
      tuning_.bcast_algorithm = core::CollectiveAlgorithm::Linear;
      tuning_.allgather_algorithm = core::CollectiveAlgorithm::Linear;
      tuning_.gather_algorithm = core::CollectiveAlgorithm::Linear;
      tuning_.scatter_algorithm = core::CollectiveAlgorithm::Linear;
    }
  }

  void generate(std::uint64_t seed) override {
    const auto& sets = data::table3_datasets();
    for (int r = 0; r < kCollRanks; ++r) {
      contrib_[r] = dataset_window(sets[static_cast<std::size_t>(r) % sets.size()].name,
                                   kCollBufBytes / 4, mix(seed, static_cast<std::uint64_t>(r)));
    }
    mix_ = kCollMix;
    for (std::size_t s = 0; s < mix_.size(); ++s) {
      mix_[s].bytes = jittered(mix_[s].bytes, mix(seed, 50 + s));
    }
    oracle_.assign(mix_.size(), {});
    for (std::size_t s = 0; s < mix_.size(); ++s) {
      const CollOp& op = mix_[s];
      if (op.kind != Coll::Allreduce && op.kind != Coll::ReduceScatter &&
          op.kind != Coll::Reduce) {
        continue;  // moving collectives compare against the inputs directly
      }
      const std::size_t n = op.bytes / 4;
      std::vector<std::vector<float>> prefixes;
      for (const auto& c : contrib_) prefixes.emplace_back(c.begin(), c.begin() + static_cast<std::ptrdiff_t>(n));
      const auto algo = core::resolve_allreduce_algorithm(tuning_, op.bytes, kCollRanks,
                                                          kCollNodes, kCollGpn);
      if (op.kind == Coll::Reduce ||
          (op.kind == Coll::ReduceScatter && algo == core::CollectiveAlgorithm::Linear)) {
        // reduce_scatter's linear path is reduce-to-0 then scatter.
        oracle_[s] = binomial_reduce_oracle(std::move(prefixes));
      } else {
        oracle_[s] = core::allreduce_oracle(
            prefixes, comp::ReduceOp::Sum,
            op.kind == Coll::ReduceScatter ? core::CollectiveAlgorithm::Ring : algo, kCollGpn);
      }
    }
    order_ = seeded_order(static_cast<int>(kCollMix.size()), mix(seed, 7));
  }

  void setup(core::Telemetry* telemetry) override {
    telemetry_ = telemetry;
    engine_ = std::make_unique<sim::Engine>();
    mpi::WorldOptions opts;
    opts.telemetry = telemetry;
    opts.collectives = tuning_;
    opts.verify_checksums = verify_checksums_;
    // MPI_Init pool sized to this mix: every compressed message fits one
    // 16 MiB buffer, and 8 buffers cover the batched alltoall's slab plus
    // its 7 slices. With the 4 x 40 MiB default the first batched alltoall
    // doubled the pool on some ranks and not others, depending on the
    // seed's data, and peak RSS swung between 2.1 and 2.9 GB.
    auto cfg = core::CompressionConfig::mpc_opt();
    cfg.pool_buffer_bytes = 16 * MiB;
    cfg.pool_buffers = 8;
    world_ = std::make_unique<mpi::World>(*engine_, net::longhorn(kCollNodes, kCollGpn), cfg,
                                          opts);
    for (int r = 0; r < kCollRanks; ++r) {
      auto& gpu = world_->gpu_of(r);
      send_[r] = static_cast<float*>(gpu.malloc_device_untimed(kCollBufBytes));
      recv_[r] = static_cast<float*>(gpu.malloc_device_untimed(kCollBufBytes));
      std::memcpy(send_[r], contrib_[r].data(), kCollBufBytes);
    }
  }

  void teardown() override {
    world_.reset();
    engine_.reset();
  }

  int round_ops() const override { return static_cast<int>(kCollMix.size()); }
  int sample_rounds() const override { return 5; }
  std::string op_class(int i) const override { return coll_name(slot(i).kind); }

  void prepare_op(int i) override { prepare(slot(i)); }

  OpResult run_op(int i) override {
    const CollOp& op = slot(i);
    const std::size_t before = telemetry_ != nullptr ? telemetry_->collectives().size() : 0;
    OpResult r = execute(op);
    if (telemetry_ != nullptr) {
      // The linear paths emit no CollectiveRecord of their own op name.
      const auto& recs = telemetry_->collectives();
      std::string algorithm = "linear";
      for (std::size_t k = before; k < recs.size(); ++k) {
        if (std::strcmp(recs[k].op, coll_name(op.kind)) == 0) algorithm = recs[k].algorithm;
        transfer_wait_us_ += recs[k].transfer_busy.to_us();
      }
      ++selections_[std::string("core.select.") + coll_name(op.kind) + "." + algorithm];
    }
    return r;
  }

  bool check_op(int i) override {
    const CollOp& op = slot(i);
    const std::size_t s = static_cast<std::size_t>(order_[static_cast<std::size_t>(i)]);
    const std::size_t n = op.bytes / 4;
    const std::size_t bytes = op.bytes;
    auto same = [](const float* a, const float* b, std::size_t nbytes) {
      return std::memcmp(a, b, nbytes) == 0;
    };
    bool ok = true;
    switch (op.kind) {
      case Coll::Allreduce:
        for (int r = 0; r < kCollRanks; ++r) ok = ok && same(recv_[r], oracle_[s].data(), bytes);
        break;
      case Coll::ReduceScatter: {
        const std::size_t rc = n / kCollRanks;
        for (int r = 0; r < kCollRanks; ++r) {
          ok = ok && same(recv_[r], oracle_[s].data() + static_cast<std::size_t>(r) * rc, rc * 4);
        }
        break;
      }
      case Coll::Reduce:
        ok = same(recv_[0], oracle_[s].data(), bytes);
        break;
      case Coll::Bcast:
        for (int r = 0; r < kCollRanks; ++r) ok = ok && same(recv_[r], contrib_[0].data(), bytes);
        break;
      case Coll::Allgather:  // concatenation oracle
        for (int r = 0; r < kCollRanks; ++r) {
          for (int j = 0; j < kCollRanks; ++j) {
            ok = ok && same(recv_[r] + static_cast<std::size_t>(j) * n, contrib_[j].data(), bytes);
          }
        }
        break;
      case Coll::Alltoall:  // permutation oracle: block r of rank j lands at rank r
        for (int r = 0; r < kCollRanks; ++r) {
          for (int j = 0; j < kCollRanks; ++j) {
            ok = ok && same(recv_[r] + static_cast<std::size_t>(j) * n,
                            contrib_[j].data() + static_cast<std::size_t>(r) * n, bytes);
          }
        }
        break;
      case Coll::Gather:
        for (int j = 0; j < kCollRanks; ++j) {
          ok = ok && same(recv_[0] + static_cast<std::size_t>(j) * n, contrib_[j].data(), bytes);
        }
        break;
      case Coll::Scatter:
        for (int r = 0; r < kCollRanks; ++r) {
          ok = ok && same(recv_[r], contrib_[0].data() + static_cast<std::size_t>(r) * n, bytes);
        }
        break;
    }
    return ok;
  }

  SimCounters counters() override { return read_world(*world_, nullptr); }

  void begin_sample() override {
    selections_.clear();
    transfer_wait_us_ = 0.0;
  }

  LayerValues layer_values(int sample_ops, const SimCounters&) const override {
    LayerValues v(selections_.begin(), selections_.end());
    v["mpi.coll.transfer_wait_us_per_op"] = transfer_wait_us_ / sample_ops;
    return v;
  }

  // Buffer copies and zero-filled payload vectors (29 MB from operator new
  // per op) and ~220 actor hand-offs per op: all three parts.
  ReferenceMix reference_mix() const override { return {}; }

  std::vector<std::span<const float>> payloads() const override {
    return {contrib_.begin(), contrib_.end()};
  }

 private:
  const CollOp& slot(int i) const {
    return mix_[static_cast<std::size_t>(order_[static_cast<std::size_t>(i)])];
  }

  /// Poison every receive extent the op writes; stage bcast's root data.
  void prepare(const CollOp& op) {
    for (int r = 0; r < kCollRanks; ++r) {
      std::memset(recv_[r], 0xFF, std::min<std::uint64_t>(kCollBufBytes, op.bytes * kCollRanks));
    }
    if (op.kind == Coll::Bcast) std::memcpy(recv_[0], contrib_[0].data(), op.bytes);
  }

  /// One collective, from the common entry to the last rank's exit.
  OpResult execute(const CollOp& op) {
    const sim::Time entry = engine_->now();
    std::array<sim::Time, kCollRanks> exit{};
    const std::size_t n = op.bytes / 4;
    world_->run([&](mpi::Rank& R) {
      R.ctx().advance_to(entry);
      const int r = R.rank();
      float* s = send_[r];
      float* d = recv_[r];
      switch (op.kind) {
        case Coll::Allreduce: R.allreduce(s, d, n, mpi::ReduceOp::Sum); break;
        case Coll::ReduceScatter: R.reduce_scatter(s, d, n / kCollRanks, mpi::ReduceOp::Sum); break;
        case Coll::Reduce: R.reduce(s, d, n, mpi::ReduceOp::Sum, 0); break;
        case Coll::Bcast: R.bcast(d, op.bytes, 0); break;
        case Coll::Allgather: R.allgather(s, op.bytes, d); break;
        case Coll::Alltoall: R.alltoall(s, op.bytes, d); break;
        case Coll::Gather: R.gather(s, op.bytes, d, 0); break;
        case Coll::Scatter: R.scatter(s, op.bytes, d, 0); break;
      }
      exit[static_cast<std::size_t>(r)] = R.now();
    });
    OpResult res;
    res.sim_us = (*std::max_element(exit.begin(), exit.end()) - entry).to_us();
    res.span_us = res.sim_us;
    res.user_bytes = delivered_bytes(op);
    return res;
  }

  /// Bytes the op writes into receive buffers from other ranks' data (the
  /// reduced result, for reductions).
  static std::uint64_t delivered_bytes(const CollOp& op) {
    const std::uint64_t P = kCollRanks;
    switch (op.kind) {
      case Coll::Allreduce: return P * op.bytes;
      case Coll::ReduceScatter:
      case Coll::Reduce: return op.bytes;
      case Coll::Bcast: return (P - 1) * op.bytes;
      case Coll::Allgather:
      case Coll::Alltoall: return P * (P - 1) * op.bytes;
      case Coll::Gather:
      case Coll::Scatter: return (P - 1) * op.bytes;
    }
    return 0;
  }

  core::CollectiveTuning tuning_;
  bool verify_checksums_;
  std::vector<CollOp> mix_;  // kCollMix at this seed's jittered sizes
  std::array<std::vector<float>, kCollRanks> contrib_;
  std::vector<std::vector<float>> oracle_;
  std::vector<int> order_;
  core::Telemetry* telemetry_ = nullptr;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<mpi::World> world_;
  std::array<float*, kCollRanks> send_{};
  std::array<float*, kCollRanks> recv_{};
  std::map<std::string, int> selections_;
  double transfer_wait_us_ = 0.0;
};

// ---------------------------------------------------------------------------
// halo_warm: AWP elastic halo exchange over warm persistent channels.
// ---------------------------------------------------------------------------

constexpr int kHaloPx = 4, kHaloPy = 2;

class HaloWarm final : public Workload {
 public:
  explicit HaloWarm(bool persistent) : persistent_(persistent) {}

  void generate(std::uint64_t seed) override {
    // x faces (ny*nz*9 floats = 288 KiB) clear the 256 KiB compression
    // threshold; y faces (nx*nz*9 = 18 KiB) are rendezvous-sized but raw.
    cfg_.local = apps::awp::Grid{4, 64, 128};
    cfg_.px = kHaloPx;
    cfg_.py = kHaloPy;
    cfg_.steps = 2;
    cfg_.pulse_amplitude = 1.0 + 0.5 * static_cast<double>(mix(seed, 1) % 1000) / 1000.0;
    fault_seed_ = mix(seed, 2);

    // Oracle: the same run with compression off on a loss-free wire.
    sim::Engine engine;
    mpi::World world(engine, net::longhorn(2, 4), core::CompressionConfig::off());
    world.run([&](mpi::Rank& R) {
      const auto rep = apps::awp::run_elastic(R, cfg_);
      if (R.rank() == 0) ref_energy_ = rep.final_energy;
    });

    // Replay payload for the codec metrics: an x face of a solver after
    // the pulse has spread for a few steps.
    const auto& g = cfg_.local;
    std::vector<float> fields(apps::awp::ElasticSolver::storage_floats(g), 0.0f);
    apps::awp::ElasticSolver solver(g, apps::awp::ElasticParams{}, fields);
    solver.inject_pulse(0, static_cast<std::ptrdiff_t>(g.ny / 2),
                        static_cast<std::ptrdiff_t>(g.nz / 2), cfg_.pulse_amplitude,
                        cfg_.pulse_sigma);
    for (int s = 0; s < cfg_.steps; ++s) {
      solver.step_velocity();
      solver.step_stress();
    }
    face_.assign(solver.x_face_values(), 0.0f);
    solver.pack_x(false, face_);

    const std::uint64_t xb = solver.x_face_values() * 4, yb = solver.y_face_values() * 4;
    const std::uint64_t x_msgs = 2ull * kHaloPy * (kHaloPx - 1);
    const std::uint64_t y_msgs = 2ull * kHaloPx * (kHaloPy - 1);
    const auto exchanges = 2ull * static_cast<std::uint64_t>(cfg_.steps);
    halo_msgs_per_op_ = exchanges * (x_msgs + y_msgs);
    halo_bytes_per_op_ = exchanges * (x_msgs * xb + y_msgs * yb);
  }

  void setup(core::Telemetry* telemetry) override {
    engine_ = std::make_unique<sim::Engine>();
    // 0.5% of data packets dropped: about 0.4 drops per op, so the median op
    // sees none and the tail sees one. At 1% drop + 1% corruption the
    // median sat on the boundary between ops with one and two
    // retransmits and moved 13% between seeds.
    fault_ = std::make_unique<fault::FaultInjector>(fault::FaultPlan::lossy(fault_seed_, 0.005, 0.0));
    mpi::WorldOptions opts;
    opts.telemetry = telemetry;
    opts.fault = fault_.get();
    opts.persistent.enabled = persistent_;
    world_ = std::make_unique<mpi::World>(*engine_, net::longhorn(2, 4),
                                          core::CompressionConfig::mpc_opt(), opts);
  }

  void teardown() override {
    world_.reset();
    fault_.reset();
    engine_.reset();
  }

  int round_ops() const override { return 4; }
  int sample_rounds() const override { return 24; }
  std::string op_class(int) const override { return "awp_step"; }
  void prepare_op(int) override { report_ = {}; }

  OpResult run_op(int) override {
    const sim::Time entry = engine_->now();
    world_->run([&](mpi::Rank& R) {
      R.ctx().advance_to(entry);
      const auto rep = apps::awp::run_elastic(R, cfg_);
      if (R.rank() == 0) report_ = rep;
    });
    compute_ms_ += report_.compute_time.to_ms();
    comm_ms_ += report_.comm_time.to_ms();
    steps_ += report_.steps;
    halo_msgs_ += halo_msgs_per_op_;
    OpResult r;
    r.sim_us = report_.time_per_step_ms * 1e3;
    r.span_us = report_.total_time.to_us();
    r.user_bytes = halo_bytes_per_op_;
    return r;
  }

  bool check_op(int) override {
    // Lossless compression over a retransmitting wire must reproduce the
    // reference run bit for bit.
    return report_.steps == cfg_.steps &&
           std::memcmp(&report_.final_energy, &ref_energy_, sizeof(double)) == 0;
  }

  SimCounters counters() override { return read_world(*world_, fault_.get()); }

  void begin_sample() override {
    compute_ms_ = comm_ms_ = 0.0;
    steps_ = 0;
    halo_msgs_ = 0;
  }

  LayerValues layer_values(int, const SimCounters& delta) const override {
    return {{"apps.awp.sim_compute_ms_per_step", compute_ms_ / steps_},
            {"apps.awp.sim_comm_ms_per_step", comm_ms_ / steps_},
            {"mpi.warm_send_ratio",
             static_cast<double>(delta.warm_sends) / static_cast<double>(halo_msgs_)}};
  }

  ReferenceMix reference_mix() const override { return {}; }  // as coll_auto

  std::vector<std::span<const float>> payloads() const override { return {face_}; }

 private:
  bool persistent_;
  apps::awp::AwpConfig cfg_;
  double ref_energy_ = 0.0;
  std::uint64_t fault_seed_ = 0;
  std::uint64_t halo_msgs_per_op_ = 0, halo_bytes_per_op_ = 0;
  std::vector<float> face_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<fault::FaultInjector> fault_;
  std::unique_ptr<mpi::World> world_;
  apps::awp::AwpReport report_;
  double compute_ms_ = 0.0, comm_ms_ = 0.0;
  int steps_ = 0;
  std::uint64_t halo_msgs_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const std::string& variant) {
  auto bad_variant = [&] {
    return std::invalid_argument("unknown variant '" + variant + "' for workload " + name);
  };
  if (name == "p2p_lossy") {
    if (!variant.empty() && variant != "mpc_naive") throw bad_variant();
    return std::make_unique<P2pLossy>(variant == "mpc_naive");
  }
  if (name == "coll_auto") {
    if (!variant.empty() && variant != "linear" && variant != "crc") throw bad_variant();
    return std::make_unique<CollAuto>(variant == "linear", variant == "crc");
  }
  if (name == "halo_warm") {
    if (!variant.empty() && variant != "cold") throw bad_variant();
    return std::make_unique<HaloWarm>(variant != "cold");
  }
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench
