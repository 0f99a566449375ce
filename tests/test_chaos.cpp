// Chaos integration tests: full MiniMPI traffic over a deterministic
// lossy/corrupting fabric with injected codec faults. The reliability
// contract under test: every message is either delivered bit-exactly
// (whatever it took — CRC-triggered NACKs, drop timeouts, raw-resend
// degradation) or completes with a clean RetryLimit error status. No
// hangs, no silent corruption, bounded retries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/telemetry.hpp"
#include "data/datasets.hpp"
#include "fault/injector.hpp"
#include "mpi/world.hpp"

namespace {

using namespace gcmpi;
using mpi::Rank;
using mpi::StatusError;
using mpi::World;
using sim::Time;

TEST(Chaos, LossyWirePt2PtSweepDeliversBitExact) {
  // Fig. 9-style pt2pt sweep (several sizes, both directions) but over a
  // fabric that drops 5% and corrupts 5% of the rendezvous data packets.
  fault::FaultInjector injector(fault::FaultPlan::lossy(20260806, 0.05, 0.05));
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.fault = &injector;
  opts.telemetry = &telemetry;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);

  const std::size_t sizes[] = {16384, 65536, 262144};  // floats: 64 KB .. 1 MB
  const int iters = 8;
  int messages = 0;

  world.run([&](Rank& R) {
    const int peer = 1 - R.rank();
    for (const std::size_t n : sizes) {
      const auto payload =
          data::generate("msg_sppm", n, /*seed=*/n ^ 0x9e37);
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      std::memcpy(dev, payload.data(), n * 4);
      std::vector<float> rbuf(n);
      for (int it = 0; it < iters; ++it) {
        // Rank 0 sends on even iterations, rank 1 on odd ones.
        const bool sender = (it % 2 == 0) == (R.rank() == 0);
        if (sender) {
          R.send(dev, n * 4, peer, static_cast<int>(n % 1000) + it);
          ++messages;
        } else {
          std::memset(rbuf.data(), 0, n * 4);
          const auto st =
              R.recv(rbuf.data(), n * 4, peer, static_cast<int>(n % 1000) + it);
          ASSERT_TRUE(st.ok());
          ASSERT_EQ(st.bytes, n * 4);
          ASSERT_EQ(std::memcmp(rbuf.data(), payload.data(), n * 4), 0)
              << "size " << n << " iter " << it;
        }
      }
      R.gpu_free(dev);
    }
  });

  // The chosen seed makes the fabric actually misbehave...
  const auto& fs = injector.stats();
  EXPECT_GT(fs.drops + fs.corruptions, 0u);
  // ...and every fault was recovered by a bounded number of re-pushes.
  const auto summary = telemetry.summarize();
  EXPECT_GT(summary.retransmits, 0u);
  EXPECT_LE(summary.retransmits, fs.data_packets);
  EXPECT_EQ(summary.corruptions_detected, fs.corruptions);
}

TEST(Chaos, CollectivesUnderLossAndCorruption) {
  // Binomial-tree bcast + ring allgather (the compression-aware wire
  // forms) on real dataset payloads over a 3%/3% lossy fabric: every rank
  // must end with bit-identical data.
  fault::FaultInjector injector(fault::FaultPlan::lossy(777, 0.03, 0.03));
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.fault = &injector;
  World world(engine, net::longhorn(2, 2), core::CompressionConfig::mpc_opt(), opts);
  const int P = world.size();

  const std::size_t n = 65536;  // 256 KB, well past the eager threshold
  const auto truth = data::generate("msg_sweep3d", n, 3);
  const std::size_t block = 16384;
  std::vector<std::vector<float>> gathered(static_cast<std::size_t>(P));

  world.run([&](Rank& R) {
    const int me = R.rank();
    // bcast from rank 0 out of device memory (compressed per hop).
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    if (me == 0) std::memcpy(dev, truth.data(), n * 4);
    R.bcast(dev, n * 4, 0);
    ASSERT_EQ(std::memcmp(dev, truth.data(), n * 4), 0) << "bcast diverged on rank " << me;

    // allgather of per-rank blocks (slices of the broadcast data).
    auto* sendblk = static_cast<float*>(R.gpu_malloc(block * 4));
    std::memcpy(sendblk, truth.data() + static_cast<std::size_t>(me) * block, block * 4);
    auto& all = gathered[static_cast<std::size_t>(me)];
    all.resize(block * static_cast<std::size_t>(P));
    R.allgather(sendblk, block * 4, all.data());
    R.gpu_free(sendblk);
    R.gpu_free(dev);
  });

  for (int r = 0; r < P; ++r) {
    ASSERT_EQ(std::memcmp(gathered[static_cast<std::size_t>(r)].data(), truth.data(),
                          block * static_cast<std::size_t>(P) * 4),
              0)
        << "allgather diverged on rank " << r;
  }
  EXPECT_GT(injector.stats().data_packets, 0u);
}

TEST(Chaos, RingAllreduceUnderLossIsBitExactWithAccountedRetransmits) {
  // The collective engine's ring allreduce over a 4%/4% lossy fabric: every
  // hop is an independently CRC-verified rendezvous transfer, so a dropped
  // or corrupted hop re-pushes only its own chunk. The result must match
  // the fault-free run bit-for-bit AND the host oracle, and the fabric
  // accounting must close: every rendezvous data push is either one of the
  // ring's scheduled hops or a retransmission of one.
  const int nodes = 2, gpn = 2;
  const int P = nodes * gpn;
  const std::size_t n = 65536;  // 256 KB => 64 KB shards, all past threshold
  auto contribution = [n](int rank) {
    return data::generate("msg_sppm", n, 40 + static_cast<std::uint64_t>(rank));
  };

  auto run_ring = [&](fault::FaultInjector* injector, core::Telemetry* telemetry) {
    sim::Engine engine;
    mpi::WorldOptions opts;
    opts.fault = injector;
    opts.telemetry = telemetry;
    opts.collectives.algorithm = core::CollectiveAlgorithm::Ring;
    auto cfg = core::CompressionConfig::mpc_opt();
    cfg.threshold_bytes = 8 * 1024;
    World world(engine, net::longhorn(nodes, gpn), cfg, opts);
    std::vector<std::vector<float>> outs(static_cast<std::size_t>(P));
    world.run([&](Rank& R) {
      const auto mine = contribution(R.rank());
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      std::memcpy(dev, mine.data(), n * 4);
      auto& out = outs[static_cast<std::size_t>(R.rank())];
      out.resize(n);
      R.allreduce(dev, out.data(), n, mpi::ReduceOp::Sum);
      R.gpu_free(dev);
    });
    return outs;
  };

  const auto clean = run_ring(nullptr, nullptr);

  fault::FaultInjector injector(fault::FaultPlan::lossy(0xC4A05, 0.04, 0.04));
  core::Telemetry telemetry;
  const auto lossy = run_ring(&injector, &telemetry);

  std::vector<std::vector<float>> contribs;
  for (int r = 0; r < P; ++r) contribs.push_back(contribution(r));
  const auto oracle = core::allreduce_oracle(contribs, core::ReduceOp::Sum,
                                             core::CollectiveAlgorithm::Ring);
  for (int r = 0; r < P; ++r) {
    ASSERT_EQ(std::memcmp(lossy[static_cast<std::size_t>(r)].data(),
                          clean[static_cast<std::size_t>(r)].data(), n * 4),
              0)
        << "lossy run diverged from fault-free run on rank " << r;
    ASSERT_EQ(std::memcmp(lossy[static_cast<std::size_t>(r)].data(), oracle.data(), n * 4),
              0)
        << "lossy run diverged from the oracle on rank " << r;
  }

  // Accounting closure: the ring schedules 2*P*(P-1) non-empty shard hops
  // (P-1 reduce-scatter + P-1 allgather steps, P senders each, every shard
  // non-empty at this size); each is one rendezvous data push, plus one
  // push per retransmission. The plan corrupts only data packets (never
  // decompress kernels), so no local-retry path muddies the count.
  const auto& fs = injector.stats();
  const auto summary = telemetry.summarize();
  const std::uint64_t hops = 2ull * P * (P - 1);
  EXPECT_EQ(fs.data_packets, hops + summary.retransmits);
  EXPECT_GT(summary.retransmits, 0u) << "fault plan never fired; chaos path untested";
  EXPECT_GT(fs.drops + fs.corruptions, 0u);
}

TEST(Chaos, BatchedAlltoallUnderLossIsBitExactWithAccountedRetransmits) {
  // The batched alltoall engine over a 4%/4% lossy fabric: every slab
  // slice is its own CRC-verified rendezvous transfer, so a dropped or
  // corrupted slice re-pushes only itself while the other P-2 in-flight
  // slices are untouched. The lossy run must match the fault-free run
  // bit-for-bit, and the packet accounting must close: P*(P-1) scheduled
  // slices plus one push per retransmission.
  const int nodes = 2, gpn = 2;
  const int P = nodes * gpn;
  const std::size_t bn = 65536;  // floats per destination block: 256 KB slices
  auto block = [bn](int src, int dst) {
    return data::generate("msg_sppm", bn,
                          90 + static_cast<std::uint64_t>(src) * 17u +
                              static_cast<std::uint64_t>(dst));
  };

  auto run_alltoall = [&](fault::FaultInjector* injector, core::Telemetry* telemetry) {
    sim::Engine engine;
    mpi::WorldOptions opts;
    opts.fault = injector;
    opts.telemetry = telemetry;
    opts.collectives.alltoall_algorithm = core::CollectiveAlgorithm::BatchedPairwise;
    auto cfg = core::CompressionConfig::mpc_opt();
    cfg.threshold_bytes = 8 * 1024;
    World world(engine, net::longhorn(nodes, gpn), cfg, opts);
    std::vector<std::vector<float>> outs(static_cast<std::size_t>(P));
    world.run([&](Rank& R) {
      auto* send =
          static_cast<float*>(R.gpu_malloc(bn * 4 * static_cast<std::size_t>(P)));
      for (int d = 0; d < P; ++d) {
        const auto b = block(R.rank(), d);
        std::memcpy(send + static_cast<std::size_t>(d) * bn, b.data(), bn * 4);
      }
      auto& out = outs[static_cast<std::size_t>(R.rank())];
      out.assign(bn * static_cast<std::size_t>(P), -1.0f);
      R.alltoall(send, bn * 4, out.data());
      R.gpu_free(send);
    });
    return outs;
  };

  const auto clean = run_alltoall(nullptr, nullptr);

  fault::FaultInjector injector(fault::FaultPlan::lossy(0xA77A11, 0.04, 0.04));
  core::Telemetry telemetry;
  const auto lossy = run_alltoall(&injector, &telemetry);

  for (int r = 0; r < P; ++r) {
    ASSERT_EQ(std::memcmp(lossy[static_cast<std::size_t>(r)].data(),
                          clean[static_cast<std::size_t>(r)].data(),
                          bn * 4 * static_cast<std::size_t>(P)),
              0)
        << "lossy alltoall diverged from fault-free run on rank " << r;
    for (int s = 0; s < P; ++s) {
      const auto expect = block(s, r);
      ASSERT_EQ(std::memcmp(lossy[static_cast<std::size_t>(r)].data() +
                                static_cast<std::size_t>(s) * bn,
                            expect.data(), bn * 4),
                0)
          << "rank " << r << " block from " << s << " corrupted";
    }
  }

  // Accounting closure: the scattered schedule moves exactly P*(P-1)
  // slices, each one rendezvous data push; the plan touches only data
  // packets, so every extra push is an accounted retransmission.
  const auto& fs = injector.stats();
  const auto summary = telemetry.summarize();
  const std::uint64_t scheduled = static_cast<std::uint64_t>(P) * (P - 1);
  EXPECT_EQ(fs.data_packets, scheduled + summary.retransmits);
  EXPECT_GT(summary.retransmits, 0u) << "fault plan never fired; chaos path untested";
  EXPECT_GT(fs.drops + fs.corruptions, 0u);
}

TEST(Chaos, HierarchicalBcastUnderLossIsBitExactWithTransitBudget) {
  // The hierarchical bcast (one inter-node wire transit per node, see
  // src/mpi/hier_engine.cpp) on 4 nodes x 4 GPUs over a 4%/4% lossy
  // fabric. Three rounds from different roots (a non-leader, a leader,
  // one on the last node) must deliver bit-exactly, and the split
  // inter-node accounting must close: the representative tree has exactly
  // nodes-1 IB edges per round and each edge needs exactly one SUCCESSFUL
  // delivery, so every extra inter-node push is an accounted drop or a
  // CRC-caught corruption (the two verdicts are exclusive per packet).
  const int nodes = 4, gpn = 4;
  const int P = nodes * gpn;
  const std::size_t n = 65536;  // 256 KB: rendezvous wire transits
  const int roots[] = {1, 4, 13};
  auto payload = [n](int round) {
    return data::generate("msg_sppm", n, 60 + static_cast<std::uint64_t>(round));
  };

  auto run_bcasts = [&](fault::FaultInjector* injector, core::Telemetry* telemetry) {
    sim::Engine engine;
    mpi::WorldOptions opts;
    opts.fault = injector;
    opts.telemetry = telemetry;
    opts.collectives.bcast_algorithm = core::CollectiveAlgorithm::Hierarchical;
    World world(engine, net::longhorn(nodes, gpn), core::CompressionConfig::mpc_opt(),
                opts);
    std::vector<std::vector<float>> outs(static_cast<std::size_t>(P));
    world.run([&](Rank& R) {
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      auto& out = outs[static_cast<std::size_t>(R.rank())];
      out.resize(n * 3);
      for (int round = 0; round < 3; ++round) {
        const auto truth = payload(round);
        if (R.rank() == roots[round]) {
          std::memcpy(dev, truth.data(), n * 4);
        } else {
          std::memset(dev, 0, n * 4);
        }
        R.bcast(dev, n * 4, roots[round]);
        std::memcpy(out.data() + static_cast<std::size_t>(round) * n, dev, n * 4);
      }
      R.gpu_free(dev);
    });
    return outs;
  };

  const auto clean = run_bcasts(nullptr, nullptr);

  fault::FaultInjector injector(fault::FaultPlan::lossy(0xB0A57C, 0.04, 0.04));
  core::Telemetry telemetry;
  const auto lossy = run_bcasts(&injector, &telemetry);

  for (int r = 0; r < P; ++r) {
    ASSERT_EQ(std::memcmp(lossy[static_cast<std::size_t>(r)].data(),
                          clean[static_cast<std::size_t>(r)].data(), n * 3 * 4),
              0)
        << "lossy hierarchical bcast diverged from fault-free run on rank " << r;
    for (int round = 0; round < 3; ++round) {
      const auto truth = payload(round);
      ASSERT_EQ(std::memcmp(lossy[static_cast<std::size_t>(r)].data() +
                                static_cast<std::size_t>(round) * n,
                            truth.data(), n * 4),
                0)
          << "rank " << r << " round " << round << " corrupted";
    }
  }

  const auto& fs = injector.stats();
  EXPECT_EQ(fs.inter_node_data_packets,
            3ull * (nodes - 1) + fs.inter_node_drops + fs.inter_node_corruptions);
  EXPECT_GT(fs.inter_node_drops + fs.inter_node_corruptions, 0u)
      << "fault plan never hit an IB transit; budget accounting untested";
  EXPECT_GT(telemetry.summarize().retransmits, 0u);
}

TEST(Chaos, BlackHoleLinkStopsAtTheRetryBudget) {
  // A black-hole link (100% drop) must not hang: after max_data_retries
  // re-pushes both sides complete with StatusError::RetryLimit.
  fault::FaultInjector injector(fault::FaultPlan::lossy(5, 1.0, 0.0));
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.fault = &injector;
  opts.telemetry = &telemetry;
  opts.max_data_retries = 4;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::off(), opts);

  const std::size_t n = 262144;  // 1 MB: rendezvous
  mpi::Status send_status, recv_status;
  world.run([&](Rank& R) {
    std::vector<float> buf(n, 1.0f);
    if (R.rank() == 0) {
      auto req = R.isend(buf.data(), n * 4, 1, 9);
      send_status = R.wait(req);
    } else {
      auto req = R.irecv(buf.data(), n * 4, 0, 9);
      recv_status = R.wait(req);
    }
  });

  EXPECT_EQ(send_status.error, StatusError::RetryLimit);
  EXPECT_EQ(recv_status.error, StatusError::RetryLimit);
  EXPECT_EQ(recv_status.bytes, 0u);
  // 1 initial push + max_data_retries re-pushes, not one more.
  EXPECT_EQ(injector.stats().drops, 5u);
  EXPECT_EQ(telemetry.summarize().retransmits, 4u);
}

/// The rendezvous data-phase modes the segment transfer serves.
enum class Transfer { Serial, Pipelined, WarmP2p, WarmWire };

class RetryLimit : public ::testing::TestWithParam<Transfer> {};

TEST_P(RetryLimit, CompletesWithCleanErrorStatus) {
  // A 60%-drop link with a one-retry budget: some messages exhaust their
  // retries. Each such message fails on BOTH sides with RetryLimit; every
  // other message lands intact and in order, and nothing hangs. On a warm
  // channel the failed message keeps its sequence slot, so its receive
  // fails with it instead of taking the next message's bytes.
  const Transfer mode = GetParam();
  const bool warm = mode == Transfer::WarmP2p || mode == Transfer::WarmWire;
  fault::FaultInjector injector(fault::FaultPlan::lossy(7, 0.6, 0.0));
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.fault = &injector;
  opts.telemetry = &telemetry;
  opts.max_data_retries = 1;
  opts.persistent.enabled = warm;
  opts.pipeline.enabled = mode == Transfer::Pipelined;
  opts.pipeline.min_bytes = 128 * 1024;
  opts.pipeline.chunk_bytes = 64 * 1024;
  World world(engine, net::longhorn(2, 1),
              mode == Transfer::Pipelined ? core::CompressionConfig::mpc_opt()
                                          : core::CompressionConfig::off(),
              opts);

  constexpr int kMessages = 12;
  const std::size_t n = 65536;  // 256 KiB: rendezvous
  std::vector<mpi::Status> sent(kMessages), got(kMessages);
  std::vector<bool> intact(kMessages, false);
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      // Message i is filled with the value i, so a receive that took
      // another message's bytes shows. Each send completes before the
      // next, so the channel modes warm up after their first delivery.
      auto* buf = static_cast<float*>(mode == Transfer::Pipelined ? R.gpu_malloc(n * 4)
                                                                    : std::malloc(n * 4));
      for (int i = 0; i < kMessages; ++i) {
        std::fill(buf, buf + n, static_cast<float>(i));
        auto req = mode == Transfer::WarmWire ? R.isend_wire(R.make_wire(buf, n * 4), 1, 3)
                                              : R.isend(buf, n * 4, 1, 3);
        sent[i] = R.wait(req);
      }
      if (mode == Transfer::Pipelined) {
        R.gpu_free(buf);
      } else {
        std::free(buf);
      }
    } else {
      std::vector<float> out(n);
      for (int i = 0; i < kMessages; ++i) {
        std::fill(out.begin(), out.end(), -1.0f);
        if (mode == Transfer::WarmWire) {
          mpi::WireMessage wire;
          auto req = R.irecv_wire(&wire, 0, 3);
          got[i] = R.wait(req);
          if (got[i].ok()) R.decompress_wire(wire, out.data(), n * 4);
        } else {
          got[i] = R.recv(out.data(), n * 4, 0, 3);
        }
        intact[i] = std::all_of(out.begin(), out.end(),
                                [i](float v) { return v == static_cast<float>(i); });
      }
    }
  });

  int failed = 0;
  int recovered = 0;  // clean deliveries after the first failure
  for (int i = 0; i < kMessages; ++i) {
    SCOPED_TRACE("message " + std::to_string(i));
    EXPECT_EQ(sent[i].error, got[i].error);
    if (got[i].ok()) {
      EXPECT_TRUE(intact[i]);
      EXPECT_EQ(got[i].bytes, n * 4);
      if (failed > 0) ++recovered;
    } else {
      EXPECT_EQ(got[i].error, StatusError::RetryLimit);
      EXPECT_EQ(got[i].bytes, 0u);
      ++failed;
    }
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(recovered, 0);
  if (warm) {
    std::uint64_t warm_sends = 0;
    for (const auto& [key, ch] : world.channels()) warm_sends += ch.warm_sends;
    EXPECT_GT(warm_sends, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, RetryLimit,
                         ::testing::Values(Transfer::Serial, Transfer::Pipelined,
                                           Transfer::WarmP2p, Transfer::WarmWire),
                         [](const ::testing::TestParamInfo<Transfer>& info) {
                           switch (info.param) {
                             case Transfer::Serial: return "Serial";
                             case Transfer::Pipelined: return "Pipelined";
                             case Transfer::WarmP2p: return "WarmP2p";
                             case Transfer::WarmWire: return "WarmWire";
                           }
                           return "Unknown";
                         });

TEST(Chaos, CompressionKernelFaultsDegradeToRaw) {
  // Every compression kernel launch fails: all rendezvous messages fall
  // back to raw sends, delivery stays bit-exact, telemetry records the
  // faults.
  fault::FaultInjector injector(fault::FaultPlan::flaky_codec(11, 1.0));
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.fault = &injector;
  opts.telemetry = &telemetry;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);

  const std::size_t n = 65536;
  const auto payload = data::generate("obs_error", n, 4);
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      std::memcpy(dev, payload.data(), n * 4);
      for (int i = 0; i < 4; ++i) R.send(dev, n * 4, 1, i);
      R.gpu_free(dev);
    } else {
      std::vector<float> rbuf(n);
      for (int i = 0; i < 4; ++i) {
        const auto st = R.recv(rbuf.data(), n * 4, 0, i);
        ASSERT_TRUE(st.ok());
        ASSERT_EQ(std::memcmp(rbuf.data(), payload.data(), n * 4), 0);
      }
    }
  });

  const auto summary = telemetry.summarize();
  EXPECT_EQ(summary.codec_faults, 4u);
  EXPECT_EQ(summary.compressions, 0u);  // no kernel ever succeeded
  EXPECT_EQ(world.compression_of(0).stats().codec_faults, 4u);
  EXPECT_EQ(world.compression_of(0).stats().messages_fallback_raw, 4u);
}

TEST(Chaos, DecompressionFaultsTriggerRawResend) {
  // The receiver's decompression kernel always fails. Protocol-level
  // recovery: NACK(decode_fail) -> the sender re-pushes the original user
  // buffer raw -> delivery completes bit-exactly without decompression.
  fault::FaultPlan plan;
  plan.seed = 13;
  plan.decompress_fail_probability = 1.0;
  fault::FaultInjector injector(plan);
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.fault = &injector;
  opts.telemetry = &telemetry;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);

  const std::size_t n = 65536;
  const auto payload = data::generate("msg_sppm", n, 8);
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      std::memcpy(dev, payload.data(), n * 4);
      R.send(dev, n * 4, 1, 1);
      R.gpu_free(dev);
    } else {
      std::vector<float> rbuf(n);
      const auto st = R.recv(rbuf.data(), n * 4, 0, 1);
      ASSERT_TRUE(st.ok());
      ASSERT_EQ(std::memcmp(rbuf.data(), payload.data(), n * 4), 0);
    }
  });

  const auto summary = telemetry.summarize();
  EXPECT_EQ(summary.codec_faults, 1u);   // one failed decompress attempt
  EXPECT_EQ(summary.retransmits, 1u);    // one decode_fail NACK -> raw resend
  EXPECT_EQ(injector.stats().decompress_faults, 1u);
}

TEST(Chaos, NicFlapWindowDefersDelivery) {
  // Node 0's NIC is down for the first 2 ms: a rendezvous payload sent at
  // t~0 cannot complete before the window closes.
  fault::FaultPlan plan;
  plan.seed = 3;
  plan.windows.push_back(
      fault::LinkFaultWindow{0, Time::zero(), Time::ms(2), 1.0, true});
  fault::FaultInjector injector(plan);
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.fault = &injector;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::off(), opts);

  const std::size_t n = 65536;
  Time recv_done = Time::zero();
  world.run([&](Rank& R) {
    std::vector<float> buf(n, 2.0f);
    if (R.rank() == 0) {
      R.send(buf.data(), n * 4, 1, 0);
    } else {
      R.recv(buf.data(), n * 4, 0, 0);
      recv_done = R.now();
      EXPECT_EQ(buf[0], 2.0f);
    }
  });
  EXPECT_GE(recv_done, Time::ms(2));
  EXPECT_GT(injector.stats().stalls, 0u);
}

}  // namespace
