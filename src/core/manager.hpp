// CompressionManager: the per-rank engine implementing Algorithms 1-3 of
// the paper. The MPI rendezvous protocol calls into it on both sides:
//
//   sender:   compress_for_send()  -> wire buffer + header for the RTS
//             release_send()       -> return pooled / free naive buffers
//   receiver: prepare_receive()    -> temp device buffer for the payload
//             decompress_received()-> restore into the user buffer
//             release_receive()
//
// Every CUDA-call cost is charged to the provided Timeline and attributed
// to a Breakdown phase, which is how the Fig. 6/8/10 breakdown benchmarks
// are produced.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "compress/kernel_cost.hpp"
#include "compress/mpc.hpp"
#include "compress/reduce.hpp"
#include "compress/zfp.hpp"
#include "core/adapt.hpp"
#include "core/config.hpp"
#include "core/header.hpp"
#include "core/plan_cache.hpp"
#include "core/telemetry.hpp"
#include "gpu/buffer_pool.hpp"
#include "gpu/device.hpp"
#include "sim/stats.hpp"
#include "sim/timeline.hpp"

#include <stdexcept>

namespace gcmpi::fault {
class FaultInjector;
}

namespace gcmpi::core {

using sim::Breakdown;
using sim::Time;
using sim::Timeline;

/// Thrown by decompress_received when the (injected) decompression kernel
/// fails. The rendezvous protocol turns this into a NACK that asks the
/// sender for a raw resend; collectives retry the kernel locally (see
/// decompress_with_retry).
struct CodecFaultError : std::runtime_error {
  CodecFaultError() : std::runtime_error("injected decompression kernel fault") {}
};

/// Counters for the experiment reports.
struct CompressionStats {
  std::uint64_t messages_considered = 0;
  std::uint64_t messages_compressed = 0;
  std::uint64_t messages_fallback_raw = 0;  // compression did not pay off
  std::uint64_t codec_faults = 0;           // injected kernel faults survived
  std::uint64_t original_bytes = 0;
  std::uint64_t wire_bytes = 0;

  // Chunked pipelined rendezvous (byte totals land in the fields above).
  std::uint64_t pipelined_messages = 0;
  std::uint64_t pipeline_chunks_compressed = 0;
  std::uint64_t pipeline_chunks_raw = 0;  // per-chunk raw fallbacks

  [[nodiscard]] double achieved_ratio() const {
    return wire_bytes == 0 ? 1.0
                           : static_cast<double>(original_bytes) /
                                 static_cast<double>(wire_bytes);
  }
};

class CompressionManager {
 public:
  CompressionManager(gpu::Gpu& gpu, CompressionConfig config);

  [[nodiscard]] const CompressionConfig& config() const { return config_; }
  CompressionConfig& mutable_config() { return config_; }
  [[nodiscard]] gpu::Gpu& gpu() { return gpu_; }

  /// Does this message qualify for on-the-fly compression? (device-resident
  /// float payload of at least threshold size, Sec. III-A step 1).
  [[nodiscard]] bool should_compress(const void* buf, std::uint64_t bytes) const;

  struct WireData {
    const void* data = nullptr;        // bytes to put on the wire
    std::uint64_t bytes = 0;
    CompressionHeader header;
    // ownership of the staging buffer (one of the two below, or none if raw)
    gpu::BufferPool::Lease lease;      // OPT path
    void* naive_buffer = nullptr;      // naive path (timed cudaMalloc)
    bool used_pool = false;
    // Plan-cache slot (persistent channels): when set, release_send gives
    // the slot back to the plan instead of the pool.
    PlanEntry* plan = nullptr;
    int plan_slot = -1;
  };

  struct RecvStaging {
    void* data = nullptr;
    gpu::BufferPool::Lease lease;
    void* naive_buffer = nullptr;
    bool used_pool = false;
    PlanEntry* plan = nullptr;
    int plan_slot = -1;
  };

  /// Sender side (Algorithms 1 and 3). Returns the wire view; if
  /// compression did not pay off, header.compressed is false and `data`
  /// aliases `buf`.
  WireData compress_for_send(Timeline& tl, const void* buf, std::uint64_t bytes);

  /// Release sender staging once the payload left the node (send complete).
  void release_send(Timeline& tl, WireData& wire);

  // --- batched one-shot compression (alltoall/shuffle engine) ---
  //
  // compress_batch packs N independent outgoing blocks into ONE wire slab:
  // the launch/sync overhead of the N compression kernels is paid once —
  // the SMs are divided across the blocks (MPC-OPT's partitioned launch
  // applied across destinations instead of within one message), all kernels
  // are enqueued round-robin over the streams, and a single sync round plus
  // a single d_off memset/readback pass covers the whole batch. Each block
  // keeps its own CompressionHeader (and its own incompressible-raw
  // fallback), so every slab slice is a self-contained wire message.
  // Exactly ONE telemetry event is recorded per batch.

  struct BatchInput {
    const void* buf = nullptr;
    std::uint64_t bytes = 0;
  };

  struct BatchWire {
    struct Block {
      const void* data = nullptr;  // wire bytes: a slab slice, or the raw buf
      std::uint64_t bytes = 0;
      CompressionHeader header;
    };
    std::vector<Block> blocks;  // aligned with the compress_batch input
    // ownership of the shared slab (all compressed blocks live in it)
    gpu::BufferPool::Lease lease;
    void* naive_buffer = nullptr;
    bool used_pool = false;
    PlanEntry* plan = nullptr;
    int plan_slot = -1;
  };

  /// Compress every eligible block of the batch in one batched launch;
  /// ineligible or incompressible blocks come back as raw views of the
  /// caller's buffers. Blocks must stay alive until release_batch.
  BatchWire compress_batch(Timeline& tl, const std::vector<BatchInput>& blocks);

  /// Release the batch slab once every slice left the node.
  void release_batch(Timeline& tl, BatchWire& batch);

  /// Receiver side, on RTS match (Algorithm 2, steps before CTS).
  RecvStaging prepare_receive(Timeline& tl, const CompressionHeader& header);

  /// Receiver side, after the compressed payload arrived (steps 6-7).
  /// With `synchronize == false` the decompression kernels are only
  /// enqueued on the GPU streams (the compression-aware collectives overlap
  /// them with subsequent transfers); the caller must device_synchronize()
  /// before touching `user_buf`'s results or releasing the staging.
  /// `stream_hint` rotates the decode kernels' stream assignment so that
  /// independent messages (e.g. the slices of a batched alltoall) do not
  /// serialize behind each other on stream 0.
  /// Throws CodecFaultError when an injected decompression fault fires.
  void decompress_received(Timeline& tl, const CompressionHeader& header,
                           const RecvStaging& staging, void* user_buf,
                           std::uint64_t user_bytes, bool synchronize = true,
                           int stream_hint = 0);

  /// decompress_received with local kernel-relaunch recovery: an injected
  /// transient decompression fault is retried (a fresh launch, a fresh
  /// fault draw) up to `max_retries` times before the error propagates.
  /// Used where no protocol-level resend exists (wire-form collectives).
  void decompress_with_retry(Timeline& tl, const CompressionHeader& header,
                             const RecvStaging& staging, void* user_buf,
                             std::uint64_t user_bytes, bool synchronize = true,
                             int max_retries = 8, int stream_hint = 0);

  /// Fused decompress+reduce (the collective engine's hop primitive):
  /// decode the staged payload and fold it into the device accumulator,
  /// acc[i] = op(acc[i], decoded[i]), in one kernel pass. Costs the normal
  /// decompression kernels plus the extra accumulator read+write traffic.
  /// The injected-fault check fires BEFORE any output is produced, so the
  /// accumulator is untouched on a CodecFaultError and a relaunch is safe.
  void decompress_reduce(Timeline& tl, const CompressionHeader& header,
                         const RecvStaging& staging, float* acc,
                         std::uint64_t acc_bytes, comp::ReduceOp op,
                         bool synchronize = true);

  /// decompress_reduce with the same local kernel-relaunch recovery as
  /// decompress_with_retry (fresh launch, fresh fault draw per attempt).
  void decompress_reduce_with_retry(Timeline& tl, const CompressionHeader& header,
                                    const RecvStaging& staging, float* acc,
                                    std::uint64_t acc_bytes, comp::ReduceOp op,
                                    bool synchronize = true, int max_retries = 8);

  /// Plain on-device elementwise reduce of an uncompressed incoming payload
  /// into the accumulator (raw collective hops). Returns the kernel's
  /// device completion time.
  Time reduce_device(Timeline& tl, const float* in, float* acc, std::size_t n,
                     comp::ReduceOp op, bool synchronize = true);

  void release_receive(Timeline& tl, RecvStaging& staging);

  // --- chunked pipelined rendezvous (see mpi/pipeline.hpp) ---
  //
  // A pipelined message is compressed one chunk at a time: each chunk is a
  // single-partition kernel on stream (chunk_index % num_streams) with a
  // caller-chosen block count, so up to max_in_flight chunk kernels share
  // the GPU concurrently — MPC-OPT's partitioned launch lifted to the
  // protocol level. compress_chunk charges only host-side enqueue costs to
  // `tl` and reports the kernel's completion time; the protocol schedules
  // finish_chunk at (or after) that time to pay the size readback and make
  // the raw-fallback decision before the chunk goes on the wire.

  struct ChunkWire {
    WireData wire;     // staging ownership + per-chunk header sub-record
    Time kernel_done;  // device completion of this chunk's kernels
    Time kernel_time;  // pure device occupancy (overlap telemetry)
    bool pending_truncate = false;  // injected truncate fault, applied at finish
    bool finished = false;          // raw chunks skip the finish work
  };

  /// Launch compression of one pipeline chunk (`buf`, `bytes` must be the
  /// chunk's slice of the user buffer). Ineligible chunks (tiny tail,
  /// injected launch fault) come back as finished raw views.
  ChunkWire compress_chunk(Timeline& tl, const void* buf, std::uint64_t bytes,
                           int chunk_index, int blocks);

  /// Host-side completion of a launched chunk at/after kernel_done: size
  /// readback, incompressible/truncate fallback to raw, stats + telemetry.
  void finish_chunk(Timeline& tl, ChunkWire& chunk, const void* buf,
                    std::uint64_t bytes);

  /// Receiver staging for a whole pipelined transfer: ONE pooled buffer
  /// (or naive cudaMalloc) sub-allocated into `slices` per-chunk slices,
  /// so a deep pipeline costs one acquisition, not one per chunk.
  struct PipelineStaging {
    void* base = nullptr;
    std::size_t slice_bytes = 0;
    int slices = 0;
    gpu::BufferPool::Lease lease;
    void* naive_buffer = nullptr;
    bool used_pool = false;
    PlanEntry* plan = nullptr;
    int plan_slot = -1;
    [[nodiscard]] bool valid() const { return base != nullptr; }
    [[nodiscard]] void* slice(int chunk_index) const {
      return static_cast<std::uint8_t*>(base) +
             static_cast<std::size_t>(chunk_index % slices) * slice_bytes;
    }
  };

  PipelineStaging prepare_pipeline_receive(Timeline& tl, std::uint64_t chunk_capacity,
                                           int slices);
  void release_pipeline_receive(Timeline& tl, PipelineStaging& staging);

  /// Launch decompression of one arrived chunk from its staging slice into
  /// `out`; returns the kernel completion time (the receive completes at
  /// the max over chunks). Throws CodecFaultError on an injected fault.
  Time decompress_chunk(Timeline& tl, const CompressionHeader& header, const void* staged,
                        void* out, std::uint64_t out_capacity, int chunk_index, int blocks,
                        Time* kernel_time = nullptr);

  /// Stats hook: one pipelined message enters the pipeline (its bytes are
  /// accounted chunk by chunk as they are finished).
  void note_pipelined_message() {
    ++stats_.messages_considered;
    ++stats_.pipelined_messages;
  }

  /// Attach an INAM-style monitor; every (de)compression is recorded.
  void attach_telemetry(Telemetry* telemetry, int rank) {
    telemetry_ = telemetry;
    rank_id_ = rank;
  }

  /// Attach the deterministic fault injector; compression/decompression
  /// operations then consult it for kernel faults (chaos testing).
  void attach_fault_injector(fault::FaultInjector* injector) { fault_ = injector; }

  /// Attach the closed-loop codec selection policy; compress_for_send /
  /// compress_batch / compress_chunk then consult it for every statically
  /// qualified message. Null (the default) keeps the static config.
  void attach_adaptive(AdaptivePolicy* policy) { adapt_ = policy; }

  /// Persistent-channel plan cache (see core/plan_cache.hpp): repeated
  /// same-shape operations reuse held staging leases, skip the per-call
  /// codec setup, and replay a captured launch graph. Off (the default)
  /// leaves every charge byte-identical to the uncached paths.
  void enable_plan_cache(bool on) { plan_cache_enabled_ = on; }
  [[nodiscard]] bool plan_cache_enabled() const { return plan_cache_enabled_; }
  [[nodiscard]] const PlanCacheStats& plan_stats() const { return plan_stats_; }
  /// Every staging buffer acquisition (pool or naive), including plan-slot
  /// growth. Warm iterations on cached plans must not move this counter.
  [[nodiscard]] std::uint64_t staging_acquisitions() const { return staging_acquisitions_; }
  /// The compressed-data buffer pool (read-only; null when the pool is off).
  [[nodiscard]] const gpu::BufferPool* pool() const { return pool_ ? &*pool_ : nullptr; }

  [[nodiscard]] const CompressionStats& stats() const { return stats_; }
  [[nodiscard]] Breakdown& sender_breakdown() { return sender_bd_; }
  [[nodiscard]] Breakdown& receiver_breakdown() { return receiver_bd_; }
  void reset_stats() {
    stats_ = {};
    sender_bd_.clear();
    receiver_bd_.clear();
  }

 private:
  struct MpcOutput {
    std::vector<std::uint32_t> partition_bytes;
    std::uint64_t total_bytes = 0;
  };

  /// Run the (possibly partitioned) MPC compression kernels; writes the
  /// compressed stream into `out` and charges all kernel/copy/readback
  /// costs. `bd` selects sender vs receiver attribution. With `plan_mode`
  /// the memset/kernel enqueues replay as one captured graph and the
  /// per-call host setup is skipped (the plan already holds it).
  MpcOutput run_mpc_compress(Timeline& tl, const float* values, std::size_t n,
                             std::uint8_t* out, std::size_t out_capacity,
                             Breakdown* bd, bool plan_mode = false);
  void run_mpc_decompress(Timeline& tl, const CompressionHeader& header,
                          const std::uint8_t* in, float* out, std::size_t n,
                          Breakdown* bd, bool synchronize, int stream_hint = 0,
                          bool plan_mode = false);

  std::uint64_t run_zfp_compress(Timeline& tl, const float* values, std::size_t n,
                                 std::uint8_t* out, std::size_t out_capacity,
                                 Breakdown* bd, bool plan_mode = false);
  void run_zfp_decompress(Timeline& tl, const CompressionHeader& header,
                          const std::uint8_t* in, float* out, std::size_t n,
                          Breakdown* bd, bool synchronize, int stream_hint = 0,
                          bool plan_mode = false);

  /// Acquire a staging device buffer: pooled (OPT) or cudaMalloc'ed (naive).
  void acquire_staging(Timeline& tl, std::size_t bytes, Breakdown* bd,
                       gpu::BufferPool::Lease& lease, void*& naive_buffer,
                       bool& used_pool);

  // --- plan cache internals ---
  /// Find-or-create the cache entry for a shape; nullptr when disabled.
  PlanEntry* plan_entry(PlanKind kind, Algorithm algo, std::uint64_t bytes, int param);
  /// Hand out a staging slot from the plan (hit: no acquisition) or grow it
  /// via acquire_staging (miss). Falls through to a plain acquisition when
  /// `plan` is null. Returns the slot index (-1 when unplanned).
  int plan_slot_acquire(Timeline& tl, PlanEntry* plan, std::size_t capacity, Breakdown* bd,
                        gpu::BufferPool::Lease& lease, void*& naive_buffer, bool& used_pool);
  void plan_slot_release(PlanEntry* plan, int slot);
  /// First-use epilogue: pay the one-time graph capture/instantiate and
  /// mark the plan replayable.
  void plan_mark_ready(Timeline& tl, PlanEntry* plan, Breakdown* bd);

  gpu::Gpu& gpu_;
  CompressionConfig config_;
  comp::KernelCostModel cost_model_;
  std::optional<gpu::BufferPool> pool_;  // compressed-data buffers
  CompressionStats stats_;
  Breakdown sender_bd_;
  Breakdown receiver_bd_;
  /// Apply the adaptive policy's choice for `scope` to config_ for the
  /// duration of one compression call; restores on destruction. No-op when
  /// no policy is attached.
  class AdaptiveGuard {
   public:
    AdaptiveGuard(CompressionManager& mgr, Timeline& tl, const char* scope,
                  std::uint64_t bytes, bool eligible);
    ~AdaptiveGuard();
    AdaptiveGuard(const AdaptiveGuard&) = delete;
    AdaptiveGuard& operator=(const AdaptiveGuard&) = delete;

   private:
    CompressionManager& mgr_;
    Algorithm saved_algorithm_;
    int saved_zfp_rate_;
    bool active_ = false;
  };

  Telemetry* telemetry_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  AdaptivePolicy* adapt_ = nullptr;
  int rank_id_ = -1;

  bool plan_cache_enabled_ = false;
  std::map<PlanKey, PlanEntry> plans_;  // node stability: entries are pointed into
  PlanCacheStats plan_stats_;
  std::uint64_t staging_acquisitions_ = 0;
};

}  // namespace gcmpi::core
