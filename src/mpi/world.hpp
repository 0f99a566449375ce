// MiniMPI: an MPI-like message-passing library running on the simulated
// GPU cluster, with the paper's on-the-fly compression framework integrated
// into its rendezvous protocol.
//
// Protocol (mirrors MVAPICH2's, Sec. III-A):
//   * eager:      messages <= eager_threshold are staged and delivered with
//                 their envelope in one hop; sends complete locally.
//   * rendezvous: the sender first (optionally) compresses the payload on
//                 its GPU, then sends an RTS carrying the compression
//                 header; the receiver, once a matching receive exists,
//                 prepares a temporary device buffer and answers with CTS;
//                 the sender then pushes the (compressed) payload; on
//                 arrival the receiver decompresses into the user buffer.
//
// The rendezvous data phase is one segment transfer (DESIGN.md §15): a
// message is N >= 1 segments, each pushed, verified, and recovered on its
// own. Three modes plug into that core:
//   * serial:    N = 1 after the RTS/CTS handshake above;
//   * pipelined: N > 1 chunks whose compression starts at CTS and overlaps
//                the wire and the receiver's decompression (mpi/pipeline.hpp);
//   * warm:      N = 1 on a persistent channel whose RTS/CTS was granted
//                once at warm-up (mpi/channel.hpp): credits, a RepeatHeader
//                instead of the full header, in-order consume with parking.
//
// Each rank is an actor thread; the receiver side of the protocol runs in
// engine events, modeling MVAPICH2-GDR's asynchronous progress engine.
// Collectives (bcast, allgather, allreduce, reduce, alltoall, gather,
// scatter, barrier) are built from these point-to-point primitives, so they
// inherit per-hop compression exactly as in the paper's OMB experiments.
//
// Wire reliability (active when WorldOptions::fault is set, or when
// verify_checksums is requested explicitly):
//   * every payload carries a CRC32C — in the eager envelope for eager
//     messages, in the segment's header for rendezvous;
//   * rendezvous data packets can be dropped or bit-corrupted by the fault
//     injector; the receiver NACKs a segment on CRC mismatch, a sender-side
//     watchdog covers drops, and the segment is re-pushed with exponential
//     backoff up to max_data_retries before both requests complete with
//     StatusError::RetryLimit (no hangs; a warm message keeps its sequence
//     slot, so the receive that matches it fails the same way);
//   * a decompression kernel fault NACKs with decode_fail, and the sender
//     falls back to resending that segment raw from the user buffer.
// Control packets (RTS/CTS/NACK/grants) and eager messages ride the modeled
// link-level-reliable control plane and are never dropped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/adapt.hpp"
#include "core/collective.hpp"
#include "core/manager.hpp"
#include "fault/injector.hpp"
#include "gpu/device.hpp"
#include "mpi/channel.hpp"
#include "mpi/pipeline.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"

namespace gcmpi::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Why a request finished unsuccessfully. Only the reliability layer
/// produces non-None values today.
enum class StatusError : std::uint8_t {
  None = 0,
  RetryLimit = 1,         // rendezvous payload never delivered within retry budget
  Truncated = 2,          // eager message larger than the posted receive buffer
  ChecksumMismatch = 3,   // eager payload failed its end-to-end CRC32C check
};

struct Status {
  int source = -1;
  int tag = -1;
  std::uint64_t bytes = 0;
  StatusError error = StatusError::None;

  [[nodiscard]] bool ok() const { return error == StatusError::None; }
};

struct RequestState {
  bool complete = false;
  Status status{};
  sim::ActorId waiter = sim::kNoActor;
};
using Request = std::shared_ptr<RequestState>;

/// A message in its on-the-wire (possibly compressed) representation.
/// Produced by Rank::make_wire / irecv_wire, consumed by isend_wire /
/// decompress_wire. Lets collectives compress once and forward the
/// compressed bytes through the tree/ring instead of paying a
/// decompress+recompress cycle per hop (the compression-aware collectives
/// design; see Sec. VI-B reproduction notes in DESIGN.md).
struct WireMessage {
  core::CompressionHeader header;
  std::shared_ptr<std::vector<std::uint8_t>> payload;
  [[nodiscard]] std::uint64_t original_bytes() const { return header.original_bytes; }
};

/// Reduction operators for reduce/allreduce on float data (the canonical
/// accumulator-first primitives from compress/reduce.hpp).
using ReduceOp = core::ReduceOp;

struct WorldOptions {
  std::uint64_t eager_threshold = 16 * 1024;
  core::Telemetry* telemetry = nullptr;  // optional INAM-style monitor
  sim::Time host_send_overhead = sim::Time::us(0.4);
  sim::Time host_recv_overhead = sim::Time::us(0.4);
  sim::Time progress_overhead = sim::Time::us(0.5);  // per protocol event
  std::uint64_t envelope_bytes = 48;                 // wire header per message
  std::uint64_t rts_bytes = 64;                      // RTS before piggyback
  std::uint64_t cts_bytes = 32;

  // --- wire reliability (see the protocol notes at the top of this file) ---
  /// Deterministic chaos source consulted by the fabric and the codecs.
  /// Installing one turns the reliability layer on.
  fault::FaultInjector* fault = nullptr;
  /// Force CRC computation/verification even without an injector (the
  /// checksums are then pure assertions: nothing corrupts the payloads).
  bool verify_checksums = false;
  /// Give up after this many re-pushes of one rendezvous segment; both
  /// requests then complete with StatusError::RetryLimit.
  int max_data_retries = 8;

  /// Chunked pipelined rendezvous (see mpi/pipeline.hpp). Off by default:
  /// the serial protocol above is reproduced bit-for-bit.
  PipelineConfig pipeline;

  /// Collective algorithm engine tuning (allreduce/reduce_scatter: linear
  /// p2p composition vs compression-aware ring vs hierarchical leader
  /// ring). Auto keeps small/low-rank jobs on the legacy linear schedule.
  core::CollectiveTuning collectives;

  /// Closed-loop codec/algorithm selection (src/adapt). When installed it
  /// is consulted by every rank's CompressionManager before each compress
  /// and by the collective engines' Auto algorithm resolution; telemetry
  /// feeds it back (bind it to `telemetry` above). Null = static tuning.
  core::AdaptivePolicy* adaptive = nullptr;

  /// Persistent channels (see mpi/channel.hpp): repeated same-shape
  /// exchanges skip the RTS/CTS handshake after a one-time warm-up and
  /// reuse cached compression plans + held receiver staging. Off by
  /// default: the cold protocol is reproduced bit-for-bit.
  struct PersistentOptions {
    bool enabled = false;
  };
  PersistentOptions persistent;
};

class World;

/// Per-rank facade handed to the application function: the MPI API.
class Rank {
 public:
  Rank(World& world, int rank, sim::ActorContext& ctx) : world_(world), rank_(rank), ctx_(ctx) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] sim::Time now() const { return ctx_.now(); }
  [[nodiscard]] gpu::Gpu& gpu();
  [[nodiscard]] core::CompressionManager& compression();
  [[nodiscard]] sim::ActorContext& ctx() { return ctx_; }

  /// Elapse virtual compute time (e.g. a GPU kernel of the application).
  void compute(sim::Time t) { ctx_.advance(t); }

  // --- device memory helpers ---
  [[nodiscard]] void* gpu_malloc(std::size_t bytes);
  void gpu_free(void* p);

  // --- point-to-point ---
  Request isend(const void* buf, std::uint64_t bytes, int dst, int tag);
  Request irecv(void* buf, std::uint64_t capacity, int src, int tag);

  // --- wire-level primitives (compression-aware collectives) ---
  /// Compress `buf` once into its wire representation (charges the full
  /// sender-side compression cost; raw pass-through if not eligible).
  [[nodiscard]] WireMessage make_wire(const void* buf, std::uint64_t bytes);
  /// Send an existing wire representation: no recompression, only protocol
  /// and transfer costs.
  Request isend_wire(const WireMessage& msg, int dst, int tag);
  /// Receive a message in wire form: completes at payload arrival, without
  /// decompressing. `out` must stay alive until the request completes.
  Request irecv_wire(WireMessage* out, int src, int tag);
  /// Decompress a wire message into `buf` (charges receiver-side costs).
  void decompress_wire(const WireMessage& msg, void* buf, std::uint64_t capacity);
  /// One outgoing block of a batched multi-destination send.
  struct WireBlock {
    const void* buf = nullptr;
    std::uint64_t bytes = 0;
    int peer = -1;
    int tag = 0;
  };
  /// Compress every eligible block of the batch in ONE batched kernel
  /// launch (CompressionManager::compress_batch): the launch+sync overhead
  /// is paid once for the whole batch instead of once per destination.
  /// Returns one wire message per block, aligned with the input.
  [[nodiscard]] std::vector<WireMessage> make_wire_batch(const std::vector<WireBlock>& blocks);
  /// Multi-destination send (shuffles, scatter roots): blocks that qualify
  /// for batched compression (>= 2 of them) go through make_wire_batch +
  /// isend_wire; the rest take the normal isend path. Returns one request
  /// per block, aligned with the input.
  [[nodiscard]] std::vector<Request> isend_batched(const std::vector<WireBlock>& blocks);
  void send(const void* buf, std::uint64_t bytes, int dst, int tag);
  Status recv(void* buf, std::uint64_t capacity, int src, int tag);
  /// Block until a matching message is available without receiving it
  /// (MPI_Probe); the status reports source, tag, and size.
  Status probe(int src, int tag);
  /// Non-blocking probe (MPI_Iprobe); true if a matching message waits.
  bool iprobe(int src, int tag, Status* status = nullptr);
  Status wait(Request& req);
  void waitall(std::vector<Request>& reqs);
  void sendrecv(const void* sendbuf, std::uint64_t send_bytes, int dst, int sendtag,
                void* recvbuf, std::uint64_t recv_capacity, int src, int recvtag);

  // --- collectives ---
  void barrier();
  void bcast(void* buf, std::uint64_t bytes, int root);
  /// Gather `block_bytes` from every rank into recvbuf (size*block_bytes).
  void allgather(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf);
  void reduce(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op, int root);
  void allreduce(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op);
  /// MPI_Reduce_scatter_block: reduce a P*recvcount vector, leave shard r
  /// (recvcount floats) at rank r. Ring-capable (see coll_engine.cpp).
  void reduce_scatter(const float* sendbuf, float* recvbuf, std::size_t recvcount,
                      ReduceOp op);
  void alltoall(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf);
  void gather(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf, int root);
  void scatter(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf, int root);

 private:
  int next_coll_tag();

  // --- collective algorithm engine (coll_engine.cpp) ---
  /// Per-hop stage accounting for one engine collective on this rank.
  struct CollStats {
    std::uint32_t hops = 0;
    std::uint32_t reduces = 0;
    sim::Time compress_busy;
    sim::Time transfer_busy;
    sim::Time reduce_busy;
  };
  [[nodiscard]] core::CollectiveAlgorithm select_allreduce(std::uint64_t bytes) const;
  void allreduce_linear(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op,
                        int tag);
  void allreduce_ring(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op,
                      int tag);
  void allreduce_hierarchical(const float* sendbuf, float* recvbuf, std::size_t n,
                              ReduceOp op, int tag);
  /// Ring reduce-scatter over `members` (this rank at `members[pos]`): after
  /// N-1 steps the member at position s owns the fully reduced shard s of
  /// the device accumulator `acc` (n floats).
  void ring_reduce_scatter_members(const std::vector<int>& members, int pos, float* acc,
                                   std::size_t n, ReduceOp op, int tag, CollStats& st);
  /// Ring allgather of the reduced shards (wire forms forwarded, decode
  /// overlapped): on return every member's `acc` holds the full vector.
  void ring_allgather_members(const std::vector<int>& members, int pos, float* acc,
                              std::size_t n, int tag, CollStats& st);
  void record_collective(const char* op, core::CollectiveAlgorithm algorithm,
                         std::uint64_t bytes, sim::Time started, const CollStats& st);

  // --- hierarchical moving collectives (hier_engine.cpp) ---
  // Two-level staging for bcast/allgather/gather/scatter: one wire transit
  // crosses IB per node (forwarded compressed form), intra-node traffic
  // rides NVLink, decode happens once per node off the inter-node critical
  // path. Selected by the resolve_*_algorithm floors (or forced knobs),
  // refined by the adaptive control plane under Auto.
  [[nodiscard]] core::CollectiveAlgorithm select_bcast(std::uint64_t bytes) const;
  [[nodiscard]] core::CollectiveAlgorithm select_allgather(std::uint64_t block_bytes) const;
  [[nodiscard]] core::CollectiveAlgorithm select_gather(std::uint64_t block_bytes) const;
  [[nodiscard]] core::CollectiveAlgorithm select_scatter(std::uint64_t block_bytes) const;
  void bcast_hierarchical(void* buf, std::uint64_t bytes, int root, int tag);
  void allgather_hierarchical(const void* sendbuf, std::uint64_t block_bytes,
                              void* recvbuf, int tag);
  void gather_hierarchical(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf,
                           int root, int tag);
  void scatter_hierarchical(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf,
                            int root, int tag);
  /// Intra-node fan-out form of a payload this rank holds raw: compressed
  /// wire when the compress_intra_node gate is on, raw wire otherwise.
  [[nodiscard]] WireMessage make_intra_wire(const void* buf, std::uint64_t bytes);

  // --- alltoall engine (alltoall_engine.cpp) ---
  [[nodiscard]] core::CollectiveAlgorithm select_alltoall(std::uint64_t block_bytes) const;
  /// Batched alltoall: ONE compression launch for the P-1 outgoing blocks,
  /// slab slices exchanged over the scattered pairwise schedule, decodes
  /// enqueued per arriving slice and synced once at the end. The caller
  /// already placed the rank's own block in `recvbuf`.
  void alltoall_batched(const std::uint8_t* sendbuf, std::uint64_t block_bytes,
                        std::uint8_t* recvbuf, int tag);

  World& world_;
  int rank_;
  sim::ActorContext& ctx_;
  int coll_seq_ = 0;
};

class World {
 public:
  World(sim::Engine& engine, net::ClusterSpec cluster,
        core::CompressionConfig compression = core::CompressionConfig::off(),
        WorldOptions options = {});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Spawn one actor per rank running `main` and run the simulation.
  void run(std::function<void(Rank&)> main);

  [[nodiscard]] int size() const { return cluster_.ranks(); }
  [[nodiscard]] const net::ClusterSpec& cluster() const { return cluster_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] gpu::Gpu& gpu_of(int rank);
  [[nodiscard]] core::CompressionManager& compression_of(int rank);
  [[nodiscard]] const WorldOptions& options() const { return options_; }
  /// Persistent-channel table (inspection/tests); empty unless
  /// WorldOptions::persistent is enabled.
  [[nodiscard]] const std::map<ChannelKey, Channel>& channels() const { return channels_; }

 private:
  friend class Rank;

  struct Envelope {
    int src = -1;
    int dst = -1;
    int tag = 0;
    std::uint64_t bytes = 0;   // original message size
    std::uint32_t crc = 0;     // eager payload CRC32C (reliability layer)
  };

  using Payload = std::shared_ptr<std::vector<std::uint8_t>>;

  struct EagerMsg {
    Envelope env;
    Payload payload;
    std::uint64_t arrival = 0;  // per-receiver arrival order (matching)
    bool crc_ok = true;         // end-to-end CRC verdict (reliability layer)
  };

  struct RtsMsg {
    Envelope env;
    core::CompressionHeader header;
    Payload payload;  // wire bytes, staged at send time
    Request send_req;
    const void* sender_buf = nullptr;  // user buffer, for raw-resend fallback
    std::uint64_t arrival = 0;
  };

  struct PostedRecv {
    void* buf = nullptr;
    std::uint64_t capacity = 0;
    int src = kAnySource;
    int tag = kAnyTag;
    Request req;
    WireMessage* wire_out = nullptr;  // set => deliver wire form, skip decompress
  };

  /// One segment of a rendezvous data phase: a slice of the user message
  /// that is pushed, CRC-verified, and recovered on its own.
  struct Segment {
    std::uint64_t offset = 0;  // slice of the user message
    std::uint64_t len = 0;
    core::CompressionHeader header;  // what the receiver verifies and decodes
    Payload payload;                 // staged wire bytes
    std::uint64_t header_wire = 0;      // per-packet header bytes past the envelope
    std::uint64_t raw_header_wire = 0;  // the same once the segment fell back raw
    std::optional<core::Algorithm> label;  // telemetry codec; default: header's
    sim::Time repush_delay;                // progress hop before each (re-)push
    int attempts = 0;  // pushes so far
    bool received = false;
    bool fell_back_raw = false;     // decode faults switched it to raw
    bool recovery_pending = false;  // a NACK/timeout is already in flight
    sim::Engine::CancelToken watchdog;
  };

  /// One rendezvous message in its data phase, kept alive until every
  /// segment is delivered or one exhausts its retries. Serial transfers
  /// hold one segment and the staging prepared at RTS match; pipelined ones
  /// hold one segment per chunk plus the launch window and host cursors;
  /// warm ones hold one segment and their channel sequence slot.
  struct Transfer {
    Envelope env;
    Request send_req;
    PostedRecv recv;  // bound at RTS match (cold) or at consume (warm)
    const void* sender_buf = nullptr;  // raw-fallback source; null for wire forwards
    std::vector<Segment> segs;
    bool done = false;
    sim::Time recv_cursor;  // receiver host work serializes on this cursor
    // PipelineRecord sums, over every push including retransmits.
    std::uint64_t wire_total = 0;
    std::uint32_t retransmits = 0;
    sim::Time transfer_busy;

    // Serial: the receiver's staging for the compressed payload.
    core::CompressionManager::RecvStaging staging;

    // Warm: the channel and this message's sequence slot on it.
    Channel* ch = nullptr;
    std::uint32_t seq = 0;
    std::uint64_t arrival = 0;  // stamp when parked unexpected
    Payload delivered;          // verified bytes, held until consumed

    // Pipelined: chunks compress once the CTS arrives, at most `window` in
    // flight. Per-chunk host work (launches, size readbacks, CRC handling)
    // serializes on the owning side's progress cursor even when chunk
    // events interleave in engine time.
    std::uint64_t chunk_bytes = 0;
    int window = 0;
    int blocks = 0;      // thread blocks per chunk kernel (SMs / window)
    int next_chunk = 0;  // next chunk to launch compression for
    int arrived = 0;     // chunks verified and decoded at the receiver
    core::CompressionManager::PipelineStaging slices;  // receiver slices
    Payload assemble;  // wire-form receivers: chunks reassemble here
    sim::Time start;   // CTS arrival at the sender
    sim::Time send_cursor;
    sim::Time recv_done;  // max over chunk decompression completions
    sim::Time compress_busy;
    sim::Time decompress_busy;

    [[nodiscard]] bool chunked() const { return segs.size() > 1; }
  };
  using TxPtr = std::shared_ptr<Transfer>;

  struct ProbeWaiter {
    int src = kAnySource;
    int tag = kAnyTag;
    sim::ActorId actor = sim::kNoActor;
  };

  struct RankState {
    std::unique_ptr<gpu::Gpu> gpu;
    std::unique_ptr<core::CompressionManager> mgr;
    std::deque<PostedRecv> posted;
    std::deque<EagerMsg> unexpected_eager;
    std::deque<RtsMsg> pending_rts;
    std::deque<TxPtr> parked_warm;  // warm arrivals with no posted receive
    std::vector<ProbeWaiter> probe_waiters;
    std::uint64_t next_arrival = 0;  // stamps unexpected messages so a
                                     // receive matches the OLDEST arrival
                                     // across the unexpected queues (MPI
                                     // non-overtaking)
  };

  [[nodiscard]] static bool matches(const PostedRecv& r, const Envelope& e) {
    return (r.src == kAnySource || r.src == e.src) && (r.tag == kAnyTag || r.tag == e.tag);
  }

  // Protocol steps (see .cpp). Receiver-side handlers run in engine events.
  Request do_isend(sim::ActorContext& ctx, int src, const void* buf,
                   std::uint64_t bytes, int dst, int tag);
  Request do_irecv(sim::ActorContext& ctx, int dst, void* buf, std::uint64_t capacity,
                   int src, int tag, WireMessage* wire_out = nullptr);
  WireMessage do_make_wire(sim::ActorContext& ctx, int rank, const void* buf,
                           std::uint64_t bytes);
  std::vector<WireMessage> do_make_wire_batch(sim::ActorContext& ctx, int rank,
                                              const std::vector<Rank::WireBlock>& blocks);
  /// Would the normal isend path compress this block? (eligibility gate for
  /// routing a block through the batched compress path)
  [[nodiscard]] bool batch_compress_eligible(int src, int dst, const void* buf,
                                             std::uint64_t bytes) const;
  /// Stamp the payload CRC into the header when the reliability layer is on.
  void stamp(WireMessage& msg) const;
  /// Copy `bytes` at `data` into a fresh wire payload under `header`, stamped.
  [[nodiscard]] WireMessage stage_wire(const core::CompressionHeader& header, const void* data,
                                       std::uint64_t bytes) const;
  WireMessage make_raw_wire(const void* buf, std::uint64_t bytes) const;
  Request do_isend_wire(sim::ActorContext& ctx, int src, const WireMessage& msg, int dst,
                        int tag);
  /// Host send overhead, then the RTS (with its piggybacked header) on the
  /// control plane; returns the send request.
  Request send_rts(sim::ActorContext& ctx, RtsMsg rts);
  void on_eager_arrival(EagerMsg msg);
  void on_rts_arrival(RtsMsg rts);
  /// RTS matched a receive: bind it, stage, and answer with CTS (serial
  /// and pipelined transfers).
  void begin_rndv_receive(sim::Timeline& tl, RtsMsg rts, PostedRecv recv);
  /// The one truncation check: a receive too small for the message throws
  /// at the moment it is bound to the transfer.
  void bind_receive(Transfer& tx, PostedRecv recv);

  // --- segment core: push, verify, recover, complete ---
  void push_segment(const TxPtr& tx, std::size_t i, sim::Time start);
  void on_segment(const TxPtr& tx, std::size_t i, const Payload& delivered);
  void retransmit_segment(const TxPtr& tx, std::size_t i, sim::Time at, bool decode_fail);
  void fall_back_raw(Transfer& tx, Segment& seg);
  void fail_transfer(const TxPtr& tx, sim::Time at);
  void end_transfer(const TxPtr& tx, StatusError error, sim::Time send_at,
                    sim::Time recv_at);
  void record_segment(const Transfer& tx, const Segment& seg, core::EventKind kind,
                      sim::Time at, std::uint64_t wire_bytes);
  /// Land a whole-message segment in the bound receive (wire form, decode
  /// through `staging`, or raw copy). False if the decode kernel faulted.
  bool land_message(Transfer& tx, const Payload& delivered,
                    core::CompressionManager::RecvStaging& staging, sim::Timeline& tl);
  void land_serial(const TxPtr& tx, const Payload& delivered, sim::Timeline& tl);

  // --- chunked pipelined rendezvous (see mpi/pipeline.hpp) ---
  [[nodiscard]] bool pipeline_eligible(int src, int dst, const void* buf,
                                       std::uint64_t bytes) const;
  [[nodiscard]] std::uint64_t resolve_chunk_bytes(int src, int dst,
                                                  std::uint64_t bytes) const;
  Request pipeline_isend(sim::ActorContext& ctx, int src, const void* buf,
                         std::uint64_t bytes, int dst, int tag,
                         std::uint64_t chunk_bytes);
  void start_pipeline_sender(const TxPtr& tx);
  void launch_chunk(const TxPtr& tx);
  void chunk_ready(const TxPtr& tx, std::size_t i,
                   const std::shared_ptr<core::CompressionManager::ChunkWire>& ck);
  void land_chunk(const TxPtr& tx, std::size_t i, const Payload& delivered,
                  sim::Timeline& tl);
  void finish_pipeline(const TxPtr& tx);

  // --- persistent channels (see mpi/channel.hpp) ---
  /// Is this send eligible to ride (and eventually warm) a channel? User
  /// point-to-point only: collective-internal tags mint a fresh value per
  /// invocation and would never re-warm (engines ride wire channels).
  [[nodiscard]] bool channel_eligible(int src, int dst, int tag, const void* buf,
                                      std::uint64_t bytes) const;
  /// Find-or-create the channel for a key (assigns the id on creation).
  Channel* channel_for(const ChannelKey& key);
  /// Receiver-side warm-up after a successful cold delivery: pre-acquire
  /// staging, cache the header template, send the one-time credit grant.
  void maybe_warm_channel(const Envelope& env, const core::CompressionHeader& header,
                          bool wire_mode, sim::Time at);
  /// Handshake-free warm send: consume a credit (or stall), ship the
  /// payload with a RepeatHeader. `header` is the freshly compressed wire
  /// header; `payload` the staged wire bytes; `sender_buf` the raw-degrade
  /// source (null for engine wire sends).
  Request warm_isend(sim::ActorContext& ctx, Channel* ch, const Envelope& env,
                     const core::CompressionHeader& header, Payload payload,
                     const void* sender_buf);
  /// A verified (or failed) warm message reached the receiver: consume it
  /// if it is its channel's next in order and a receive matches, else park.
  void warm_arrived(const TxPtr& tx, sim::Timeline& tl);
  /// Bind a warm message to a matching receive and deliver it; consumes a
  /// credit refill slot. A failed message completes the receive with
  /// StatusError::RetryLimit.
  void consume_warm(const TxPtr& tx, PostedRecv recv, sim::Timeline& tl);
  /// After a consume bumped next_consume_seq, a parked out-of-order
  /// successor may have become the head: try to match it.
  void drain_parked_warm(int dst);
  void fail_warm(const TxPtr& tx, sim::Time at);
  /// Sender-side credit refill (piggybacked on the zero-cost completion
  /// notification): un-stall the oldest parked send if any.
  void refill_credit(Channel* ch, sim::Time at);

  void complete(const Request& req, Status status);
  void complete_at(const Request& req, Status status, sim::Time at);
  Status deliver_eager(PostedRecv& recv, const EagerMsg& msg);
  /// Remove and return the oldest posted receive matching `env`, if any.
  std::optional<PostedRecv> take_posted(RankState& state, const Envelope& env);
  bool do_iprobe(int rank, int src, int tag, Status* status);
  Status do_probe(sim::ActorContext& ctx, int rank, int src, int tag);
  void wake_probers(RankState& state, const Envelope& env);

  sim::Engine& engine_;
  net::ClusterSpec cluster_;
  core::CompressionConfig compression_;
  WorldOptions options_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<RankState> ranks_;
  bool reliability_ = false;  // fault injector installed or CRCs forced on

  // Persistent channels: table ordered by key for deterministic telemetry
  // flush; entries are pointed into, so node stability matters.
  std::map<ChannelKey, Channel> channels_;
  std::uint32_t next_channel_id_ = 0;
  /// Per-send stall queue for credit-exhausted channels (sender side).
  std::map<std::uint32_t, std::deque<TxPtr>> stalled_;
};

}  // namespace gcmpi::mpi
