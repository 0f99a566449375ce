// perfbench: the repository benchmark. Runs one closed-loop workload for a
// fixed time, checks every operation's output, and prints its metrics; the
// last line of standard output is one JSON object.
//
//   perfbench --workload <p2p_lossy|coll_auto|halo_warm> --seed <n>
//             --seconds <s> --trace <0|1> [--variant <name>]
//   perfbench --list-metrics
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Two clocks are reported. Simulated metrics come from a fixed number of
// leading rounds (sample_rounds), so they repeat bit for bit at one seed
// on any host. Host metrics cover every round run in --seconds and are
// divided by a reference task timed in the same process after every op.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/mpc.hpp"
#include "compress/zfp.hpp"
#include "core/telemetry.hpp"
#include "host.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using gcmpi::core::Telemetry;

// --- metric catalogue -------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;
  std::string moves;  // end-to-end metric this one should move
  std::string on;     // workloads where it should move
};

const char* const kPhaseNames[] = {
    "memory_allocation",  "data_copies",           "compression_kernel",
    "decompression_kernel", "combine_partitions", "stream_field_creation",
    "device_query",       "communication",         "other"};
static_assert(std::size(kPhaseNames) == gcmpi::sim::Breakdown::kPhases);

const char* const kCollOps[] = {"allreduce", "reduce_scatter", "reduce", "bcast",
                                "allgather", "alltoall",       "gather", "scatter"};
const char* const kP2pClasses[] = {"p2p_256k", "p2p_512k", "p2p_1m",  "p2p_2m",
                                   "p2p_4m",   "p2p_8m",   "p2p_16m", "p2p_32m"};
// Algorithms each collective can resolve to (core::collective_algorithm_name).
const std::map<std::string, std::vector<std::string>> kSelections = {
    {"allreduce", {"linear", "ring", "hierarchical"}},
    {"reduce_scatter", {"linear", "ring"}},
    {"reduce", {"linear"}},
    {"bcast", {"linear", "hierarchical"}},
    {"allgather", {"linear", "hierarchical"}},
    {"alltoall", {"linear", "batched"}},
    {"gather", {"linear", "hierarchical"}},
    {"scatter", {"linear", "hierarchical"}},
};

std::vector<MetricSpec> end_to_end_specs() {
  return {
      {"sim_op_p50_us", "us", "lower", "", ""},
      {"sim_op_tail_us", "us", "lower", "", ""},
      {"sim_goodput_gbps", "Gbit/s", "higher", "", ""},
      {"host_cost_per_op", "ref", "lower", "", ""},
      {"setup_s", "s", "lower", "", ""},
      {"peak_rss_mb", "MB", "lower", "", ""},
      {"op_success_ratio", "ratio", "higher", "", ""},
  };
}

std::vector<MetricSpec> per_layer_specs() {
  const std::string all = "p2p_lossy,coll_auto,halo_warm";
  std::vector<MetricSpec> v = {
      {"sim.ctx_switches_per_op", "count", "lower", "host_cost_per_op", "coll_auto,halo_warm"},
      {"sim.handoff_wait_ms_per_op", "ms", "lower", "host_cost_per_op (diagnostic)",
       "coll_auto,halo_warm"},
      {"host.minflt_per_op", "count", "lower", "host_cost_per_op", "p2p_lossy"},
      {"host.new_bytes_per_op", "bytes", "lower", "host_cost_per_op", "p2p_lossy"},
      {"host.new_calls_per_op", "count", "lower", "host_cost_per_op", "p2p_lossy"},
      {"host.setup_minflt", "count", "lower", "setup_s,peak_rss_mb", all},
      {"data.gen_s", "s", "lower", "none (input generation, outside setup_s)", all},
  };
  for (const char* codec : {"mpc", "zfp16"}) {
    for (const char* dir : {"compress", "decompress"}) {
      v.push_back({std::string("compress.") + codec + ".host_" + dir + "_mb_s", "MB/s",
                   "higher", "host_cost_per_op", "p2p_lossy>coll_auto>halo_warm"});
    }
  }
  for (const char* phase : kPhaseNames) {
    v.push_back({std::string("core.sim_") + phase + "_us_per_op", "us", "lower",
                 "sim_op_p50_us", "p2p_lossy"});
  }
  v.push_back({"core.achieved_ratio", "ratio", "higher", "sim_goodput_gbps", all});
  v.push_back({"core.compress_yield", "ratio", "higher", "sim_goodput_gbps", all});
  v.push_back({"core.plan_hit_ratio", "ratio", "higher", "sim_op_p50_us", "halo_warm"});
  for (const auto& [op, algos] : kSelections) {
    for (const auto& a : algos) {
      v.push_back({"core.select." + op + "." + a, "count", a == "linear" ? "lower" : "higher",
                   "sim_op_p50_us", "coll_auto"});
    }
  }
  for (const char* op : kCollOps) {
    v.push_back({std::string("mpi.") + op + ".sim_p50_us", "us", "lower", "sim_op_p50_us",
                 "coll_auto"});
  }
  for (const char* cls : kP2pClasses) {
    v.push_back({std::string("mpi.") + cls + ".sim_p50_us", "us", "lower", "sim_op_p50_us",
                 "p2p_lossy"});
  }
  const std::vector<MetricSpec> rest = {
      {"mpi.pipeline.overlap", "ratio", "higher", "sim_op_p50_us", "p2p_lossy"},
      {"mpi.retransmits_per_op", "count", "lower", "sim_op_tail_us", "p2p_lossy,halo_warm"},
      {"mpi.warm_send_ratio", "ratio", "higher", "sim_op_p50_us", "halo_warm"},
      {"mpi.credit_stalls_per_op", "count", "lower", "sim_op_tail_us", "halo_warm"},
      {"mpi.coll.transfer_wait_us_per_op", "us", "lower", "sim_op_p50_us", "coll_auto"},
      {"net.wire_bytes_per_op", "bytes", "lower", "sim_goodput_gbps", all},
      {"net.control_packets_per_op", "count", "lower", "sim_op_p50_us", "halo_warm"},
      {"fault.drops_per_op", "count", "lower", "sim_op_tail_us", "p2p_lossy,halo_warm"},
      {"fault.corruptions_per_op", "count", "lower", "sim_op_tail_us", "p2p_lossy,halo_warm"},
      {"apps.awp.sim_compute_ms_per_step", "ms", "lower", "sim_op_p50_us", "halo_warm"},
      {"apps.awp.sim_comm_ms_per_step", "ms", "lower", "sim_op_p50_us", "halo_warm"},
      {"host.ref_cpu_ms", "ms", "lower", "none (host drift diagnostic)", all},
      {"host.cpu_ms_per_op", "ms", "lower", "none (raw, host dependent)", all},
      {"host.wall_ms_per_op", "ms", "lower", "none (raw, host dependent)", all},
      {"trace.overhead_cost_per_op", "ref", "lower",
       "none (traced minus untraced host_cost_per_op)", all},
  };
  v.insert(v.end(), rest.begin(), rest.end());
  return v;
}

// --- statistics ---------------------------------------------------------------

double safe_div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Upper median: an element of the sample. Simulated latencies come in
/// tight per-size clusters, and the upper median stays inside one cluster
/// when retransmits lift a few samples out of the clusters below it.
double median_high(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Highest whole percentile with at least 10 samples beyond it.
int tail_percentile(std::size_t n) {
  return n <= 10 ? 0 : static_cast<int>(100 * (n - 10) / n);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  template <class T>
  void add(const T& v) {
    add(&v, sizeof(v));
  }
};

// --- one measured phase -------------------------------------------------------

struct Measurement {
  // Host side: [round slot][round] CPU, wall and cost of each op.
  std::vector<std::vector<double>> slot_cpu, slot_wall, slot_cost;
  std::vector<double> ref_cpu;  // one whole reference unit per op
  std::vector<ReferenceTimes> ref_parts;
  int rounds = 0;
  HostSample host;  // summed over ops (checks and staging excluded)
  int ops = 0;
  int attempted = 0, failed = 0;
  // Simulated side: the first sample_rounds() rounds.
  std::vector<double> sim_us;
  std::map<std::string, std::vector<double>> class_us;
  double span_us = 0.0;
  double user_bytes = 0.0;
  SimCounters delta;
  LayerValues layer;
  double retransmits = 0.0;
  double pipeline_busy_us = 0.0, pipeline_span_us = 0.0;
  std::uint64_t digest = 0;
};

// Beyond this the run stops adding rounds, whatever --seconds asks, so a
// run always exits well inside the 180 s limit.
constexpr double kMaxMeasureSeconds = 120.0;

Measurement measure(Workload& w, double seconds, Telemetry* tel) {
  Measurement m;
  const int rounds_in_sample = w.sample_rounds();
  const int ops_per_round = w.round_ops();
  const ReferenceMix mix = w.reference_mix();
  Digest digest;
  w.begin_sample();
  if (tel != nullptr) tel->clear();
  const SimCounters start = w.counters();
  m.slot_cpu.resize(static_cast<std::size_t>(ops_per_round));
  m.slot_wall.resize(static_cast<std::size_t>(ops_per_round));
  m.slot_cost.resize(static_cast<std::size_t>(ops_per_round));
  const double t0 = wall_seconds();
  for (int round = 0;; ++round) {
    const double elapsed = wall_seconds() - t0;
    if (round >= rounds_in_sample && (elapsed >= seconds || elapsed >= kMaxMeasureSeconds)) break;
    const bool in_sample = round < rounds_in_sample;
    std::vector<double> round_cpu, round_ref;
    for (int i = 0; i < ops_per_round; ++i) {
      const auto slot = static_cast<std::size_t>(i);
      w.prepare_op(i);
      const HostSample before = HostSample::now();
      const OpResult r = w.run_op(i);
      const HostSample used = HostSample::now() - before;
      m.host += used;
      round_cpu.push_back(used.cpu);
      m.slot_cpu[slot].push_back(used.cpu);
      m.slot_wall[slot].push_back(used.wall);
      // One reference unit after every op tracks host speed at the
      // op's own time scale.
      const ReferenceTimes ref = reference_unit();
      round_ref.push_back(mix.weigh(ref));
      m.ref_cpu.push_back(ref.twiddle + ref.zero_fill + ref.ping_pong);
      m.ref_parts.push_back(ref);
      const bool ok = w.check_op(i) && r.status_ok;
      ++m.attempted;
      if (!ok) ++m.failed;
      if (in_sample) {
        m.sim_us.push_back(r.sim_us);
        m.class_us[w.op_class(i)].push_back(r.sim_us);
        m.span_us += r.span_us;
        m.user_bytes += static_cast<double>(r.user_bytes);
        digest.add(r.sim_us);
        digest.add(r.span_us);
        digest.add(r.user_bytes);
        digest.add(ok);
      }
    }
    ++m.rounds;
    m.ops += ops_per_round;
    const double ref = median(round_ref);
    for (std::size_t i = 0; i < round_cpu.size(); ++i) m.slot_cost[i].push_back(round_cpu[i] / ref);
    if (in_sample && tel != nullptr) {
      for (const auto& ev : tel->events()) {
        if (ev.kind == gcmpi::core::EventKind::Retransmit) m.retransmits += 1.0;
      }
      for (const auto& p : tel->pipelines()) {
        m.pipeline_busy_us +=
            (p.compress_busy + p.transfer_busy + p.decompress_busy).to_us();
        m.pipeline_span_us += p.span.to_us();
      }
    }
    if (tel != nullptr) tel->clear();  // bounded memory; sums are taken per round
    if (round == rounds_in_sample - 1) {
      m.delta = w.counters() - start;
      m.layer = w.layer_values(rounds_in_sample * ops_per_round, m.delta);
      digest.add(m.delta.drops);
      digest.add(m.delta.corruptions);
      digest.add(m.delta.fabric_bytes);
    }
  }
  m.digest = digest.h;
  return m;
}

/// Mean over the round's slots of each slot's median over rounds. Every
/// round runs the same ops, so a slot's median is its typical cost, robust
/// to the rounds where faults made that op retransmit.
double per_op(const std::vector<std::vector<double>>& slots) {
  double sum = 0.0;
  for (const auto& s : slots) sum += median(s);
  return slots.empty() ? 0.0 : sum / static_cast<double>(slots.size());
}

/// Per op: CPU time ÷ median weighted reference unit of the same round.
double host_cost(const Measurement& m) { return per_op(m.slot_cost); }

// --- codec replay -------------------------------------------------------------

struct CodecRates {
  double mpc_c = 0, mpc_d = 0, zfp_c = 0, zfp_d = 0;
  bool ok = true;
};

/// Replays the codecs on the workload's own payloads (up to 16 MiB of
/// them), timed in process CPU seconds.
CodecRates replay_codecs(const Workload& w) {
  constexpr std::size_t kBudgetFloats = 4u << 20;
  std::vector<std::span<const float>> inputs;
  std::size_t total = 0;
  for (auto p : w.payloads()) {
    if (total >= kBudgetFloats) break;
    const std::size_t take = std::min(p.size(), kBudgetFloats - total) / 4 * 4;
    inputs.push_back(p.first(take));
    total += take;
  }
  const double mb = static_cast<double>(total) * 4 / 1e6;
  CodecRates rates;
  const gcmpi::comp::MpcCodec mpc;
  const gcmpi::comp::ZfpCodec zfp(16);
  std::vector<std::vector<std::uint8_t>> packed(inputs.size());
  std::vector<float> out;

  double c0 = cpu_seconds();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    packed[i].resize(mpc.max_compressed_bytes(inputs[i].size()));
    packed[i].resize(mpc.compress(inputs[i], packed[i]));
  }
  rates.mpc_c = mb / (cpu_seconds() - c0);
  double decode = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out.assign(inputs[i].size(), 0.0f);
    c0 = cpu_seconds();
    mpc.decompress(packed[i], out);
    decode += cpu_seconds() - c0;
    rates.ok = rates.ok && std::memcmp(out.data(), inputs[i].data(), out.size() * 4) == 0;
  }
  rates.mpc_d = mb / decode;

  c0 = cpu_seconds();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto field = gcmpi::comp::ZfpField::d1(inputs[i].size());
    packed[i].resize(zfp.compressed_bytes(field));
    (void)zfp.compress(inputs[i], field, packed[i]);
  }
  rates.zfp_c = mb / (cpu_seconds() - c0);
  decode = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out.assign(inputs[i].size(), 0.0f);
    c0 = cpu_seconds();
    zfp.decompress(packed[i], gcmpi::comp::ZfpField::d1(out.size()), out);
    decode += cpu_seconds() - c0;
  }
  rates.zfp_d = mb / decode;
  return rates;
}

// --- output ---------------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

using Values = std::map<std::string, double>;

void emit(const std::vector<MetricSpec>& specs, const Values& values, bool correct,
          int attempted, int failed, bool tagged, const std::string& workload) {
  for (const auto& s : specs) {
    const auto it = values.find(s.name);
    std::printf("%-40s %16s %-7s", s.name.c_str(),
                it == values.end() ? "missing" : number(it->second).c_str(), s.unit.c_str());
    if (tagged) {
      const bool here = s.on.find(workload) != std::string::npos;
      std::printf("  moves %s on %s%s", s.moves.c_str(), s.on.c_str(),
                  here ? "" : "  [not this workload]");
    }
    std::printf("\n");
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& s : specs) {
    const auto it = values.find(s.name);
    const double v = it == values.end() ? 0.0 : it->second;
    json += (first ? "\"" : ", \"") + s.name + "\": {\"value\": " + number(v) +
            ", \"unit\": \"" + s.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_host(const Measurement& m, double gen_s) {
  std::vector<double> tw, zf, pp;
  for (const auto& r : m.ref_parts) {
    tw.push_back(r.twiddle);
    zf.push_back(r.zero_fill);
    pp.push_back(r.ping_pong);
  }
  std::printf("host: cpu_ms_per_op %.3f wall_ms_per_op %.3f; reference unit ms %.3f "
              "(twiddle %.3f zero_fill %.3f ping_pong %.3f); data.gen_s %.3f\n",
              per_op(m.slot_cpu) * 1e3, per_op(m.slot_wall) * 1e3, median(m.ref_cpu) * 1e3,
              median(tw) * 1e3, median(zf) * 1e3, median(pp) * 1e3, gen_s);
}

void print_sample(const char* label, const Measurement& m, const std::string& workload,
                  std::uint64_t seed) {
  const int p = tail_percentile(m.sim_us.size());
  std::printf("%s: %d rounds, %d ops (%d failed); simulated sample %zu ops, tail = p%d "
              "(%zu samples beyond)\n",
              label, m.rounds, m.attempted, m.failed,
              m.sim_us.size(), p,
              m.sim_us.size() - static_cast<std::size_t>(std::ceil(p / 100.0 * m.sim_us.size())));
  std::printf("digest %s seed %llu: %016llx\n", workload.c_str(),
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(m.digest));
}

// --- command line ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::string variant;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool list = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list-metrics") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
      if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace takes 0 or 1");
    } else if (k == "--variant") {
      a.variant = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!a.list && !have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

void list_metrics() {
  for (const auto& [kind, specs] :
       {std::pair{"end_to_end", end_to_end_specs()}, std::pair{"per_layer", per_layer_specs()}}) {
    for (const auto& s : specs) {
      std::printf("%s %s %s %s\n", kind, s.name.c_str(), s.unit.c_str(), s.better.c_str());
    }
  }
}

constexpr int kSetupRepeats = 3;

/// World construction plus one warm-up round: pools grow, channels warm
/// and attribute caches fill before anything is timed. A warm-up op that
/// fails its check is a program fault like any other.
void setup(Workload& w, Telemetry* tel) {
  w.setup(tel);
  for (int i = 0; i < w.round_ops(); ++i) {
    w.prepare_op(i);
    const OpResult r = w.run_op(i);
    if (!w.check_op(i) || !r.status_ok) {
      throw std::runtime_error("warm-up op " + w.op_class(i) + " failed its output check");
    }
  }
}

int run(const Args& a) {
  auto w = make_workload(a.workload, a.variant);
  std::printf("workload %s seed %llu seconds %g trace %d variant '%s'\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace, a.variant.c_str());

  double t = wall_seconds();
  w->generate(a.seed);
  const double gen_s = wall_seconds() - t;
  std::printf("generated inputs in %s s; peak RSS so far %s MB\n", number(gen_s).c_str(),
              number(peak_rss_mb()).c_str());

  if (a.trace == 0) {
    // Set up several times and keep the last World(s); report the median.
    std::vector<double> setups;
    for (int k = 0; k < kSetupRepeats; ++k) {
      if (k > 0) w->teardown();
      t = wall_seconds();
      setup(*w, nullptr);
      setups.push_back(wall_seconds() - t);
      std::printf("setup %d: %s s; peak RSS so far %s MB\n", k, number(setups.back()).c_str(),
                  number(peak_rss_mb()).c_str());
    }
    const Measurement m = measure(*w, a.seconds, nullptr);
    w->teardown();
    print_sample("measured", m, a.workload, a.seed);
    const int p = tail_percentile(m.sim_us.size());
    const Values v = {
        {"sim_op_p50_us", median_high(m.sim_us)},
        {"sim_op_tail_us", percentile(m.sim_us, p)},
        {"sim_goodput_gbps", m.user_bytes * 8.0 / (m.span_us * 1e-6) / 1e9},
        {"host_cost_per_op", host_cost(m)},
        {"setup_s", median(setups)},
        {"peak_rss_mb", peak_rss_mb()},
        {"op_success_ratio",
         static_cast<double>(m.attempted - m.failed) / static_cast<double>(m.attempted)},
    };
    print_host(m, gen_s);
    emit(end_to_end_specs(), v, m.failed == 0, m.attempted, m.failed, false, a.workload);
    return 0;
  }

  // Traced run: half the time untraced (the overhead baseline), half with
  // Telemetry installed and allocation counting on, each on a fresh World.
  setup(*w, nullptr);
  const Measurement base = measure(*w, a.seconds / 2, nullptr);
  w->teardown();
  print_sample("untraced", base, a.workload, a.seed);

  Telemetry telemetry;
  const HostSample s0 = HostSample::now();
  setup(*w, &telemetry);
  const HostSample setup_delta = HostSample::now() - s0;
  count_allocations(true);
  const Measurement m = measure(*w, a.seconds / 2, &telemetry);
  count_allocations(false);
  w->teardown();
  print_sample("traced", m, a.workload, a.seed);
  const CodecRates codecs = replay_codecs(*w);

  const double n = static_cast<double>(m.sim_us.size());  // simulated-sample ops
  const double ops = m.ops;                                // host-sample ops
  const SimCounters& d = m.delta;
  Values v = {
      {"sim.ctx_switches_per_op", static_cast<double>(m.host.ctx_switches) / ops},
      {"sim.handoff_wait_ms_per_op", (m.host.wall - m.host.cpu) / ops * 1e3},
      {"host.minflt_per_op", static_cast<double>(m.host.minflt) / ops},
      {"host.new_bytes_per_op", static_cast<double>(m.host.new_bytes) / ops},
      {"host.new_calls_per_op", static_cast<double>(m.host.new_calls) / ops},
      {"host.setup_minflt", static_cast<double>(setup_delta.minflt)},
      {"data.gen_s", gen_s},
      {"compress.mpc.host_compress_mb_s", codecs.mpc_c},
      {"compress.mpc.host_decompress_mb_s", codecs.mpc_d},
      {"compress.zfp16.host_compress_mb_s", codecs.zfp_c},
      {"compress.zfp16.host_decompress_mb_s", codecs.zfp_d},
      {"core.achieved_ratio",
       safe_div(static_cast<double>(d.original_bytes), static_cast<double>(d.wire_bytes))},
      {"core.compress_yield",
       safe_div(static_cast<double>(d.compressed), static_cast<double>(d.considered))},
      {"core.plan_hit_ratio", safe_div(static_cast<double>(d.plan_hits),
                                       static_cast<double>(d.plan_hits + d.plan_misses))},
      {"mpi.pipeline.overlap", safe_div(m.pipeline_busy_us, m.pipeline_span_us)},
      {"mpi.retransmits_per_op", m.retransmits / n},
      {"mpi.credit_stalls_per_op", static_cast<double>(d.credit_stalls) / n},
      {"net.wire_bytes_per_op", static_cast<double>(d.fabric_bytes) / n},
      {"net.control_packets_per_op", static_cast<double>(d.control_packets) / n},
      {"fault.drops_per_op", static_cast<double>(d.drops) / n},
      {"fault.corruptions_per_op", static_cast<double>(d.corruptions) / n},
      {"host.ref_cpu_ms", median(m.ref_cpu) * 1e3},
      {"host.cpu_ms_per_op", per_op(m.slot_cpu) * 1e3},
      {"host.wall_ms_per_op", per_op(m.slot_wall) * 1e3},
      {"trace.overhead_cost_per_op", host_cost(m) - host_cost(base)},
  };
  for (std::size_t p = 0; p < std::size(kPhaseNames); ++p) {
    v[std::string("core.sim_") + kPhaseNames[p] + "_us_per_op"] = d.phase_us[p] / n;
  }
  if (m.class_us.size() > 1) {  // one class is the whole sample: sim_op_p50_us
    for (const auto& [cls, samples] : m.class_us) v["mpi." + cls + ".sim_p50_us"] = median_high(samples);
  }
  v.insert(m.layer.begin(), m.layer.end());
  const auto specs = per_layer_specs();
  for (const auto& [name, value] : v) {
    const bool known = std::any_of(specs.begin(), specs.end(),
                                   [&](const MetricSpec& s) { return s.name == name; });
    if (!known) std::printf("note: %s = %s is not in the catalogue\n", name.c_str(), number(value).c_str());
  }
  for (const auto& s : specs) v.try_emplace(s.name, 0.0);  // not measured on this workload

  // Tracing must not change simulated results.
  const bool trace_neutral = base.digest == m.digest;
  if (!trace_neutral) std::printf("error: traced and untraced simulated samples differ\n");
  if (!codecs.ok) std::printf("error: MPC replay did not round-trip\n");
  std::printf("tracing overhead: %s ref units per op (traced %s, untraced %s)\n",
              number(host_cost(m) - host_cost(base)).c_str(), number(host_cost(m)).c_str(),
              number(host_cost(base)).c_str());
  emit(specs, v, m.failed == 0 && base.failed == 0 && trace_neutral && codecs.ok,
       m.attempted + base.attempted, m.failed + base.failed, true, a.workload);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse(argc, argv);
    if (args.list) {
      perfbench::list_metrics();
      return 0;
    }
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
