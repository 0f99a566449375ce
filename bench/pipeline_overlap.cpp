// pipeline_overlap — chunked pipelined rendezvous vs the serial protocol.
//
// Sweeps message size x codec x chunking mode for a one-way D-D transfer on
// Longhorn (IB-EDR inter-node), reporting the simulated one-way latency, the
// effective throughput, and the per-stage busy breakdown the pipeline
// telemetry records (compress / wire / decompress overlap). The simulation
// is deterministic, so the JSON this writes (BENCH_pipeline.json) is an
// exact, reproducible artifact: CI re-runs the sweep and compares against
// the committed file with a tight threshold.
//
// Usage:
//   pipeline_overlap [--quick] [--out FILE] [--baseline FILE] [--threshold FRAC]
//
// Exit status is nonzero if (a) any baseline entry regressed beyond the
// threshold, or (b) the PR's acceptance bar fails: auto-tuned pipelining
// must cut >= 20% off the serial one-way latency for MPC messages >= 4 MiB.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/telemetry.hpp"
#include "mpi/pipeline.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"

namespace {

using namespace gcmpi;
using bench::omb_dummy;

struct Options {
  bool quick = false;
  std::string out = "BENCH_pipeline.json";
  std::string baseline;
  double threshold = 0.02;  // simulation is deterministic; tiny drift budget
};

struct Row {
  std::string name;   // pipeline/<codec>/<size>/<mode>
  std::string codec;
  std::string mode;   // serial | auto | chunk512K | ...
  std::size_t bytes = 0;
  double latency_us = 0.0;
  double mbps = 0.0;  // original bytes / simulated one-way latency
  core::PipelineRecord rec;  // zeroed for serial rows
  bool pipelined = false;
};

struct Measurement {
  sim::Time one_way = sim::Time::zero();
  core::Telemetry telemetry;
};

/// One-way rank0 -> rank1 transfer of a device-resident payload.
Measurement one_way_transfer(const core::CompressionConfig& cfg, mpi::WorldOptions opts,
                             const std::vector<float>& payload) {
  Measurement m;
  sim::Engine engine;
  opts.telemetry = &m.telemetry;
  mpi::World world(engine, net::longhorn(2, 1), cfg, opts);
  const std::uint64_t bytes = payload.size() * 4;
  sim::Time start = sim::Time::zero();
  world.run([&](mpi::Rank& R) {
    void* d = R.gpu_malloc(bytes);
    std::memcpy(d, payload.data(), bytes);
    R.barrier();
    if (R.rank() == 0) {
      start = R.now();
      R.send(d, bytes, 1, 1);
    } else {
      R.recv(d, bytes, 0, 1);
      m.one_way = R.now() - start;
    }
    R.gpu_free(d);
  });
  return m;
}

Row run_row(const std::string& codec_label, const core::CompressionConfig& cfg,
            std::size_t bytes, const std::string& mode, std::uint64_t chunk_bytes,
            bool pipelined) {
  mpi::WorldOptions opts;
  opts.pipeline.enabled = pipelined;
  opts.pipeline.chunk_bytes = chunk_bytes;
  const auto payload = omb_dummy(bytes);
  const Measurement m = one_way_transfer(cfg, opts, payload);
  Row row;
  row.name = "pipeline/" + codec_label + "/" + bench::size_label(bytes) + "/" + mode;
  row.codec = codec_label;
  row.mode = mode;
  row.bytes = bytes;
  row.latency_us = m.one_way.to_seconds() * 1e6;
  row.mbps = static_cast<double>(bytes) / m.one_way.to_seconds() / 1e6;
  row.pipelined = !m.telemetry.pipelines().empty();
  if (row.pipelined) row.rec = m.telemetry.pipelines().front();
  return row;
}

void print_row(const Row& r) {
  if (r.pipelined) {
    const auto& p = r.rec;
    const double busy_sum = (p.compress_busy + p.transfer_busy + p.decompress_busy).to_seconds();
    const double overlap = busy_sum > 0.0 ? (1.0 - p.span.to_seconds() / busy_sum) * 100.0 : 0.0;
    std::printf(
        "%-36s %10.1f us %9.1f MB/s  chunks=%2u  c/w/d=%.0f/%.0f/%.0f us  overlap=%4.1f%%\n",
        r.name.c_str(), r.latency_us, r.mbps, p.chunks,
        p.compress_busy.to_seconds() * 1e6, p.transfer_busy.to_seconds() * 1e6,
        p.decompress_busy.to_seconds() * 1e6, overlap);
  } else {
    std::printf("%-36s %10.1f us %9.1f MB/s\n", r.name.c_str(), r.latency_us, r.mbps);
  }
}

void write_json(const Options& opt, const std::vector<Row>& rows) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"gcmpi-bench-pipeline-v1\",\n"
     << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n"
     << "  \"units\": {\"mbps\": \"original MB per simulated second, one-way D-D "
        "Longhorn inter-node\"},\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"codec\": \"%s\", \"mode\": \"%s\", \"bytes\": %zu, "
                  "\"latency_us\": %.3f, \"mbps\": %.1f, \"chunks\": %u}%s\n",
                  r.name.c_str(), r.codec.c_str(), r.mode.c_str(), r.bytes, r.latency_us,
                  r.mbps, r.pipelined ? r.rec.chunks : 0u, i + 1 < rows.size() ? "," : "");
    os << line;
  }
  os << "  ]\n}\n";
  std::ofstream f(opt.out);
  if (!f) {
    std::fprintf(stderr, "pipeline_overlap: cannot write %s\n", opt.out.c_str());
    std::exit(2);
  }
  f << os.str();
  std::printf("wrote %s (%zu entries)\n", opt.out.c_str(), rows.size());
}

std::vector<std::pair<std::string, double>> read_baseline(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "pipeline_overlap: cannot read baseline %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<std::pair<std::string, double>> out;
  std::string line;
  while (std::getline(f, line)) {
    const std::size_t np = line.find("\"name\": \"");
    const std::size_t mp = line.find("\"mbps\": ");
    if (np == std::string::npos || mp == std::string::npos) continue;
    const std::size_t ns = np + 9;
    const std::size_t ne = line.find('"', ns);
    if (ne == std::string::npos) continue;
    out.emplace_back(line.substr(ns, ne - ns), std::strtod(line.c_str() + mp + 8, nullptr));
  }
  return out;
}

int compare_baseline(const Options& opt, const std::vector<Row>& rows) {
  const auto base = read_baseline(opt.baseline);
  int regressions = 0;
  std::size_t matched = 0;
  for (const Row& r : rows) {
    const auto it = std::find_if(base.begin(), base.end(),
                                 [&](const auto& b) { return b.first == r.name; });
    if (it == base.end()) {
      // A renamed or new row has nothing to be gated against: that is a
      // gate failure, not a pass.
      std::printf("UNMATCHED  %s (no baseline row)\n", r.name.c_str());
      continue;
    }
    ++matched;
    if (r.mbps < it->second * (1.0 - opt.threshold)) {
      ++regressions;
      std::printf("REGRESSION %-44s %8.1f -> %8.1f MB/s\n", r.name.c_str(), it->second, r.mbps);
    }
  }
  std::printf("baseline: %zu/%zu entries matched, %d regression(s) beyond %.1f%%\n", matched,
              rows.size(), regressions, opt.threshold * 100.0);
  return regressions == 0 && matched == rows.size() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      opt.baseline = argv[++i];
    } else if (arg == "--threshold" && i + 1 < argc) {
      opt.threshold = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: pipeline_overlap [--quick] [--out FILE] [--baseline FILE] "
                   "[--threshold FRAC]\n");
      return 2;
    }
  }

  const std::vector<std::size_t> sizes =
      opt.quick ? std::vector<std::size_t>{4u << 20, 16u << 20}
                : std::vector<std::size_t>{1u << 20, 4u << 20, 8u << 20, 16u << 20, 32u << 20};
  struct CodecCase {
    std::string label;
    core::CompressionConfig cfg;
  };
  const std::vector<CodecCase> codecs = {
      {"mpc", core::CompressionConfig::mpc_opt()},
      {"zfp16", core::CompressionConfig::zfp_opt(16)},
  };
  struct Mode {
    std::string label;
    std::uint64_t chunk_bytes;  // 0 = auto-tune
    bool pipelined;
  };
  const std::vector<Mode> modes = {
      {"serial", 0, false},
      {"auto", 0, true},
      {"chunk512K", 512u << 10, true},
      {"chunk2M", 2u << 20, true},
  };

  std::printf("pipeline_overlap: one-way D-D latency, Longhorn inter-node (IB-EDR)\n");
  std::vector<Row> rows;
  int gate_failures = 0;
  for (const auto& codec : codecs) {
    for (std::size_t bytes : sizes) {
      double serial_lat = 0.0;
      for (const auto& mode : modes) {
        Row row = run_row(codec.label, codec.cfg, bytes, mode.label, mode.chunk_bytes,
                          mode.pipelined);
        print_row(row);
        if (mode.label == "serial") serial_lat = row.latency_us;
        // The PR's acceptance bar: auto-tuned pipelining cuts >= 20% off the
        // serial one-way latency for MPC messages of 4 MiB and up.
        if (codec.label == "mpc" && bytes >= (4u << 20) && mode.label == "auto" &&
            row.latency_us > 0.8 * serial_lat) {
          ++gate_failures;
          std::printf("GATE FAIL %s: %.1f us vs serial %.1f us (< 20%% win)\n",
                      row.name.c_str(), row.latency_us, serial_lat);
        }
        rows.push_back(std::move(row));
      }
    }
  }

  write_json(opt, rows);
  int rc = gate_failures == 0 ? 0 : 1;
  if (!opt.baseline.empty()) rc = std::max(rc, compare_baseline(opt, rows));
  return rc;
}
