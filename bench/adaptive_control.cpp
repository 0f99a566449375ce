// adaptive_control — closed-loop codec selection vs every fixed codec on a
// drifting-compressibility workload.
//
// Rank 0 streams 4 MiB messages to rank 1 over Longhorn (IB-EDR
// inter-node) through three phases: highly compressible (msg_sppm-like),
// incompressible (quantized noise), then compressible again. A fixed codec
// is right for at most one regime; the AdaptiveController re-decides per
// message from live telemetry. The simulation is deterministic, so the
// JSON this writes (BENCH_adaptive.json) is an exact, reproducible
// artifact: CI re-runs the sweep and compares against the committed file
// with a tight threshold.
//
// Usage:
//   adaptive_control [--quick] [--out FILE] [--baseline FILE] [--threshold FRAC]
//
// Exit status is nonzero if (a) any baseline entry regressed beyond the
// threshold, or (b) the PR's acceptance bar fails: adaptive must beat the
// worst fixed codec by >= 10% and stay within 5% of the best.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "core/telemetry.hpp"
#include "data/datasets.hpp"
#include "mpi/world.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"

namespace {

using namespace gcmpi;

struct Options {
  bool quick = false;
  std::string out = "BENCH_adaptive.json";
  std::string baseline;
  double threshold = 0.02;  // simulation is deterministic; tiny drift budget
};

struct Row {
  std::string name;  // adaptive/<mode>
  std::string mode;  // fixed_raw | fixed_mpc | fixed_zfp16 | adaptive
  double elapsed_us = 0.0;
  double mbps = 0.0;  // original bytes / simulated elapsed time
  std::uint64_t decisions = 0;
  std::uint64_t probes = 0;
};

constexpr std::size_t kMsgBytes = 4u << 20;
constexpr double kNetworkGbs = 12.5;  // matches the static selector's prior

/// Per-phase payloads: compressible, incompressible, compressible again.
std::vector<std::vector<float>> make_phases() {
  const std::size_t n = kMsgBytes / 4;
  return {data::generate("msg_sppm", n, 42),
          data::quantized_noise(n, 4096, 7),
          data::generate("msg_sppm", n, 43)};
}

/// Stream `iters_per_phase` messages of each phase through the fabric and
/// return the total simulated time.
sim::Time run_stream(const core::CompressionConfig& cfg,
                     adapt::AdaptiveController* controller, core::Telemetry* telemetry,
                     int iters_per_phase) {
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.telemetry = telemetry;
  opts.adaptive = controller;
  if (controller != nullptr && telemetry != nullptr) controller->bind(*telemetry);
  mpi::World world(engine, net::longhorn(2, 1), cfg, opts);

  const auto phases = make_phases();
  world.run([&](mpi::Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(kMsgBytes));
    int tag = 0;
    for (const auto& phase : phases) {
      if (R.rank() == 0) std::memcpy(dev, phase.data(), kMsgBytes);
      for (int i = 0; i < iters_per_phase; ++i, ++tag) {
        if (R.rank() == 0) {
          R.send(dev, kMsgBytes, 1, tag);
        } else {
          R.recv(dev, kMsgBytes, 0, tag);
        }
      }
    }
    R.gpu_free(dev);
  });
  return engine.now();
}

Row run_mode(const std::string& mode, const core::CompressionConfig& cfg,
             bool adaptive, int iters_per_phase) {
  core::Telemetry telemetry;
  adapt::AdaptiveController controller(gpu::v100_spec(), kNetworkGbs);
  const sim::Time elapsed = run_stream(cfg, adaptive ? &controller : nullptr,
                                       &telemetry, iters_per_phase);
  const double total_bytes = 3.0 * iters_per_phase * static_cast<double>(kMsgBytes);
  Row row;
  row.name = "adaptive/" + mode;
  row.mode = mode;
  row.elapsed_us = elapsed.to_seconds() * 1e6;
  row.mbps = total_bytes / elapsed.to_seconds() / 1e6;
  for (const auto& d : telemetry.decisions()) {
    ++row.decisions;
    if (d.probe) ++row.probes;
  }
  return row;
}

void write_json(const Options& opt, const std::vector<Row>& rows) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"gcmpi-bench-adaptive-v1\",\n"
     << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n"
     << "  \"units\": {\"mbps\": \"original MB per simulated second, drifting "
        "3-phase stream, Longhorn inter-node\"},\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char line[384];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"mode\": \"%s\", \"elapsed_us\": %.3f, "
                  "\"mbps\": %.1f, \"decisions\": %llu, \"probes\": %llu}%s\n",
                  r.name.c_str(), r.mode.c_str(), r.elapsed_us, r.mbps,
                  static_cast<unsigned long long>(r.decisions),
                  static_cast<unsigned long long>(r.probes),
                  i + 1 < rows.size() ? "," : "");
    os << line;
  }
  os << "  ]\n}\n";
  std::ofstream f(opt.out);
  if (!f) {
    std::fprintf(stderr, "adaptive_control: cannot write %s\n", opt.out.c_str());
    std::exit(2);
  }
  f << os.str();
  std::printf("wrote %s (%zu entries)\n", opt.out.c_str(), rows.size());
}

std::vector<std::pair<std::string, double>> read_baseline(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "adaptive_control: cannot read baseline %s\n", path.c_str());
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
      std::printf("REGRESSION %-32s %8.1f -> %8.1f MB/s\n", r.name.c_str(), it->second,
                  r.mbps);
    }
  }
  std::printf("baseline: %zu/%zu entries matched, %d regression(s) beyond %.1f%%\n",
              matched, rows.size(), regressions, opt.threshold * 100.0);
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
                   "usage: adaptive_control [--quick] [--out FILE] [--baseline FILE] "
                   "[--threshold FRAC]\n");
      return 2;
    }
  }

  // The sweep is only 4 rows and runs in seconds, so --quick does not
  // shrink it: quick rows stay numerically identical to the committed
  // baseline (the CI gate compares them exactly, modulo --threshold).
  const int iters_per_phase = 24;
  std::printf("adaptive_control: drifting 3-phase stream, %d x 4 MiB per phase, "
              "Longhorn inter-node (IB-EDR)\n",
              iters_per_phase);

  std::vector<Row> rows;
  rows.push_back(run_mode("fixed_raw", core::CompressionConfig::off(), false,
                          iters_per_phase));
  rows.push_back(run_mode("fixed_mpc", core::CompressionConfig::mpc_opt(), false,
                          iters_per_phase));
  rows.push_back(run_mode("fixed_zfp16", core::CompressionConfig::zfp_opt(16), false,
                          iters_per_phase));
  rows.push_back(run_mode("adaptive", core::CompressionConfig::mpc_opt(), true,
                          iters_per_phase));
  for (const Row& r : rows) {
    std::printf("%-28s %12.1f us %9.1f MB/s  decisions=%llu probes=%llu\n",
                r.name.c_str(), r.elapsed_us, r.mbps,
                static_cast<unsigned long long>(r.decisions),
                static_cast<unsigned long long>(r.probes));
  }

  // The PR's acceptance bar on the drifting workload.
  double worst = rows[0].mbps, best = rows[0].mbps;
  for (std::size_t i = 0; i < 3; ++i) {
    worst = std::min(worst, rows[i].mbps);
    best = std::max(best, rows[i].mbps);
  }
  const double adaptive_mbps = rows[3].mbps;
  int gate_failures = 0;
  if (adaptive_mbps < worst * 1.10) {
    ++gate_failures;
    std::printf("GATE FAIL adaptive %.1f MB/s not >= 10%% over worst fixed %.1f MB/s\n",
                adaptive_mbps, worst);
  }
  if (adaptive_mbps < best * 0.95) {
    ++gate_failures;
    std::printf("GATE FAIL adaptive %.1f MB/s not within 5%% of best fixed %.1f MB/s\n",
                adaptive_mbps, best);
  }
  if (gate_failures == 0) {
    std::printf("gates OK: adaptive %.1f MB/s vs fixed [%.1f, %.1f] MB/s\n",
                adaptive_mbps, worst, best);
  }

  write_json(opt, rows);
  int rc = gate_failures == 0 ? 0 : 1;
  if (!opt.baseline.empty()) rc = std::max(rc, compare_baseline(opt, rows));
  return rc;
}
