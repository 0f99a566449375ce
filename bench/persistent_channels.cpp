// persistent_channels — warm (plan-cached, handshake-free) vs cold repeated
// exchanges on one channel.
//
// A 2-rank halo-style ping: rank 0 sends the same (tag, shape) device
// message every iteration. Iteration 0 pays the full cold rendezvous
// (RTS with serialized header, CTS, staging acquisition, plan derivation);
// after the one-time warm-up grant, steady-state iterations ship only a
// compact RepeatHeader and reuse the held staging + cached launch plan.
// The bench reports cold (iteration 0) vs warm (median of iterations 3+)
// one-way latency per size x codec, plus the channel telemetry that proves
// the handshake really disappeared.
//
// The simulation is deterministic, so the JSON (BENCH_persistent.json) is
// an exact, reproducible artifact: CI re-runs the sweep and compares
// against the committed file with a tight threshold.
//
// Usage:
//   persistent_channels [--quick] [--out FILE] [--baseline FILE] [--threshold FRAC]
//
// Exit status is nonzero if (a) any baseline entry regressed beyond the
// threshold, or (b) the PR's acceptance bar fails: warm iterations must cut
// >= 25% off the cold latency for 64 KiB..1 MiB messages on the headline
// route (the compressible codec; 64 KiB sits below the compression
// threshold, so raw must clear the bar there too) and stay a measurable
// >= 5% win at 4 MiB.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/telemetry.hpp"
#include "mpi/world.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"

namespace {

using namespace gcmpi;
using bench::omb_dummy;

struct Options {
  bool quick = false;
  std::string out = "BENCH_persistent.json";
  std::string baseline;
  double threshold = 0.02;  // simulation is deterministic; tiny drift budget
};

struct Row {
  std::string name;  // persistent/<codec>/<size>
  std::string codec;
  std::size_t bytes = 0;
  double cold_us = 0.0;
  double warm_us = 0.0;
  double saving_pct = 0.0;
  double mbps = 0.0;  // original bytes / simulated warm one-way latency
  std::uint64_t warm_sends = 0;
  std::uint64_t header_bytes_saved = 0;
};

/// Repeated one-way rank0 -> rank1 transfers of the same (tag, shape)
/// device payload; returns the per-iteration one-way latencies.
Row run_row(const std::string& codec_label, const core::CompressionConfig& cfg,
            std::size_t bytes, int iters) {
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.persistent.enabled = true;
  mpi::World world(engine, net::longhorn(2, 1), cfg, opts);
  const auto payload = omb_dummy(bytes);
  std::vector<double> lat(static_cast<std::size_t>(iters), 0.0);
  sim::Time start = sim::Time::zero();
  world.run([&](mpi::Rank& R) {
    void* d = R.gpu_malloc(bytes);
    std::memcpy(d, payload.data(), bytes);
    for (int it = 0; it < iters; ++it) {
      R.barrier();
      if (R.rank() == 0) {
        start = R.now();
        R.send(d, bytes, 1, 1);
      } else {
        R.recv(d, bytes, 0, 1);
        lat[static_cast<std::size_t>(it)] = (R.now() - start).to_seconds() * 1e6;
      }
      R.barrier();
    }
    R.gpu_free(d);
  });

  Row row;
  row.name = "persistent/" + codec_label + "/" + bench::size_label(bytes);
  row.codec = codec_label;
  row.bytes = bytes;
  row.cold_us = lat[0];
  std::vector<double> warm(lat.begin() + 3, lat.end());
  std::sort(warm.begin(), warm.end());
  row.warm_us = warm[warm.size() / 2];
  row.saving_pct = (1.0 - row.warm_us / row.cold_us) * 100.0;
  row.mbps = static_cast<double>(bytes) / row.warm_us;  // bytes/us == MB/s
  for (const auto& ch : telemetry.channels()) {
    row.warm_sends += ch.warm_sends;
    row.header_bytes_saved += ch.header_bytes_saved;
  }
  return row;
}

void print_row(const Row& r) {
  std::printf("%-28s cold %9.1f us  warm %9.1f us  saving %5.1f%%  %9.1f MB/s  "
              "warm_sends=%llu  ctrl_bytes_saved=%llu\n",
              r.name.c_str(), r.cold_us, r.warm_us, r.saving_pct, r.mbps,
              static_cast<unsigned long long>(r.warm_sends),
              static_cast<unsigned long long>(r.header_bytes_saved));
}

void write_json(const Options& opt, const std::vector<Row>& rows) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"gcmpi-bench-persistent-v1\",\n"
     << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n"
     << "  \"units\": {\"mbps\": \"original MB per simulated second of warm one-way "
        "latency, D-D Longhorn inter-node\"},\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"codec\": \"%s\", \"bytes\": %zu, "
                  "\"cold_us\": %.3f, \"warm_us\": %.3f, \"saving_pct\": %.1f, "
                  "\"mbps\": %.1f, \"warm_sends\": %llu}%s\n",
                  r.name.c_str(), r.codec.c_str(), r.bytes, r.cold_us, r.warm_us,
                  r.saving_pct, r.mbps, static_cast<unsigned long long>(r.warm_sends),
                  i + 1 < rows.size() ? "," : "");
    os << line;
  }
  os << "  ]\n}\n";
  std::ofstream f(opt.out);
  if (!f) {
    std::fprintf(stderr, "persistent_channels: cannot write %s\n", opt.out.c_str());
    std::exit(2);
  }
  f << os.str();
  std::printf("wrote %s (%zu entries)\n", opt.out.c_str(), rows.size());
}

std::vector<std::pair<std::string, double>> read_baseline(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "persistent_channels: cannot read baseline %s\n", path.c_str());
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
      std::printf("REGRESSION %-36s %8.1f -> %8.1f MB/s\n", r.name.c_str(), it->second, r.mbps);
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
                   "usage: persistent_channels [--quick] [--out FILE] [--baseline FILE] "
                   "[--threshold FRAC]\n");
      return 2;
    }
  }

  // The sweep is a few seconds of simulation either way, so --quick runs
  // the same grid (it only marks the JSON); CI can diff quick output
  // against the committed full baseline 1:1.
  const int iters = 12;
  const std::vector<std::size_t> sizes = {64u << 10, 256u << 10, 1u << 20, 4u << 20};
  struct CodecCase {
    std::string label;
    core::CompressionConfig cfg;
  };
  const std::vector<CodecCase> codecs = {
      {"raw", core::CompressionConfig::off()},
      {"zfp8", core::CompressionConfig::zfp_opt(8)},
  };

  std::printf("persistent_channels: cold vs warm one-way D-D latency, Longhorn "
              "inter-node (IB-EDR)\n");
  std::vector<Row> rows;
  int gate_failures = 0;
  for (const auto& codec : codecs) {
    for (std::size_t bytes : sizes) {
      Row row = run_row(codec.label, codec.cfg, bytes, iters);
      print_row(row);
      if (row.warm_sends == 0) {
        ++gate_failures;
        std::printf("GATE FAIL %s: channel never went warm\n", row.name.c_str());
      }
      // Acceptance bars (see header comment): the headline compressible
      // route must save >= 25% up to 1 MiB and >= 5% at 4 MiB; 64 KiB is
      // below the compression threshold on every route, so raw carries
      // the same bar there.
      const bool bar25 = (codec.label == "zfp8" && bytes <= (1u << 20)) ||
                         (codec.label == "raw" && bytes <= (64u << 10));
      const bool bar5 = codec.label == "zfp8" && bytes == (4u << 20);
      const double need = bar25 ? 25.0 : bar5 ? 5.0 : 0.0;
      if (need > 0.0 && row.saving_pct < need) {
        ++gate_failures;
        std::printf("GATE FAIL %s: %.1f%% saving (< %.0f%%)\n", row.name.c_str(),
                    row.saving_pct, need);
      }
      rows.push_back(std::move(row));
    }
  }

  write_json(opt, rows);
  int rc = gate_failures == 0 ? 0 : 1;
  if (!opt.baseline.empty()) rc = std::max(rc, compare_baseline(opt, rows));
  return rc;
}
