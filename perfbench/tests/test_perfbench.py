#!/usr/bin/env python3
"""The benchmark's own tests: they show it measures the code.

    python3 perfbench/tests/test_perfbench.py            # all (~10 min)
    python3 perfbench/tests/test_perfbench.py -k digest  # one group

* catalogue: the binary's metric list matches BENCHMARK.json.
* digest: two runs at one seed give the same simulated-output digest, and
  every workload passes its oracle at the default and held-out seeds.
* sensitivity: a known-worse public configuration worsens the named metric
  by more than its bound, and a host-only probe raises host_cost_per_op by
  more than its bound while leaving every sim_* metric bit-identical.

Each test runs perfbench/run.py, which builds the benchmark if needed.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "gcmpi_perfbench", "perfbench")
WORKLOADS = ("p2p_lossy", "coll_auto", "halo_warm")
DEFAULT_SEED = 1
HELD_OUT_SEED = 97

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run(workload, seed=DEFAULT_SEED, seconds=1, trace=0, variant=""):
    """Returns (metric values, digest line, result object)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if variant:
        cmd += ["--variant", variant]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          cwd=ROOT)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digests = [l for l in lines if l.startswith("digest ")]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, digests, result


def worse(base, probe, name, better="lower"):
    """Relative worsening of `name` from base to probe (positive = worse)."""
    delta = (probe[name] - base[name]) / base[name]
    return delta if better == "lower" else -delta


class Catalogue(unittest.TestCase):
    def test_metric_list_matches_benchmark_json(self):
        sys.path.insert(0, os.path.dirname(RUN))
        import run as runner  # perfbench/run.py
        runner.build()
        listed = subprocess.run([BINARY, "--list-metrics"], stdout=subprocess.PIPE, text=True,
                                check=True).stdout.split("\n")
        got = [tuple(l.split()) for l in listed if l]
        want = [("end_to_end", m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
        want += [("per_layer", m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
        self.assertEqual(got, want)


class Digest(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for wl in WORKLOADS:
            _, first, r1 = run(wl)
            _, second, r2 = run(wl)
            self.assertEqual(len(first), 1, wl)
            self.assertEqual(first, second, wl)
            self.assertTrue(r1["correct"] and r2["correct"], wl)

    def test_every_op_correct_at_default_and_held_out_seed(self):
        for wl in WORKLOADS:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                values, _, result = run(wl, seed=seed)
                self.assertTrue(result["correct"], (wl, seed))
                self.assertEqual(result["failed"], 0, (wl, seed))
                self.assertEqual(values["op_success_ratio"], 1.0, (wl, seed))


class Sensitivity(unittest.TestCase):
    def assert_worse(self, base, probe, name, better="lower"):
        change = worse(base, probe, name, better)
        print(f"\n  {self.id().split('.')[-1]}: {name} {base[name]} -> {probe[name]} "
              f"({change:+.1%} worse; bound {BOUND[name]:.0%})", file=sys.stderr)
        self.assertGreater(change, BOUND[name], f"{name}: {base[name]} -> {probe[name]}")

    def test_p2p_mpc_naive_raises_latency(self):
        base, _, _ = run("p2p_lossy")
        naive, _, _ = run("p2p_lossy", variant="mpc_naive")
        self.assert_worse(base, naive, "sim_op_p50_us")

    def test_coll_forced_linear_raises_latency(self):
        base, _, _ = run("coll_auto")
        linear, _, _ = run("coll_auto", variant="linear")
        self.assert_worse(base, linear, "sim_op_p50_us")

    def test_halo_cold_channels_raise_latency_and_control_packets(self):
        base, _, _ = run("halo_warm")
        cold, _, _ = run("halo_warm", variant="cold")
        self.assert_worse(base, cold, "sim_op_p50_us")
        base_t, _, _ = run("halo_warm", trace=1)
        cold_t, _, _ = run("halo_warm", trace=1, variant="cold")
        print(f"  net.control_packets_per_op {base_t['net.control_packets_per_op']} -> "
              f"{cold_t['net.control_packets_per_op']}", file=sys.stderr)
        self.assertGreater(cold_t["net.control_packets_per_op"],
                           base_t["net.control_packets_per_op"])

    def test_host_only_probe_moves_host_cost_not_simulated_time(self):
        base, base_digest, _ = run("coll_auto", seconds=20)
        crc, crc_digest, _ = run("coll_auto", seconds=20, variant="crc")
        self.assert_worse(base, crc, "host_cost_per_op")
        for name in base:
            if name.startswith("sim_"):
                self.assertEqual(base[name], crc[name], name)
        self.assertEqual(base_digest, crc_digest)


if __name__ == "__main__":
    unittest.main()
