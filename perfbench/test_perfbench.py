"""Tests of the benchmark itself: seeded inputs, the output schema and the mix rule.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the perfbench program through run.py's build step on first use.
"""

import json
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
_BIN = []


def program() -> Path:
    if not _BIN:
        _BIN.append(run.build(run.build_dir()) / "perfbench")
    return _BIN[0]


def dump(workload: str, seed: int) -> dict:
    out = subprocess.run([str(program()), "--dump-inputs", "--workload", workload,
                          "--seed", str(seed)], check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def bench(workload: str, trace: int) -> list:
    out = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                          "--seed", "3", "--seconds", "2", "--trace", str(trace)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-3000:]
    return [json.loads(line) for line in out.stdout.strip().splitlines()[-2:]]


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a, b, c = dump(w, 7), dump(w, 7), dump(w, 8)
                self.assertEqual(a, b)
                self.assertNotEqual(a["order"], c["order"])
                if w == "drift":
                    self.assertNotEqual(a["pool"], c["pool"])

    def test_drift_pool_is_stratified_by_kind(self):
        pool = dump("drift", 7)["pool"]
        self.assertEqual(len(pool), 64)
        self.assertTrue(all(pool), "a seeded drift delta is empty")
        kinds = Counter(" ".join(w for w in d.split() if not w[0].isdigit()) for d in pool)
        # Every kind of delta the base plan admits gets the same share.
        self.assertEqual(len(set(kinds.values())), 1, kinds)


class MixRule(unittest.TestCase):
    def test_every_block_holds_the_fixed_mix(self):
        for w in ("search", "cp", "wire"):
            with self.subTest(workload=w):
                d = dump(w, 11)
                weights = {c["name"]: int(c["weight"]) for c in d["classes"]}
                size = sum(weights.values())
                order = d["order"]
                for start in range(0, len(order) - size + 1, size):
                    self.assertEqual(Counter(order[start:start + size]), Counter(weights))

    def test_p50_and_p95_fall_inside_one_band(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(dump(w, 1)["mix_rule"], "")

    def test_p95_band_holds_at_least_a_tenth(self):
        for w in ("search", "cp", "wire"):
            with self.subTest(workload=w):
                classes = dump(w, 1)["classes"]
                top = [c for c in classes if c["band"] == classes[-1]["band"]]
                share = sum(c["weight"] for c in top) / sum(c["weight"] for c in classes)
                self.assertGreaterEqual(share, 0.10)


class OutputSchema(unittest.TestCase):
    def check(self, trace: int, metrics_key: str):
        detail, result = bench("wire", trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[metrics_key]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        for name, m in detail["metrics"].items():
            self.assertEqual(set(m), {"value", "unit", "samples"}, name)
            self.assertGreaterEqual(m["samples"], 1, name)
        self.assertTrue(detail["counts_ok"])
        self.assertEqual(set(detail["host"]), {"cpu", "loop_ms_start", "loop_ms_end", "steal_frac"})
        return detail

    def test_untraced_run_reports_end_to_end_metrics(self):
        detail = self.check(0, "end_to_end")
        self.assertIn("mix_rule", detail)

    def test_untraced_window_holds_whole_blocks(self):
        _, result = bench("wire", 0)
        block = sum(int(c["weight"]) for c in dump("wire", 3)["classes"])
        self.assertEqual(result["attempted"] % block, 0)

    def test_traced_run_reports_per_layer_metrics(self):
        detail = self.check(1, "per_layer")
        for cls, m in detail["per_class"].items():
            # The layer self times plus the unattributed time are the latency.
            self.assertAlmostEqual(m["self_ms.sum"] + m["engine.unattributed_ms"],
                                   m["latency_ms"], delta=1e-9 * m["latency_ms"], msg=cls)

    def test_benchmark_json_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
