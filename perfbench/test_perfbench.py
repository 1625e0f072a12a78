#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/test_perfbench.py

Builds the driver through run.py if needed. Checks that workload inputs are a
function of the seed, that printed metric names and units match
BENCHMARK.json, and that every per-layer metric names the end-to-end metric
and workloads it should move (perfbench/layer_map.json).
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def dump(workload, seed, seconds=10):
    out = subprocess.run([str(run.build()), "--dump-schedule", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out)["requests"]


def bench(workload, trace, seconds):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, json.loads(proc.stdout.strip().split("\n")[-1])


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(dump(w, 1), dump(w, 1))
                self.assertNotEqual(dump(w, 1), dump(w, 2))

    def test_chat_segment_layout(self):
        for r in dump("chat_prefix", 3):
            turn = int(r["id"].split("t")[1])
            keys = [s[0] for s in r["segments"]]
            self.assertEqual(keys[0], "sys")
            self.assertEqual(len(keys), 1 if turn == 0 else 2)
            self.assertLess(sum(s[1] for s in r["segments"]), r["prompt_tokens"])

    def test_serve_sa_prompts_are_private_and_in_range(self):
        reqs = dump("serve_sa", 3)
        self.assertTrue(all(not r["segments"] for r in reqs))
        self.assertTrue(all(512 <= r["prompt_tokens"] <= 4096 for r in reqs))
        dues = [r["due_s"] for r in reqs]
        self.assertEqual(dues, sorted(dues))


class MetricNamesTest(unittest.TestCase):
    # run.py exits non-zero when the printed names or units differ from
    # BENCHMARK.json; short runs of the serving workloads cover both modes.
    def test_printed_names_match(self):
        for w, trace in [("serve_sa", 0), ("serve_sa", 1), ("chat_prefix", 0), ("chat_prefix", 1)]:
            with self.subTest(workload=w, trace=trace):
                code, result = bench(w, trace, 2)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                key = "per_layer" if trace else "end_to_end"
                self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC[key]])


class LayerMapTest(unittest.TestCase):
    def test_every_layer_metric_moves_an_end_to_end_metric(self):
        layer_map = json.loads((HERE / "layer_map.json").read_text())["per_layer"]
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        self.assertEqual(set(layer_map), {m["name"] for m in SPEC["per_layer"]})
        for name, entry in layer_map.items():
            with self.subTest(metric=name):
                self.assertTrue(entry["moves"])
                self.assertLessEqual(set(entry["moves"]), e2e)
                self.assertTrue(entry["workloads"])
                self.assertLessEqual(set(entry["workloads"]), set(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
