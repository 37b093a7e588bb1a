#!/usr/bin/env python3
"""The benchmark's own test: seconds-long runs of every workload.

    python3 perfbench/test_perfbench.py

Each workload runs at smoke size (perfbench/run.py --smoke) untraced and
traced, with one seed. The test asserts that each run exits 0 and ends with
the result object; that the output check passed; that every end-to-end
metric of BENCHMARK.json (untraced) or every per-layer metric (traced) is
printed with its unit; that the corrupted-reference self-test failed the
check as intended; that the trace file loads as trace-event JSON; and that
species_survey's accuracy and reduction are the same traced and untraced.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
SECONDS = 6


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    return done


class SmokeTest(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()
        for w in cls.spec["workloads"]:
            for trace in (0, 1):
                cls.results[(w["name"], trace)] = run(w["name"], trace)

    def result(self, workload, trace):
        done = self.results[(workload, trace)]
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        obj = json.loads(lines[-1])
        self.assertEqual(set(obj), {"correct", "attempted", "failed",
                                    "metrics"})
        return obj, done.stdout

    def test_every_metric_printed_with_unit(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                obj, _ = self.result(w["name"], trace)
                want = {m["name"]: m["unit"] for m in self.spec[key]}
                got = {k: v["unit"] for k, v in obj["metrics"].items()}
                self.assertEqual(got, want, (w["name"], trace))
                for name, m in obj["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_output_checks_pass(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                obj, _ = self.result(w["name"], trace)
                self.assertTrue(obj["correct"], (w["name"], trace, obj))
                self.assertGreaterEqual(obj["attempted"], 1)
                self.assertEqual(obj["failed"], 0)

    def test_end_to_end_metrics_nonzero(self):
        for w in self.spec["workloads"]:
            obj, _ = self.result(w["name"], 0)
            for name, m in obj["metrics"].items():
                self.assertGreater(m["value"], 0, (w["name"], name))

    def test_corrupted_reference_fails_the_check(self):
        for w in self.spec["workloads"]:
            _, out = self.result(w["name"], 0)
            self.assertIn(
                "self-test: corrupted reference failed the check as intended",
                out, w["name"])

    def test_trace_file_is_trace_event_json(self):
        for w in self.spec["workloads"]:
            self.result(w["name"], 1)
            path = os.path.join(ROOT, ".bench_out",
                                f"trace-{w['name']}-seed{SEED}.json")
            with open(path) as f:
                trace = json.load(f)
            events = trace["traceEvents"]
            self.assertTrue(events, w["name"])
            for e in events[:100]:
                self.assertEqual(e["ph"], "X")
                for key in ("name", "ts", "dur", "pid", "tid", "args"):
                    self.assertIn(key, e)
            self.assertIn("provenance", trace["otherData"])

    def test_survey_marks_reproduce_traced(self):
        def marks(out):
            return [line.split("survey marks: ")[1]
                    for line in out.splitlines() if "survey marks: " in line]
        _, untraced = self.result("species_survey", 0)
        _, traced = self.result("species_survey", 1)
        # One line from the untraced run; two from the traced run (its
        # untraced part and its traced part). All must agree.
        self.assertEqual(len(marks(untraced)), 1)
        self.assertEqual(len(marks(traced)), 2)
        self.assertEqual(set(marks(traced)), set(marks(untraced)))


if __name__ == "__main__":
    unittest.main()
