"""Smoke test of the benchmark itself, at tiny size.

    python3 -m unittest perfbench/test_perfbench.py

Checks that BENCHMARK.json lists exactly the workloads and metrics the
harness emits, that every run prints the result line with each
metric's unit, that the output file carries every workload metric with its
unit, direction and attribution, and that the benchmark refuses to run
without the library sources. Builds the harness on first use.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ["query_mix", "stream_ingest", "pretrain"]
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "p50_ms": ("ms", "lower"),
    "tail_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
}
# Workload results kept in the output file under their own names.
DETAIL = {
    "query_mix": {"topk_p50_ms", "topk_p99_ms", "eta_p50_ms", "eta_p99_ms",
                  "recall_at_10", "error_rate"},
    "stream_ingest": {"ingest_tps", "knn_p50_ms", "knn_p99_ms",
                      "recall_at_10", "embed_cosine_vs_f32", "error_rate"},
    "pretrain": {"train_steps_per_s"},
}
ATTRIBUTION = {"cpu_model", "nproc", "build_type", "compiler", "openmp",
               "git_commit", "seed"}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", trace, "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_lists_the_workloads_and_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(list(spec), ["command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"])
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
            END_TO_END)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


class BenchmarkRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_run(self, workload, trace):
        r = run(workload, trace)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        key = "per_layer" if trace == "1" else "end_to_end"
        want = {m["name"]: m for m in self.spec[key]}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], want[name]["unit"], name)
            self.assertIsInstance(m["value"], (int, float), name)
        with open(os.path.join(
                OUT, f"{workload}-seed3-trace{trace}-tiny.json")) as f:
            report = json.load(f)
        self.assertTrue(ATTRIBUTION <= set(report["attribution"]))
        for name, (unit, better) in END_TO_END.items():
            self.assertEqual(report["end_to_end"][name]["unit"], unit)
            self.assertEqual(report["end_to_end"][name]["better"], better)
        for name in DETAIL[workload]:
            self.assertIn(name, report["detail"])
            self.assertIn(report["detail"][name]["better"], ("lower", "higher"))
        for name in ("p50_ms", "tail_ms"):
            self.assertGreater(report["end_to_end"][name]["samples"], 0)
        return report

    def test_untraced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                report = self.check_run(workload, "0")
                self.assertEqual(report["per_layer"], {})

    def test_traced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                report = self.check_run(workload, "1")
                for m in self.spec["per_layer"]:
                    self.assertEqual(report["per_layer"][m["name"]]["better"],
                                     m["better"])
                with open(os.path.join(
                        OUT, f"{workload}-seed3-trace1-tiny.trace.json")) as f:
                    trace = json.load(f)
                self.assertTrue(trace["traceEvents"])
                self.assertTrue(all(e["ph"] == "X"
                                    for e in trace["traceEvents"]))

    def test_fails_without_library_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark itself.
        bare = os.path.join(OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            r = run("pretrain", "0", cwd=bare)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
