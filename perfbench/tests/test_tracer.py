"""Tracer install and restore, repeatable counts, the stdout sink, and the
metric names in BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests
"""

import hashlib
import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import matchbij.cli  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from matchbij.verify import SUITES  # noqa: E402

JOBS = [
    (["count", "lp", "--n", "4", "--brute"], ""),
    (["count", "classes", "--n", "4", "--brute"], ""),
    (["enumerate", "ns", "--n", "4"], ""),
    (["count", "ncn", "--n", "4"], ""),
    (["verify", "--n", "3"], ""),
    (["classify"], "4\n0 5\n1 6\n2 3\n4 7\n"),
    (["map", "tau"], "3\n0 5\n1 4\n2 3\nnesting 2 3\n"),
    (["map", "tau-inv"], "3\n0 3\n1 5\n2 4\n"),  # not a representative: exit 1
    (["render"], "2\n0 3\n1 2\n"),
]


def snapshot():
    """Every binding the tracer may replace, by identity."""
    bound = {(name, attr): value for name, module in sys.modules.items()
             if name == "matchbij" or name.startswith("matchbij.")
             for attr, value in vars(module).items()}
    core = sys.modules["matchbij.core"]
    bound["post_init"] = (core.Matching.__dict__["__post_init__"],
                          core.LabeledMatching.__dict__["__post_init__"])
    bound["suites"] = [tuple(entries) for entries in SUITES.values()]
    return bound


def traced_run(jobs=JOBS):
    tracer = Tracer()
    tracer.install()
    try:
        results = [worker.run_job(matchbij.cli, argv, stdin) for argv, stdin in jobs]
    finally:
        tracer.uninstall()
    return tracer.stats, results


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        before = snapshot()
        stats, _ = traced_run()
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            if isinstance(value, tuple):
                self.assertTrue(all(a is b for a, b in zip(value, after[key])), key)
            elif isinstance(value, list):
                self.assertEqual(value, after[key])
            else:
                self.assertIs(after[key], value, key)
        self.assertGreater(stats["core.stats"].calls, 0)

    def test_counts_repeat_exactly_between_fresh_interpreters(self):
        jobs = [run.Job(argv, stdin, 0, None) for argv, stdin in JOBS]
        counts = []
        for _ in range(2):
            out = run.run_worker(jobs, True, time.perf_counter() + 60)
            counts.append(({k: (s["calls"], s["items"], s["raised"], s["accepted"])
                            for k, s in out["stats"].items()},
                           [(r["rc"], r["bytes"], r["sha256"]) for r in out["jobs"]]))
        self.assertEqual(counts[0], counts[1])
        self.assertEqual([rc for rc, _, _ in counts[0][1]], [0, 0, 0, 0, 0, 0, 0, 1, 0])

    def test_what_the_wrappers_record(self):
        stats, _ = traced_run([(["count", "matchings", "--n", "4", "--brute"], ""),
                               (["count", "lp", "--n", "4", "--brute"], ""),
                               (["map", "tau-inv"], JOBS[7][1])])
        self.assertEqual(stats["enumeration.all_matchings"].items, 2 * 105)
        self.assertEqual(stats["lp.enumerate_lp"].items, 51)
        self.assertEqual((stats["lp.is_lp"].accepted, stats["lp.is_lp"].calls), (51, 105))
        self.assertEqual(stats["bijections.tau_inv"].raised, 1)
        self.assertEqual(stats["cli.run"].calls, 3)

    def test_self_times_partition_the_traced_time(self):
        stats, _ = traced_run()
        self.assertEqual(sum(stats[f"verify.suite.{s}"].calls for s in SUITES), 22)
        for key, s in stats.items():
            self.assertGreaterEqual(s.total_s, s.self_s, key)
            self.assertGreaterEqual(s.self_s, -1e-6, key)
        inside = sum(s.self_s for s in stats.values())
        self.assertAlmostEqual(inside, stats["cli.run"].total_s, delta=1e-3)


class SinkTest(unittest.TestCase):
    def test_counts_hashes_and_keeps_only_a_head(self):
        sink = worker.Sink()
        text = "12 34\n" * 5000
        for line in text.splitlines(keepends=True):
            sink.write(line)
        s = sink.summary()
        self.assertEqual((s["bytes"], s["lines"]), (len(text), 5000))
        self.assertEqual(s["sha256"], hashlib.sha256(text.encode()).hexdigest())
        self.assertEqual(s["head"], text[:worker.KEEP_CHARS])


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         run.layer_specs())
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail([1.0] * 19))
        self.assertEqual(run.tail([float(i) for i in range(20)])["percentile"], 50)
        self.assertEqual(run.tail([float(i) for i in range(1000)])["percentile"], 99)


if __name__ == "__main__":
    unittest.main()
