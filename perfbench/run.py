"""The matchbij benchmark: CLI jobs in a closed loop, with checked outputs.

    python3 perfbench/run.py --workload census-n7 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client runs one job at a time; a job is one ``matchbij.cli.run(argv)``
call in a fresh interpreter (``worker.py``), timed inside that interpreter.
Each workload repeats a fixed pass of jobs while another pass fits in
``--seconds``; only whole passes count, so every pass weighs its jobs alike.
Every job's output is checked against the benchmark's own reference
(``gen.py``) outside the timed region.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports per-layer
metrics per traced pass, plus the tracing overhead. A record of the run
(host calibration, passes, one span per job) goes to ``.bench_runs/``.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import gen
from tracer import TARGETS, Stat

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".bench_runs"
SETUP_REPEATS = 7
# Every worker is killed this long after a workload starts, so a run of one
# workload always ends within 180 s.
RUN_LIMIT_S = 165.0
# Touches every module once, so compiled bytecode and the page cache are warm.
WARMUP_ARGV = ["verify", "--n", "3"]
# Line count and SHA-256 of `enumerate ns --n 10` at the seed; they pin the
# stream's order as well as its contents.
NS10_LINES = 280746
NS10_SHA256 = "3adabd9c07c69056a7cbe52b5fa7c0e1dc0ccdc61fd3cd437e2798bced6a1254"
SUITES = ("core", "lp", "bijections", "similarity", "enumeration")

Check = Callable[[dict], Optional[str]]  # a worker's job result -> complaint


@dataclass
class Job:
    argv: list[str]
    stdin: str
    units: int
    check: Check


@dataclass
class Workload:
    unit: str
    fresh_per_job: bool  # else one fresh interpreter runs the whole pass
    jobs: list[Job]


def same_head(expected: Callable[[], str]) -> Check:
    """The printed text, which must fit in the worker's kept head, is exact."""
    expected = functools.cache(expected)
    return lambda r: (None if r["head"] == expected() else
                      f"printed {r['head'][:80]!r}, expected {expected()[:80]!r}")


def same_output(text: str) -> Check:
    digest = hashlib.sha256(text.encode()).hexdigest()
    return lambda r: None if r["sha256"] == digest else "output differs from the reference"


def line_count(expected: Callable[[], int]) -> Check:
    expected = functools.cache(expected)
    return lambda r: (None if r["lines"] == expected() else
                      f"{r['lines']} lines, expected {expected()}")


def census_n7(seed: int) -> Workload:
    return Workload("matchings", True, [
        Job(["count", what, "--n", "7", "--brute"], "", 135135,
            same_head(lambda c=count: f"{c}\n"))
        for what, count in (("lp", 3902), ("classes", 3902), ("matchings", 135135))
    ])


def streams_n10(seed: int) -> Workload:
    def pinned_stream(r):
        if (r["lines"], r["sha256"]) != (NS10_LINES, NS10_SHA256):
            return f"{r['lines']} lines with SHA-256 {r['sha256'][:16]}, not the seed's"
        return None

    return Workload("elements", True, [
        Job(["enumerate", "ns", "--n", "10"], "", NS10_LINES, pinned_stream),
        Job(["count", "ncn", "--n", "10"], "", NS10_LINES, same_head(lambda: "280746\n")),
    ])


def verify_n6(seed: int) -> Workload:
    def all_pass(r):
        passed = sum(line.startswith("PASS ") for line in r["head"].splitlines())
        return None if (passed, r["lines"]) == (22, 22) else f"{passed} of 22 checks passed"

    return Workload("checks", True, [Job(["verify", "--n", "6", "--suite", "all"], "", 22, all_pass)])


def large_inputs(seed: int) -> Workload:
    """Few calls on large matchings; no stdin text repeats except that tau-inv
    and sigma-inv on a ladder both read the ladder's representative."""
    rng = random.Random(seed)
    jobs = []

    def job(argv, stdin, check):
        jobs.append(Job(argv, stdin, 1, check))

    for n in (250, 500, 1000):
        base, chosen = gen.random_triple(rng, n)
        lp = gen.recross(base, chosen)
        job(["classify"], gen.pairs_text(lp), same_head(lambda m=lp: gen.classify_text(m)))
        job(["map", "phi"], gen.pairs_text(lp), same_output(gen.ncn_text(base, chosen)))
        job(["map", "phi-inv"], gen.ncn_text(base, chosen), same_output(gen.pairs_text(lp)))
        job(["render"], gen.pairs_text(lp), line_count(lambda m=lp: gen.arc_rows(m)))
    # Every word of 250 edges drawn in 2000 tries had over 1100 nested pairs,
    # so tau makes the same number of swaps whatever the seed.
    tau_inputs = [gen.random_triple(rng, 250, swaps=1000)] + [
        (gen.ladder(n), (n - 1, n)) for n in (60, 100, 150)]
    sigma_inputs = [gen.random_triple(rng, 250, swaps=1000)] + tau_inputs[1:]
    for (base, chosen), (sbase, schosen) in zip(tau_inputs, sigma_inputs):
        rep = gen.pairs_text(gen.swap_representative(base, chosen))
        job(["map", "tau"], gen.ncn_text(base, chosen), same_output(rep))
        job(["map", "tau-inv"], rep, same_output(gen.ncn_text(base, chosen)))
        srep = gen.pairs_text(gen.swap_representative(sbase, schosen))
        slp = gen.pairs_text(gen.recross(sbase, schosen))
        job(["map", "sigma"], slp, same_output(srep))
        job(["map", "sigma-inv"], srep, same_output(slp))
    # Deeper than the recursion limit: render raises RecursionError at the seed.
    deep = gen.ladder(1200)
    job(["classify"], gen.pairs_text(deep), same_head(lambda: gen.classify_text(deep)))
    job(["render"], gen.pairs_text(deep), line_count(lambda: 1201))
    return Workload("jobs", False, jobs)


WORKLOADS = {
    "census-n7": census_n7,
    "streams-n10": streams_n10,
    "large-inputs": large_inputs,
    "verify-n6": verify_n6,
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_worker(jobs: list[Job], traced: bool, deadline: float) -> dict:
    spec = json.dumps({"jobs": [{"argv": j.argv, "stdin": j.stdin} for j in jobs],
                       "trace": traced})
    env = dict(os.environ)
    env.pop("MATCHBIJ_ENUM_CAP", None)  # the default caps admit every workload
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=spec,
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker killed after the {RUN_LIMIT_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def judge(job: Job, r: dict) -> tuple[str, Optional[str]]:
    """ok; raised or exit (the job failed); or wrong (its output is wrong)."""
    if r["error"]:
        return "raised", r["error"]
    if r["rc"] != 0:
        return "exit", f"exit code {r['rc']}: {r['stderr'].strip()[:200]}"
    complaint = job.check(r)
    return ("wrong", complaint) if complaint else ("ok", None)


def run_pass(workload: Workload, traced: bool, index: int, deadline: float) -> dict:
    batches = [[j] for j in workload.jobs] if workload.fresh_per_job else [workload.jobs]
    spans, rss_kb, stats = [], [], {}
    for batch in batches:
        out = run_worker(batch, traced, deadline)
        rss_kb.append(out["rss_kb"])
        for key, values in (out["stats"] or {}).items():
            total = stats.setdefault(key, dict.fromkeys(values, 0))
            for field, v in values.items():
                total[field] += v
        for job, r in zip(batch, out["jobs"]):
            status, message = judge(job, r)
            spans.append({"id": f"p{index}.j{len(spans)}", "job": " ".join(job.argv),
                          "start": r["start"], "end": r["start"] + r["seconds"],
                          "seconds": r["seconds"], "units": job.units, "status": status,
                          "message": message, "bytes": r["bytes"]})
    return {"traced": traced, "spans": spans, "rss_kb": max(rss_kb), "stats": stats}


def items_per_s(spans: list[dict]) -> float:
    """Units of the jobs that succeeded per second of job time."""
    return sum(s["units"] for s in spans if s["status"] == "ok") / sum(s["seconds"] for s in spans)


def tail(samples: list[float]) -> Optional[dict]:
    """The highest of these percentiles with at least ten samples beyond it."""
    ranked = sorted(samples)
    for q in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * len(ranked))
        if len(ranked) - rank >= 10:
            return {"percentile": q, "samples": len(ranked), "ms": 1000 * ranked[rank - 1]}
    return None


def layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    fields = {
        "enumeration": ("items", "self_s"), "core": ("calls", "self_s"),
        "lp": ("calls", "self_s"), "bijections": ("calls", "self_s", "raised"),
        "similarity": ("calls", "self_s"), "formats": ("calls", "self_s"),
        "render": ("calls", "self_s", "raised"), "verify": ("self_s",),
        "cli": ("calls", "self_s"),
    }
    special = {"lp.enumerate_lp": ("items",), "lp.is_lp": ("accept_ratio",),
               "similarity.ns_stream": ("items", "self_s")}
    units = {"self_s": "s", "accept_ratio": "ratio"}
    specs = []
    for mod, names in TARGETS.items():
        for name in names:
            for field in special.get(f"{mod}.{name}", fields[mod]):
                specs.append((f"{mod}.{name}.{field}", units.get(field, "count"),
                              "higher" if field == "accept_ratio" else "lower"))
        if mod == "core":
            specs += [(f"core.{c}.{field}", units.get(field, "count"), "lower")
                      for c in ("Matching", "LabeledMatching")
                      for field in ("validations", "self_s")]
        if mod == "formats":
            specs.append(("formats.emit_bytes", "bytes", "lower"))
        if mod == "verify":
            specs += [(f"verify.suite.{s}.total_s", "s", "lower") for s in SUITES]
    specs.append(("trace.overhead", "ratio", "higher"))
    return specs


def layer_values(p: dict) -> dict[str, float]:
    """Per-layer values of one traced pass, from the wrappers' aggregates."""
    zero = Stat().as_dict()  # a function the pass never called
    values = {}
    for name, _, _ in layer_specs()[:-1]:  # all but trace.overhead
        key, field = name.rsplit(".", 1)
        stat = p["stats"].get(key, zero)
        if field == "emit_bytes":
            values[name] = sum(s["bytes"] for s in p["spans"])
        elif field == "validations":
            values[name] = stat["calls"]
        elif field == "accept_ratio":
            values[name] = stat["accepted"] / stat["calls"] if stat["calls"] else 0.0
        else:
            values[name] = stat[field]
    return values


def calibrate() -> float:
    """Seconds for a fixed stdlib loop; tracks the host's speed over time."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    hashlib.sha256(str(acc).encode() * 100_000).hexdigest()
    return time.perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    host = {"calibration_s": [calibrate()], "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed}
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = WORKLOADS[name](seed)
        run_worker([Job(WARMUP_ARGV, "", 0, lambda r: None)], False, deadline)
        setup_s.append(time.perf_counter() - start)

    # Start a pass only if one as long as the longest so far still fits.
    passes, longest = [], 0.0
    start = time.perf_counter()
    while len(passes) < 1 + trace or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        passes.append(run_pass(workload, trace and len(passes) % 2 == 1, len(passes), deadline))
        longest = max(longest, time.perf_counter() - began)
    host["calibration_s"].append(calibrate())

    plain = [p for p in passes if not p["traced"]]
    spans = [s for p in passes for s in p["spans"]]
    plain_spans = [s for p in plain for s in p["spans"]]
    job_s = [s["seconds"] for s in plain_spans]
    metrics = {
        "items_per_s": (items_per_s(plain_spans), "1/s"),
        "peak_rss_mb": (max(p["rss_kb"] for p in plain) / 1024, "MiB"),
        "ok_ratio": (sum(s["status"] == "ok" for s in plain_spans) / len(plain_spans), "ratio"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_values(p) for p in traced]
        for v, p in zip(per_pass, traced):
            v["trace.overhead"] = items_per_s(p["spans"]) / metrics["items_per_s"][0]
        metrics = {n: (statistics.median(v[n] for v in per_pass), unit)
                   for n, unit, _ in layer_specs()}
    failures = sorted({f"{s['job']}: {s['status']}: {s['message']}"
                       for s in spans if s["status"] != "ok"})
    record = {
        "workload": name, "unit": workload.unit, "seconds": seconds, "trace": trace,
        "host": host, "setup_s": setup_s, "job_p50_ms": 1000 * statistics.median(job_s),
        "job_tail": tail(job_s), "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": [{k: p[k] for k in ("traced", "rss_kb", "stats")} for p in passes],
        "spans": spans,
    }
    RUNS_DIR.mkdir(exist_ok=True)
    (RUNS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return {"record": record, "correct": all(s["status"] != "wrong" for s in spans),
            "attempted": len(spans), "failed": sum(s["status"] != "ok" for s in spans)}


def report(result: dict) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    r = result["record"]
    print(f"# {r['workload']}: {len(r['passes'])} passes, unit {r['unit']}, "
          f"{result['failed']} of {result['attempted']} jobs failed, "
          f"calibration {r['host']['calibration_s'][0]:.4f}/{r['host']['calibration_s'][1]:.4f} s")
    for name, m in r["metrics"].items():
        print(f"{r['workload']} {name} {m['value']:.6g} {m['unit']}")
    if not r["trace"]:  # job times, printed but not gated: too noisy on a shared host
        t = r["job_tail"]
        print(f"# {r['workload']} job_p50_ms {r['job_p50_ms']:.6g} ms; job_tail_ms "
              + (f"{t['ms']:.6g} ms (p{t['percentile']:g} of {t['samples']} jobs)"
                 if t else "n/a (fewer than 20 jobs)"))
    for line in r["failures"]:
        print(f"# failed: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "matchbij" / "__init__.py").is_file():
        sys.stderr.write(f"error: no matchbij sources under {ROOT / 'src'}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    for result in results:
        report(result)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['record']['workload']}.{k}" if prefix else k): m
                    for r in results for k, m in r["record"]["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
