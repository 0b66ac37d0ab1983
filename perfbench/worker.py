"""One workload process: set up, time jobs in a closed loop, and print one
JSON line for run.py.

Usage: worker.py WORKLOAD SEED SECONDS {setup,timed,traced}

`setup` stops once the first job could start, so run.py can time set-up in
fresh processes. `timed` runs whole passes until SECONDS of job time have
gone by, at least MIN_JOBS jobs are done and MIN_PASSES passes have run; each
pass has its own inputs, built untimed just before it. `traced` times untraced passes for half of
SECONDS, then traces pass 0 again, so its counts depend only on the seed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import superhopf  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

# The tail is this percentile in every run. A run has at least MIN_JOBS
# jobs, so at least 10 lie beyond it, and runs with different numbers of
# passes report the same quantile. jobs_per_s is the median over at least
# MIN_PASSES passes, so one pass caught in a slow spell of the machine does
# not move it.
TAIL_PERCENTILE = 80
MIN_JOBS = 50
MIN_PASSES = 3


# Machine-speed calibration. This shared host's speed drifts by 15-30% over
# tens of seconds to minutes, far more than a run can average out. Before
# every job the worker times calibration(): fixed standard-library work in
# the engine's style (an integer loop, a dict of tuples, exact Gauss-Jordan
# elimination over Fraction), which no change to the engine can speed up or
# slow down. Every time a run reports is divided by its pass's speed factor,
# the median calibration time of the pass over CALIBRATION_S: a time as it
# would read with the host at the speed where calibration() takes
# CALIBRATION_S. The raw times are kept in the run record.
CALIBRATION_S = 0.0045
_CAL_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(8)]
               for i in range(8)]


def calibration():
    """Seconds taken by the fixed calibration work."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    table = {(i % 97, i % 89, i): i * 7919 % 1009 for i in range(3000)}
    total += sum(v * k[0] for k, v in table.items())
    rows = [row[:] for row in _CAL_MATRIX]
    for c in range(len(rows)):
        pivot = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i, row in enumerate(rows):
            if i != c and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[c])]
    return time.perf_counter() - start


def speed_factor(samples):
    """How much slower than the reference speed the host ran (1 = reference)."""
    return statistics.median(samples) / CALIBRATION_S


def run_job(job):
    """(seconds, correct, error) for one job; a raise is a failed job."""
    start = time.perf_counter()
    try:
        answer = job.run()
    except Exception as exc:  # every failure of the library counts against it
        return time.perf_counter() - start, False, f"{job.name}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if workloads.check(job, answer):
        return elapsed, True, None
    return elapsed, False, f"{job.name}: wrong answer {answer!r:.200}"


def run_passes(next_pass, seconds, min_jobs=1, min_passes=1):
    """Closed loop over whole passes, pass i being next_pass(i); returns
    ([(name, seconds, ok, error, pass index)], [(jobs, job time, speed
    factor) per pass]). Job time is the sum of the pass's job times."""
    records, passes = [], []
    while (sum(p[1] for p in passes) < seconds or len(records) < min_jobs
           or len(passes) < min_passes):
        jobs, cal, busy = next_pass(len(passes)), [], 0.0
        for job in jobs:
            cal.append(calibration())
            elapsed, ok, err = run_job(job)
            busy += elapsed
            records.append((job.name, elapsed, ok, err, len(passes)))
        passes.append((len(jobs), busy, speed_factor(cal)))
    return records, passes


def rate(passes, calibrated=True):
    """Median over passes of jobs completed per second."""
    return statistics.median(n * (factor if calibrated else 1) / busy
                             for n, busy, factor in passes)


def check_the_checker(job):
    """The checker must count a job whose expected answer is wrong as failed."""
    _, ok, _ = run_job(workloads.with_wrong_answer(job))
    if ok:
        sys.exit(f"checker self-check failed: {job.name} passed against a wrong answer")


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli_batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def quantile(sorted_xs, p, steps=16):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all order
    statistics, with the weight of the i-th the Beta(p(n+1), (1-p)(n+1))
    mass on [(i-1)/n, i/n]. A pass mixes job kinds whose costs differ by
    steps of 10-30%; the plain order statistic jumps between those steps
    from run to run, this estimate moves smoothly."""
    n = len(sorted_xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)

    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, sorted_xs)) / sum(weights)


def summary(records, passes):
    raw = sorted(r[1] for r in records)
    times = sorted(r[1] / passes[r[4]][2] for r in records)
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if not r[2]),
        "errors": [r[3] for r in records if r[3]][:5],
        "jobs_per_s": rate(passes),
        "job_p50_ms": quantile(times, 0.5) * 1000,
        "job_tail_ms": quantile(times, TAIL_PERCENTILE / 100) * 1000,
        "speed_factors": [p[2] for p in passes],
        "raw": {"jobs_per_s": rate(passes, calibrated=False),
                "job_p50_ms": quantile(raw, 0.5) * 1000,
                "job_tail_ms": quantile(raw, TAIL_PERCENTILE / 100) * 1000},
        "tail_percentile": TAIL_PERCENTILE,
        "beyond_tail": len(times) - math.ceil(TAIL_PERCENTILE / 100 * len(times)),
        "passes": len(passes),
        "timed_s": sum(p[1] for p in passes),
        "job_seconds": [round(t, 6) for t in raw],
    }


def import_seconds(repeats=7):
    """Median time to import superhopf in a fresh interpreter, minus the
    median time of the same interpreter importing nothing."""
    env = workloads.child_env()
    bare = [sys.executable, "-c", "pass"]
    full = [sys.executable, "-c", "import superhopf"]
    spans = {"bare": [], "full": []}
    for _ in range(repeats):
        for key, cmd in (("bare", bare), ("full", full)):
            start = time.perf_counter()
            subprocess.run(cmd, env=env, check=True, timeout=60)
            spans[key].append(time.perf_counter() - start)
    return statistics.median(spans["full"]) - statistics.median(spans["bare"])


def traced(workload, seed, next_pass, seconds):
    plain, plain_passes = run_passes(next_pass, seconds / 2)
    jobs = workloads.build(workload, seed, 0)[1]
    if workload == "cli_batch":
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            files = [os.path.join(tmp, f"{i}.json") for i in range(len(jobs))]
            jobs_t = [replace(j, run=functools.partial(j.run, trace_file=f))
                      for j, f in zip(jobs, files)]
            records, passes = run_passes(lambda i: jobs_t, 0)
            snaps = []
            for f in files:
                with open(f) as fh:
                    snaps.append(json.load(fh))
        snap = tracer.merge(snaps)
    else:
        tr = tracer.Tracer()
        tr.install()
        jobs_t = [replace(j, run=functools.partial(tr.job, i, j.run)) for i, j in enumerate(jobs)]
        try:
            records, passes = run_passes(lambda i: jobs_t, 0)
        finally:
            tr.uninstall()
        snap = tr.snapshot()
    with open(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "jobs": [j.name for j in jobs], **snap}, fh)

    metrics = tracer.layer_metrics(snap)
    for name in workloads.cli_subcommands():
        walls = [r[1] for r in plain if r[0] == name]
        metrics[f"cli.{name}.wall_ms"] = (statistics.median(walls) * 1000 if walls else 0.0, "ms")
    metrics["cli.import_s"] = (import_seconds(), "s")
    # every cli_batch job's stdout was checked byte for byte against these
    stdout_bytes = sum(len(j.expected[1]) for j in jobs) if workload == "cli_batch" else 0
    metrics["cli.stdout_bytes"] = (stdout_bytes, "B")
    metrics["bench.trace_overhead_frac"] = (1 - rate(passes) / rate(plain_passes), "ratio")
    result = summary(plain, plain_passes)
    result["attempted"] += len(records)
    result["failed"] += sum(1 for r in records if not r[2])
    result["errors"] += [r[3] for r in records if r[3]]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def main(argv):
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([src, os.path.abspath(superhopf.__file__)]) != src:
        sys.exit(f"superhopf imported from {superhopf.__file__}, not from {src}")
    warm, first = workloads.build(workload, seed, 0)
    run_job(warm)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_factor = speed_factor([calibration() for _ in range(15)])

    def next_pass(index):
        return first if index == 0 else workloads.build(workload, seed, index)[1]

    if mode == "setup":
        result = {}
    elif mode == "timed":
        result = summary(*run_passes(next_pass, seconds, MIN_JOBS, MIN_PASSES))
        result["peak_rss_mb"] = peak_rss_mb(workload)
    else:
        os.makedirs(OUT, exist_ok=True)
        result = traced(workload, seed, next_pass, seconds)
    if mode != "setup":
        check_the_checker(warm)
    result["ready"] = ready
    result["setup_speed_factor"] = setup_factor
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
