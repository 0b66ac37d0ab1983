"""superhopf benchmark: one workload, one seed, one run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: axiom_sweep, decompose_fp, decompose_exact, cli_batch (see
README.md). With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
run. The lines before it are a readable summary. Run from the root of a
checkout; the engine is imported from its src/ directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("axiom_sweep", "decompose_fp", "decompose_exact", "cli_batch")
# setup_s is the median over this many fresh processes, the timed one included.
SETUP_RUNS = 7
# Every worker must have ended this long after the start of the run.
DEADLINE_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def git_revision():
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """sha256 over the engine's sources, which names the code where git cannot."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def check_load(nproc, when):
    load = os.getloadavg()
    if load[0] > nproc:
        print(f"warning: load average {load[0]:.2f} at {when} of the run exceeds "
              f"nproc={nproc}; timings are unreliable", file=sys.stderr)
    return load


def spawn(args, mode, deadline):
    """Run one worker; returns (its result, seconds from spawn to ready)."""
    cmd = [sys.executable, WORKER, args.workload, str(args.seed), str(args.seconds), mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"{args.workload}: {mode} worker did not finish before the deadline")
    if proc.returncode != 0:
        sys.exit(f"{args.workload}: {mode} worker exited with status {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    return result, result["ready"] - start


def main(argv):
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "superhopf", "__init__.py")):
        sys.exit(f"no superhopf sources under {os.path.join(ROOT, 'src')}")
    nproc = os.cpu_count()
    env = {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "load_start": check_load(nproc, "the start"),
    }

    setups = []  # (raw seconds, speed factor of that process)
    if args.trace:
        result, _ = spawn(args, "traced", deadline)
        metrics = result.pop("metrics")
    else:
        for _ in range(SETUP_RUNS - 1):
            probe, setup = spawn(args, "setup", deadline)
            setups.append((setup, probe["setup_speed_factor"]))
        result, setup = spawn(args, "timed", deadline)
        setups.append((setup, result["setup_speed_factor"]))
        result["raw"]["setup_s"] = statistics.median(s for s, _ in setups)
        metrics = {
            "setup_s": {"value": statistics.median(s / f for s, f in setups), "unit": "s"},
            "jobs_per_s": {"value": result["jobs_per_s"], "unit": "1/s"},
            "job_p50_ms": {"value": result["job_p50_ms"], "unit": "ms"},
            "job_tail_ms": {"value": result["job_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    env["load_end"] = check_load(nproc, "the end")

    for err in result["errors"]:
        print(f"failed job: {err}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {nproc}  cpu {env['cpu_model']}")
    print(f"revision {env['git_revision'] or 'n/a'}  src sha256 {env['src_sha256'][:16]}  "
          f"load {env['load_start'][0]:.2f} -> {env['load_end'][0]:.2f}")
    for name, m in metrics.items():
        note = ""
        if name == "job_tail_ms":
            note = (f"  (p{result['tail_percentile']} of {attempted} jobs, "
                    f"{result['beyond_tail']} beyond it)")
        raw = result.get("raw", {}).get(name)
        if raw is not None:
            note += f"  (raw {raw:.6g})"
        print(f"  {name:46s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':46s} {failed / attempted:14.6g} 1  ({failed} of {attempted} jobs)")

    os.makedirs(OUT, exist_ok=True)
    record = {"args": vars(args), "env": env, "setup_samples_s": setups,
              "worker": result, "metrics": metrics}
    path = os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1:])
