"""Fold benchmark run records into one BENCH_<rev>.json at the repo root.

Usage:
    python3 tools/bench_history.py [RUN_JSON ...]

Each RUN_JSON is a record that `perfbench/run.py` wrote
(`perfbench/out/run-<workload>-seed<n>-trace<t>.json`); with no arguments the
records under this checkout's `perfbench/out/` are read. All records must
come from one engine source (the same `src/` digest) on one machine and one
Python version. The output holds:

- the revision (git HEAD of the measured checkout, or null without git),
  the `src/` digest, the machine and the Python version;
- per workload, for each end-to-end metric of the untraced runs, its unit,
  the median and quartiles over the runs and the value at each seed, plus
  the jobs attempted and failed;
- per workload, the per-layer metrics of each traced run, keyed by seed.

The file is named after the short git revision, or after the `src/` digest
(`BENCH_src-<digest>.json`) when the checkout had no git. Two files whose
runs used the same seeds pair up seed by seed.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _one(records, key, what):
    values = {json.dumps(key(r), sort_keys=True) for r in records}
    if len(values) != 1:
        raise ValueError(f"records mix {what}: {', '.join(sorted(values))}")
    return key(records[0])


def fold(records):
    """The BENCH document for a list of run records (parsed JSON)."""
    if not records:
        raise ValueError("no run records")
    src = _one(records, lambda r: r["env"]["src_sha256"], "engine sources")
    revision = _one(records, lambda r: r["env"]["git_revision"], "revisions")
    machine = _one(records, lambda r: {"nproc": r["env"]["nproc"],
                                       "cpu_model": r["env"]["cpu_model"]}, "machines")
    python = _one(records, lambda r: r["env"]["python"], "Python versions")
    workloads = {}
    for rec in sorted(records, key=lambda r: (r["args"]["workload"], r["args"]["seed"])):
        args = rec["args"]
        w = workloads.setdefault(args["workload"], {
            "seconds": args["seconds"], "seeds": [], "attempted": 0, "failed": 0,
            "end_to_end": {}, "traced": {}})
        if args["seconds"] != w["seconds"]:
            raise ValueError(f"{args['workload']}: runs of {w['seconds']} s and {args['seconds']} s")
        seed = str(args["seed"])
        if args["trace"]:
            w["traced"][seed] = rec["metrics"]
            continue
        if seed in w["seeds"]:
            raise ValueError(f"{args['workload']}: two untraced runs at seed {seed}")
        w["seeds"].append(seed)
        w["attempted"] += rec["worker"]["attempted"]
        w["failed"] += rec["worker"]["failed"]
        for name, m in rec["metrics"].items():
            entry = w["end_to_end"].setdefault(name, {"unit": m["unit"], "by_seed": {}})
            entry["by_seed"][seed] = m["value"]
    for w in workloads.values():
        for entry in w["end_to_end"].values():
            entry["q1"], entry["median"], entry["q3"] = quartiles(list(entry["by_seed"].values()))
    return {"revision": revision, "src_sha256": src, "machine": machine, "python": python,
            "workloads": workloads}


def file_name(doc):
    if doc["revision"]:
        return f"BENCH_{doc['revision'][:7]}.json"
    return f"BENCH_src-{doc['src_sha256'][:12]}.json"


def main(argv):
    paths = argv or sorted(glob.glob(os.path.join(ROOT, "perfbench", "out", "run-*.json")))
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    try:
        doc = fold(records)
    except ValueError as err:
        sys.exit(f"bench_history: {err}")
    out = os.path.join(ROOT, file_name(doc))
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)


if __name__ == "__main__":
    main(sys.argv[1:])
