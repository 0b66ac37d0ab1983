import glob
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_history", os.path.join(ROOT, "tools", "bench_history.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_history = _load_tool()

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_bench_files_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_matches_benchmark_metrics(path):
    with open(path) as fh:
        doc = json.load(fh)
    assert os.path.basename(path) == bench_history.file_name(doc)
    assert doc["python"] and doc["machine"]["nproc"] >= 1 and doc["machine"]["cpu_model"]
    assert doc["workloads"] and set(doc["workloads"]) <= WORKLOADS
    for name, w in doc["workloads"].items():
        assert w["seconds"] == BENCHMARK["run_seconds"], name
        assert 0 <= w["failed"] <= w["attempted"]
        if w["seeds"]:
            assert {m: e["unit"] for m, e in w["end_to_end"].items()} == END_TO_END, name
        for metric, e in w["end_to_end"].items():
            assert sorted(e["by_seed"]) == sorted(w["seeds"]), (name, metric)
            assert e["q1"] <= e["median"] <= e["q3"], (name, metric)
        for seed, metrics in w["traced"].items():
            assert {m: v["unit"] for m, v in metrics.items()} == PER_LAYER, (name, seed)


def _record(workload, seed, trace, metrics, src="ab" * 32, failed=0):
    return {
        "args": {"workload": workload, "seed": seed, "seconds": 25, "trace": trace},
        "env": {"nproc": 2, "cpu_model": "cpu", "python": "3.11.7",
                "git_revision": None, "src_sha256": src},
        "worker": {"attempted": 50, "failed": failed},
        "metrics": {name: {"value": v, "unit": "1/s"} for name, v in metrics.items()},
    }


def test_fold_quartiles_seeds_and_name():
    records = [_record("axiom_sweep", seed, 0, {"jobs_per_s": v})
               for seed, v in ((3, 4.0), (1, 1.0), (2, 2.0), (4, 10.0))]
    records.append(_record("axiom_sweep", 1, 1, {"hopfcore.mul.calls": 7}))
    records.append(_record("decompose_fp", 5, 0, {"jobs_per_s": 3.0}, failed=1))
    doc = bench_history.fold(records)
    sweep = doc["workloads"]["axiom_sweep"]
    assert sweep["seeds"] == ["1", "2", "3", "4"] and sweep["attempted"] == 200
    entry = sweep["end_to_end"]["jobs_per_s"]
    assert (entry["q1"], entry["median"], entry["q3"]) == (1.75, 3.0, 5.5)
    assert entry["by_seed"] == {"1": 1.0, "2": 2.0, "3": 4.0, "4": 10.0}
    assert sweep["traced"] == {"1": {"hopfcore.mul.calls": {"value": 7, "unit": "1/s"}}}
    single = doc["workloads"]["decompose_fp"]
    assert single["failed"] == 1
    assert single["end_to_end"]["jobs_per_s"]["q1"] == single["end_to_end"]["jobs_per_s"]["q3"] == 3.0
    assert bench_history.file_name(doc) == "BENCH_src-" + "ab" * 6 + ".json"
    doc["revision"] = "0123456789abcdef"
    assert bench_history.file_name(doc) == "BENCH_0123456.json"


def test_fold_rejects_mixed_sources_and_repeated_seeds():
    with pytest.raises(ValueError, match="engine sources"):
        bench_history.fold([_record("axiom_sweep", 1, 0, {}),
                            _record("axiom_sweep", 2, 0, {}, src="cd" * 32)])
    with pytest.raises(ValueError, match="seed 1"):
        bench_history.fold([_record("axiom_sweep", 1, 0, {}), _record("axiom_sweep", 1, 0, {})])
    with pytest.raises(ValueError, match="no run records"):
        bench_history.fold([])
