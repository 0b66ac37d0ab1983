"""The benchmark's own tests.

Usage: python3 perfbench/selfcheck.py

Two traced runs of every workload with one seed must report identical
counts, and the known-answer checker must count a wrong answer as failed.
Takes a few minutes: each workload is traced twice.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402

SEED = 3
# Counts that must repeat exactly for a given seed, on top of every metric
# whose unit is a count.
EXACT = ("cli.stdout_bytes", "chargroup.smith_normal_form.max_entry_bits")


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"trace-{workload}-seed{SEED}.json")) as fh:
        jobs = json.load(fh)["jobs"]
    return result, jobs


class CheckerTest(unittest.TestCase):
    def test_wrong_expected_answer_counts_as_failed(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                warm, _ = workloads.build(workload, SEED, 0)
                self.assertTrue(worker.run_job(warm)[1])
                self.assertFalse(worker.run_job(workloads.with_wrong_answer(warm))[1])

    def test_same_seed_same_inputs(self):
        for workload in ("decompose_fp", "decompose_exact"):
            with self.subTest(workload=workload):
                a = workloads.build(workload, SEED, 1)[1]
                b = workloads.build(workload, SEED, 1)[1]
                self.assertEqual([(j.name, j.expected) for j in a],
                                 [(j.name, j.expected) for j in b])
                self.assertEqual([j.run.args[0].to_json() for j in a],
                                 [j.run.args[0].to_json() for j in b])


class DeterminismTest(unittest.TestCase):
    def test_traced_runs_repeat(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                (first, jobs1), (second, jobs2) = traced_run(workload), traced_run(workload)
                for result in (first, second):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                self.assertEqual(jobs1, jobs2)
                counts = [name for name, m in first["metrics"].items()
                          if m["unit"] == "count" or name in EXACT]
                for name in counts:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)


if __name__ == "__main__":
    unittest.main()
