"""Write the cli_batch fixtures and capture their golden outputs.

Usage: python3 perfbench/capture_golden.py

Writes golden/inputs/*.json, one golden/<subcommand>.out per subcommand with
its stdout, and golden/manifest.json with each argv and exit code. The
committed goldens were captured from the unmodified engine; capture again
only when a change to a report is intended, never to make a run pass.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

MU4_GGX = {
    "field": {"kind": "Q"},
    "group": {"free_rank": 0, "torsion": [4], "additive_rank": 0},
    "g": [2],
    "x": {"free": [], "torsion": ["0"], "additive": []},
}
MU4_TRIVIAL_G = dict(MU4_GGX, g=[0])
MU5_GGX = {
    "field": {"kind": "Fp", "p": 5},
    "group": {"free_rank": 0, "torsion": [5], "additive_rank": 0},
    "g": [0],
    "x": {"free": [], "torsion": ["1"], "additive": []},
}
PAIR_72 = {
    "field": {"kind": "Q"},
    "base": {"free_rank": 1, "torsion": [], "additive_rank": 0},
    "V": [{"weight": [0], "parity": "odd"}, {"weight": [0], "parity": "odd"}],
    "bracket": [[0, 1, {"free": ["1"], "torsion": [], "additive": []}]],
}
PAIR_71 = {
    "field": {"kind": "Q"},
    "base": {"free_rank": 1, "torsion": [], "additive_rank": 1},
    "V": [{"weight": [0], "parity": "odd"}],
    "bracket": [[0, 0, {"free": ["2"], "torsion": [], "additive": ["2"]}]],
}
PAIR_WITH_SUB = {"pair": PAIR_71, "sub": {"ga_factors": [0], "annihilator": [[1]], "vectors": []}}
CHAIN_PAIR = {
    "field": {"kind": "Q"},
    "base": {"free_rank": 1, "torsion": [], "additive_rank": 0},
    "V": [{"weight": [0], "parity": "odd"}],
    "bracket": [[0, 0, {"free": ["2"], "torsion": [], "additive": []}]],
}
ISO = {
    "field": {"kind": "Q"},
    "group": {"free_rank": 1, "torsion": [], "additive_rank": 0},
    "g1": [0],
    "x1": {"free": ["1"], "torsion": [], "additive": []},
    "g2": [0],
    "x2": {"free": ["4"], "torsion": [], "additive": []},
}
COMODULE = {
    "algebra": MU5_GGX,
    "comodule": {
        "dims": {"even": 1, "odd": 1},
        "coaction": [
            [0, [[0, "1", [1], 0], [1, "1", [1], 1]]],
            [1, [[0, "1", [1], 1], [1, "1", [1], 0]]],
        ],
    },
}
EXT = {
    "algebra": MU4_GGX,
    "S": {"kind": "S", "char": [3], "shifted": True},
    "T": {"kind": "S", "char": [1], "shifted": False},
}
DUAL = {"algebra": MU4_GGX, "h": [1]}
DUAL_NUMBERS = {
    "field": {"kind": "Q"},
    "even_ring": {"vars": ["t"], "relations": ["t^2"]},
    "odd": ["z"],
}
SQUARE_ZERO = {"family": "square_zero_extension", "p": 3, "alpha": "x"}

# (subcommand, input payload or None, extra arguments)
CASES = [
    ("build-ggx", MU4_GGX, []),
    ("verify-hopf", MU5_GGX, []),
    ("check-pair", PAIR_72, []),
    ("super-diag", PAIR_72, []),
    ("normal-chain", CHAIN_PAIR, []),
    ("check-normal", PAIR_WITH_SUB, []),
    ("quotient", PAIR_WITH_SUB, []),
    ("iso-ggx", ISO, []),
    ("nilpotency", MU4_GGX, []),
    ("center", MU4_GGX, []),
    ("thm64", MU4_TRIVIAL_G, []),
    ("counterexample-71", None, ["--field", "Q", "--alpha", "1", "--beta", "1"]),
    ("decompose", COMODULE, []),
    ("socle", COMODULE, []),
    ("ext1", EXT, []),
    ("duality", DUAL, []),
    ("smooth", DUAL_NUMBERS, []),
    ("regular", SQUARE_ZERO, []),
    ("hochschild", None, ["--p", "3", "--alpha", "x"]),
    ("selftest", None, ["--seed", "7"]),
]


def main():
    os.makedirs(os.path.join(workloads.GOLDEN, "inputs"), exist_ok=True)
    manifest = []
    for name, payload, extra in CASES:
        argv = [name]
        if payload is not None:
            rel = f"inputs/{name}.json"
            with open(os.path.join(workloads.GOLDEN, rel), "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            argv += ["--input", os.path.relpath(os.path.join(workloads.GOLDEN, rel), workloads.ROOT)]
        argv += extra
        code, stdout = workloads.run_cli(argv)
        with open(os.path.join(workloads.GOLDEN, f"{name}.out"), "wb") as fh:
            fh.write(stdout)
        manifest.append({"name": name, "argv": argv, "exit_code": code, "stdout": f"{name}.out"})
        print(f"{name}: exit {code}, {len(stdout)} bytes")
    with open(os.path.join(workloads.GOLDEN, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
