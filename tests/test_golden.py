"""Replays the benchmark's golden CLI cases in-process: every subcommand's
stdout must match its recorded output byte for byte, with the same exit code."""

import json
import pathlib

import pytest

from superhopf.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_golden_cli_output(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # manifest paths are relative to the repository root
    code = main(case["argv"])
    out = capsys.readouterr().out.encode()
    assert code == case["exit_code"]
    assert out == (GOLDEN / case["stdout"]).read_bytes()
