"""Smoke test of the benchmark: each workload at the smallest size that still
has recorded answers, every named metric printed, no op failed.

usage: python3 -m pytest perfbench   (about a minute)
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
from session import HERE, ROOT


def _lines(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_benchmark_json_names_match_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END_UNITS.items()
    )
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        spans.LAYER_UNITS.items()
    )
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_prints_every_metric_and_no_op_fails(workload, capsys):
    result = run.run(workload, seed=0, seconds=0, trace=1, profile="smoke")
    report, printed = _lines(capsys)
    assert printed == result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert report["deterministic"] and report["traced_sessions"] == 2
    assert report["report"]["ops_failed_frac"]["value"] == 0
    rates = {name for name, (owner, _) in run.RATES.items() if owner == workload}
    assert set(run.END_TO_END_UNITS) | rates <= set(report["report"])
    assert list(result["metrics"]) == list(spans.LAYER_UNITS)
    for name, unit in spans.LAYER_UNITS.items():
        assert result["metrics"][name]["unit"] == unit


def test_untraced_run_prints_the_end_to_end_metrics(capsys):
    result = run.run("search", seed=0, seconds=0, trace=0, profile="smoke")
    _, printed = _lines(capsys)
    assert printed == result and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
