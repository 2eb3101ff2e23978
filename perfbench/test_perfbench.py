"""Smoke test of the benchmark on tiny inputs.

Run from the root of a checkout: python3 -m pytest perfbench/test_perfbench.py
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.fixture(scope="module")
def results():
    """Each workload, tiny, once per seed and trace mode."""
    return {(name, seed, trace): run.run_workload(name, seed, 0.1, trace,
                                                  tiny=True)
            for name in NAMES for seed in (0, 7) for trace in (False, True)}


def test_workloads_match_the_runner():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_present_with_its_unit_and_no_failures(results, name,
                                                             trace):
    want = _units("per_layer" if trace else "end_to_end")
    for seed in (0, 7):
        res = results[(name, seed, trace)]
        assert res["problems"] == []
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert {k: m["unit"] for k, m in res["metrics"].items()} == want


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs_not_metric_names(results, name):
    w = workloads.WORKLOADS[name]
    if name == "cli-approx":
        a, b = w.games(0, True), w.games(7, True)
    else:
        a = [workloads.game.dumps_game(c.payload[0]) for c in w.build(0, True)]
        b = [workloads.game.dumps_game(c.payload[0]) for c in w.build(7, True)]
    assert a != b
    for trace in (False, True):
        assert results[(name, 0, trace)]["metrics"].keys() \
            == results[(name, 7, trace)]["metrics"].keys()


def test_traced_lp_calls_equal_summed_lp_count(results):
    for seed in (0, 7):
        res = results[("x3c-exact", seed, True)]
        assert res["lp_counts"] > 0
        assert res["metrics"]["lp.calls"]["value"] == res["lp_counts"]


def test_cli_layers_are_all_seen(results):
    metrics = results[("cli-approx", 7, True)]["metrics"]
    for name in ("approx.calls", "baseline.calls", "game.calls",
                 "learning.calls", "learning.samples", "exact.curve_points",
                 "cli.calls"):
        assert metrics[name]["value"] > 0, name


def test_wrong_outputs_fail_the_run(monkeypatch, capsys):
    """Seed 0 compares with reference.json; a mismatch fails the run."""
    ref = {label: (["1,240,0.5"] if label.startswith("learn") else
                   "1/3" if label.startswith("exact") else value + 0.125)
           for label, value in workloads.REFERENCE["cli-approx tiny"].items()}
    monkeypatch.setitem(workloads.REFERENCE, "cli-approx tiny", ref)
    monkeypatch.setattr(run, "run_workload",
                        functools.partial(run.run_workload, tiny=True))
    code = run.main(["--workload", "cli-approx", "--seed", "0",
                     "--seconds", "0.1", "--trace", "0"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    failed = " ".join(line for line in lines if line.startswith("FAILED"))
    for label in ref:
        assert f"FAILED {label}:" in failed, label
    assert failed.count("reference") == result["failed"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "x3c-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
