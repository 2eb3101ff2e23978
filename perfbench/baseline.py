#!/usr/bin/env python3
"""Measure the baseline: every workload over ten seeds, plus one traced run.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Runs the benchmark command from ``BENCHMARK.json`` the way a comparison
does, one run at a time, seeds 0..9 with tracing off and seed 1 with
tracing on. For every end-to-end metric it records the median, the
quartiles and the spread (interquartile distance over the median). It also
records the environment and, for each per-layer metric, the end-to-end
metric and workload it is expected to move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import BENCH, ROOT, environment

# Seed 0 is among them because only seed 0 compares the cli-approx outputs
# with the values recorded in reference.json at full size.
SEEDS = list(range(10))

# Per-layer metric -> (end-to-end metrics it should move, workloads, why).
LAYER_MOVES = {
    "lp.calls": (["solves_per_s"], ["x3c-exact"],
                 "LPs per pass; must not rise under item 3's cell search, "
                 "since the bound cut wins on x3c"),
    "lp.busy_s": (["solves_per_s", "solve_s_p50"], ["x3c-exact"],
                  "exact LPs are 95% of x3c time (ROADMAP item 4); no change "
                  "expected on cli-approx, which is mostly float"),
    "lp.s_per_call": (["solves_per_s", "solve_s_p50"], ["x3c-exact"],
                      "float-guided exact LP (item 4); no change expected on "
                      "cli-approx"),
    "lp.rows_per_call": (["solve_s_p50"], ["x3c-exact"],
                         "rows per LP drive the cost of each exact pivot"),
    "lp.infeasible_ratio": (["solves_per_s"], ["x3c-exact"],
                            "wasted work: LPs that prove a region empty"),
    "lp.feasibility_calls": (["solves_per_s"], ["cli-approx", "x3c-exact"],
                             "verification LPs in qptas, gate probes in "
                             "solve_exact"),
    "exact.calls": ([], [], "fixed by the inputs; a change means the "
                    "workload changed"),
    "exact.self_s": (["solves_per_s", "solve_s_tail"], ["x3c-exact"],
                     "the 2^n subset sweep and static pruning (item 3)"),
    "exact.lps_per_solve": (["solves_per_s", "solve_s_tail"], ["x3c-exact"],
                            "cell search (item 3); must not rise on "
                            "x3c-exact, where the bound cut wins"),
    "exact.curve_points": ([], [], "fixed by the curve grids of cli-approx"),
    "approx.calls": ([], [], "fixed by the inputs of cli-approx"),
    "approx.self_s": (["solves_per_s"], ["cli-approx"],
                      "anchor enumeration and binary search in qptas"),
    "approx.lps_per_solve": (["solves_per_s"], ["cli-approx"],
                             "verification LPs per qptas/gap-approx solve"),
    "approx.anchors": (["solves_per_s"], ["cli-approx"],
                       "k-uniform anchors, read from guarantee['anchors']"),
    "baseline.calls": (["solve_s_p50"], ["cli-approx"],
                       "curve bounds and gap-approx"),
    "baseline.busy_s": (["solve_s_p50"], ["cli-approx"],
                        "curve bounds and gap-approx"),
    "game.calls": (["solves_per_s"], ["cli-approx"],
                   "evaluate/br_delta/payoffs entered from other layers, "
                   "one evaluate per anchor in qptas"),
    "game.busy_s": (["solves_per_s"], ["cli-approx"],
                    "evaluate/br_delta/payoffs entered from other layers"),
    "learning.calls": (["solve_s_p50"], ["cli-approx"], "learn runs"),
    "learning.samples": (["solve_s_p50"], ["cli-approx"],
                         "sum of NoisyGameOracle.query_count"),
    "learning.sample_s": (["solve_s_p50"], ["cli-approx"],
                          "time in sample_estimate"),
    "lab.gen_s": (["setup_s"], ["x3c-exact", "cli-approx"],
                  "game generation in rsekit.lab"),
    "cli.calls": ([], [], "fixed by the inputs of cli-approx"),
    "cli.startup_s": (["solve_s_p50", "setup_s"], ["cli-approx"],
                      "a fresh interpreter importing rsekit"),
    "cli.self_s": (["solve_s_p50", "setup_s"], ["cli-approx"],
                   "invocation wall time minus in-process solver spans"),
    "trace.overhead_s": ([], [], "cost of tracing itself: each call run "
                         "untraced and traced back to back, summed "
                         "differences of their wall times"),
}


def bench(spec, name, seed, trace) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", name,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:  # a run with wrong outputs is not recorded
        sys.exit(f"{name} seed {seed} trace {trace} exited "
                 f"{proc.returncode}:\n{proc.stdout[-3000:]}"
                 f"{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = time.perf_counter() - t0
    print(name, seed, trace, f"{result['run_wall_s']:.1f}s",
          result["correct"], result["failed"], flush=True)
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"environment": environment(),
           "run_seconds": spec["run_seconds"],
           "seeds": SEEDS,
           "workloads": {},
           "layer_moves": {k: {"moves": m, "on": w, "why": why}
                           for k, (m, w, why) in LAYER_MOVES.items()}}
    for wl in spec["workloads"]:
        name = wl["name"]
        runs = [bench(spec, name, s, 0) for s in out["seeds"]]
        traced = bench(spec, name, 1, 1)
        out["workloads"][name] = {
            "why": wl["why"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_wall_s": summarize([r["run_wall_s"] for r in runs]),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **summarize(
                    [r["metrics"][m["name"]]["value"] for r in runs])}
                for m in spec["end_to_end"]},
            "per_layer_seed_1": traced["metrics"],
            "traced_failed": traced["failed"],
        }
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
