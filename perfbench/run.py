#!/usr/bin/env python3
"""Layered benchmark for rsekit: end-to-end metrics, or a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload x3c-exact --seed 1 --seconds 30 --trace 0

Workloads: ``x3c-exact`` and ``cli-approx`` (see ``workloads.py``). One
process runs the workload as a closed loop: one solver call, or one CLI
subprocess, at a time. It repeats whole passes over the seed's inputs, at
least the workload's ``min_passes`` and as many as fit in ``--seconds``.

``--trace 0`` times the calls with tracing off and prints the end-to-end
metrics. ``--trace 1`` runs each call of one pass twice, back to back: untraced,
and with every layer's public functions wrapped (``tracer.py``). It prints
the per-layer metrics derived from the spans plus the tracing overhead (the
traced minus the untraced wall times, summed over the calls).

Every output is checked after the timed passes. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
each metric with its value and unit. The lines before it print the same
metrics for a reader, with the environment and any failed checks. The exit
code is 1 when any check failed, 0 otherwise.

The rsekit switches ``RSEKIT_LP_DUMP`` and ``RSEKIT_KERNELS`` are unset, and
the package is imported from ``src/`` (``PYTHONPATH=src`` for
subprocesses). Without ``src/rsekit`` the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
STARTUP_REPEATS = 3


def environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "RSEKIT_LP_DUMP": os.environ.get("RSEKIT_LP_DUMP", "unset"),
        "RSEKIT_KERNELS": os.environ.get("RSEKIT_KERNELS", "unset"),
    }


def _wall(argv, env, out_path=None) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT,
                          check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:4]} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-300:]}")
    if out_path is not None:
        Path(out_path).write_bytes(proc.stdout)
    return wall


def setup_commands(w, seed: int, tiny: bool) -> list:
    """Fresh processes that import rsekit and make the workload's games."""
    if not w.in_process:
        return [([sys.executable, "-m", "rsekit.cli", *argv], path)
                for path, argv in w.gen_argv(seed, tiny)]
    code = ("import sys; sys.path[:0] = [{bench!r}]; import workloads; "
            "workloads.WORKLOADS[{name!r}].build({seed}, {tiny})").format(
                bench=str(BENCH), name=w.name, seed=seed, tiny=tiny)
    return [([sys.executable, "-c", code], None)]


def time_setup(w, seed: int, tiny: bool) -> float:
    return sum(_wall(argv, w.env, out)
               for argv, out in setup_commands(w, seed, tiny))


def traced_setup(w, seed: int, tiny: bool, tracer) -> None:
    """Make the games with the lab layer traced, in or out of process."""
    if not w.in_process:
        spans = w.workdir / "spans.json"
        for path, argv in w.gen_argv(seed, tiny):
            _wall([sys.executable, str(BENCH / "cli_child.py"), str(spans),
                   *argv], w.env, path)
            tracer.merge_child(json.loads(spans.read_text()))
    else:
        with tracer:
            w.build(seed, tiny)


def timed_call(w, call, tracer=None):
    """Wall seconds and output of one call; a raised error is the output."""
    t0 = time.perf_counter()
    try:
        out = w.run(call, tracer)
    except Exception as e:  # a failed call is counted, not fatal
        out = e
    return time.perf_counter() - t0, out


def measure(w, calls, seconds: float, passes: int | None = None):
    """Whole passes over ``calls``; returns per-call seconds and outputs."""
    samples, outputs, pass_times = [], [], []
    start = time.perf_counter()
    while True:
        if passes is not None:
            if len(pass_times) >= passes:
                break
        elif len(pass_times) >= w.min_passes and (
                time.perf_counter() - start
                + statistics.mean(pass_times) > seconds):
            break
        p0 = time.perf_counter()
        for call in calls:
            dt, out = timed_call(w, call)
            samples.append(dt)
            outputs.append(out)
        pass_times.append(time.perf_counter() - p0)
    return samples, outputs


def check_outputs(w, calls, outputs, seed: int) -> list[str]:
    """One line per failed call; checks run after the timed passes."""
    import workloads
    bounds = workloads.Bounds()
    problems = []
    for i, out in enumerate(outputs):
        call = calls[i % len(calls)]
        if isinstance(out, Exception):
            bad = [f"raised {out!r}"]
        else:
            try:
                bad = w.check(call, out, seed, bounds)
            except Exception as e:  # a broken output must not stop the run
                bad = [f"check raised {e!r}"]
        if bad:
            problems.append(f"{call.label}: {'; '.join(bad)}")
    return problems


def tail_percentile(samples_min: int) -> int:
    """Highest whole percentile with at least ten of ``samples_min`` beyond."""
    return min(99, max(1, math.floor(100 * (samples_min - 10) / samples_min)))


def percentile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A Beta-weighted mean of all order statistics around rank q(n+1). Call
    times on a shared machine jitter by 20-40% from one call to the next,
    and a single order statistic (nearest rank) passes that jitter on
    whole; this estimator averages the neighbouring samples instead.
    """
    import numpy as np
    from scipy.special import betainc
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    p = q / 100
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1),
                              np.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end(w, seed, seconds, tiny):
    _wall([sys.executable, "-c", "import rsekit.cli"], w.env)  # warm .pyc
    setups = [time_setup(w, seed, tiny) for _ in range(SETUP_REPEATS)]
    calls = w.build(seed, tiny)
    samples, outputs = measure(w, calls, seconds)
    who = resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    problems = check_outputs(w, calls, outputs, seed)
    q = tail_percentile(w.min_passes * len(calls))
    metrics = {
        "solves_per_s": (len(samples) / sum(samples), "1/s"),
        "solve_s_p50": (percentile(samples, 50), "s"),
        "solve_s_tail": (percentile(samples, q), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = [
        f"calls: {len(samples)} ({len(samples) // len(calls)} passes of "
        f"{len(calls)})",
        f"solve_s_tail is p{q}: {len(samples) - math.ceil(q / 100 * len(samples))}"
        f" of {len(samples)} samples beyond it (Harrell-Davis estimates)",
        f"setup_s runs: {', '.join(f'{s:.3f}' for s in setups)}",
        f"fail_ratio: {len(problems) / len(outputs):.4f} ratio "
        f"({len(problems)} of {len(outputs)})",
    ]
    return metrics, len(outputs), problems, notes


def traced(w, seed, tiny):
    from tracer import Tracer, busy_time, layer_metrics
    _wall([sys.executable, "-c", "import rsekit.cli"], w.env)
    startup = statistics.median(
        _wall([sys.executable, "-c", "import rsekit"], w.env)
        for _ in range(STARTUP_REPEATS))
    setup_tracer = Tracer()
    traced_setup(w, seed, tiny, setup_tracer)
    calls = w.build(seed, tiny)
    tracer = Tracer()
    plain, plain_out, walls, traced_out = [], [], [], []
    for i, call in enumerate(calls):
        # Untraced and traced back to back, so that the machine's slow drift
        # in speed cancels in their difference; the order alternates so
        # that neither side always runs second, on warm caches.
        tracer.solve_id = i
        for on in (False, True) if i % 2 == 0 else (True, False):
            if on:
                with tracer:
                    dt, out = timed_call(w, call, tracer)
                walls.append(dt)
                traced_out.append(out)
            else:
                dt, out = timed_call(w, call)
                plain.append(dt)
                plain_out.append(out)
    problems = check_outputs(w, calls, plain_out + traced_out, seed)
    spans = tracer.spans
    raw = layer_metrics(spans, walls)
    raw["lab.gen_s"] = (busy_time(setup_tracer.spans, "lab"), "s")
    raw["cli.startup_s"] = (startup, "s")
    raw["trace.overhead_s"] = (sum(walls) - sum(plain), "s")
    lp_counts = sum(out.lp_count for out in traced_out
                    if hasattr(out, "lp_count"))
    notes = [
        f"calls: {len(calls)} untraced + {len(calls)} traced, "
        f"{len(spans)} spans",
        f"pass wall: untraced {sum(plain):.3f} s, traced {sum(walls):.3f} s",
        f"summed RseSolution.lp_count of the traced pass: {lp_counts}",
        f"fail_ratio: {len(problems) / (2 * len(calls)):.4f} ratio",
    ]
    return raw, 2 * len(calls), problems, notes, lp_counts


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Run one workload; the result holds the JSON line plus notes."""
    import workloads
    w = workloads.WORKLOADS[name]
    w.env = workloads.pin_environment()
    w.workdir = ROOT / ".perfbench_work" / str(os.getpid())
    w.workdir.mkdir(parents=True)
    try:
        if trace:
            raw, attempted, problems, notes, lp_counts = traced(w, seed, tiny)
        else:
            raw, attempted, problems, notes = end_to_end(w, seed, seconds, tiny)
            lp_counts = None
    finally:
        shutil.rmtree(w.workdir)
        with contextlib.suppress(OSError):
            w.workdir.parent.rmdir()
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "notes": notes,
        "problems": problems,
        "lp_counts": lp_counts,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=["x3c-exact", "cli-approx"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rsekit" / "__init__.py").is_file():
        print(f"perfbench: no rsekit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for note in result["notes"]:
        print(note)
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for k, m in result["metrics"].items():
        print(f"{k:<22} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
