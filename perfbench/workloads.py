"""The benchmark's workloads: inputs from a seed, one call, its checks.

Why each workload exists is recorded in ``BENCHMARK.json``.

A workload builds a fixed list of calls from ``--seed`` (one *pass*). The
runner repeats whole passes, one call at a time from a single process.
Every call's output is checked outside the timed region; a call fails if it
raised, exited non-zero, or failed a check.

* ``x3c-exact``: exact-mode ``solve_exact`` on the exact-cover reduction
  ladder of the acceptance suite (criterion 5) without its 4x14
  no-instance, which alone takes about 26 s, and without the second of its
  two 3x13 yes-instances, so that three passes fit in a run. Seed 0 is
  the ladder itself; any other seed relabels the ground elements of each
  instance, which permutes the game's element columns but keeps its answer
  and, within a few percent, its LP count.
* ``cli-approx``: ``python -m rsekit.cli`` subprocesses on games made by
  ``rsekit gen``. The random games come from fixed generator seeds, and
  the seed shuffles their leader actions (rows); it also picks the catalog
  parameters and the learning seed.

Fresh random 3-subsets per seed were measured and rejected: they moved the
x3c LP count per pass from 851 to 997 over six seeds. Relabeling moves it
by about 1% while still changing every input, and it leaves each solve's
value unchanged, so ``reference.json`` checks every seed, not only seed 0.
The same holds for the random CLI games: a fresh generator seed per run
moved one qptas solve between 4.6 s and 6.2 s, while shuffling the rows of
a fixed game leaves its value and LP count as they are.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from rsekit import baseline, exact, game, lab, learning

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REFERENCE = json.loads((BENCH / "reference.json").read_text())
TOL = 1e-9


def pin_environment() -> dict:
    """Unset the rsekit switches; return the environment for subprocesses.

    ``lp.solve`` reads ``RSEKIT_LP_DUMP`` on every call, so the switches are
    removed from this process too. Subprocesses import rsekit from ``src``.
    """
    for var in ("RSEKIT_LP_DUMP", "RSEKIT_KERNELS"):
        os.environ.pop(var, None)
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class Call:
    label: str  # also the call's key in reference.json
    payload: tuple


class Workload:
    name = ""
    min_passes = 3  # the tail percentile is set for this many passes
    workdir = ROOT / ".perfbench_work"  # scratch files, removed after a run
    env: dict = {}  # subprocess environment, from pin_environment()
    in_process = True  # calls rsekit in this process, not in subprocesses
    tiny = False

    def build(self, seed: int, tiny: bool = False) -> list[Call]:
        """The calls of one pass; ``tiny`` shrinks them for the smoke test."""
        raise NotImplementedError

    def run(self, call: Call, tracer=None):
        """Make one call; ``tracer`` is given on the traced pass only."""
        raise NotImplementedError

    def check(self, call: Call, out, seed: int, bounds: "Bounds") -> list[str]:
        """Problems found in one call's output; empty when it is correct."""
        raise NotImplementedError

    def reference(self, call: Call, seed: int):
        """The recorded value for this call, if ``reference.json`` has one.

        ``make_reference.py`` records seed 0 at full size under the
        workload's name, and at the smoke test's tiny size under the name
        followed by `` tiny``.
        """
        key = self.name + (" tiny" if self.tiny else "")
        return REFERENCE.get(key, {}).get(call.label)


def _sandwich(value, lo, hi, exact_mode: bool) -> list[str]:
    slack = 0 if exact_mode else TOL
    if lo - slack <= value <= hi + slack:
        return []
    return [f"value {value} outside [maximin {lo}, sse {hi}]"]


def _check_solution(g, delta, sol, exact_mode: bool) -> list[str]:
    """Re-evaluate the returned strategy, as ``rsekit verify`` does."""
    rep = game.evaluate(g, sol.strategy, delta, exact=exact_mode)
    bad = []
    same = (rep.leader_value == sol.value if exact_mode
            else abs(rep.leader_value - sol.value) <= TOL)
    if not same:
        bad.append(f"re-evaluated value {rep.leader_value} != {sol.value}")
    if rep.response != sol.outcome.response:
        bad.append(f"re-evaluated response {rep.response} != "
                   f"{sol.outcome.response}")
    if rep.response_set.actions != sol.repaired_set.actions:
        bad.append("re-evaluated response set differs")
    return bad


class Bounds:
    """Maximin and SSE values per game, computed once for the checks."""

    def __init__(self):
        self._cache = {}

    def __call__(self, g, exact_mode: bool):
        key = (g, exact_mode)
        if key not in self._cache:
            self._cache[key] = (
                baseline.solve_maximin(g, exact=exact_mode).leader_value,
                baseline.solve_sse(g, exact=exact_mode).leader_value)
        return self._cache[key]


# ---------------------------------------------------------------------------
# x3c-exact
# ---------------------------------------------------------------------------

# Criterion-5 ladder: (k, subsets, has an exact cover).
LADDER = [
    (1, ("123",), True),
    (1, ("123", "123"), True),
    (2, ("123", "456"), True),
    (2, ("123", "456", "124"), True),
    (2, ("135", "246"), True),
    (2, ("123", "456", "145", "236"), True),
    (2, ("126", "345", "123"), True),
    (2, ("156", "234", "246"), True),
    (3, ("123", "456", "789"), True),
    # (3, ("147", "258", "369"), True) is left out: its 3x13 shape is above.
    (2, ("123", "124"), False),
    (2, ("123", "145"), False),
    (2, ("123", "234", "345"), False),
    (2, ("123", "345", "561"), False),
    (2, ("124", "235", "346", "156"), False),
    (2, ("135", "356"), False),
    (2, ("126", "256"), False),
    (2, ("234", "456"), False),
    (3, ("123", "456", "678"), False),
    # (3, ("123", "345", "567", "789"), False) is left out: 26 s on its own.
]
X3C_DELTA = X3C_EPS = Fraction(1, 10)


def _relabel(k, subsets, rng):
    image = list(range(1, 3 * k + 1))
    if rng is not None:
        rng.shuffle(image)
    return lab.X3CInstance(k, tuple(frozenset(image[int(e) - 1] for e in s)
                                    for s in subsets))


class X3cExact(Workload):
    name = "x3c-exact"

    def build(self, seed, tiny=False):
        self.tiny = tiny
        rng = random.Random(seed) if seed else None
        calls = []
        for i in (0, 2, 9, 10) if tiny else range(len(LADDER)):
            k, subsets, yes = LADDER[i]
            inst = _relabel(k, subsets, rng)
            g = lab.gen_x3c_game(inst, X3C_DELTA, X3C_EPS)
            found = lab.x3c_brute_check(inst)
            label = f"#{i} {'yes' if yes else 'no'} {g.m}x{g.n}"
            calls.append(Call(label, (g, inst, yes, found)))
        return calls

    def run(self, call, tracer=None):
        g = call.payload[0]
        return exact.solve_exact(g, X3C_DELTA, exact=True)

    def check(self, call, sol, seed, bounds):
        g, inst, yes, found = call.payload
        bad = []
        if found != yes:
            bad.append(f"x3c_brute_check says {found}, the ladder says {yes}")
        bad += _check_solution(g, X3C_DELTA, sol, True)
        lo, hi = bounds(g, True)
        bad += _sandwich(sol.value, lo, hi, True)
        k = inst.k
        if yes and sol.value != Fraction(1, k):
            bad.append(f"yes-instance value {sol.value} != 1/{k}")
        if not yes and not sol.value <= (1 + X3C_EPS) / (2 * k):
            bad.append(f"no-instance value {sol.value} > (1+eps)/2k")
        ref = self.reference(call, seed)
        if ref is not None and sol.value != Fraction(ref):
            bad.append(f"value {sol.value} != reference {ref}")
        return bad


# ---------------------------------------------------------------------------
# cli-approx
# ---------------------------------------------------------------------------

# Catalog parameters a seed picks from; seed 0 takes the first of each.
T4_EPS = ("1/2", "1/4", "3/4")
T5_GAP = ("2/5", "3/10")
T5_C = ("4/5", "7/10")
CURVE_GRID = "0.05:1.5:0.05"
QPTAS_DELTA, QPTAS_EPS = 0.1, 0.2
GAP_DELTA = 0.1
LEARN_ARGS = ("--delta", "0.1", "--epsilon", "0.1", "--iota", "0.1")
LEARN_SEEDS = 50
# Random games, (full size, tiny): ``gen --random M,N,SEED`` arguments with
# fixed generator seeds. Across generator seeds the exact-mode solve ranges
# from 0.3 s to 5 s, more than the rest of a pass varies.
RANDOM_GAMES = {
    "q1": (("--random", "3,6,0"), ("--random", "3,4,0")),
    "q2": (("--random", "4,4,0"), ("--random", "4,3,0")),
    "ex": (("--random", "3,8,1", "--grid-denominator", "16"),
           ("--random", "2,4,1", "--grid-denominator", "16")),
}


class CliApprox(Workload):
    name = "cli-approx"
    in_process = False
    # Four passes put the tail percentile (p77) in the middle of the
    # exact-mode solves (one call in eleven), which sit apart in time from
    # the 0.3 s calls below them and the qptas solves above them.
    min_passes = 4

    def games(self, seed, tiny=False):
        """``rsekit gen`` arguments, catalog parameters and row orders.

        The random games are generated into ``<name>.gen.json`` and
        written with their rows in the seed's order to ``<name>.json``.
        """
        rng = random.Random(seed)
        pick = (lambda xs: xs[0]) if seed == 0 else rng.choice
        t4 = f"eps={pick(T4_EPS)}"
        t5 = f"gap={pick(T5_GAP)},c={pick(T5_C)}"
        gens = [(f"{name}.gen.json", args[tiny])
                for name, args in RANDOM_GAMES.items()]
        gens += [
            ("t4.json", ("--catalog", "table4", "--params", t4)),
            ("t5.json", ("--catalog", "table5", "--params", t5)),
            ("t6.json", ("--catalog", "table6_g1")),
        ]
        rows = {}
        for name, args in RANDOM_GAMES.items():
            rows[name] = list(range(int(args[tiny][1].split(",")[0])))
            if seed:
                rng.shuffle(rows[name])
        return gens, {"t4": t4, "t5": t5}, rows

    def gen_argv(self, seed, tiny=False):
        gens, _, _ = self.games(seed, tiny)
        return [(self.workdir / fname, ["gen", *args]) for fname, args in gens]

    def build(self, seed, tiny=False):
        self.tiny = tiny
        _, self._params, rows = self.games(seed, tiny)
        for name, order in rows.items():
            g = game.loads_game((self.workdir / f"{name}.gen.json").read_text())
            exl, exf = g.exact_u_l, g.exact_u_f
            g = game.BimatrixGame(
                g.u_l[order], g.u_f[order], dict(g.meta),
                exl and [exl[i] for i in order], exf and [exf[i] for i in order])
            (self.workdir / f"{name}.json").write_text(game.dumps_game(g))
        self._grid = "0.25:1.5:0.25" if tiny else CURVE_GRID
        self._learn_seeds = 5 if tiny else LEARN_SEEDS
        self._games, self._best = {}, {}

        def f(name):
            return str(self.workdir / name)

        calls = []
        for q in ("q1", "q2"):
            calls.append(Call(f"qptas {q}", ("qptas", q, [
                "solve", f(f"{q}.json"), "--method", "qptas",
                "--delta", str(QPTAS_DELTA), "--epsilon", str(QPTAS_EPS)],
                f(f"{q}.sol.json"))))
        calls.append(Call("gap-approx t5", ("gap-approx", "t5", [
            "solve", f("t5.json"), "--method", "gap-approx",
            "--delta", str(GAP_DELTA)], f("t5.sol.json"))))
        calls.append(Call("exact ex", ("exact", "ex", [
            "solve", f("ex.json"), "--method", "exact", "--mode", "exact",
            "--delta", "1/10"], f("ex.sol.json"))))
        for src in ("q1", "q2", "t5", "ex"):
            calls.append(Call(f"verify {src}", ("verify", src, [
                "verify", f(f"{src}.json"), f(f"{src}.sol.json")], None)))
        for t in ("t4", "t5"):
            calls.append(Call(f"curve {t}", ("curve", t, [
                "curve", f(f"{t}.json"), "--mode", "exact",
                "--grid", self._grid], None)))
        calls.append(Call("learn t6", ("learn", "t6", [
            "learn", "--game", f("t6.json"), *LEARN_ARGS,
            "--seeds", str(self._learn_seeds), "--seed", str(seed)], None)))
        return calls

    def run(self, call, tracer=None):
        kind, _, argv, out_path = call.payload
        if tracer is None:
            cmd = [sys.executable, "-m", "rsekit.cli", *argv]
        else:
            spans_path = self.workdir / "spans.json"
            cmd = [sys.executable, str(BENCH / "cli_child.py"),
                   str(spans_path), *argv]
        proc = subprocess.run(cmd, capture_output=True, env=self.env,
                              cwd=ROOT, check=False)
        if out_path is not None:
            Path(out_path).write_bytes(proc.stdout)
        if tracer is not None:
            tracer.merge_child(json.loads(spans_path.read_text()))
        return proc

    def _game(self, name, exact_mode=False):
        key = (name, exact_mode)
        if key not in self._games:
            text = (self.workdir / f"{name}.json").read_text()
            g = game.loads_game(text)
            self._games[key] = game.attach_exact(g) if exact_mode else g
        return self._games[key]

    def check(self, call, out, seed, bounds):
        kind, src, argv, _ = call.payload
        if out.returncode != 0:
            return [f"exit code {out.returncode}: "
                    f"{out.stderr.decode(errors='replace')[-300:]}"]
        text = out.stdout.decode()
        return getattr(self, "_check_" + kind.replace("-", "_"))(
            call, src, text, seed, bounds)

    def reference(self, call, seed):
        """Every seed for the random games, whose row order leaves their
        values as they are; seed 0 only for the rest, as other seeds pick
        other catalog parameters and learning seeds."""
        if seed == 0 or call.payload[1] in RANDOM_GAMES:
            return super().reference(call, seed)
        return None

    def _check_solve_common(self, sol, g, delta, exact_mode, bounds):
        bad = []
        if exact_mode:
            x = game.exact_strategy(sol["strategy"]["exact"])
            value = Fraction(sol["value_exact"])
        else:
            x = game.MixedStrategy(np.array(sol["strategy"]["probs"]))
            value = sol["value"]
        rep = game.evaluate(g, x, delta, exact=exact_mode)
        same = (rep.leader_value == value if exact_mode
                else abs(rep.leader_value - value) <= TOL)
        if not same:
            bad.append(f"re-evaluated value {rep.leader_value} != {value}")
        if list(rep.response_set.actions) != sol["response_set"]:
            bad.append("re-evaluated response set differs")
        lo, hi = bounds(g, exact_mode)
        bad += _sandwich(value, lo, hi, exact_mode)
        return value, bad

    def _check_qptas(self, call, src, text, seed, bounds):
        sol = json.loads(text)
        g = self._game(src)
        value, bad = self._check_solve_common(sol, g, QPTAS_DELTA, False, bounds)
        if src not in self._best:
            self._best[src] = exact.solve_exact(g, QPTAS_DELTA).value
        best = self._best[src]
        if value < best - QPTAS_EPS - TOL:
            bad.append(f"qptas value {value} < exact {best} - epsilon")
        ref = self.reference(call, seed)
        if ref is not None and abs(value - ref) > TOL:
            bad.append(f"value {value} != reference {ref}")
        return bad

    def _check_gap_approx(self, call, src, text, seed, bounds):
        sol = json.loads(text)
        g = self._game(src)
        value, bad = self._check_solve_common(sol, g, GAP_DELTA, False, bounds)
        if value < sol["guarantee"]["floor"] - TOL:
            bad.append(f"gap-approx value {value} below its floor")
        ref = self.reference(call, seed)
        if ref is not None and abs(value - ref) > TOL:
            bad.append(f"value {value} != reference {ref}")
        return bad

    def _check_exact(self, call, src, text, seed, bounds):
        sol = json.loads(text)
        g = self._game(src, exact_mode=True)
        value, bad = self._check_solve_common(sol, g, Fraction(1, 10), True,
                                              bounds)
        ref = self.reference(call, seed)
        if ref is not None and value != Fraction(ref):
            bad.append(f"value {value} != reference {ref}")
        return bad

    def _check_verify(self, call, src, text, seed, bounds):
        verdict = json.loads(text)
        ok = verdict["value_ok"] and verdict["response_ok"] \
            and verdict["response_set_ok"]
        return [] if ok else [f"verify verdict {verdict}"]

    def _check_curve(self, call, src, text, seed, bounds):
        table = "table4" if src == "t4" else "table5"
        params = dict(p.split("=") for p in self._params[src].split(","))
        entry = lab.catalog(table, {k: Fraction(v) for k, v in params.items()})
        g = self._game(src, exact_mode=True)
        lo, hi = bounds(g, True)
        rows = list(csv.reader(io.StringIO(text)))
        bad = []
        start, stop, step = (Fraction(v) for v in self._grid.split(":"))
        want = int((stop - start) / step) + 1
        if rows[0] != ["delta", "value", "sse", "maximin", "gap"] \
                or len(rows) != want + 1:
            return [f"curve table has {len(rows) - 1} rows, want {want}"]
        for d, v, sse, mm, _ in rows[1:]:
            d, v = Fraction(d), Fraction(v)
            if v != entry.expected["curve"](d):
                bad.append(f"curve value at {d} is {v}, formula says "
                           f"{entry.expected['curve'](d)}")
            if Fraction(sse) != hi or Fraction(mm) != lo:
                bad.append(f"curve bounds at {d} disagree with sse/maximin")
            bad += _sandwich(v, lo, hi, True)
        return bad

    def _check_learn(self, call, src, text, seed, bounds):
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["seed", "T", "sup_err_l", "sup_err_f", "value",
                       "floor", "pass"]:
            return ["learn header differs"]
        rows = rows[1:]
        bad = []
        if len(rows) != self._learn_seeds:
            bad.append(f"learn printed {len(rows)} rows")
        T = learning.samples_per_pair(3, 2, 0.1, 0.1)
        for r in rows:
            if int(r[1]) != T or r[6] != "1":
                bad.append(f"learn row {r} failed (T={T})")
        ref = self.reference(call, seed)
        if ref is not None:
            want = [line.split(",") for line in ref]
            if len(rows) != len(want) or any(
                    r[:2] != w[:2] or abs(float(r[4]) - float(w[2])) > TOL
                    for r, w in zip(rows, want)):
                bad.append("learn rows differ from reference")
        return bad


WORKLOADS = {w.name: w for w in (X3cExact(), CliApprox())}


def reference_values(name: str, calls: list[Call], outputs: list) -> dict:
    """Values a pass produced, in the form ``reference.json`` stores them."""
    ref = {}
    for call, out in zip(calls, outputs):
        if name == "x3c-exact":
            ref[call.label] = str(out.value)
        else:
            kind = call.payload[0]
            text = out.stdout.decode()
            if kind == "learn":
                rows = list(csv.reader(io.StringIO(text)))[1:]
                ref[call.label] = [f"{r[0]},{r[1]},{r[4]}" for r in rows]
            elif kind == "exact":
                ref[call.label] = json.loads(text)["value_exact"]
            elif kind != "verify" and kind != "curve":
                ref[call.label] = json.loads(text)["value"]
    return ref

