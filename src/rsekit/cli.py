"""Command-line front end: solve, curve, gen, learn, verify.

Outputs are machine-readable (JSON or CSV) and byte-stable: re-running a
command with the same flags and seed reproduces the output exactly, for any
``--jobs`` value. Guard errors (enumeration caps, a curve grid of more than
``GRID_CAP`` points, insufficient inducibility gap) exit with code 3 and a
JSON error object; usage errors exit 2.

Only ``errors`` and ``game`` are imported with this module; each command
imports the solvers it runs, so ``verify`` and ``gen`` start without them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .errors import (BudgetExceeded, EnumerationCapExceeded, GameFormatError,
                     GapTooSmall, RsekitError)
from .game import (BimatrixGame, MixedStrategy, attach_exact, dumps_game,
                   evaluate, loads_game, scalar, strategy_from, tolerance)

GUARD_ERRORS = (EnumerationCapExceeded, GapTooSmall, BudgetExceeded)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

# Most points a curve grid may have; each point is one robust solve.
GRID_CAP = 10_000


def _load_game(path: str, exact: bool) -> BimatrixGame:
    with open(path) as fh:
        game = loads_game(fh.read())
    if exact and not game.has_exact:
        game = attach_exact(game)
    return game


def _parse_level(text: str | None, exact: bool):
    """Accept both decimal and fraction spellings for delta/epsilon."""
    if text is None:
        return None
    return scalar(Fraction(text), exact)


def _follower_scale(game: BimatrixGame, exact: bool):
    """Rescale factor for a delta stated against the raw follower matrix."""
    norm = game.meta.get("normalization")
    if not norm:
        return scalar(1, exact)
    try:
        if exact and "exact" in norm:
            return Fraction(norm["exact"]["follower"]["scale"])
        return scalar(str(norm["follower"]["scale"]), exact)
    except (KeyError, TypeError, ValueError, ZeroDivisionError,
            OverflowError) as e:
        raise GameFormatError(
            f"bad game JSON: meta.normalization: {e!r}") from e


def _number(v):
    """``v`` as a JSON number, or null when it has no finite double."""
    try:
        v = float(v)
    except OverflowError:  # an exact level beyond the double range
        return None
    return v if math.isfinite(v) else None


def _put(out: dict, key: str, v) -> None:
    """``out[key] = v`` as a number, plus ``key + "_exact"`` for a Fraction."""
    out[key] = _number(v)
    if isinstance(v, Fraction):
        out[key + "_exact"] = str(v)


def _strategy_json(x: MixedStrategy) -> dict:
    out = {"probs": [float(v) for v in x.probs]}
    if x.exact is not None:
        out["exact"] = [str(v) for v in x.exact]
    return out


def _report_json(rep, mode: str, method: str) -> dict:
    """The outcome fields every ``solve`` method writes."""
    out = {
        "method": method,
        "mode": mode,
        "strategy": _strategy_json(rep.strategy),
        "response": rep.response,
        "response_set": list(rep.response_set.actions),
    }
    _put(out, "value", rep.leader_value)
    return out


def _solution_json(sol, delta, mode: str) -> dict:
    """The JSON of an :class:`~rsekit.exact.RseSolution`."""
    out = _report_json(sol.outcome, mode, sol.method)
    out["lp_count"] = sol.lp_count
    _put(out, "delta", delta)
    if sol.chosen_tuple is not None:
        out["chosen_tuple"] = {
            "S": list(sol.chosen_tuple.S.actions),
            "j_tilde": sol.chosen_tuple.j_tilde,
            "j": sol.chosen_tuple.j,
        }
    if sol.guarantee is not None:
        out["guarantee"] = {
            k: (str(v) if isinstance(v, Fraction) else
                list(v) if isinstance(v, tuple) else
                _number(v) if isinstance(v, float) else v)
            for k, v in sol.guarantee.items()
        }
    return out


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, allow_nan=False))


def positive_int(text: str) -> int:
    """argparse type of ``--jobs``, ``--seeds`` and ``--cap``: an integer
    >= 1."""
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {v}")
    return v


def finite_level(text: str) -> float:
    """argparse type of ``learn --delta`` and ``verify --tolerance``: a
    finite number >= 0."""
    v = float(text)
    if not 0 <= v < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and at least 0, got {text}")
    return v


def _grid_values(spec: str) -> list[Fraction]:
    try:
        a, b, step = (Fraction(part) for part in spec.split(":"))
    except (ValueError, ZeroDivisionError) as e:
        raise GameFormatError(f"bad grid spec {spec!r}: {e}") from e
    if step <= 0 or a <= 0 or b < a:
        raise GameFormatError("grid needs 0 < start <= stop and step > 0")
    count = (b - a) // step + 1
    if count > GRID_CAP:
        raise EnumerationCapExceeded(
            f"grid has {count} points, above the cap {GRID_CAP}")
    return [a + i * step for i in range(count)]


def cmd_solve(args) -> int:
    exact = args.mode == "exact"
    game = _load_game(args.game, exact)
    delta = _parse_level(args.delta, exact)
    if delta is not None and args.raw_delta:
        delta = delta * _follower_scale(game, exact)
    if args.method in ("exact", "qptas", "gap-approx") and delta is None:
        print("solve: --delta is required for this method", file=sys.stderr)
        return EXIT_USAGE
    if args.method in ("sse", "maximin"):
        from .baseline import solve_maximin, solve_sse
        solver = solve_sse if args.method == "sse" else solve_maximin
        rep = solver(game, exact=exact)
        out = _report_json(rep, args.mode, args.method)
        out["tie_breaking"] = rep.tie_breaking
        _emit(out)
    elif args.method == "gap":
        from .baseline import inducibility_gap
        rep = inducibility_gap(game, exact=exact)
        out = {
            "method": "gap",
            "mode": args.mode,
            "per_action": [
                {"action": j, "margin": _number(a.margin),
                 "strategy": _strategy_json(a.strategy)}
                for j, a in enumerate(rep.per_action)
            ],
        }
        _put(out, "gap", rep.gap)
        _emit(out)
    elif args.method == "exact":
        from .exact import ENUMERATION_CAP, solve_exact
        cap = ENUMERATION_CAP if args.cap is None else args.cap
        sol = solve_exact(game, delta, exact=exact, cap=cap)
        _emit(_solution_json(sol, delta, args.mode))
    elif args.method == "qptas":
        if args.epsilon is None:
            print("solve: --epsilon is required for qptas", file=sys.stderr)
            return EXIT_USAGE
        from .approx import qptas_solve
        eps = _parse_level(args.epsilon, exact)
        sol = qptas_solve(game, delta, eps, exact=exact)
        _emit(_solution_json(sol, delta, args.mode))
    elif args.method == "gap-approx":
        from .approx import gap_approx
        sol = gap_approx(game, delta, exact=exact)
        _emit(_solution_json(sol, delta, args.mode))
    else:  # pragma: no cover - argparse restricts choices
        return EXIT_USAGE
    return EXIT_OK


def cmd_curve(args) -> int:
    from .exact import rse_curve
    exact = args.mode == "exact"
    game = _load_game(args.game, exact)
    grid = _grid_values(args.grid)
    if args.raw_delta:
        scale = _follower_scale(game, True)
        grid = [v * scale for v in grid]
    deltas = [scalar(v, exact) for v in grid]
    curve = rse_curve(game, deltas, exact=exact, jobs=args.jobs)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["delta", "value", "sse", "maximin", "gap"])

    def fmt(v):
        return str(v) if isinstance(v, Fraction) else repr(float(v))

    for dv, val in zip(curve.deltas, curve.values):
        writer.writerow([fmt(dv), fmt(val), fmt(curve.sse_value),
                         fmt(curve.maximin_value), fmt(curve.gap)])
    return EXIT_OK


def _parse_params(text: str | None) -> dict:
    if not text:
        return {}
    out = {}
    for part in text.split(","):
        if not part:
            continue
        key, _, val = part.partition("=")
        if not _:
            raise GameFormatError(f"bad --params entry {part!r}, want k=v")
        out[key.strip()] = Fraction(val.strip())
    return out


def cmd_gen(args) -> int:
    from . import lab
    chosen = [bool(args.catalog), bool(args.x3c), bool(args.random)]
    if sum(chosen) != 1:
        print("gen: choose exactly one of --catalog/--x3c/--random",
              file=sys.stderr)
        return EXIT_USAGE
    if args.catalog:
        entry = lab.catalog(args.catalog, _parse_params(args.params))
        print(dumps_game(entry.game))
        return EXIT_OK
    if args.x3c:
        if not (args.delta and args.eps):
            print("gen: --x3c needs --delta and --eps", file=sys.stderr)
            return EXIT_USAGE
        with open(args.x3c) as fh:
            instance = lab.parse_x3c(fh.read())
        game = lab.gen_x3c_game(instance, Fraction(args.delta),
                                Fraction(args.eps))
        print(dumps_game(game))
        return EXIT_OK
    try:
        m, n, seed = (int(v) for v in args.random.split(","))
    except ValueError:
        print("gen: --random wants m,n,seed", file=sys.stderr)
        return EXIT_USAGE
    if args.grid_denominator is not None and args.grid_denominator < 1:
        print("gen: --grid-denominator must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    game = lab.gen_random(m, n, seed, rational_grid=args.grid_denominator,
                          ensure_gap=args.ensure_gap)
    print(dumps_game(game))
    return EXIT_OK


def _one_learn_run(payload):
    from . import learning
    truth, delta, epsilon, iota, noise, solver, run_seed = payload
    oracle = learning.NoisyGameOracle(truth, noise, run_seed)
    return learning.learn_rse(oracle, delta, epsilon, iota, solver)


def cmd_learn(args) -> int:
    from .exact import parallel_map
    if args.seed is None:
        print("learn: --seed is required", file=sys.stderr)
        return EXIT_USAGE
    truth = _load_game(args.game, False)
    noise = args.noise
    run_seeds = [int(np.random.SeedSequence([args.seed, i]).generate_state(1)[0])
                 for i in range(args.seeds)]
    work = [(truth, args.delta, args.epsilon, args.iota, noise, args.solver, s)
            for s in run_seeds]
    outcomes = parallel_map(_one_learn_run, work, args.jobs)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["seed", "T", "sup_err_l", "sup_err_f", "value", "floor",
                     "pass"])
    tol = tolerance(False)
    for s, out in zip(run_seeds, outcomes):
        concentrated = (out.sup_err_l <= args.epsilon + tol
                        and out.sup_err_f <= args.epsilon + tol)
        ok = (not concentrated) or out.true_value >= out.guarantee_floor - tol
        writer.writerow([s, out.samples_per_pair, repr(out.sup_err_l),
                         repr(out.sup_err_f), repr(float(out.true_value)),
                         repr(float(out.guarantee_floor)), int(ok)])
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.solution) as fh:
        sol = json.load(fh)
    if not isinstance(sol, dict) or ("delta" not in sol
                                     and "delta_exact" not in sol):
        print("verify: the solution file carries no delta (only "
              "delta-indexed solutions can be rechecked)", file=sys.stderr)
        return EXIT_USAGE
    missing = [k for k in ("strategy", "value", "response", "response_set")
               if k not in sol]
    if missing:
        raise GameFormatError(
            f"verify: the solution file lacks {', '.join(missing)}")
    # type(v) is int: a JSON true or 1.0 would compare equal to 1.
    rset = sol["response_set"]
    if type(sol["response"]) is not int or not (
            type(rset) is list and all(type(k) is int for k in rset)):
        raise GameFormatError("verify: response must be an integer and "
                              "response_set a list of integers")
    exact = sol.get("mode") == "exact"
    game = _load_game(args.game, exact)
    try:
        if exact and "exact" in sol["strategy"]:
            x = strategy_from(sol["strategy"]["exact"], True)
            delta = Fraction(sol["delta_exact"])
        else:
            exact = False
            x = strategy_from(sol["strategy"]["probs"], False)
            delta = float(sol["delta"])
        stated = (Fraction(sol["value_exact"]) if exact and "value_exact" in sol
                  else float(sol["value"]))
    except (KeyError, TypeError, OverflowError) as e:
        raise GameFormatError(
            f"verify: malformed strategy, delta or value: {e!r}") from e
    if any(type(v) is float and not math.isfinite(v) for v in (delta, stated)):
        raise GameFormatError(
            f"verify: delta {delta} and value {stated} must be finite")
    rep = evaluate(game, x, delta, exact=exact)
    value_ok = (rep.leader_value == stated if exact
                else abs(rep.leader_value - stated) <= args.tolerance)
    response_ok = rep.response == sol["response"]
    set_ok = list(rep.response_set.actions) == sol["response_set"]
    verdict = {
        "value_ok": bool(value_ok),
        "response_ok": bool(response_ok),
        "response_set_ok": bool(set_ok),
        "recomputed_value": _number(rep.leader_value),
    }
    _emit(verdict)
    return EXIT_OK if (value_ok and response_ok and set_ok) else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rsekit",
                                description="robust Stackelberg equilibrium kit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a game by one method")
    sp.add_argument("game")
    sp.add_argument("--method", required=True,
                    choices=["sse", "maximin", "gap", "exact", "qptas",
                             "gap-approx"])
    sp.add_argument("--delta")
    sp.add_argument("--epsilon")
    sp.add_argument("--mode", choices=["float", "exact"], default="float")
    # default: exact.ENUMERATION_CAP, read only when --method exact runs
    sp.add_argument("--cap", type=positive_int)
    sp.add_argument("--raw-delta", action="store_true",
                    help="delta is stated against the raw (pre-normalization) "
                         "follower utilities")
    sp.set_defaults(func=cmd_solve)

    cp = sub.add_parser("curve", help="robust-value curve over a delta grid")
    cp.add_argument("game")
    cp.add_argument("--grid", required=True, metavar="A:B:STEP")
    cp.add_argument("--mode", choices=["float", "exact"], default="float")
    cp.add_argument("--raw-delta", action="store_true")
    cp.add_argument("--jobs", type=positive_int, default=1)
    cp.set_defaults(func=cmd_curve)

    gp = sub.add_parser("gen", help="emit a game as JSON")
    gp.add_argument("--catalog")
    gp.add_argument("--params")
    gp.add_argument("--x3c")
    gp.add_argument("--delta")
    gp.add_argument("--eps")
    gp.add_argument("--random", metavar="M,N,SEED")
    gp.add_argument("--grid-denominator", type=int)
    gp.add_argument("--ensure-gap", type=float)
    gp.set_defaults(func=cmd_gen)

    lp_ = sub.add_parser("learn", help="bandit-feedback learning runs")
    lp_.add_argument("--game", required=True)
    lp_.add_argument("--delta", type=finite_level, required=True)
    lp_.add_argument("--epsilon", type=float, required=True)
    lp_.add_argument("--iota", type=float, required=True)
    lp_.add_argument("--noise", default="bernoulli")
    lp_.add_argument("--seeds", type=positive_int, default=1)
    lp_.add_argument("--seed", type=int)
    lp_.add_argument("--solver", choices=["exact", "qptas"], default="exact")
    lp_.add_argument("--jobs", type=positive_int, default=1)
    lp_.set_defaults(func=cmd_learn)

    vp = sub.add_parser("verify", help="recheck an emitted solution")
    vp.add_argument("game")
    vp.add_argument("solution")
    vp.add_argument("--tolerance", type=finite_level,
                    default=tolerance(False))
    vp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GUARD_ERRORS as e:
        _emit({"error": {"type": type(e).__name__, "message": str(e)}})
        return EXIT_GUARD
    except (RsekitError, ValueError, OSError) as e:
        print(f"rsekit: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ZeroDivisionError as e:  # a fraction flag such as --delta 1/0
        print(f"rsekit: zero denominator in {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
