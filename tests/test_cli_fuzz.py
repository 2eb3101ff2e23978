"""An in-process fuzzer of the CLI's input files and numeric flags.

Each of a fixed set of fields of table2's game file, of its exact solution
and of its float solution is set in turn to each value of a fixed pool of
bad values (or deleted). The mutated game goes through ``solve --method
exact|sse|qptas``, ``curve`` and ``verify``, and each mutated solution
through ``verify``. Then each numeric flag of ``solve``, ``curve``,
``gen``, ``learn`` and ``verify`` takes each value of a pool of bad flag
values in turn. Every run must return exit code 0-3 from ``main``, with no
exception escaping it: a bad input is a usage error, a guard error or a
mismatch, never a traceback. Each command imports its solvers when it
runs, inside ``main``'s error handlers, so this also covers them.
"""

import argparse
import contextlib
import copy
import io
import json
import math

import pytest

from rsekit.cli import main, positive_int

DELETE = object()  # the field is removed
POOL = (DELETE, None, True, False, 0, -1, 7, 0.5, -0.25, 1.5, 1e-320,
        math.nan, math.inf, -math.inf, 10 ** 400, "", "1/3", "1/0", "x", [],
        [0.5], [[0.5, 0.5]], {}, {"u_l": []})

GAME_FIELDS = (
    ("m",), ("n",), ("u_l",), ("u_l", 0), ("u_l", 0, 0), ("u_f", 2),
    ("u_f", 2, 1), ("meta",), ("meta", "exact"), ("meta", "exact", "u_l"),
    ("meta", "exact", "u_l", 1), ("meta", "exact", "u_f", 0, 2),
)
SOLUTION_FIELDS = (
    ("mode",), ("method",), ("strategy",), ("strategy", "probs"),
    ("strategy", "probs", 1), ("strategy", "exact"), ("strategy", "exact", 0),
    ("value",), ("value_exact",), ("delta",), ("delta_exact",),
    ("response",), ("response_set",), ("response_set", 0),
)
# A float solution has no exact fields.
FLOAT_SOLUTION_FIELDS = tuple(f for f in SOLUTION_FIELDS
                              if not any("exact" in key for key in f
                                         if isinstance(key, str)))


def _run(argv):
    """``main(argv)``'s exit code, argparse's included, or the exception
    that escaped it."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as e:  # argparse rejected a flag
            return e.code
        except Exception as e:  # what a user would see as a traceback
            return e


def _solve(game_path, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", str(game_path), "--delta", "1/4", *args]) == 0
    return json.loads(out.getvalue())


def _mutants(doc, fields):
    """``(field, value, mutated doc)`` for each field and pool value."""
    for field in fields:
        for value in POOL:
            mutant = copy.deepcopy(doc)
            parent = mutant
            for key in field[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[field[-1]]
            else:
                parent[field[-1]] = value
            yield field, value, mutant


def test_bad_input_files_exit_with_a_code_and_no_traceback(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["gen", "--catalog", "table2"]) == 0
    game = json.loads(out.getvalue())
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps(game))
    solutions = {"exact": _solve(game_path, "--method", "exact",
                                 "--mode", "exact"),
                 "float": _solve(game_path, "--method", "exact")}
    sol_paths = {}
    for mode, sol in solutions.items():
        sol_paths[mode] = tmp_path / f"{mode}.sol.json"
        sol_paths[mode].write_text(json.dumps(sol))

    bad, runs = [], 0
    mutant_path = tmp_path / "mutant.json"

    def check(argv, field, value):
        nonlocal runs
        runs += 1
        code = _run(argv)
        if code not in (0, 1, 2, 3):
            bad.append((argv[0], field, repr(value)[:40], repr(code)))

    for field, value, mutant in _mutants(game, GAME_FIELDS):
        mutant_path.write_text(json.dumps(mutant))
        g = str(mutant_path)
        for argv in (
                ["solve", g, "--method", "exact", "--mode", "exact",
                 "--delta", "1/4"],
                ["solve", g, "--method", "sse"],
                ["solve", g, "--method", "qptas", "--delta", "1/4",
                 "--epsilon", "1"],
                ["curve", g, "--grid", "1/4:1/2:1/4"],
                ["verify", g, str(sol_paths["exact"])]):
            check(argv, field, value)
    for mode, fields in (("exact", SOLUTION_FIELDS),
                         ("float", FLOAT_SOLUTION_FIELDS)):
        for field, value, mutant in _mutants(solutions[mode], fields):
            mutant_path.write_text(json.dumps(mutant))
            check(["verify", str(game_path), str(mutant_path)], field, value)
    assert runs == len(POOL) * (5 * len(GAME_FIELDS) + len(SOLUTION_FIELDS)
                                + len(FLOAT_SOLUTION_FIELDS))
    assert bad == []


# Bad values for a numeric flag: empty, not a number, non-finite, zero,
# negative, fractions, a zero denominator, below and beyond the double
# range, and an integer of 401 digits.
FLAG_POOL = ("", "x", "nan", "inf", "-inf", "-1", "0", "0.5", "1/3", "1/0",
             "1e-320", "1e400", "1" + "0" * 400)
# Flags that take a count of runs or processes get only the values that
# argparse rejects, so that no run starts many processes or runs.
COUNT_POOL = tuple(v for v in FLAG_POOL if not v.isdigit() or int(v) < 1)
X3C_YES = "2\n1 2 3\n4 5 6\n"


def _flag_runs(game, sol, x3c):
    """``(flag, pool, argv with {v} for the value)`` for each numeric flag:
    20 flags, the three parts of a curve grid counted as flags."""
    learn = ["learn", "--game", game, "--delta", "0.1", "--epsilon", "0.3",
             "--iota", "0.3", "--seeds", "1", "--seed", "7"]

    def flag(argv, name):
        at = argv.index(name) + 1
        return argv[:at] + ["{v}"] + argv[at + 1:]

    return [
        ("solve --delta", FLAG_POOL,
         ["solve", game, "--method", "exact", "--delta", "{v}"]),
        ("solve --epsilon", FLAG_POOL,
         ["solve", game, "--method", "qptas", "--delta", "1/4",
          "--epsilon", "{v}"]),
        ("solve --cap", FLAG_POOL,
         ["solve", game, "--method", "exact", "--delta", "1/4",
          "--cap", "{v}"]),
        ("curve --grid start", FLAG_POOL,
         ["curve", game, "--grid", "{v}:1/2:1/4"]),
        ("curve --grid stop", FLAG_POOL,
         ["curve", game, "--grid", "1/4:{v}:1/4"]),
        ("curve --grid step", FLAG_POOL,
         ["curve", game, "--grid", "1/4:1/2:{v}"]),
        ("curve --jobs", COUNT_POOL,
         ["curve", game, "--grid", "1/4:1/2:1/4", "--jobs", "{v}"]),
        ("gen --random seed", FLAG_POOL, ["gen", "--random", "2,3,{v}"]),
        ("gen --grid-denominator", FLAG_POOL,
         ["gen", "--random", "2,3,0", "--grid-denominator", "{v}"]),
        ("gen --ensure-gap", FLAG_POOL,
         ["gen", "--random", "2,3,0", "--ensure-gap", "{v}"]),
        ("gen --delta", FLAG_POOL,
         ["gen", "--x3c", x3c, "--delta", "{v}", "--eps", "1/10"]),
        ("gen --eps", FLAG_POOL,
         ["gen", "--x3c", x3c, "--delta", "1/10", "--eps", "{v}"]),
        ("gen --params", FLAG_POOL,
         ["gen", "--catalog", "table5", "--params", "gap={v}"]),
        *((f"learn {name}", FLAG_POOL, flag(learn, name))
          for name in ("--delta", "--epsilon", "--iota", "--seed")),
        ("learn --seeds", COUNT_POOL, flag(learn, "--seeds")),
        ("learn --jobs", COUNT_POOL, learn + ["--jobs", "{v}"]),
        ("verify --tolerance", FLAG_POOL,
         ["verify", game, sol, "--tolerance", "{v}"]),
    ]


def test_count_flags_get_only_values_argparse_rejects():
    for value in COUNT_POOL:
        with pytest.raises((ValueError, argparse.ArgumentTypeError)):
            positive_int(value)


def test_bad_flag_values_exit_with_a_code_and_no_traceback(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["gen", "--catalog", "table2"]) == 0
    game = tmp_path / "game.json"
    game.write_text(out.getvalue())
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(_solve(game, "--method", "exact")))
    x3c = tmp_path / "x3c.txt"
    x3c.write_text(X3C_YES)
    runs = _flag_runs(str(game), str(sol), str(x3c))
    assert len(runs) == 20
    bad, codes = [], set()
    for name, pool, argv in runs:
        for value in pool:
            code = _run([a.replace("{v}", value) for a in argv])
            codes.add(code)
            if code not in (0, 1, 2, 3):
                bad.append((name, value[:40], repr(code)))
    assert bad == []
    assert codes >= {0, 2, 3}
