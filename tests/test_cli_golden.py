"""Golden CLI outputs: stdout, stderr and exit code of a fixed command set.

Every command runs in-process through ``rsekit.cli.main`` on the catalog
games, on small random games (including n = 1 and m = 1) and on an
exact-cover reduction game, in both modes, plus seeded ``learn`` runs;
``tests/data/cli_golden.json`` holds what each one printed. A refactor that
changes any byte of any output fails here.

After an intended output change, re-record the fixture with
``PYTHONPATH=src python tests/test_cli_golden.py --record``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from rsekit.cli import main
from rsekit.lab import CATALOG_NAMES

FIXTURE = Path(__file__).parent / "data" / "cli_golden.json"

# name -> `rsekit gen` arguments
GAMES = {name: ("--catalog", name) for name in CATALOG_NAMES}
GAMES.update({
    "r2x3": ("--random", "2,3,0"),
    "r2x1": ("--random", "2,1,0"),
    "r1x3": ("--random", "1,3,0"),
    "r3x3": ("--random", "3,3,1"),
    "q2x1": ("--random", "2,1,1", "--grid-denominator", "16"),
    "q1x3": ("--random", "1,3,2", "--grid-denominator", "8"),
    "q3x3": ("--random", "3,3,2", "--grid-denominator", "4"),
    "q2x4": ("--random", "2,4,3", "--grid-denominator", "8"),
    "rgap3x4": ("--random", "3,4,5", "--ensure-gap", "0.1"),
    "qgap2x3": ("--random", "2,3,1", "--grid-denominator", "8",
                "--ensure-gap", "0.1"),
    "x3c2": ("--x3c", "{x3c}", "--delta", "1/10", "--eps", "1/10"),
})
# A 2-set yes-instance for the exact-cover reduction game ``x3c2``.
X3C_YES = "2\n1 2 3\n4 5 6\n"
# Games small enough for qptas at epsilon 1/2 in well under a second.
QPTAS_GAMES = ("table1", "table2", "table4", "table5", "table6_g2",
               "r2x3", "r2x1", "r1x3", "q2x1", "q1x3", "q2x4", "qgap2x3")
# Games learned by `rsekit learn`, with the solvers run on the estimate;
# qptas at its default epsilon 0.1 enumerates 71 anchors on a 2-row game.
LEARN_SOLVERS = {"table6_g1": ("exact",), "table7_g1": ("exact", "qptas")}


def _commands(name):
    """``(argv, verifies)`` per command; ``{game}`` is the game file."""
    if name.startswith("x3c"):
        for mode in ("float", "exact"):
            yield ("solve", "--method", "exact", "--delta", "1/10", "--mode",
                   mode, "{game}"), True
        return
    for solver in LEARN_SOLVERS.get(name, ()):
        for noise in ("bernoulli", "gaussian:0.05"):
            yield ("learn", "--game", "{game}", "--delta", "0.1", "--epsilon",
                   "0.2", "--iota", "0.2", "--noise", noise, "--solver",
                   solver, "--seeds", "2", "--seed", "7"), False
    if name.startswith("r"):
        # Float-only entries: exact mode rejects them at load.
        yield ("solve", "--method", "sse", "--mode", "exact", "{game}"), False
    for mode in ("float",) if name.startswith("r") else ("float", "exact"):
        tail = ("--mode", mode, "{game}")
        yield ("solve", "--method", "sse") + tail, False
        yield ("solve", "--method", "maximin") + tail, False
        yield ("solve", "--method", "gap") + tail, False
        for delta in ("1/10", "1/3"):
            yield ("solve", "--method", "exact", "--delta", delta) + tail, True
        yield ("solve", "--method", "gap-approx", "--delta", "1/20") + tail, True
        if name in QPTAS_GAMES:
            yield ("solve", "--method", "qptas", "--delta", "1/4",
                   "--epsilon", "1/2") + tail, True
        yield ("curve", "--grid", "1/10:1/2:1/5") + tail, False


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(), err.getvalue()]


def _sweep(tmp):
    """Run every command; return ``{command id: [code, stdout, stderr]}``."""
    results = {}
    x3c = tmp / "x3c.txt"
    x3c.write_text(X3C_YES)
    for name, gen in GAMES.items():
        key = "gen " + " ".join(gen)
        results[key] = _run(("gen",) + tuple(a.replace("{x3c}", str(x3c))
                                             for a in gen))
        game = tmp / f"{name}.json"
        game.write_text(results[key][1])
        for argv, verifies in _commands(name):
            key = " ".join(argv).replace("{game}", name)
            results[key] = res = _run(a.replace("{game}", str(game))
                                      for a in argv)
            if verifies and res[0] == 0:
                sol = tmp / "sol.json"
                sol.write_text(res[1])
                results[f"verify {name} <{key}>"] = _run(
                    ("verify", str(game), str(sol)))
    return results


def test_cli_output_matches_golden(tmp_path):
    expected = json.loads(FIXTURE.read_text())
    got = _sweep(tmp_path)
    assert sorted(got) == sorted(expected)
    diff = [k for k in expected if got[k] != expected[k]]
    assert not diff, f"{len(diff)} outputs changed, first: {diff[0]}"


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        recorded = _sweep(Path(d))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} commands to {FIXTURE}")
