"""Golden CLI outputs: stdout, stderr and exit code of a fixed command set.

Every command runs in-process through ``rsekit.cli.main`` on the catalog
games, on small random games (including n = 1 and m = 1) and on an
exact-cover reduction game, in both modes, plus seeded ``learn`` runs;
``tests/data/cli_golden.json`` holds what each one printed. A refactor that
changes any byte of any output fails here.

After an intended output change, re-record the fixture with
``PYTHONPATH=src python tests/test_cli_golden.py --record``.
``PYTHONPATH=src python tests/test_cli_golden.py --diff`` records nothing:
it prints, for each command whose output differs from the fixture, the
changed JSON fields or CSV cells as ``old -> new``, then the largest float
change.
"""

import contextlib
import csv
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


def _fields(text):
    """``{field: value}`` of one output: the leaves of a JSON object, named
    by their dotted path, or the cells of a CSV, named ``row N col``."""
    try:
        obj = json.loads(text)
    except ValueError:
        rows = list(csv.reader(io.StringIO(text)))
        head = rows[0] if rows else []
        return {f"row {r} {head[c] if c < len(head) else c}": cell
                for r, row in enumerate(rows[1:], 1)
                for c, cell in enumerate(row)}
    out = {}

    def walk(v, path):
        if isinstance(v, dict):
            for k, w in v.items():
                walk(w, f"{path}.{k}" if path else k)
        elif isinstance(v, list):
            for i, w in enumerate(v):
                walk(w, f"{path}[{i}]")
        else:
            out[path] = v
    walk(obj, "")
    return out


def _float_change(a, b):
    """``|b - a|`` when both are numbers and not both integers, else
    ``None``; CSV cells are number strings."""
    def integral(v):
        return isinstance(v, int) or (isinstance(v, str)
                                      and v.lstrip("-").isdigit())
    if integral(a) and integral(b):
        return None
    try:
        return abs(float(b) - float(a))
    except (TypeError, ValueError):
        return None


def _diff(expected, got):
    """Lines naming every changed command and field, and the largest
    float change."""
    lines, largest = [], (0.0, None)
    for key in sorted(set(expected) | set(got)):
        if key not in got or key not in expected:
            lines.append(f"{'removed' if key not in got else 'added'}: {key}")
            continue
        (c0, out0, err0), (c1, out1, err1) = expected[key], got[key]
        if [c0, out0, err0] == [c1, out1, err1]:
            continue
        lines.append(key)
        if c0 != c1:
            lines.append(f"  exit code: {c0} -> {c1}")
        if err0 != err1:
            lines.append(f"  stderr: {err0!r} -> {err1!r}")
        old, new = _fields(out0), _fields(out1)
        for field in sorted(set(old) | set(new)):
            a, b = old.get(field), new.get(field)
            if a == b:
                continue
            lines.append(f"  {field}: {a} -> {b}")
            change = _float_change(a, b)
            if change is not None and change > largest[0]:
                largest = (change, f"{key}: {field}")
    lines.append(f"largest float change: {largest[0]!r}"
                 + (f" ({largest[1]})" if largest[1] else ""))
    return lines


def test_diff_names_each_changed_field():
    old = {"j": [0, '{"n": 1, "v": [0.5]}\n', ""],
           "c": [0, "delta,value\n0.1,0.25\n", ""]}
    new = {"j": [0, '{"n": 2, "v": [0.5000000000000001]}\n', ""],
           "c": [1, "delta,value\n0.1,0.125\n", "rsekit: x\n"]}
    assert _diff(old, new) == [
        "c", "  exit code: 0 -> 1", "  stderr: '' -> 'rsekit: x\\n'",
        "  row 1 value: 0.25 -> 0.125",
        "j", "  n: 1 -> 2", "  v[0]: 0.5 -> 0.5000000000000001",
        "largest float change: 0.125 (c: row 1 value)"]


if __name__ == "__main__" and sys.argv[1:] in (["--record"], ["--diff"]):
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        recorded = _sweep(Path(d))
    if sys.argv[1] == "--diff":
        print("\n".join(_diff(json.loads(FIXTURE.read_text()), recorded)))
    else:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                           + "\n")
        print(f"recorded {len(recorded)} commands to {FIXTURE}")
