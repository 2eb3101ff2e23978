"""End-to-end CLI tests: pipelines, exit codes, byte-stable output."""

import concurrent.futures
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rsekit
from rsekit import lab
from rsekit.cli import GRID_CAP, _grid_values, main
from rsekit.exact import parallel_map
from rsekit.game import loads_game


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ADDRESS_SPACE = 1 << 30  # bytes; python -m rsekit.cli runs in far less


def run_python_capped(*args):
    """``python *args`` in a child process whose address space is capped
    at ``ADDRESS_SPACE``, so that a size guard which lets a huge
    allocation through fails its test with a ``MemoryError`` instead of
    exhausting the machine's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    env = dict(os.environ, PYTHONPATH=str(Path(rsekit.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60, preexec_fn=cap)


def run_cli_capped(*argv):
    """``python -m rsekit.cli *argv`` under :func:`run_python_capped`."""
    return run_python_capped("-m", "rsekit.cli", *argv)


def test_gen_catalog_and_exact_solve_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "--catalog", "table2")
    assert code == 0
    game_path = tmp_path / "table2.json"
    game_path.write_text(out)
    # Emitted JSON reloads bit-identically.
    assert loads_game(out) == loads_game(game_path.read_text())

    code, out, _ = run_cli(capsys, "solve", "--method", "exact", "--delta",
                           "0.25", "--mode", "exact", str(game_path))
    assert code == 0
    sol = json.loads(out)
    assert sol["value"] == 0.5
    assert sol["value_exact"] == "1/2"
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(out)

    code, out, _ = run_cli(capsys, "verify", str(game_path), str(sol_path))
    assert code == 0
    assert json.loads(out)["value_ok"]


def test_verify_flags_corrupted_solution(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "gen", "--catalog", "table2")
    game_path = tmp_path / "g.json"
    game_path.write_text(out)
    _, sol_text, _ = run_cli(capsys, "solve", "--method", "exact", "--delta",
                             "0.25", str(game_path))
    sol = json.loads(sol_text)
    sol["value"] = 0.9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(sol))
    code, out, _ = run_cli(capsys, "verify", str(game_path), str(bad))
    assert code == 1
    assert not json.loads(out)["value_ok"]


def test_guard_errors_exit_three(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "gen", "--catalog", "table2")
    game_path = tmp_path / "g.json"
    game_path.write_text(out)
    code, out, _ = run_cli(capsys, "solve", "--method", "gap-approx",
                           "--delta", "0.6", str(game_path))
    assert code == 3
    assert json.loads(out)["error"]["type"] == "GapTooSmall"

    code, out, _ = run_cli(capsys, "solve", "--method", "exact", "--delta",
                           "0.1", "--cap", "2", str(game_path))
    assert code == 3
    assert json.loads(out)["error"]["type"] == "EnumerationCapExceeded"

    # An epsilon whose anchor granularity k overflows a double (1e-160), or
    # whose 2 epsilon^2 underflows to 0 (1e-200), is past the anchor budget.
    for epsilon in ("1e-4", "1e-160", "1e-200"):
        for mode in ("float", "exact"):
            code, out, err = run_cli(capsys, "solve", "--method", "qptas",
                                     "--delta", "0.1", "--epsilon", epsilon,
                                     "--mode", mode, str(game_path))
            assert (code, err) == (3, "")
            assert json.loads(out)["error"]["type"] == "EnumerationCapExceeded"
    # A random game one entry past the cap is refused before any draw, and
    # an x3c game of 3 * 10^8 entries per matrix before any row is built:
    # each in a child process that could not hold the game.
    x3c_path = tmp_path / "huge_k.x3c"
    x3c_path.write_text("100000000\n1 2 3\n")
    for argv in (("gen", "--random", f"1,{lab.MAX_ENTRIES + 1},1"),
                 ("gen", "--x3c", str(x3c_path), "--delta", "1/10", "--eps",
                  "1/10")):
        proc = run_cli_capped(*argv)
        assert (proc.returncode, proc.stderr) == (3, ""), proc.stderr
        assert json.loads(proc.stdout)["error"]["type"] == "BudgetExceeded"


def test_x3c_brute_check_builds_no_ground_set():
    # k = 10^8 subsets cannot be picked from one, and a ground set of 3k
    # elements would not fit under the cap.
    proc = run_python_capped("-c", (
        "from rsekit.lab import X3CInstance, x3c_brute_check\n"
        "print(x3c_brute_check(X3CInstance(10**8, (frozenset({1, 2, 3}),))))"))
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def _modules_after(code):
    """The ``rsekit`` modules and numpy that a fresh process holds in
    ``sys.modules`` after it runs ``code``."""
    proc = run_python_capped("-c", code + (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in sorted(sys.modules) if m == 'numpy'"
        " or m.split('.')[0] == 'rsekit']))"))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_modules(*argv):
    """:func:`_modules_after` a successful ``rsekit *argv``."""
    return _modules_after(
        "import contextlib, io\nfrom rsekit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0")


def test_import_rsekit_loads_no_submodule_and_no_numpy():
    assert _modules_after("import rsekit") == ["rsekit"]


def test_package_names_resolve_on_first_access():
    # Each name of __all__ is its module's own object; a submodule is
    # imported by name, as before.
    assert _modules_after(
        "import rsekit, importlib\n"
        "home = {n: m for m, ns in rsekit._EXPORTS.items() for n in ns}\n"
        "for name in rsekit.__all__:\n"
        "    module = importlib.import_module('rsekit.' + home[name])\n"
        "    assert getattr(rsekit, name) is getattr(module, name), name\n"
        "assert set(rsekit.__all__) <= set(dir(rsekit))\n"
        "from rsekit import baseline\n"
        "assert baseline.__name__ == 'rsekit.baseline'\n"
        "assert rsekit.learning.learn_rse is rsekit.learn_rse") == [
        "numpy", *(f"rsekit{m}" for m in (
            "", ".approx", ".baseline", ".errors", ".exact", ".game", ".lab",
            ".learning", ".lp"))]
    assert _modules_after("from rsekit import baseline") == [
        "numpy", "rsekit", "rsekit.baseline", "rsekit.errors", "rsekit.game",
        "rsekit.lp"]


CLI_BASE = ["numpy", "rsekit", "rsekit.cli", "rsekit.errors", "rsekit.game"]


@pytest.mark.parametrize("argv", [("gen", "--random", "3,4,0"),
                                  ("gen", "--catalog", "table2")])
def test_gen_loads_only_lab_beside_the_cli(argv):
    assert _cli_modules(*argv) == sorted(CLI_BASE + ["rsekit.lab"])


def test_verify_loads_no_solver(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "gen", "--catalog", "table2")
    game_path = tmp_path / "table2.json"
    game_path.write_text(out)
    for method, mode in (("exact", "exact"), ("qptas", "float")):
        _, out, _ = run_cli(capsys, "solve", "--method", method, "--delta",
                            "0.25", "--epsilon", "1", "--mode", mode,
                            str(game_path))
        sol_path = tmp_path / f"{method}.sol.json"
        sol_path.write_text(out)
        assert _cli_modules("verify", str(game_path),
                            str(sol_path)) == CLI_BASE


def test_the_address_space_cap_runs_an_ordinary_command():
    proc = run_cli_capped("gen", "--random", "2,2,0")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert loads_game(proc.stdout) == lab.gen_random(2, 2, 0)


def test_usage_errors_exit_two(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "gen", "--catalog", "table2")
    game_path = tmp_path / "g.json"
    game_path.write_text(out)
    code, _, err = run_cli(capsys, "solve", "--method", "exact",
                           str(game_path))
    assert code == 2 and "--delta" in err
    code, _, _ = run_cli(capsys, "gen", "--catalog", "table2", "--random",
                         "2,2,1")
    assert code == 2
    code, _, err = run_cli(capsys, "learn", "--game", str(game_path),
                           "--delta", "0.25", "--epsilon", "0.1", "--iota",
                           "0.1")
    assert code == 2 and "--seed" in err
    # A zero denominator in a fraction flag is a usage error, not exit 1.
    for argv in (("solve", "--method", "exact", "--delta", "1/0",
                  str(game_path)),
                 ("solve", "--method", "qptas", "--delta", "1/4",
                  "--epsilon", "1/0", str(game_path)),
                 ("gen", "--catalog", "table5", "--params", "eps=1/0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("rsekit: ") and "Traceback" not in err
    # A catalog parameter the entry does not take is named, not ignored.
    code, out, err = run_cli(capsys, "gen", "--catalog", "table4", "--params",
                             "epz=3/4")
    assert (code, out) == (2, "")
    assert err == ("rsekit: table4 takes no parameter 'epz' "
                   "(it takes: eps)\n")
    # A solution file that lacks a field is malformed (2), not a mismatch (1).
    _, sol_text, _ = run_cli(capsys, "solve", "--method", "exact", "--delta",
                             "0.25", str(game_path))
    for key in ("strategy", "value", "response", "response_set", "probs"):
        sol = json.loads(sol_text)
        del (sol["strategy"] if key == "probs" else sol)[key]
        sol_path = tmp_path / f"no_{key}.json"
        sol_path.write_text(json.dumps(sol))
        code, out, err = run_cli(capsys, "verify", str(game_path),
                                 str(sol_path))
        assert code == 2 and out == ""
        assert err.startswith("rsekit: ") and key in err
    # So is a value of the wrong JSON type.
    _, exact_text, _ = run_cli(capsys, "solve", "--method", "exact", "--delta",
                               "1/4", "--mode", "exact", str(game_path))
    for text, key, bad in ((sol_text, "value", None), (sol_text, "value", [1]),
                           (exact_text, "value_exact", [1])):
        sol = json.loads(text)
        sol[key] = bad
        bad_path = tmp_path / "bad_value.json"
        bad_path.write_text(json.dumps(sol))
        code, out, err = run_cli(capsys, "verify", str(game_path),
                                 str(bad_path))
        assert code == 2 and out == ""
        assert err.startswith("rsekit: ") and "value" in err
    # A response of the wrong JSON type is malformed, whether it would read
    # as a mismatch (5, ["1"], [0], "1") or as a match (false, 0.0 and
    # [false, true] or [0.0, 1.0] equal table2's response 0 and set (0, 1)).
    for key, bad in (("response_set", 5), ("response_set", ["1"]),
                     ("response", [0]), ("response", "1"),
                     ("response", False), ("response", 0.0),
                     ("response_set", [False, True]),
                     ("response_set", [0.0, 1.0])):
        sol = json.loads(exact_text)
        sol[key] = bad
        bad_path = tmp_path / "bad_response.json"
        bad_path.write_text(json.dumps(sol))
        code, out, err = run_cli(capsys, "verify", str(game_path),
                                 str(bad_path))
        assert code == 2 and out == "", (key, bad)
        assert err.startswith("rsekit: ") and "response" in err
        assert "Traceback" not in err
    # A game whose meta.exact lacks its matrices is malformed, not a mismatch.
    bad_game = tmp_path / "no_exact_matrices.json"
    bad_game.write_text(json.dumps({"m": 1, "n": 2, "u_l": [[0, 1]],
                                    "u_f": [[1, 0]], "meta": {"exact": {}}}))
    code, out, err = run_cli(capsys, "solve", "--method", "sse",
                             str(bad_game))
    assert code == 2 and out == ""
    assert err.startswith("rsekit: ") and "u_l" in err
    # A malformed meta.normalization is malformed input for --raw-delta.
    for i, norm in enumerate(({"x": 1}, 5)):
        bad_norm = tmp_path / f"bad_normalization_{i}.json"
        bad_norm.write_text(json.dumps({"m": 1, "n": 2, "u_l": [[0, 1]],
                                        "u_f": [[1, 0]],
                                        "meta": {"normalization": norm}}))
        for mode in ("float", "exact"):
            for argv in (("solve", "--method", "exact", "--delta", "1/4"),
                         ("curve", "--grid", "0.1:0.3:0.1")):
                code, out, err = run_cli(capsys, *argv, "--mode", mode,
                                         "--raw-delta", str(bad_norm))
                assert code == 2 and out == ""
                assert err.startswith("rsekit: ") and "normalization" in err
    # A NaN probability names the strategy instead of failing downstream.
    sol = json.loads(sol_text)
    sol["strategy"]["probs"][0] = float("nan")
    nan_path = tmp_path / "nan_probs.json"
    nan_path.write_text(json.dumps(sol))
    code, out, err = run_cli(capsys, "verify", str(game_path), str(nan_path))
    assert code == 2 and out == ""
    assert err.startswith("rsekit: ") and "non-finite probability" in err
    # solve has no --jobs or --exhaustive; argparse rejects them with exit 2.
    for flags in (["--jobs", "2"], ["--exhaustive"]):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--method", "sse", *flags, str(game_path)])
        assert exc.value.code == 2
    # Float mode refuses a delta its LP tolerance cannot resolve.
    _, out, _ = run_cli(capsys, "gen", "--random", "3,4,1",
                        "--grid-denominator", "4")
    grid_path = tmp_path / "grid4.json"
    grid_path.write_text(out)
    code, out, err = run_cli(capsys, "solve", "--method", "exact", "--delta",
                             "1e-9", str(grid_path))
    assert code == 2 and out == ""
    assert err.startswith("rsekit: ") and "--mode exact" in err
    # meta.exact that disagrees with the float matrices would make the two
    # modes solve two different games.
    mixed = tmp_path / "mixed_exact.json"
    eye, flip = [[1.0, 0.0], [0.0, 1.0]], [["0", "1"], ["1", "0"]]
    mixed.write_text(json.dumps({"m": 2, "n": 2, "u_l": eye, "u_f": eye,
                                 "meta": {"exact": {"u_l": flip,
                                                    "u_f": flip}}}))
    for mode in ("float", "exact"):
        code, out, err = run_cli(capsys, "solve", "--method", "sse",
                                 "--mode", mode, str(mixed))
        assert code == 2 and out == ""
        assert err.startswith("rsekit: ") and "exact_u_l" in err
    # A level beyond the double range is a usage error in float mode.
    for argv in (("solve", "--method", "gap-approx", "--delta", "1e400"),
                 ("solve", "--method", "qptas", "--delta", "0.1",
                  "--epsilon", "1e400"),
                 ("curve", "--grid", "1:1e400:1e399")):
        code, out, err = run_cli(capsys, *argv, str(game_path))
        assert code == 2 and out == ""
        assert err.startswith("rsekit: ") and "too large for float" in err
    # So is a positive level that rounds to 0.0 in float mode.
    for argv in (("solve", "--method", "gap-approx", "--delta", "1e-400"),
                 ("solve", "--method", "qptas", "--delta", "0.1",
                  "--epsilon", "1e-400")):
        code, out, err = run_cli(capsys, *argv, str(game_path))
        assert code == 2 and out == ""
        assert err.startswith("rsekit: ") and "too small for float" in err
    # An infinite learning epsilon would ask for zero samples per pair.
    code, out, err = run_cli(capsys, "learn", "--game", str(game_path),
                             "--delta", "0.1", "--epsilon", "1e400",
                             "--iota", "0.1", "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith("rsekit: ") and "finite epsilon" in err
    # learn --delta must be finite and at least 0; 0 itself is allowed.
    learn = ("learn", "--game", str(game_path), "--epsilon", "0.2", "--iota",
             "0.2", "--seed", "1")
    for delta in ("-1", "1e400", "nan"):
        with pytest.raises(SystemExit) as exc:
            main([*learn, "--delta", delta])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --delta: must be finite and at least 0" in err
    assert run_cli(capsys, *learn, "--delta", "0")[0] == 0
    # verify --tolerance takes the same type: nan and -1 would fail a
    # correct solution, and inf would pass any stated value.
    _, sol_text, _ = run_cli(capsys, "solve", "--method", "exact", "--delta",
                             "1/4", str(game_path))
    sol_path = tmp_path / "tolerance.json"
    sol_path.write_text(sol_text)
    verify = ("verify", str(game_path), str(sol_path))
    for tol in ("nan", "-1", "inf"):
        with pytest.raises(SystemExit) as exc:
            main([*verify, "--tolerance", tol])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tolerance: must be finite and at least 0" in err
        assert "Traceback" not in err
    assert run_cli(capsys, *verify, "--tolerance", "0")[0] == 0
    # So tiny an iota would ask for infinitely many samples per pair.
    code, out, err = run_cli(capsys, *learn, "--delta", "0.1", "--iota",
                             "1e-320")
    assert code == 2 and out == ""
    assert err.startswith("rsekit: ") and "not finite" in err
    # A float delta or value that is not finite is malformed: at NaN every
    # check would pass, at infinity every one fail.
    _, float_text, _ = run_cli(capsys, "solve", "--method", "exact",
                               "--delta", "1/10", str(game_path))
    for key, bad in (("delta", "NaN"), ("delta", "Infinity"),
                     ("value", "NaN")):
        text = float_text.replace(f'"{key}": {json.loads(float_text)[key]}',
                                  f'"{key}": {bad}')
        assert text != float_text
        bad_path = tmp_path / f"{key}_{bad}.json"
        bad_path.write_text(text)
        code, out, err = run_cli(capsys, "verify", str(game_path),
                                 str(bad_path))
        assert code == 2 and out == "", (key, bad)
        assert err.startswith("rsekit: ") and "must be finite" in err
    # A JSON number beyond the double range reads as infinity, which has no
    # Fraction: in a game's meta.exact matrices or an exact solution field.
    huge = tmp_path / "huge_exact_entry.json"
    huge.write_text(json.dumps({"m": 1, "n": 2, "u_l": [[0, 1]],
                                "u_f": [[1, 0]],
                                "meta": {"exact": {"u_l": [["0", "HUGE"]],
                                                   "u_f": [["1", "0"]]}}})
                    .replace('"HUGE"', "1e400"))
    for mode in ("float", "exact"):
        code, out, err = run_cli(capsys, "solve", "--method", "sse", "--mode",
                                 mode, str(huge))
        assert code == 2 and out == ""
        assert err.startswith("rsekit: ") and "meta" in err
    for key in ("strategy", "value_exact", "delta_exact"):
        sol = json.loads(exact_text)
        if key == "strategy":
            sol["strategy"]["exact"][0] = "HUGE"
        else:
            sol[key] = "HUGE"
        bad_path = tmp_path / f"huge_{key}.json"
        bad_path.write_text(json.dumps(sol).replace('"HUGE"', "1e400"))
        code, out, err = run_cli(capsys, "verify", str(game_path),
                                 str(bad_path))
        assert code == 2 and out == "", key
        assert err.startswith("rsekit: ") and "OverflowError" in err


def test_exact_mode_takes_a_level_beyond_the_double_range(tmp_path, capsys):
    game_path = tmp_path / "t2.json"
    game_path.write_text(run_cli(capsys, "gen", "--catalog", "table2")[1])
    for argv in (("solve", "--method", "exact", "--delta", "1e400"),
                 ("solve", "--method", "qptas", "--delta", "1e400",
                  "--epsilon", "1")):
        code, out, err = run_cli(capsys, *argv, "--mode", "exact",
                                 str(game_path))
        assert (code, err) == (0, "")
        sol = json.loads(out)
        assert sol["delta"] is None and sol["delta_exact"] == "1" + "0" * 400
        assert sol["value_exact"] == "1/4"
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(out)
        assert run_cli(capsys, "verify", str(game_path), str(sol_path))[0] == 0
    code, out, err = run_cli(capsys, "curve", "--grid", "1e399:2e399:1e399",
                             "--mode", "exact", str(game_path))
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["1" + "0" * 399, "2" + "0" * 399]
    assert [r[1] for r in rows] == ["1/4", "1/4"]


def test_curve_grid_is_counted_before_it_is_built(tmp_path, capsys):
    game_path = tmp_path / "t2.json"
    game_path.write_text(run_cli(capsys, "gen", "--catalog", "table2")[1])
    # 10^12 points: building them first would run for hours and fill memory.
    # A capped child process, so that a hang or a huge allocation fails the
    # test instead of stalling it.
    proc = run_cli_capped("curve", "--grid", "1e-12:1:1e-12", str(game_path))
    assert proc.returncode == 3 and proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error == {"type": "EnumerationCapExceeded",
                     "message": f"grid has {10 ** 12} points, above the cap "
                                f"{GRID_CAP}"}
    code, out, _ = run_cli(capsys, "curve", "--grid", f"1:{GRID_CAP + 1}:1",
                           str(game_path))
    assert code == 3 and json.loads(out)["error"]["type"] == \
        "EnumerationCapExceeded"
    assert len(_grid_values(f"1:{GRID_CAP}:1")) == GRID_CAP
    assert _grid_values("1/10:1/2:1/5") == [Fraction(1, 10), Fraction(3, 10),
                                            Fraction(1, 2)]
    assert _grid_values("0.25:0.3:0.1") == [Fraction(1, 4)]


@pytest.mark.parametrize("argv", [
    ("curve", "--grid", "0.1:0.3:0.1", "--jobs", "0"),
    ("learn", "--delta", "0.1", "--epsilon", "0.2", "--iota", "0.2",
     "--seed", "1", "--jobs", "-1"),
    ("learn", "--delta", "0.1", "--epsilon", "0.2", "--iota", "0.2",
     "--seed", "1", "--seeds", "-2"),
    ("solve", "--method", "exact", "--delta", "0.1", "--cap", "0"),
    ("solve", "--method", "exact", "--delta", "0.1", "--cap", "-1"),
])
def test_count_flags_below_one_exit_two(tmp_path, capsys, argv):
    game_path = tmp_path / "g.json"
    game_path.write_text(run_cli(capsys, "gen", "--catalog", "table2")[1])
    game = ([str(game_path)] if argv[0] in ("curve", "solve")
            else ["--game", str(game_path)])
    with pytest.raises(SystemExit) as exc:
        main([*argv, *game])
    assert exc.value.code == 2
    flag = argv[-2]
    assert f"argument {flag}: must be at least 1" in capsys.readouterr().err


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool, maps serially."""

    built = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, work):
        return map(fn, work)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(RecordingPool, "built", [])
    return RecordingPool.built


@pytest.mark.parametrize("jobs, items, workers", [
    (1, 3, []), (8, 1, []), (8, 3, [3]), (2, 3, [2]), (3, 3, [3])])
def test_parallel_map_starts_at_most_one_worker_per_item(recording_pool, jobs,
                                                         items, workers):
    work = list(range(items))
    assert parallel_map(str, work, jobs) == [str(w) for w in work]
    assert recording_pool == workers


def test_cli_jobs_fan_out_caps_workers_at_the_work(tmp_path, capsys,
                                                   recording_pool):
    game_path = tmp_path / "t4.json"
    game_path.write_text(run_cli(capsys, "gen", "--catalog", "table4")[1])
    curve = ("curve", "--grid", "0.25:0.75:0.25", str(game_path))
    serial = run_cli(capsys, *curve)
    assert run_cli(capsys, *curve, "--jobs", "8") == serial
    learn = ("learn", "--game", str(game_path), "--delta", "0.1", "--epsilon",
             "0.3", "--iota", "0.3", "--seed", "5", "--seeds", "2")
    serial = run_cli(capsys, *learn)
    assert run_cli(capsys, *learn, "--jobs", "4") == serial
    assert recording_pool == [3, 2]


@pytest.mark.parametrize("denominator", ["0", "-3"])
def test_gen_random_rejects_grid_denominator_below_one(capsys, denominator):
    code, out, err = run_cli(capsys, "gen", "--random", "2,3,1",
                             "--grid-denominator", denominator)
    assert code == 2 and out == ""
    assert "--grid-denominator" in err


def test_curve_csv_format_and_jobs_stability(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "gen", "--catalog", "table4")
    game_path = tmp_path / "t4.json"
    game_path.write_text(out)
    code, out1, _ = run_cli(capsys, "curve", "--grid", "0.25:1.0:0.25",
                            "--mode", "exact", str(game_path))
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[0] == "delta,value,sse,maximin,gap"
    assert lines[1].split(",") == ["1/4", "1", "1", "0", "1"]
    assert lines[3].split(",") == ["3/4", "1/2", "1", "0", "1"]
    _, out2, _ = run_cli(capsys, "curve", "--grid", "0.25:1.0:0.25",
                         "--mode", "exact", str(game_path))
    assert out2 == out1
    _, out3, _ = run_cli(capsys, "curve", "--grid", "0.25:1.0:0.25",
                         "--mode", "exact", "--jobs", "3", str(game_path))
    assert out3 == out1


def test_gen_random_requires_seed_inside_triple(capsys):
    code, out1, _ = run_cli(capsys, "gen", "--random", "2,3,11")
    assert code == 0
    code, out2, _ = run_cli(capsys, "gen", "--random", "2,3,11")
    assert out1 == out2
    game = loads_game(out1)
    assert (game.m, game.n) == (2, 3)
    code, _, err = run_cli(capsys, "gen", "--random", "2,3")
    assert code == 2


def test_gen_x3c_from_file(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("1\n1 2 3\n")
    code, out, _ = run_cli(capsys, "gen", "--x3c", str(inst), "--delta",
                           "0.3", "--eps", "0.1")
    assert code == 0
    game = loads_game(out)
    assert (game.m, game.n) == (1, 5)
    assert game.meta["x3c"]["k"] == 1


def test_learn_csv_and_determinism(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "gen", "--catalog", "table6_g1")
    game_path = tmp_path / "g1.json"
    game_path.write_text(out)
    args = ("learn", "--game", str(game_path), "--delta", "0.1", "--epsilon",
            "0.2", "--iota", "0.2", "--noise", "bernoulli", "--seeds", "3",
            "--seed", "42")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[0] == "seed,T,sup_err_l,sup_err_f,value,floor,pass"
    assert len(lines) == 4
    _, out2, _ = run_cli(capsys, *args)
    assert out2 == out1
    code, out3, _ = run_cli(capsys, *args, "--jobs", "2")
    assert out3 == out1


def test_solve_json_outputs_are_deterministic(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "gen", "--random", "3,3,5")
    game_path = tmp_path / "r.json"
    game_path.write_text(out)
    for method, extra in (("sse", ()), ("maximin", ()), ("gap", ()),
                          ("exact", ("--delta", "0.25")),
                          ("qptas", ("--delta", "0.25", "--epsilon", "0.4"))):
        code, a, _ = run_cli(capsys, "solve", "--method", method, *extra,
                             str(game_path))
        assert code == 0, method
        _, b, _ = run_cli(capsys, "solve", "--method", method, *extra,
                          str(game_path))
        assert a == b


def test_exact_mode_on_plain_float_game(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "gen", "--random", "2,2,3",
                        "--grid-denominator", "10")
    game_path = tmp_path / "q.json"
    game_path.write_text(out)
    code, out, _ = run_cli(capsys, "solve", "--method", "exact", "--delta",
                           "1/5", "--mode", "exact", str(game_path))
    assert code == 0
    assert "value_exact" in json.loads(out)


def test_verify_passes_every_delta_indexed_solution(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "gen", "--catalog", "table4")
    game_path = tmp_path / "t4.json"
    game_path.write_text(out)
    for method, extra in (("exact", ()),
                          ("qptas", ("--epsilon", "0.3")),
                          ("gap-approx", ())):
        _, sol_text, _ = run_cli(capsys, "solve", "--method", method,
                                 "--delta", "0.25", *extra, str(game_path))
        sol_path = tmp_path / f"{method}.json"
        sol_path.write_text(sol_text)
        code, out, _ = run_cli(capsys, "verify", str(game_path),
                               str(sol_path))
        assert code == 0, (method, out)


def test_raw_delta_flag_rescales(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "gen", "--catalog", "table1")
    game_path = tmp_path / "t1.json"
    game_path.write_text(out)
    # The raw game spans [-1, 1]; a raw delta of 0.25 means 0.125 normalized.
    _, raw_out, _ = run_cli(capsys, "solve", "--method", "exact", "--delta",
                            "0.25", "--raw-delta", "--mode", "exact",
                            str(game_path))
    _, norm_out, _ = run_cli(capsys, "solve", "--method", "exact", "--delta",
                             "0.125", "--mode", "exact", str(game_path))
    assert json.loads(raw_out)["value"] == json.loads(norm_out)["value"]
    assert json.loads(raw_out)["delta"] == 0.125


def test_exact_mode_rejects_irrational_grid_entries(tmp_path, capsys):
    body = {"m": 1, "n": 2, "u_l": [[1 / 3, 0.25]], "u_f": [[0.5, 0.5]],
            "meta": {}}
    game_path = tmp_path / "bad.json"
    game_path.write_text(json.dumps(body))
    code, _, err = run_cli(capsys, "solve", "--method", "sse", "--mode",
                           "exact", str(game_path))
    assert code == 2
    assert "exact mode rejected" in err


def test_exact_mode_solves_below_the_float_floor(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "gen", "--random", "3,4,1",
                        "--grid-denominator", "4")
    game_path = tmp_path / "grid4.json"
    game_path.write_text(out)
    code, out, _ = run_cli(capsys, "solve", "--method", "exact", "--delta",
                           "1e-9", "--mode", "exact", str(game_path))
    assert code == 0
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(game_path), str(sol_path))
    assert code == 0 and json.loads(out)["value_ok"]


@pytest.mark.parametrize("gen", [("--random", "2,1,0"),
                                 ("--random", "2,1,1", "--grid-denominator",
                                  "16")])
def test_single_column_games_print_strict_json(tmp_path, capsys, gen):
    # With n = 1 there is no competing action: the gap is null, not the
    # bare Infinity that RFC 8259 JSON has no spelling for.
    _, out, _ = run_cli(capsys, "gen", *gen)
    game_path = tmp_path / "n1.json"
    game_path.write_text(out)
    mode = "exact" if "--grid-denominator" in gen else "float"

    def strict(name):
        raise ValueError(f"non-JSON constant {name}")

    for argv in (("--method", "gap"),
                 ("--method", "gap-approx", "--delta", "1/20")):
        code, out, _ = run_cli(capsys, "solve", *argv, "--mode", mode,
                               str(game_path))
        assert code == 0
        sol = json.loads(out, parse_constant=strict)
        gap = sol["gap"] if argv[1] == "gap" else sol["guarantee"]["gap"]
        assert gap is None


@pytest.mark.parametrize("gen", [("--random", "3,4,1"),
                                 ("--random", "3,4,1", "--grid-denominator",
                                  "4")])
def test_float_mode_solves_just_above_eta(tmp_path, capsys, gen):
    _, out, _ = run_cli(capsys, "gen", *gen)
    game_path = tmp_path / "g.json"
    game_path.write_text(out)
    code, out, err = run_cli(capsys, "solve", "--method", "exact", "--delta",
                             "1e-8", str(game_path))
    assert code == 0 and err == ""
    assert "exact" not in json.loads(out)["strategy"]
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(game_path), str(sol_path))
    assert code == 0 and all(json.loads(out)[k] for k in
                             ("value_ok", "response_ok", "response_set_ok"))


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("coords", [["0", "1"], ["0", "1", "0", "0"]],
                         ids=["short", "long"])
def test_verify_rejects_a_strategy_of_the_wrong_length(tmp_path, capsys,
                                                       mode, coords):
    _, out, _ = run_cli(capsys, "gen", "--catalog", "table2")
    game_path = tmp_path / "table2.json"
    game_path.write_text(out)
    _, out, _ = run_cli(capsys, "solve", "--method", "exact", "--delta",
                        "1/4", "--mode", mode, str(game_path))
    sol = json.loads(out)
    sol["strategy"]["probs"] = [float(v) for v in coords]
    if mode == "exact":
        sol["strategy"]["exact"] = coords
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(sol))
    code, out, err = run_cli(capsys, "verify", str(game_path), str(sol_path))
    assert code == 2 and out == ""
    assert err.startswith("rsekit: ")
    assert f"{len(coords)} entries" in err and "3 leader actions" in err
