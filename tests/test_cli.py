"""End-to-end CLI tests: pipelines, exit codes, byte-stable output."""

import json

import pytest

from rsekit.cli import main
from rsekit.game import loads_game


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
