"""The names the benchmark harness in ``perfbench/`` looks up in rsekit.

The tracer patches every function named in its ``LAYERS`` table by name, its
``ATTRS`` hooks read fields of what those functions return, and the
workloads read fields of the solutions they check. Renaming or deleting one
of them breaks ``perfbench/run.py --trace 1``; these checks catch that in
seconds instead of in the minutes-long benchmark smoke test.
"""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rsekit import lab
from rsekit.approx import qptas_solve
from rsekit.exact import rse_curve, solve_exact
from rsekit.learning import NoisyGameOracle, learn_rse

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve their module here
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


TRACER_MODULE = _load_tracer()
LAYERS, ATTRS = TRACER_MODULE.LAYERS, TRACER_MODULE.ATTRS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_functions_exist(layer):
    module, names = LAYERS[layer]
    mod = importlib.import_module(module)
    missing = [n for n in names if not callable(getattr(mod, n, None))]
    assert not missing, f"{module} lacks {missing}"


def test_solution_has_the_fields_the_workloads_read():
    sol = solve_exact(lab.catalog("table2").game, Fraction(1, 4), exact=True)
    for name in ("outcome", "repaired_set", "value", "strategy", "lp_count",
                 "guarantee"):
        assert hasattr(sol, name), name
    assert sol.repaired_set == sol.outcome.response_set


def test_tracer_attrs_hooks_read_the_results():
    game = lab.catalog("table2").game
    deltas = (Fraction(1, 4), Fraction(1, 2))
    curve = rse_curve(game, deltas, exact=True)
    assert ATTRS["exact.rse_curve"]((game, deltas), {}, curve) == {"points": 2}
    oracle = NoisyGameOracle(game, "bernoulli", 0)
    out = learn_rse(oracle, 0.1, 0.3, 0.3)
    samples = ATTRS["learning.learn_rse"]((oracle,), {}, out)["samples"]
    assert samples == oracle.query_count.sum() > 0
    sol = qptas_solve(game, deltas[0], deltas[1], exact=True)
    assert ATTRS["approx.qptas_solve"]((game,), {}, sol) == {
        "lp_count": sol.lp_count, "anchors": sol.guarantee["anchors"]}
