"""Robust Stackelberg equilibrium toolkit for bimatrix leader-follower games.

Each name of ``__all__`` is imported from its module on first access
(PEP 562), so ``import rsekit`` loads no submodule and no numpy, and a
program pays only for the modules it uses: ``rsekit.solve_exact`` loads
``rsekit.exact`` and what it imports, and ``rsekit verify`` loads none of
the solvers. A submodule is imported on first access too, so
``rsekit.lp`` and ``from rsekit import lp`` work as before.
"""

from importlib import import_module

_EXPORTS = {
    "approx": ("KUniformStrategy", "SurrogateRegion", "build_k", "gap_approx",
               "make_region", "qptas_solve", "utility_verification"),
    "baseline": ("ActionInducibility", "InducibilityReport",
                 "induce_strategy", "inducibility_gap", "solve_maximin",
                 "solve_sse"),
    "errors": ("BudgetExceeded", "EnumerationCapExceeded", "GameFormatError",
               "GapTooSmall", "InvalidStrategyError", "MalformedLpError",
               "PerturbationBoundError", "RejectionCapExceeded",
               "RsekitError", "SolverFailure"),
    "exact": ("RegionTuple", "RseCurve", "RseSolution", "rse_curve",
              "solve_exact"),
    "game": ("BimatrixGame", "GameValueReport", "MixedStrategy",
             "ResponseSet", "attach_exact", "br_delta", "dumps_game",
             "evaluate", "exact_game", "exact_strategy", "loads_game",
             "normalize", "pure_strategy"),
    "lab": ("CatalogEntry", "X3CInstance", "catalog", "gen_random",
            "gen_x3c_game", "grid_oracle", "parse_x3c", "x3c_brute_check",
            "x3c_to_text"),
    "learning": ("LearnedOutcome", "NoisyGameOracle", "check_br_inclusion",
                 "learn_rse", "learn_sse", "misidentification_report",
                 "rse_from_estimate", "sample_estimate", "samples_per_pair"),
    "lp": ("Constraint", "LinearProgram", "LpOutcome", "feasibility",
           "maximize"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
