"""In-memory span tracer that wraps rsekit's public functions from outside.

Every wrapped call records one span: name, start, end, parent span and the
id of the benchmark call (solve) it belongs to. Spans stay in a list until
the run ends. A function is patched in every loaded ``rsekit`` module that
holds it, because ``exact``, ``approx``, ``learning`` and ``cli`` import
names with ``from .game import ...`` and look them up in their own
namespace. ``game`` functions are patched only where other modules imported
them, so a span there marks an entry into the layer, and the calls
``evaluate`` makes to ``br_delta`` inside ``game`` are not counted twice.

LPs are counted at one boundary: ``lp.solve``. ``lp.feasible`` calls it
through the module global, so a feasibility probe shows as an
``lp.feasible`` span with one ``lp.solve`` child.

The ``kernels`` module (the lattice-scan test oracle) is deliberately not
wrapped.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

# layer -> (defining module, public functions timed as that layer)
LAYERS = {
    "lp": ("rsekit.lp", ("solve", "feasible")),
    "exact": ("rsekit.exact", ("solve_exact", "rse_curve")),
    "approx": ("rsekit.approx", ("gap_approx", "qptas_solve")),
    "baseline": ("rsekit.baseline", ("solve_sse", "solve_maximin",
                                     "inducibility_gap", "induce_strategy")),
    "game": ("rsekit.game", ("evaluate", "br_delta", "leader_payoffs",
                             "follower_payoffs")),
    "learning": ("rsekit.learning", ("learn_rse", "learn_sse",
                                     "sample_estimate", "rse_from_estimate")),
    "lab": ("rsekit.lab", ("catalog", "gen_random", "gen_x3c_game",
                           "x3c_brute_check")),
    "cli": ("rsekit.cli", ("main",)),
}

# Layers whose defining module is not patched (see module docstring).
ENTRY_ONLY = ("game",)


def _lp_attrs(args, kwargs, out):
    prog = args[0] if args else kwargs["lp"]
    rows = len(prog.constraints) + (1 if prog.simplex_constraint else 0)
    return {"rows": rows, "status": out.status}


def _solution_attrs(args, kwargs, out):
    attrs = {"lp_count": out.lp_count}
    if out.guarantee and "anchors" in out.guarantee:
        attrs["anchors"] = out.guarantee["anchors"]
    return attrs


def _learn_attrs(args, kwargs, out):
    oracle = args[0] if args else kwargs["oracle"]
    return {"samples": int(oracle.query_count.sum())}


def _curve_attrs(args, kwargs, out):
    return {"points": len(out.deltas)}


ATTRS = {
    "lp.solve": _lp_attrs,
    "exact.solve_exact": _solution_attrs,
    "exact.rse_curve": _curve_attrs,
    "approx.gap_approx": _solution_attrs,
    "approx.qptas_solve": _solution_attrs,
    "learning.learn_rse": _learn_attrs,
    "learning.learn_sse": _learn_attrs,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    solve_id: int
    attrs: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Patches the functions in ``LAYERS`` and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solve_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                spans[idx] = Span(name, start, clock(), parent, self.solve_id,
                                  {"error": type(e).__name__})
                raise
            finally:
                stack.pop()
            end = clock()
            attrs = attrs_of(args, kwargs, out) if attrs_of else None
            spans[idx] = Span(name, start, end, parent, self.solve_id, attrs)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for layer, (modname, _) in LAYERS.items():
            importlib.import_module(modname)
        loaded = [m for k, m in sorted(sys.modules.items())
                  if (k == "rsekit" or k.startswith("rsekit.")) and m is not None]
        for layer, (modname, names) in LAYERS.items():
            home = sys.modules[modname]
            for fname in names:
                fn = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                for mod in loaded:
                    if layer in ENTRY_ONLY and mod is home:
                        continue
                    for attr in [a for a, v in vars(mod).items() if v is fn]:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.solve_id, s.attrs]
                for s in self.spans]

    def merge_child(self, rows: list) -> None:
        """Add spans a traced subprocess wrote with :meth:`to_json`."""
        offset = len(self.spans)
        self.spans.extend(
            Span(name, start, end, parent + offset if parent >= 0 else -1,
                 self.solve_id, attrs)
            for name, start, end, parent, _, attrs in rows)


def _outermost(spans: list[Span], layer: str) -> list[Span]:
    """Spans of ``layer`` with no enclosing span of the same layer."""
    out = []
    for s in spans:
        if s.layer != layer:
            continue
        p = s.parent
        while p >= 0 and spans[p].layer != layer:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def _self_time(spans: list[Span], layer: str) -> float:
    """Time in ``layer``'s spans not covered by their direct child spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    return sum(s.duration - child_time[i] for i, s in enumerate(spans)
               if s.layer == layer)


def _ancestor_in(spans: list[Span], span: Span, name: str) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def busy_time(spans: list[Span], layer: str) -> float:
    """Wall time inside ``layer``, nested calls of the layer counted once."""
    return sum(s.duration for s in _outermost(spans, layer))


def layer_metrics(spans: list[Span], walls: list[float]):
    """Per-layer counts and times derived from one traced pass.

    ``walls`` holds each benchmark call's wall time, indexed by solve id;
    the CLI's own time is an invocation's wall time minus the solver spans
    inside it (start-up, import, parsing and output included).
    """
    def named(name):
        return [s for s in spans if s.name == name]

    def busy(layer):
        return busy_time(spans, layer)

    lps = named("lp.solve")
    lp_busy = busy("lp")
    exact_calls = named("exact.solve_exact")
    approx_calls = named("approx.gap_approx") + named("approx.qptas_solve")
    qptas = named("approx.qptas_solve")
    learn = named("learning.learn_rse") + named("learning.learn_sse")

    def lps_within(outer):
        """LP spans whose chain of parents reaches one of ``outer``."""
        ids = {id(s) for s in outer}
        total = 0
        for s in lps:
            p = s.parent
            while p >= 0 and id(spans[p]) not in ids:
                p = spans[p].parent
            total += p >= 0
        return total

    def ratio(a, b):
        return a / b if b else 0.0

    mains = [i for i, s in enumerate(spans) if s.name == "cli.main"]
    inside = dict.fromkeys(mains, 0.0)
    for s in spans:
        if s.parent in inside:
            inside[s.parent] += s.duration
    cli_self = [walls[spans[i].solve_id] - inside[i] for i in mains]

    return {
        "lp.calls": (len(lps), "count"),
        "lp.busy_s": (lp_busy, "s"),
        "lp.s_per_call": (ratio(lp_busy, len(lps)), "s"),
        "lp.rows_per_call": (ratio(sum(s.attrs["rows"] for s in lps if s.attrs),
                                   len(lps)), "count"),
        "lp.infeasible_ratio": (ratio(sum(1 for s in lps if s.attrs
                                          and s.attrs["status"] == "infeasible"),
                                      len(lps)), "ratio"),
        "lp.feasibility_calls": (len(named("lp.feasible")), "count"),
        "exact.calls": (len(exact_calls), "count"),
        "exact.self_s": (_self_time(spans, "exact"), "s"),
        "exact.lps_per_solve": (ratio(lps_within(exact_calls), len(exact_calls)),
                                "count"),
        "exact.curve_points": (sum(1 for s in exact_calls
                                   if _ancestor_in(spans, s, "exact.rse_curve")),
                               "count"),
        "approx.calls": (len(approx_calls), "count"),
        "approx.self_s": (_self_time(spans, "approx"), "s"),
        "approx.lps_per_solve": (ratio(lps_within(approx_calls),
                                       len(approx_calls)), "count"),
        "approx.anchors": (sum(s.attrs["anchors"] for s in qptas if s.attrs),
                           "count"),
        "baseline.calls": (len(_outermost(spans, "baseline")), "count"),
        "baseline.busy_s": (busy("baseline"), "s"),
        "game.calls": (sum(1 for s in spans if s.layer == "game"), "count"),
        "game.busy_s": (busy("game"), "s"),
        "learning.calls": (len(learn), "count"),
        "learning.samples": (sum(s.attrs["samples"] for s in learn if s.attrs),
                             "count"),
        "learning.sample_s": (sum(s.duration for s in
                                  named("learning.sample_estimate")), "s"),
        "cli.calls": (len(mains), "count"),
        "cli.self_s": (ratio(sum(cli_self), len(cli_self)), "s"),
    }
