"""Hot numeric kernels: simplex-lattice scans for the brute-force oracle.

The lattice scan visits every point of the resolution-step simplex lattice
and evaluates the leader's pessimistic value against the strict
delta-optimal response rule. Two interchangeable backends exist:

* ``numba``: an @njit odometer loop (default when numba imports),
* ``numpy``: batched vectorized evaluation of the same enumeration.

Select with ``RSEKIT_KERNELS=numba|numpy``. Both backends enumerate lattice
points in the same lexicographic order and keep the first maximizer, so the
reported strategy is backend-independent up to float summation order.
"""

from __future__ import annotations

import os
from itertools import combinations

import numpy as np

_ENV = "RSEKIT_KERNELS"


def _want_numba() -> bool:
    choice = os.environ.get(_ENV, "").strip().lower()
    if choice == "numpy":
        return False
    if choice == "numba":
        return True
    return True  # default: prefer numba when available


_HAVE_NUMBA = False
if _want_numba():
    try:
        from numba import njit
        _HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a hard dependency
        _HAVE_NUMBA = False


def backend_name() -> str:
    return "numba" if _HAVE_NUMBA else "numpy"


def compositions(total: int, parts: int):
    """All nonnegative integer tuples of the given length summing to total.

    Lexicographically ascending: (0, ..., 0, total) first, (total, 0, ..., 0)
    last. This is the canonical enumeration order shared by every scan.
    """
    if parts == 1:
        yield (total,)
        return
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def count_compositions(total: int, parts: int) -> int:
    from math import comb
    return comb(total + parts - 1, parts - 1)


def _scan_numpy(u_l: np.ndarray, u_f: np.ndarray, delta: float, eta: float,
                resolution: int) -> tuple[float, np.ndarray]:
    m, _ = u_l.shape
    best_val = -np.inf
    best_counts = None
    batch = []
    chunk = 8192

    def flush(best_val, best_counts, batch):
        counts = np.array(batch, dtype=np.float64)
        x = counts / resolution
        uf = x @ u_f
        ul = x @ u_l
        top = uf.max(axis=1, keepdims=True)
        mask = (uf >= top - eta) | (uf > top - delta + eta)
        vals = np.where(mask, ul, np.inf).min(axis=1)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_counts = np.array(batch[i], dtype=np.int64)
        return best_val, best_counts

    for c in compositions(resolution, m):
        batch.append(c)
        if len(batch) == chunk:
            best_val, best_counts = flush(best_val, best_counts, batch)
            batch = []
    if batch:
        best_val, best_counts = flush(best_val, best_counts, batch)
    return best_val, best_counts


if _HAVE_NUMBA:

    @njit(cache=True)
    def _scan_numba_impl(u_l, u_f, delta, eta, resolution):  # pragma: no cover
        m, n = u_l.shape
        counts = np.zeros(m, np.int64)
        counts[m - 1] = resolution
        best_counts = counts.copy()
        best_val = -np.inf
        while True:
            # pessimistic value at x = counts / resolution
            top = -np.inf
            for j in range(n):
                v = 0.0
                for i in range(m):
                    v += counts[i] * u_f[i, j]
                if v > top:
                    top = v
            top /= resolution
            val = np.inf
            for j in range(n):
                v = 0.0
                for i in range(m):
                    v += counts[i] * u_f[i, j]
                v /= resolution
                if v >= top - eta or v > top - delta + eta:
                    w = 0.0
                    for i in range(m):
                        w += counts[i] * u_l[i, j]
                    w /= resolution
                    if w < val:
                        val = w
            if val > best_val:
                best_val = val
                best_counts[:] = counts
            # next composition, lexicographic ascending
            pos = -1
            tail = 0
            for j in range(m - 2, -1, -1):
                tail += counts[j + 1]
                if tail > 0:
                    pos = j
                    break
            if pos < 0:
                break
            counts[pos] += 1
            for j in range(pos + 1, m):
                counts[j] = 0
            counts[m - 1] = tail - 1
        return best_val, best_counts


def pessimistic_lattice_scan(u_l: np.ndarray, u_f: np.ndarray, delta: float,
                             eta: float, resolution: int) -> tuple[float, np.ndarray]:
    """Best pessimistic leader value over the simplex lattice.

    Returns ``(value, counts)`` where ``counts / resolution`` is the first
    lattice maximizer in lexicographic order.
    """
    u_l = np.ascontiguousarray(u_l, dtype=np.float64)
    u_f = np.ascontiguousarray(u_f, dtype=np.float64)
    if _HAVE_NUMBA:
        val, counts = _scan_numba_impl(u_l, u_f, float(delta), float(eta),
                                       int(resolution))
        return float(val), np.asarray(counts)
    return _scan_numpy(u_l, u_f, float(delta), float(eta), int(resolution))
