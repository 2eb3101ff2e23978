"""``rsekit.lp._farkas`` as it ran before it skipped a dual whose sign
already clips it to zero: it rounds every float dual, then clips.

It stays here, unchanged, as the reference: the prefiltered routine must
return the same support tuple, or ``None``, for any rows and duals.
``farkas(num_vars, rows, duals, simplex)`` takes the arguments of
``rsekit.lp._farkas``.
"""

from fractions import Fraction

from rsekit.lp import DUAL_DENOMINATOR


def farkas(num_vars: int, rows, duals, simplex: bool):
    """The certificate's support when ``duals`` prove exactly that ``rows``
    have no point x >= 0, else ``None``.

    Each dual is clipped to its relation's sign (<= 0 on ``<=`` rows, >= 0
    on ``>=`` rows), so every x satisfying the rows has ``y.A x >= y.b``.
    Without the simplex row, ``y.A <= 0`` and ``y.b > 0`` contradict that;
    with it, the simplex row's own dual is dropped and
    ``y.b > max_i (y.A)_i`` does. Float duals are rounded first; exact
    ``Fraction`` duals are used as they are. The support is the tuple of
    row indices whose clipped multiplier is nonzero, the simplex row left
    out; those rows alone carry the same proof.
    """
    if simplex:
        rows, duals = rows[:-1], duals[:-1]
    combo = [Fraction(0)] * num_vars
    bound = Fraction(0)
    support = []
    for r, ((coeffs, rel, rhs), y) in enumerate(zip(rows, duals)):
        if not abs(y) < float("inf"):  # NaN or infinite: no certificate
            return None
        if not isinstance(y, Fraction):
            y = Fraction(y).limit_denominator(DUAL_DENOMINATOR)
        if (rel == "<=" and y > 0) or (rel == ">=" and y < 0) or y == 0:
            continue
        support.append(r)
        bound += y * rhs
        for i, c in enumerate(coeffs):
            if c:
                combo[i] += y * c
    proven = (bound > max(combo) if simplex
              else bound > 0 and all(v <= 0 for v in combo))
    return tuple(support) if proven else None
