"""Derivative-free 1-D line search used by the capacity and plan optimizers."""

from __future__ import annotations

import math
from collections.abc import Callable

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_maximize(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Maximize ``f`` on [lo, hi] by golden-section search.

    Assumes a unimodal objective; returns (argmax, max).  The bracket is
    shrunk until its width falls below ``tol``, or until a step no longer
    narrows it because ``tol`` is below the spacing of doubles there.
    """
    if hi < lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    a, b = lo, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc = f(c)
    fd = f(d)
    width = math.inf
    while tol < b - a < width:
        width = b - a
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
    x = 0.5 * (a + b)
    return x, f(x)
