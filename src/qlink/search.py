"""1-D searches: golden section on the objective alone, and Illinois regula falsi
on a slope's root, which finds chi's peak on a Gordon-Holevo curve (``capacity``
scores it) and the PSA/PIA crossover where the slope is the capacities' difference."""

from __future__ import annotations

import math
from collections.abc import Callable

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SQRT_EPS = math.sqrt(2.0 ** -52)


def golden_section_maximize(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-6,
    incumbent: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Maximize ``f`` on [lo, hi] by golden-section search.

    Assumes a unimodal objective; returns (argmax, max).  The bracket is
    shrunk until its width falls below ``tol``, or until a step no longer
    narrows it because ``tol`` is below the spacing of doubles there.
    An ``incumbent`` (x0, f(x0)) is returned if ``f`` exceeds f(x0) at neither
    x0 - tol nor x0 + tol, each clipped into [lo, hi]: the peak then lies within
    ``tol`` of x0.  Otherwise, or for an x0 outside [lo, hi], the search runs as
    without one.
    """
    if hi < lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    if incumbent is not None and lo <= incumbent[0] <= hi:
        x0, f0 = incumbent
        if f(max(lo, x0 - tol)) <= f0 and f(min(hi, x0 + tol)) <= f0:
            return x0, f0
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


def illinois_root(slope: Callable[[float], float], lo: float, hi: float,
                  xatol: float) -> tuple[float, float, float]:
    """(x, a, b): the last iterate and bracket of Illinois regula falsi (Dowell and
    Jarratt, BIT 11, 168, 1971) on a ``slope`` that falls through 0 once in [lo, hi].
    The slope is never taken at the ends: it is assumed positive at ``lo`` and
    negative at ``hi``, and bisection runs until both ends of the bracket carry a
    slope, or wherever the slopes put a step outside the bracket.  The search stops
    at a slope of 0 or NaN, or once the bracket or the last step is below
    sqrt(eps)*|x| + ``xatol``/3, Brent's tolerance."""
    if hi < lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    if not xatol > 0.0:  # a zero tolerance never stops on adjacent doubles
        raise ValueError(f"tolerance must be positive, got {xatol}")
    a, b, fa, fb = lo, hi, math.nan, math.nan
    x = 0.5 * (a + b)
    moved = 0  # +1 after a slope that moved a, -1 after one that moved b
    while True:
        fx = slope(x)
        if fx > 0.0:
            # the same end moved twice running: halve the other end's slope
            fb, moved = (0.5 * fb if moved > 0 else fb), 1
            a, fa = x, fx
        elif fx < 0.0:
            fa, moved = (0.5 * fa if moved < 0 else fa), -1
            b, fb = x, fx
        else:  # the root, or a NaN slope
            return x, a, b
        tol = _SQRT_EPS * abs(x) + xatol / 3.0
        # the chord's zero, stepped from the end of smaller slope, which keeps it
        # inside the bracket when that slope is many orders below the other
        last = x
        x = a + fa * (b - a) / (fa - fb) if fa < -fb else b - fb * (b - a) / (fb - fa)
        if not a < x < b:
            x = 0.5 * (a + b)
        if b - a < tol or abs(x - last) < tol:
            return x, a, b
