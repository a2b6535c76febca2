"""Derivative-free 1-D line searches used by the capacity and plan optimizers."""

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


def brent_maximize(f: Callable[[float], float], lo: float, hi: float,
                   xatol: float) -> tuple[float, float]:
    """Maximize a unimodal ``f`` on (lo, hi) by Brent's bounded search (*Algorithms
    for Minimization without Derivatives*, 1973, ch. 5) to within sqrt(eps)*|x|
    + ``xatol``: parabolic steps, golden-section ones where those stall."""
    if hi < lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    a, b = lo, hi
    x = w = v = a + (1.0 - INV_PHI) * (b - a)
    fx = fw = fv = -f(x)  # minimize -f
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + xatol / 3.0
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x, -fx
        # the parabola through (v, w, x) has its vertex at x + p/q
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        p, q = (-p, 2.0 * (q - r)) if q > r else (p, 2.0 * (r - q))
        if abs(e) > tol and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if x <= m else -tol
        else:
            e = (b if x < m else a) - x
            d = (1.0 - INV_PHI) * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = -f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
