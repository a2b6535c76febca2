"""Reference arithmetic of the Gordon-Holevo squeezing search.

This is the search in its tuple form: ``squeezed_floor`` returns a tuple,
``chi`` takes the output noise as a tuple, ``best_split`` returns (chi, p)
and clips with the ``max``/``min`` builtins, and the search builds its grid
afresh on every call, calls ``best_split`` through a ``lambda`` and calls it
once more for the winner.  ``qlink.capacity`` computes the same values with
a scalar kernel; the tests hold the two equal with ``==``.  The budget interval
(``x_lo``, ``x_hi``) and the output maps are read from a built
``_GhChannel``, whose construction has its own oracle.

The Holevo information is also kept as the plain difference of two Gaussian
state entropies (``gaussian_state_entropy``, from the thermal entropy
``entropy_g``), the textbook form that ``capacity._chi`` rewrites so that it
keeps its precision when the signal lies far below the noise.
"""

from __future__ import annotations

import math

from qlink.capacity import _GH_R_TOL, _INFEASIBLE, CapacityResult, GHSearchError
from qlink.quadmodel import HEISENBERG_LIMIT, HEISENBERG_TOL, QuadState
from qlink.search import golden_section_maximize

_LN2 = math.log(2.0)
_GH_R_GRID = 33


def symplectic(var_i, var_q):
    if var_i <= 0 or var_q <= 0:
        raise ValueError(f"variances must be positive, got ({var_i}, {var_q})")
    if var_i * var_q < HEISENBERG_LIMIT - HEISENBERG_TOL:
        raise ValueError(f"covariance product {var_i * var_q} lies below the Heisenberg limit")
    return math.sqrt(var_i * var_q)


def entropy_g(x: float) -> float:
    """Entropy in bits of a thermal state with mean photon number ``x``."""
    if not 0.0 <= x < math.inf:  # NaN fails too
        raise ValueError(f"thermal photon number must be finite and non-negative, got {x}")
    if x == 0.0:
        return 0.0
    return ((x + 1.0) * math.log1p(x) - x * math.log(x)) / _LN2


def gaussian_state_entropy(var_i: float, var_q: float) -> float:
    """Von Neumann entropy of a single-mode Gaussian state with diagonal
    covariance (var_i, var_q) in vacuum-=1/2 units."""
    # The symplectic eigenvalue of a pure state may dip below 1/2 by rounding.
    return entropy_g(max(symplectic(var_i, var_q) - 0.5, 0.0))


def chi(noise, sig_i, sig_q):
    nu = symplectic(*noise)
    rise = ((sig_i * noise[1] + sig_q * noise[0] + sig_i * sig_q)
            / (math.sqrt((noise[0] + sig_i) * (noise[1] + sig_q)) + nu))
    if rise == 0.0:
        return 0.0
    b = max(nu - 0.5, 0.0)
    inv = 1.0 / (b + rise)
    lead = math.log1p(inv) if inv < math.inf else -math.log(b + rise)
    value = (rise * lead + (b + 1.0) * math.log1p(rise / (b + 1.0))
             - (b * math.log1p(rise / b) if b > 0.0 else 0.0))
    return value / _LN2


def squeezed_floor(r, nbar):
    return (0.5 * math.exp(-2.0 * r), 0.5 * math.exp(2.0 * r),
            2.0 * nbar - 2.0 * math.sinh(r) ** 2)


def best_split(channel, r):
    """(chi, p) of the best feasible split at squeezing ``r``, or (-inf, 0)."""
    noise_i, noise_q, budget = squeezed_floor(r, channel.nbar)
    if budget <= 0.0:
        return -math.inf, 0.0
    lo = max(0.0, (channel.x_lo - noise_i) / budget)
    hi = min(1.0, (channel.x_hi - noise_i) / budget)
    if lo > hi:
        return -math.inf, 0.0
    mi, ai, mq, aq = channel.out
    noise_out = (mi * noise_i + ai, mq * noise_q + aq)
    all_q = mq * (budget + noise_q) + aq
    lever = 2.0 * budget * mi * mq
    peak = mi * all_q - mq * noise_out[0]
    p = peak / lever if lever > 0.0 else math.copysign(math.inf, peak)
    p = min(max(p, lo), hi)
    return chi(noise_out, mi * p * budget, mq * (1.0 - p) * budget), p


def squeezing_grid(nbar):
    """The 33 squeezings of the grid, computed afresh."""
    r_cap = math.asinh(math.sqrt(nbar))
    step = 2.0 * r_cap / (_GH_R_GRID - 1)
    return [-r_cap + k * step for k in range(_GH_R_GRID)]


def gh_search(channel):
    """(chi, p, r): the 33-point grid, then golden section between the best
    grid point's neighbours."""
    grid = squeezing_grid(channel.nbar)
    values = [best_split(channel, r)[0] for r in grid]
    best = max(range(_GH_R_GRID), key=lambda k: (values[k], -abs(grid[k])))
    r, value = grid[best], values[best]
    if value > -math.inf:
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, _GH_R_GRID - 1)]
        r_ref, value_ref = golden_section_maximize(
            lambda x: best_split(channel, x)[0], lo, hi, _GH_R_TOL)
        if value_ref > value:
            r, value = r_ref, value_ref
    value, p = best_split(channel, r)
    return value, p, r


def gh_capacity(channel):
    """``gh_capacity_for_channel``'s result for a built channel (nbar > 0)."""
    value, p, r = gh_search(channel)
    if value == -math.inf:
        raise GHSearchError(_INFEASIBLE, value)
    noise_i, noise_q, budget = squeezed_floor(r, channel.nbar)
    return CapacityResult(max(value, 0.0),
                          QuadState(p * budget, (1.0 - p) * budget, noise_i, noise_q))
