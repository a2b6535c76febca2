"""Capacity functionals for the propagated channel output.

Three detection scenarios are supported: shot-noise-limited single-quadrature
detection (the conventional Shannon rate), simultaneous two-quadrature
detection (each quadrature pays an extra half unit of vacuum noise), and the
quantum-optimal Gordon-Holevo rate of the induced phase-sensitive Gaussian
channel, maximized over Gaussian input ensembles under the photon budget (in
closed form or by one Brent search; a squeezing grid search is the fallback).
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .linkchain import LinkPlan, POWER_TOL, channel_checkpoints, check_power_constraint, propagate
from .quadmodel import (
    HEISENBERG_LIMIT,
    HEISENBERG_TOL,
    QuadState,
    conventional_input,
    symmetric_coherent_input,
)
from .search import brent_maximize, golden_section_maximize

_LN2 = math.log(2.0)


class Scenario(str, Enum):
    CONVENTIONAL = "ConventionalSNL"
    TWO_QUADRATURE = "TwoQuadratureSNL"
    GORDON_HOLEVO = "GordonHolevo"


CapacityResult = namedtuple("CapacityResult", "bits_per_mode achieving_input", defaults=(None,))


class GHSearchError(RuntimeError):
    """Raised when no Gordon-Holevo input meets the photon budget, or the
    achieving input fails the re-propagation audit; carries the best value
    found (-inf when no input is feasible)."""

    def __init__(self, message: str, best_value: float):
        super().__init__(message)
        self.best_value = best_value

    def __reduce__(self):  # a sweep worker sends its error back pickled
        return type(self), (self.args[0], self.best_value)


def shannon_rate(y: tuple, scenario: Scenario) -> float:
    """Shannon rate of a raw output (sig_i, sig_q, noise_i, noise_q) under a fixed input."""
    sig_i, sig_q, noise_i, noise_q = y
    if scenario is Scenario.TWO_QUADRATURE:
        rate_i = math.log1p(sig_i / (noise_i + 0.5))
        rate_q = math.log1p(sig_q / (noise_q + 0.5))
        return 0.5 * (rate_i + rate_q) / _LN2
    if scenario is Scenario.CONVENTIONAL:
        return 0.5 * math.log1p(sig_i / noise_i) / _LN2
    raise ValueError(f"{scenario.value} has no fixed input")


def shannon_single_quadrature(state: QuadState) -> float:
    """Shannon rate of ideal homodyne detection of the I quadrature."""
    return shannon_rate(state.as_tuple(), Scenario.CONVENTIONAL)


def shannon_two_quadrature(state: QuadState) -> float:
    """Shannon rate of simultaneous detection of both quadratures; the
    measurement adds half a vacuum unit of noise to each."""
    return shannon_rate(state.as_tuple(), Scenario.TWO_QUADRATURE)


def entropy_g(x: float) -> float:
    """Entropy in bits of a thermal state with mean photon number ``x``."""
    if x < 0:
        raise ValueError(f"thermal photon number must be non-negative, got {x}")
    if x == 0.0:
        return 0.0
    return ((x + 1.0) * math.log1p(x) - x * math.log(x)) / _LN2


def _symplectic(var_i: float, var_q: float) -> float:
    if var_i <= 0 or var_q <= 0:
        raise ValueError(f"variances must be positive, got ({var_i}, {var_q})")
    if var_i * var_q < HEISENBERG_LIMIT - HEISENBERG_TOL:
        raise ValueError(f"covariance product {var_i * var_q} lies below the Heisenberg limit")
    return math.sqrt(var_i * var_q)


def gaussian_state_entropy(var_i: float, var_q: float) -> float:
    """Von Neumann entropy of a single-mode Gaussian state with diagonal
    covariance (var_i, var_q) in vacuum-=1/2 units."""
    # The symplectic eigenvalue of a pure state may dip below 1/2 by rounding.
    return entropy_g(max(_symplectic(var_i, var_q) - 0.5, 0.0))


def _chi(n_i: float, n_q: float, sig_i: float, sig_q: float) -> float:
    # g(b + d) - g(b) for the noise state's b = nu - 1/2 and the rise d of nu
    # that the signal powers bring, formed from d so that it keeps its
    # relative precision when the signal is far below the noise:
    # d*log1p(1/(b+d)) + (b+1)*log1p(d/(b+1)) - b*log1p(d/b).
    nu = _symplectic(n_i, n_q)
    rise = ((sig_i * n_q + sig_q * n_i + sig_i * sig_q)
            / (math.sqrt((n_i + sig_i) * (n_q + sig_q)) + nu))
    if rise == 0.0:
        return 0.0
    b = nu - 0.5
    if b < 0.0:
        b = 0.0
    # 1/(b + rise) overflows once b + rise is subnormal; log1p(1/x) is -log(x) there
    inv = 1.0 / (b + rise)
    lead = math.log1p(inv) if inv < math.inf else -math.log(b + rise)
    chi = (rise * lead + (b + 1.0) * math.log1p(rise / (b + 1.0))
           - (b * math.log1p(rise / b) if b > 0.0 else 0.0))
    return chi / _LN2


def holevo_chi(
    out_total: tuple[float, float], out_noise: tuple[float, float]
) -> float:
    """Holevo information of a Gaussian displacement ensemble.

    ``out_total`` holds the per-quadrature variances of the ensemble-average
    output state, ``out_noise`` those of a single (unmodulated) output.
    """
    if out_total[0] < out_noise[0] - 1e-12 or out_total[1] < out_noise[1] - 1e-12:
        raise ValueError(
            f"ensemble variances {out_total} must dominate noise variances {out_noise}"
        )
    return _chi(*out_noise, max(out_total[0] - out_noise[0], 0.0),
                max(out_total[1] - out_noise[1], 0.0))


def shannon_capacity(state: QuadState, scenario: Scenario) -> float:
    """Shannon rate of an output ``state`` under a fixed-input scenario."""
    return shannon_rate(state.as_tuple(), scenario)


def scenario_input(scenario: Scenario, nbar: float) -> QuadState:
    """Reference input carrying the full budget, shared by discrete chains
    and the continuum of either amplifier kind.  Gordon-Holevo plans are
    kept feasible for the conventional input; the PSA continuum has no limit
    for the symmetric one, as its feedback needs the I quadrature to
    dominate."""
    if scenario is Scenario.TWO_QUADRATURE:
        return symmetric_coherent_input(nbar)
    return conventional_input(nbar)


# Squeezing grid that brackets the best r before the golden-section refinement.
_GH_R_GRID = 33
_GH_R_TOL = 1e-10
# Optima this close (as a share of 2*nbar + 1) to an end of the budget interval
# go to the grid search, which scores ends that differ only by rounding alike.
_GH_EDGE = 1e-6
_INFEASIBLE = "no squeezed input meets the photon budget at every checkpoint"
# Largest budget a Gordon-Holevo run accepts: the largest power of ten at
# which the rounding of a photon count, eps*(2*nbar + 1) per stage, stays
# within a tenth of the search's 0.5*POWER_TOL budget slack.
MAX_GH_NBAR = 1e5


def _squeezed_floor(r: float, nbar: float) -> tuple[float, float, float]:
    """(noise_i, noise_q, signal budget) for squeezing exponent ``r``.

    The noise floor is a pure squeezed vacuum (product exactly 1/4) and the
    signal power is what the photon budget leaves, 2*nbar + 1 - cosh(2r),
    formed without cancellation so that tiny budgets keep it; negative means
    the floor alone overshoots the budget.
    """
    return (0.5 * math.exp(-2.0 * r), 0.5 * math.exp(2.0 * r),
            2.0 * nbar - 2.0 * math.sinh(r) ** 2)


class _GhChannel:
    """Affine channel data for the Gordon-Holevo maximization.

    The input's I variance X and Q variance Y sum to T = 2*nbar + 1 for
    every squeezing r and split p, so the photon excess at every checkpoint
    is affine in X alone.  The budget is therefore one interval
    [x_lo, x_hi] on X, found in one pass when the channel is built.  Each
    ``chi(r)`` is then O(1) scalar arithmetic that returns a float, so the
    search calls it directly.  The final checkpoint is the channel output.
    """

    def __init__(self, mult_i, add_i, mult_q, add_q, nbar: float):
        self.nbar = nbar
        self.p = 0.0
        self.out = (float(mult_i[-1]), float(add_i[-1]),
                    float(mult_q[-1]), float(add_q[-1]))
        # Excess at X is excess0 + slope * X.  Search with half the audit
        # tolerance so boundary optima survive the exact re-propagation audit
        # with margin to spare.  A subnormal slope overflows its bound to
        # +-inf of the right sign; a bound that large lies outside [0, T]
        # anyway.
        total = 2.0 * nbar + 1.0
        x_lo, x_hi = -math.inf, math.inf
        for mi, ai, mq, aq in zip(mult_i, add_i, mult_q, add_q):
            slope = 0.5 * (mi - mq)
            excess0 = 0.5 * (ai + aq) - 0.5 - nbar - 0.5 * POWER_TOL + 0.5 * mq * total
            if slope < 0.0:
                x_lo = max(x_lo, -excess0 / slope)
            elif slope > 0.0:
                x_hi = min(x_hi, -excess0 / slope)
            elif excess0 > 0.0:
                raise GHSearchError(_INFEASIBLE, -math.inf)
        if x_lo > x_hi:
            raise GHSearchError(_INFEASIBLE, -math.inf)
        self.x_lo, self.x_hi = x_lo, x_hi

    def chi(self, r: float) -> float:
        """Chi of the best feasible split at squeezing ``r``, or -inf when no
        split meets the budget; a finite chi leaves its split in ``self.p``."""
        noise_i, noise_q, budget = _squeezed_floor(r, self.nbar)
        if budget <= 0.0:
            return -math.inf
        # comparisons cost less than max/min calls and pick the same value,
        # NaN and ties included
        lo = (self.x_lo - noise_i) / budget
        lo = lo if lo > 0.0 else 0.0
        hi = (self.x_hi - noise_i) / budget
        hi = hi if hi < 1.0 else 1.0
        if lo > hi:
            return -math.inf
        # chi grows with the product of the output variances,
        # (noise_out_i + mi*B*p) * (all_q - mq*B*p), a concave quadratic in p.
        mi, ai, mq, aq = self.out
        out_i = mi * noise_i + ai
        all_q = mq * (budget + noise_q) + aq
        lever = 2.0 * budget * mi * mq  # 0 once mi*mq underflows, past ~1600 dB
        peak = mi * all_q - mq * out_i
        p = peak / lever if lever > 0.0 else math.copysign(math.inf, peak)
        p = lo if lo > p else p
        self.p = p = hi if hi < p else p
        return _chi(out_i, mq * noise_q + aq, mi * p * budget, mq * (1.0 - p) * budget)


def _gh_search(channel: _GhChannel) -> tuple[float, float, float]:
    """Maximize chi over the squeezing r, each r with its best split: the fallback
    for degenerate maps, optima by the budget's ends and non-finite chi.

    A uniform grid over |r| <= r_cap brackets the best r; golden-section
    search refines it between the best grid point's neighbours.  Both call
    ``channel.chi``, and the winner keeps the split its call left.  Returns
    (chi, p, r); chi is -inf when no input is feasible.
    """
    r_cap = math.asinh(math.sqrt(channel.nbar))  # cosh(2 r_cap) = 2*nbar + 1
    step = 2.0 * r_cap / (_GH_R_GRID - 1)
    grid = [-r_cap + k * step for k in range(_GH_R_GRID)]
    # ties (e.g. zero capacity) go to the least squeezed input, then to the first
    value, _, neg_k, p = max([(channel.chi(r), -abs(r), -k, channel.p) for k, r in enumerate(grid)])
    best = -neg_k
    r = grid[best]
    if value > -math.inf:
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, _GH_R_GRID - 1)]
        r_ref, value_ref = golden_section_maximize(channel.chi, lo, hi, _GH_R_TOL)
        if value_ref > value:
            # the search's last evaluation is at r_ref, so its split is current
            r, value, p = r_ref, value_ref, channel.p
    return value, p, r


def _water_filling(channel: _GhChannel) -> tuple[float, float, float] | None:
    """(chi, p, r) of the optimum, or None for ``_gh_search``: the output's total
    variance product peaks at an input I variance X*, its noise product is least
    at a squeezing r*.  With both signal powers non-negative at (X*, r*) that is
    the optimum (Schaefer et al., PRL 111, 030503, 2013); else the quadrature
    whose signal would go negative carries none, and a Brent search finds it."""
    (mi, ai, mq, aq), nbar = channel.out, channel.nbar
    if not (ai > 0.0 and aq > 0.0 and mi > 0.0 and mi * mq > 0.0):
        return None
    total = 2.0 * nbar + 1.0
    r_cap = math.asinh(math.sqrt(nbar))
    # e^{4r*} = (mi*aq)/(ai*mq); an r* past +-r_cap is classified at the bound
    r_star = 0.25 * (math.log(mi) + math.log(aq) - math.log(ai) - math.log(mq))
    r = min(max(r_star, -r_cap), r_cap)
    x = 0.5 * total + (mi * aq - mq * ai) / (2.0 * mi * mq)
    noise_i, noise_q, _ = _squeezed_floor(r, nbar)
    if x < noise_i or x > total - noise_q:
        gain_i, gain_q = (0.0, mq) if x < noise_i else (mi, 0.0)  # budget to Q or I alone
        def curve(r):
            noise_i, noise_q, budget = _squeezed_floor(r, nbar)
            budget = budget if budget > 0.0 else 0.0
            return _chi(mi * noise_i + ai, mq * noise_q + aq, gain_i * budget, gain_q * budget)
        r = brent_maximize(curve, -r_cap, r_cap, _GH_R_TOL)[0]
        noise_i, noise_q, _ = _squeezed_floor(r, nbar)
        x = noise_i if gain_i == 0.0 else total - noise_q
    elif r != r_star:  # no signal power is left at the bound
        return None
    if not channel.x_lo + _GH_EDGE * total < x < channel.x_hi - _GH_EDGE * total:
        return None  # also a NaN X*
    value = channel.chi(r)
    return (value, channel.p, r) if -math.inf < value < math.inf else None


def gh_capacity_for_channel(
    mult_i,
    add_i,
    mult_q,
    add_q,
    nbar: float,
) -> CapacityResult:
    """Gordon-Holevo capacity of an affine Gaussian channel given its
    per-checkpoint coefficient sequences (last checkpoint = output); the
    search is exact and deterministic.  Maps of unequal or zero length, negative
    or NaN budgets, and budgets above ``MAX_GH_NBAR`` raise ``ValueError``."""
    if not 0 < len(mult_i) == len(add_i) == len(mult_q) == len(add_q):
        raise ValueError("(mult_i, add_i, mult_q, add_q) need equal non-zero lengths, got "
                         f"{(len(mult_i), len(add_i), len(mult_q), len(add_q))}")
    if not nbar >= 0:
        raise ValueError(f"photon budget must be non-negative, got {nbar}")
    if nbar > MAX_GH_NBAR:
        raise ValueError(f"Gordon-Holevo capacity needs nbar <= MAX_GH_NBAR = {MAX_GH_NBAR:g}, "
                         f"got {nbar:g}: above it photon counts round past the search margin")
    if nbar == 0:
        return CapacityResult(0.0, QuadState(0, 0, 0.5, 0.5))
    channel = _GhChannel(mult_i, add_i, mult_q, add_q, nbar)
    chi, p, r = _water_filling(channel) or _gh_search(channel)
    if chi == -math.inf:
        raise GHSearchError(_INFEASIBLE, chi)
    noise_i, noise_q, budget = _squeezed_floor(r, nbar)
    achieving = QuadState(p * budget, (1.0 - p) * budget, noise_i, noise_q)
    return CapacityResult(max(chi, 0.0), achieving)


def gh_capacity(plan: LinkPlan) -> CapacityResult:
    """Gordon-Holevo capacity of a link plan.

    Maximizes the Holevo information of the propagated output over the input
    power split and squeezed noise floor, subject to the photon budget both
    at the input and at every point along the chain.  The winning input is
    re-propagated and audited before being returned.
    """
    result = gh_capacity_for_channel(*channel_checkpoints(plan), plan.nbar)
    _, trace = propagate(plan, result.achieving_input)
    violations = check_power_constraint(trace, plan.nbar)
    if violations:
        raise GHSearchError(
            f"achieving input violates the photon budget at {violations[0]}",
            result.bits_per_mode,
        )
    return result


def plan_capacity(plan: LinkPlan, scenario: Scenario) -> CapacityResult:
    """Capacity of a plan under the requested detection scenario."""
    if scenario is Scenario.GORDON_HOLEVO:
        return gh_capacity(plan)
    state = scenario_input(scenario, plan.nbar)
    out, _ = propagate(plan, state)
    return CapacityResult(shannon_capacity(out, scenario), state)
