"""Capacity functionals for the propagated channel output.

Three detection scenarios are supported: shot-noise-limited single-quadrature
detection (the conventional Shannon rate), simultaneous two-quadrature
detection (each quadrature pays an extra half unit of vacuum noise), and the
quantum-optimal Gordon-Holevo rate of the induced phase-sensitive Gaussian
channel, maximized over Gaussian input ensembles under the photon budget (in
closed form or by one Brent search; a golden-section search is the fallback).
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from enum import Enum
from itertools import starmap

from .linkchain import (LinkPlan, POWER_TOL, _over_budget, _plan_fields, _spans, _walk,
                        attenuation_to_natural)
from .linkchain import channel_checkpoints  # noqa: F401 - patched by perfbench/traced_run.py
from .linkchain import propagate  # noqa: F401 - patched by perfbench/traced_run.py
from .quadmodel import (HEISENBERG_LIMIT, HEISENBERG_TOL, QuadState, check_moments,
                        conventional_input, symmetric_coherent_input)
from .search import brent_maximize, golden_section_maximize

_LN2 = math.log(2.0)


class Scenario(str, Enum):
    CONVENTIONAL = "ConventionalSNL"
    TWO_QUADRATURE = "TwoQuadratureSNL"
    GORDON_HOLEVO = "GordonHolevo"


# Every Shannon trial compares against these; an Enum lookup costs 0.1 us on CPython 3.11.
_CONVENTIONAL, _TWO_QUADRATURE = Scenario.CONVENTIONAL, Scenario.TWO_QUADRATURE


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


def shannon_capacity(state: tuple, scenario: Scenario) -> float:
    """Shannon rate of an output ``state``, a ``QuadState`` or raw 4-tuple, under a
    fixed-input scenario: ideal homodyne of the I quadrature (conventional), or of
    both at once, each paying half a vacuum unit of noise (two-quadrature)."""
    sig_i, sig_q, noise_i, noise_q = state
    if scenario is _CONVENTIONAL:
        return 0.5 * math.log1p(sig_i / noise_i) / _LN2
    if scenario is _TWO_QUADRATURE:
        rate_i = math.log1p(sig_i / (noise_i + 0.5))
        rate_q = math.log1p(sig_q / (noise_q + 0.5))
        return 0.5 * (rate_i + rate_q) / _LN2
    raise ValueError(f"{scenario.value} has no fixed input")


def _symplectic(var_i: float, var_q: float) -> float:
    if var_i <= 0 or var_q <= 0:
        raise ValueError(f"variances must be positive, got ({var_i}, {var_q})")
    if var_i * var_q < HEISENBERG_LIMIT - HEISENBERG_TOL:
        raise ValueError(f"covariance product {var_i * var_q} lies below the Heisenberg limit")
    return math.sqrt(var_i * var_q)


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


def scenario_input(scenario: Scenario, nbar: float) -> QuadState:
    """Reference input carrying the full budget, shared by discrete chains
    and the continuum of either amplifier kind.  Gordon-Holevo plans are
    kept feasible for the conventional input.  The PSA continuum serves no
    symmetric input: its closed-form maps are derived only for the
    conventional input's feedback."""
    if scenario is Scenario.TWO_QUADRATURE:
        return symmetric_coherent_input(nbar)
    return conventional_input(nbar)


_GH_R_TOL = 1e-10
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
        total, margin = 2.0 * nbar + 1.0, 0.5 * POWER_TOL
        x_lo, x_hi = -math.inf, math.inf
        for mi, ai, mq, aq in zip(mult_i, add_i, mult_q, add_q):
            slope = 0.5 * (mi - mq)
            excess0 = 0.5 * (ai + aq) - 0.5 - nbar - margin + 0.5 * mq * total
            if slope < 0.0:  # max and min by comparisons, as in chi
                x_lo = bound if (bound := -excess0 / slope) > x_lo else x_lo
            elif slope > 0.0:
                x_hi = bound if (bound := -excess0 / slope) < x_hi else x_hi
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
    """(chi, p, r) by golden section over the squeezings r that leave a feasible
    split: X = e^{-2r}/2 <= x_hi at p = 0 and X = T - e^{2r}/2 >= x_lo at p = 1.
    The fallback for degenerate maps, an r* clipped with no signal power left and
    non-finite chi.  The tolerance shrinks with r_cap, so that budgets far below
    1 keep their resolution; zero capacity gives r = 0 where that is feasible."""
    total = 2.0 * channel.nbar + 1.0
    r_cap = math.asinh(math.sqrt(channel.nbar))  # cosh(2 r_cap) = 2*nbar + 1
    if channel.x_hi <= 0.0 or channel.x_lo >= total:
        raise GHSearchError(_INFEASIBLE, -math.inf)
    r_lo = max(-r_cap, -0.5 * math.log(2.0 * channel.x_hi))
    r_hi = min(r_cap, 0.5 * math.log(2.0 * (total - channel.x_lo)))
    if r_lo > r_hi:
        raise GHSearchError(_INFEASIBLE, -math.inf)
    r, value = golden_section_maximize(channel.chi, r_lo, r_hi, _GH_R_TOL * min(1.0, r_cap))
    # Golden section nears an end or a corner (p = 0 with X on x_lo, p = 1 with X on
    # x_hi) only linearly, so those are scored too, one double inward where rounding
    # puts them out of budget; a tie keeps the search's r.
    ends = [r_lo, r_hi]
    if channel.x_lo > 0.0:
        ends.append(-0.5 * math.log(2.0 * channel.x_lo))
    if total - channel.x_hi > 0.0:
        ends.append(0.5 * math.log(2.0 * (total - channel.x_hi)))
    for end in ends:
        if r_lo <= end <= r_hi:
            if (end_value := channel.chi(end)) == -math.inf:
                end_value = channel.chi(end := math.nextafter(end, r))
            if end_value > value:
                r, value = end, end_value
    if value <= 0.0 and r_lo <= 0.0 <= r_hi:  # never an end, which rounding can put out of budget
        r = 0.0
    return channel.chi(r), channel.p, r


def _water_filling(channel: _GhChannel) -> tuple[float, float, float] | None:
    """(chi, p, r) of the optimum, or None for ``_gh_search``: the output's total
    variance product peaks at an input I variance X*, its noise product is least
    at a squeezing r*.  With both signal powers non-negative at (X*, r*) that is
    the optimum (Schaefer et al., PRL 111, 030503, 2013); else the quadrature
    whose signal would go negative carries none, and a Brent search finds it.
    An X* outside [x_lo, x_hi] (its ends are inside) or NaN gives None."""
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
    if not channel.x_lo <= x <= channel.x_hi:
        return None  # also a NaN X*
    value = channel.chi(r)
    return (value, channel.p, r) if -math.inf < value < math.inf else None


def gh_capacity_for_channel(mult_i, add_i, mult_q, add_q, nbar: float) -> CapacityResult:
    """Gordon-Holevo capacity of an affine Gaussian channel given its per-checkpoint
    coefficient sequences (last checkpoint = output), by water filling or else one
    golden-section search, both deterministic.  Maps of unequal or zero length,
    negative or NaN budgets, and budgets above ``MAX_GH_NBAR`` raise ``ValueError``."""
    if not 0 < len(mult_i) == len(add_i) == len(mult_q) == len(add_q):
        raise ValueError("(mult_i, add_i, mult_q, add_q) need equal non-zero lengths, got "
                         f"{(len(mult_i), len(add_i), len(mult_q), len(add_q))}")
    if not nbar >= 0:
        raise ValueError(f"photon budget must be non-negative, got {nbar}")
    if nbar > MAX_GH_NBAR:
        raise ValueError(f"Gordon-Holevo capacity needs nbar <= MAX_GH_NBAR = {MAX_GH_NBAR:g}, "
                         f"got {nbar:g}: above it photon counts round past the search margin")
    mi, ai, mq, aq = mult_i[-1], add_i[-1], mult_q[-1], add_q[-1]
    if mi < 0.0 or ai < 0.0 or mq < 0.0 or aq < 0.0:
        raise ValueError(f"the output map (mult_i, add_i, mult_q, add_q) = "
                         f"({mi}, {ai}, {mq}, {aq}) must be non-negative")
    # the output's variance product, least at the squeezing where the noise is least
    root = math.sqrt(mi * mq) / 2.0 + math.sqrt(ai * aq)
    if (least := root * root) < HEISENBERG_LIMIT - HEISENBERG_TOL:
        raise ValueError(f"the output's least variance product {least} lies below the "
                         f"Heisenberg limit {HEISENBERG_LIMIT}: no quantum channel")
    if nbar == 0:
        return CapacityResult(0.0, QuadState(0, 0, 0.5, 0.5))
    channel = _GhChannel(mult_i, add_i, mult_q, add_q, nbar)
    chi, p, r = _water_filling(channel) or _gh_search(channel)
    if not chi > -math.inf:  # a NaN photon count, from NaN maps, meets no budget either
        raise GHSearchError(_INFEASIBLE, -math.inf)
    noise_i, noise_q, budget = _squeezed_floor(r, nbar)
    achieving = QuadState(p * budget, (1.0 - p) * budget, noise_i, noise_q)
    return CapacityResult(max(chi, 0.0), achieving)


def gh_capacity(plan: LinkPlan) -> CapacityResult:
    """Gordon-Holevo capacity of a link plan: the output's Holevo information, maximized
    over squeezed inputs within the photon budget at every point (``chain_gh_capacity``)."""
    taus = _spans(attenuation_to_natural(plan.alpha_db_per_km), plan.length_km, plan.positions)
    return chain_gh_capacity(taus, *plan)


def chain_gh_capacity(taus, alpha_db_per_km, length_km, nbar, positions, gains, kind):
    """``gh_capacity(LinkPlan(alpha_db_per_km, ..., kind))``, errors too, on raw tuples and
    the plan's span transmissions ``taus``: one walk gives the channel maps, one the winning
    input's states, which get ``propagate``'s checks and then ``_over_budget``'s audit."""
    _plan_fields(alpha_db_per_km, length_km, nbar, positions, gains)
    _walk((1.0, 1.0, 0.0, 0.0), taus, gains, kind, record=(maps := [(1.0, 1.0, 0.0, 0.0)]))
    mult_i, mult_q, add_i, add_q = zip(*maps)
    result = gh_capacity_for_channel(mult_i, add_i, mult_q, add_q, nbar)
    _walk(result.achieving_input, taus, gains, kind, record=(states := [result.achieving_input]))
    deque(starmap(check_moments, states[1:]), 0)  # each QuadState check, before any budget's
    if violations := _over_budget(states, nbar):
        k, excess = violations[0]
        position = (0.0, *sorted(positions * 2), length_km)[k]  # as propagate's trace
        raise GHSearchError(f"achieving input violates the photon budget at {(position, excess)}",
                            result.bits_per_mode)
    return result
