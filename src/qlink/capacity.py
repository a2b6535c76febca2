"""Capacity functionals for the propagated channel output.

Three detection scenarios are supported: shot-noise-limited single-quadrature
detection (the conventional Shannon rate), simultaneous two-quadrature
detection (each quadrature pays an extra half unit of vacuum noise), and the
quantum-optimal Gordon-Holevo rate of the induced phase-sensitive Gaussian
channel, maximized over Gaussian input ensembles under the photon budget (in
closed form or by a root-find on chi's slope, piece by piece where the budget
or a degenerate map rules the plain solution out).
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .linkchain import LinkPlan, POWER_TOL, _over_budget, _walk, channel_checkpoints, propagate
from .quadmodel import (HEISENBERG_LIMIT, HEISENBERG_TOL, QuadState, conventional_input,
                        symmetric_coherent_input)
from .search import golden_section_maximize  # noqa: F401 - patched by perfbench/traced_run.py
from .search import illinois_root

_LN2 = math.log(2.0)
_HALF_LOG2E = 0.5 / _LN2


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


def _chi_partials(n_i: float, n_q: float, sig_i: float, sig_q: float) -> tuple[float, ...]:
    """Partials of ``_chi`` in bits with respect to its four arguments, formed as
    chi is, so that they keep their relative precision when the signal lies far
    below the noise.  chi = g(b + d) - g(b) with g'(x) = log2(1 + 1/x), and a
    state's nu changes by v_q/(2 nu) per unit of its variance v_i.  The noise
    variances enter both states; g'(b + d) - g'(b) = -log2(1 + d/(b (b + 1 + d)))."""
    t_i, t_q = n_i + sig_i, n_q + sig_q
    nu, nu_t = math.sqrt(n_i * n_q), math.sqrt(t_i * t_q)
    rise = (sig_i * n_q + sig_q * n_i + sig_i * sig_q) / (nu_t + nu)
    b = nu - 0.5
    b = b if b > 0.0 else 0.0
    # g' is infinite at b + d = 0, where a root-find on the slope stops at its
    # NaN; where b is clipped to 0, as in chi, the noise state's g' drops out
    lead = math.log1p(1.0 / (b + rise)) * _HALF_LOG2E if b + rise > 0.0 else math.inf
    spread = b * (b + 1.0 + rise)
    drop = math.log1p(rise / spread) * _HALF_LOG2E / nu if spread > 0.0 else 0.0
    # t_q/nu_t - n_q/nu and t_i/nu_t - n_i/nu, without their cancellation
    cross = lead * (sig_q * n_i - sig_i * n_q)
    lead /= nu_t
    return (cross / (n_i * nu_t + t_i * nu) - drop * n_q,
            -cross / (n_q * nu_t + t_q * nu) - drop * n_i, lead * t_q, lead * t_i)


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
    the floor alone overshoots the budget."""
    return (0.5 * math.exp(-2.0 * r), 0.5 * math.exp(2.0 * r),
            2.0 * nbar - 2.0 * math.sinh(r) ** 2)


class _GhChannel:
    """Affine channel data for the Gordon-Holevo maximization.

    The input's I variance X and Q variance Y sum to T = 2*nbar + 1 for
    every squeezing r and split p, so the photon excess at every checkpoint
    is affine in X alone.  The budget is therefore one interval
    [x_lo, x_hi] on X, found in one pass when the channel is built.  Each
    ``chi(r)`` is then O(1) scalar arithmetic that returns (chi, p) and
    writes nothing.  The final checkpoint is the channel output."""

    def __init__(self, mult_i, add_i, mult_q, add_q, nbar: float):
        self.nbar = nbar
        self.total, self.r_cap = 2.0 * nbar + 1.0, math.asinh(math.sqrt(nbar))  # cosh(2 r_cap) = T
        self.out = (float(mult_i[-1]), float(add_i[-1]),
                    float(mult_q[-1]), float(add_q[-1]))
        # Excess at X is excess0 + slope * X.  Search with half the audit
        # tolerance so boundary optima survive the exact re-propagation audit
        # with margin to spare.  A subnormal slope overflows its bound to
        # +-inf of the right sign; a bound that large lies outside [0, T]
        # anyway.
        total, margin = self.total, 0.5 * POWER_TOL
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

    def chi(self, r: float) -> tuple[float, float]:
        """(chi, p) of the best feasible split p at squeezing ``r``, or (-inf, 0.0)
        when no split meets the budget."""
        noise_i, noise_q, budget = _squeezed_floor(r, self.nbar)
        if budget <= 0.0:
            return -math.inf, 0.0
        # comparisons cost less than max/min calls and pick the same value,
        # NaN and ties included
        lo = (self.x_lo - noise_i) / budget
        lo = lo if lo > 0.0 else 0.0
        hi = (self.x_hi - noise_i) / budget
        hi = hi if hi < 1.0 else 1.0
        if lo > hi:
            return -math.inf, 0.0
        # chi grows with the product of the output variances,
        # (noise_out_i + mi*B*p) * (all_q - mq*B*p), a concave quadratic in p.
        mi, ai, mq, aq = self.out
        out_i = mi * noise_i + ai
        all_q = mq * (budget + noise_q) + aq
        lever = 2.0 * budget * mi * mq  # 0 once mi*mq underflows, past ~1600 dB
        peak = mi * all_q - mq * out_i
        p = peak / lever if lever > 0.0 else math.copysign(math.inf, peak)
        p = lo if lo > p else p
        p = hi if hi < p else p
        return _chi(out_i, mq * noise_q + aq, mi * p * budget, mq * (1.0 - p) * budget), p


def _curve(out: tuple, nbar: float, q_carries: bool):
    """dchi/dr along the squeezings r at which one quadrature, Q where ``q_carries``,
    takes the whole signal budget B(r) = 2*nbar - 2*sinh(r)**2 of the output map
    ``out``.  chi is 0 at r = +-r_cap, where B is 0, and positive between."""
    mi, ai, mq, aq = out
    gain_i, gain_q = (0.0, mq) if q_carries else (mi, 0.0)

    def slope(r):
        # chi's partials composed with d/dr of (e^{-2r}/2, e^{2r}/2, B),
        # which is (-e^{-2r}, e^{2r}, -2 sinh 2r)
        noise_i, noise_q, budget = _squeezed_floor(r, nbar)
        d_n_i, d_n_q, d_s_i, d_s_q = _chi_partials(
            mi * noise_i + ai, mq * noise_q + aq, gain_i * budget, gain_q * budget)
        return (2.0 * (mq * noise_q * d_n_q - mi * noise_i * d_n_i)
                + 2.0 * (noise_i - noise_q) * (gain_i * d_s_i + gain_q * d_s_q))

    return slope


def _curve_optimum(channel: _GhChannel, q_carries: bool) -> tuple[float, float, float]:
    """(chi, p, r): the first best ``chi`` at the slope root-find's iterate and bracket ends."""
    x, a, b = illinois_root(_curve(channel.out, channel.nbar, q_carries),
                            -channel.r_cap, channel.r_cap, _GH_R_TOL)
    return max(((*channel.chi(r), r) for r in (x, a, b)), key=lambda point: point[0])


def _gh_optimum(channel: _GhChannel) -> tuple[float, float, float]:
    """(chi, p, r) of the optimum, as ``chi`` scored it.  chi = G(X) - H(r): the output's
    total variance product peaks at an input I variance X*, its noise product is least at a
    squeezing r*.  With both signal powers non-negative at (X*, r*) that is the optimum
    (Schaefer et al., PRL 111, 030503, 2013); else the quadrature whose signal would go
    negative carries none, and the optimum is ``_curve_optimum``'s.  Degenerate maps, an
    r* clipped with no signal left, an X outside [x_lo, x_hi] or a NaN go to ``_gh_pieces``."""
    (mi, ai, mq, aq), nbar, total, r_cap = channel.out, channel.nbar, channel.total, channel.r_cap
    if ai > 0.0 and aq > 0.0 and mi > 0.0 and mi * mq > 0.0:
        # e^{4r*} = (mi*aq)/(ai*mq); an r* past +-r_cap is classified at the bound
        r_star = 0.25 * (math.log(mi) + math.log(aq) - math.log(ai) - math.log(mq))
        r = min(max(r_star, -r_cap), r_cap)
        x = x_star = 0.5 * total + (mi * aq - mq * ai) / (2.0 * mi * mq)
        noise_i, noise_q, _ = _squeezed_floor(r, nbar)
        if x < noise_i or x > total - noise_q:
            q_carries = x < noise_i  # the budget goes to Q alone, or to I alone
            value, p, r = _curve_optimum(channel, q_carries)
            noise_i, noise_q, _ = _squeezed_floor(r, nbar)
            x = noise_i if q_carries else total - noise_q
        elif r != r_star:  # no signal power is left at the bound: not accepted
            x = math.nan
        elif channel.x_lo <= x <= channel.x_hi:  # an X outside stops the test below before value
            value, p = channel.chi(r)
        if channel.x_lo <= x <= channel.x_hi and -math.inf < value < math.inf:
            return value, p, r
    else:  # a zero multiplier (its add term is then positive) puts X* at +-inf, a zero
        # add term r* at +-inf; flat G or H gives NaN.  X* is scaled by the larger mult.
        if mi >= mq:
            x_star = 0.5 * total + (aq - ai * (mq / mi)) / (2.0 * mq) if mq > 0.0 else math.inf
        else:
            x_star = 0.5 * total + (aq * (mi / mq) - ai) / (2.0 * mi) if mi > 0.0 else -math.inf
        logs = [math.log(v) if v > 0.0 else -math.inf for v in (mi, aq, ai, mq)]
        r_star = 0.25 * (logs[0] + logs[1] - logs[2] - logs[3])
    return _gh_pieces(channel, x_star, r_star)


def _gh_pieces(channel: _GhChannel, x_star: float, r_star: float) -> tuple[float, float, float]:
    """(chi, p, r) of the optimum over the squeezings r that leave a feasible split.  At
    each r the best X is X* clamped to [max(e^{-2r}/2, x_lo), min(T - e^{2r}/2, x_hi)], so
    the r at which a clamp end meets X*, x_lo or x_hi cut them into pieces.  On each, X is
    fixed and r* (any r if NaN) clamped into it is best, or one quadrature takes the whole
    budget and a ``_curve`` optimum clamped into it is; all three are scored."""
    total, r_cap, x_lo, x_hi = channel.total, channel.r_cap, channel.x_lo, channel.x_hi
    # X = e^{-2r}/2 <= x_hi at p = 0 and X = T - e^{2r}/2 >= x_lo at p = 1
    if not (x_hi > 0.0 and x_lo < total and (r_lo := max(-r_cap, -0.5 * math.log(2.0 * x_hi)))
            <= (r_hi := min(r_cap, 0.5 * math.log(2.0 * (total - x_lo))))):
        raise GHSearchError(_INFEASIBLE, -math.inf)
    xs = (x_star, x_lo, x_hi)
    cuts = sorted(cut for cut in (r_lo, r_hi, *(-0.5 * math.log(2.0 * x) for x in xs if x > 0.0),
                                  *(0.5 * math.log(2.0 * (total - x)) for x in xs if x < total))
                  if r_lo <= cut <= r_hi)
    rs = [0.0 if math.isnan(r_star) else r_star] + [
        _curve_optimum(channel, q_carries)[2] for q_carries in (True, False)]
    # r = 0, scored first, wins ties: zero capacity gives it where it is feasible
    best = (*channel.chi(0.0), 0.0) if r_lo <= 0.0 <= r_hi else (-math.inf, 0.0, 0.0)
    for a, b in zip(cuts, cuts[1:]):
        for r in rs:  # an end that rounding puts out of budget steps 1, 2, 4, ... doubles in
            r, mid = (a if r < a else b if r > b else r), 0.5 * (a + b)
            (value, p), step = channel.chi(r), math.nextafter(r, mid) - r
            while value == -math.inf and r != mid:
                r = r + step if abs(step) < abs(mid - r) else mid
                (value, p), step = channel.chi(r), 2.0 * step
            if value > best[0]:
                best = value, p, r
    return best


def gh_capacity_for_channel(mult_i, add_i, mult_q, add_q, nbar: float) -> CapacityResult:
    """Gordon-Holevo capacity of an affine Gaussian channel given its per-checkpoint coefficient
    sequences (last checkpoint = output), by ``_gh_optimum``.  Maps of unequal or zero length,
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
    chi, p, r = _gh_optimum(channel)
    if not chi > -math.inf:  # a NaN photon count, from NaN maps, meets no budget either
        raise GHSearchError(_INFEASIBLE, -math.inf)
    noise_i, noise_q, budget = _squeezed_floor(r, nbar)
    achieving = QuadState(p * budget, (1.0 - p) * budget, noise_i, noise_q)
    return CapacityResult(max(chi, 0.0), achieving)


def gh_capacity(plan: LinkPlan) -> CapacityResult:
    """Gordon-Holevo capacity of a link plan: the search on ``channel_checkpoints``, whose
    winner's states get ``propagate``'s checks and then ``_over_budget``'s audit of the
    photon budget at every point."""
    result = gh_capacity_for_channel(*channel_checkpoints(plan), plan.nbar)
    _, trace = propagate(plan, result.achieving_input)
    if violations := _over_budget(trace.states, plan.nbar):
        k, excess = violations[0]
        raise GHSearchError(f"achieving input violates the photon budget at "
                            f"{(trace.positions[k], excess)}", result.bits_per_mode)
    return result


def chain_gh_capacity(taus, gains, kind, nbar: float) -> CapacityResult:
    """Gordon-Holevo search, unaudited, of the chain whose spans transmit ``taus`` and
    whose amplifiers of one ``kind`` have ``gains``: one walk gives the channel maps, as
    four tuples in the layout of ``channel_checkpoints``."""
    _walk((1.0, 1.0, 0.0, 0.0), taus, gains, kind, record=(maps := [(1.0, 1.0, 0.0, 0.0)]))
    mult_i, mult_q, add_i, add_q = zip(*maps)
    return gh_capacity_for_channel(mult_i, add_i, mult_q, add_q, nbar)
