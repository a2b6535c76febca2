"""Continuum limit of densely spaced regeneration.

With amplifier spacing taken to zero, the chain becomes a four-variable ODE
system in the span coordinate: each quadrature's signal and noise power gains
(or loses) at the local per-km amplification rate minus the attenuation, and
loss continuously injects half a vacuum unit per attenuation constant.  The
per-km gain profile is chosen by exact algebraic feedback so that the total
photon number stays pinned at the budget, rather than by the constant-rate
shortcut.  Under that feedback the system solves in closed form
(``channel_maps``), which every continuum analysis uses; the RK4 integrators
are kept as the reference the closed form is tested against.  The
constant-rate approximations are provided alongside for comparison.
Positions, trajectories and channel maps are lists of Python floats.
"""

from __future__ import annotations

import bisect
import math

from .capacity import (
    CapacityResult,
    Scenario,
    gh_capacity_for_channel,
    scenario_input,
    shannon_capacity,
)
from .linkchain import _PSA, MAX_NBAR, AmpKind, Record, attenuation_to_natural
from .optimizer import SweepRow, distance_grid
from .quadmodel import QuadState

_LN2 = math.log(2.0)

DEFAULT_STEP_KM = 0.1
# Distance within which a position counts as an integration sample.
GRID_TOL_KM = 1e-6


class IntegrationError(RuntimeError):
    """Feedback gain became singular during integration."""

    def __init__(self, message: str, position_km: float):
        super().__init__(message)
        self.position_km = position_km


def _feedback_gain(kind: AmpKind, y, alpha: float) -> float:
    """Per-km gain that holds the total photon number fixed.

    ``y`` starts with a raw (sig_i, sig_q, noise_i, noise_q) tuple.  Zeroing
    the length-derivative of the photon number, the gain must replace what
    attenuation drains from the whole mode: a PSA through the excess of the
    amplified over the deamplified quadrature, a PIA through both
    quadratures at the price of its added noise.
    """
    if kind is _PSA:
        lever = (y[0] + y[2]) - (y[1] + y[3])
        if lever <= 0.0:
            raise ValueError(
                "phase-sensitive feedback singular: it needs the amplified "
                f"quadrature to dominate, got I-Q power difference {lever}"
            )
        return alpha * (y[0] + y[1] + y[2] + y[3] - 1.0) / lever
    total = (y[0] + y[2]) + (y[1] + y[3])
    return alpha * (total - 1.0) / (total + 1.0)


def feedback_gain_psa(state: QuadState, alpha_nat: float) -> float:
    """Per-km phase-sensitive gain that holds the total photon number fixed;
    the amplified (I) quadrature must carry more power than the Q one."""
    return _feedback_gain(AmpKind.PSA, state.as_tuple(), alpha_nat)


def feedback_gain_pia(state: QuadState, alpha_nat: float) -> float:
    """Per-km phase-insensitive gain that holds the total photon number
    fixed."""
    return _feedback_gain(AmpKind.PIA, state.as_tuple(), alpha_nat)


class OdeProfile(Record):
    """Sampled continuum trajectory on a km grid, one list entry per sample.

    ``gain_coeff`` holds the per-km feedback gain at each sample.  When the
    trajectory was integrated with channel tracking, ``mult_i``/``add_i``/
    ``mult_q``/``add_q`` give the affine input-to-sample channel maps.
    """

    __slots__ = ("nbar", "kind", "alpha_db_per_km", "positions", "sig_i", "sig_q", "noise_i",
                 "noise_q", "gain_coeff", "mult_i", "add_i", "mult_q", "add_q")

    def __init__(self, nbar, kind, alpha_db_per_km, positions, sig_i, sig_q, noise_i, noise_q,
                 gain_coeff, mult_i=None, add_i=None, mult_q=None, add_q=None):
        self.nbar, self.kind, self.alpha_db_per_km, self.positions = (
            nbar, kind, alpha_db_per_km, positions)
        self.sig_i, self.sig_q, self.noise_i, self.noise_q = sig_i, sig_q, noise_i, noise_q
        self.gain_coeff = gain_coeff
        self.mult_i, self.add_i, self.mult_q, self.add_q = mult_i, add_i, mult_q, add_q

    def __len__(self) -> int:
        return len(self.positions)

    def state_at(self, index: int) -> QuadState:
        return QuadState(self.sig_i[index], self.sig_q[index],
                         self.noise_i[index], self.noise_q[index])

    @property
    def final_state(self) -> QuadState:
        return self.state_at(len(self) - 1)

    def photon_numbers(self) -> list[float]:
        return [(si + sq + ni + nq) / 2.0 - 0.5
                for si, sq, ni, nq in zip(self.sig_i, self.sig_q, self.noise_i, self.noise_q)]

    def index_at(self, position_km: float, tol: float = GRID_TOL_KM) -> int:
        idx = min(range(len(self)), key=lambda j: abs(self.positions[j] - position_km))
        if abs(self.positions[idx] - position_km) > tol:
            raise ValueError(f"{position_km} km is not on the integration grid")
        return idx


def _drift(y, k, rate_i, rate_q, inject):
    # sig -> rate*sig, noise -> rate*noise + inject for the block y[k:k+4];
    # a tracked channel map's (mult, add) obey the same equations.
    return (rate_i * y[k], rate_q * y[k + 1],
            rate_i * y[k + 2] + inject, rate_q * y[k + 3] + inject)


def _rhs(kind: AmpKind, y, alpha: float) -> tuple:
    gamma = _feedback_gain(kind, y, alpha)
    up = gamma - alpha
    if kind is _PSA:
        down, inject = -gamma - alpha, alpha / 2.0
    else:
        down, inject = up, alpha / 2.0 + gamma / 2.0
    if len(y) > 4:
        return _drift(y, 0, up, down, inject) + _drift(y, 4, up, down, inject)
    return _drift(y, 0, up, down, inject)


def _rk4_step(y, h, kind, alpha):
    half = 0.5 * h
    k1 = _rhs(kind, y, alpha)
    k2 = _rhs(kind, [v + half * k for v, k in zip(y, k1)], alpha)
    k3 = _rhs(kind, [v + half * k for v, k in zip(y, k2)], alpha)
    k4 = _rhs(kind, [v + h * k for v, k in zip(y, k3)], alpha)
    sixth = h / 6.0
    # a tuple: the samples kept per step are smaller than lists
    return tuple([v + sixth * (a + 2.0 * b + 2.0 * c + d)
                  for v, a, b, c, d in zip(y, k1, k2, k3, k4)])


def checkpoint_positions(length_km: float, step_km: float) -> list[float]:
    """The lattice points k*step below ``length_km``, then the length itself,
    as a list: the RK4 samples of an integration to that length.  A lattice
    point up to 1e-9 steps past the length, or less than 1e-12 km short of
    it, counts as the length itself."""
    if step_km <= 0:
        raise ValueError(f"step must be positive, got {step_km}")
    if length_km < 0:
        raise ValueError(f"length must be non-negative, got {length_km}")
    below = math.floor(length_km / step_km + 1e-9)
    if length_km - below * step_km > 1e-12:
        below += 1
    return [k * step_km for k in range(below)] + [length_km]


def _integrate(
    kind: AmpKind,
    scenario: Scenario,
    length_km: float,
    nbar: float,
    alpha_db_per_km: float,
    step_km: float,
    track_channel: bool,
) -> OdeProfile:
    positions = checkpoint_positions(length_km, step_km)
    alpha = attenuation_to_natural(alpha_db_per_km)
    y = scenario_input(scenario, nbar).as_tuple()
    if track_channel:
        y = y + (1.0, 1.0, 0.0, 0.0)  # identity map: (mult_i, mult_q, add_i, add_q)

    samples = [y]
    for pos, nxt in zip(positions, positions[1:]):
        try:
            y = _rk4_step(y, nxt - pos, kind, alpha)
        except ValueError as err:
            raise IntegrationError(f"{err} at {pos} km", pos) from err
        samples.append(y)

    try:
        gammas = [_feedback_gain(kind, s, alpha) for s in samples]
    except ValueError as err:
        raise IntegrationError(f"{err} at {positions[-1]} km", positions[-1]) from err
    columns = [list(column) for column in zip(*samples)]
    channel = {}
    if track_channel:
        channel = dict(zip(("mult_i", "mult_q", "add_i", "add_q"), columns[4:]))
    return OdeProfile(nbar, kind, alpha_db_per_km, positions, *columns[:4], gammas, **channel)


def integrate_psa(
    length_km: float,
    nbar: float,
    alpha_db_per_km: float = 0.2,
    step_km: float = DEFAULT_STEP_KM,
    *,
    track_channel: bool = False,
) -> OdeProfile:
    """Integrate the distributed-PSA system from the conventional input
    (``scenario_input``; a symmetric input leaves the feedback singular).

    Classical fixed-step RK4 on the samples ``checkpoint_positions(length_km,
    step_km)``; the feedback gain is re-evaluated at every stage point, so
    the total photon number is conserved to the integrator's order.  This
    is the oracle that ``channel_maps`` is tested against; analyses use the
    closed form, which has no step error and keeps the Heisenberg limit at
    budgets where RK4 steps overshoot the feedback.
    """
    return _integrate(AmpKind.PSA, Scenario.CONVENTIONAL, length_km, nbar, alpha_db_per_km,
                      step_km, track_channel)


def integrate_pia(
    length_km: float,
    nbar: float,
    alpha_db_per_km: float = 0.2,
    step_km: float = DEFAULT_STEP_KM,
    *,
    scenario: Scenario = Scenario.TWO_QUADRATURE,
    track_channel: bool = False,
) -> OdeProfile:
    """Integrate the distributed-PIA system from the reference input of
    ``scenario`` (``scenario_input``) with RK4; the feedback holds the total
    photon number fixed.  Like ``integrate_psa``, an oracle for
    ``channel_maps``."""
    return _integrate(AmpKind.PIA, scenario, length_km, nbar, alpha_db_per_km,
                      step_km, track_channel)


def state_at_position(profile: OdeProfile, position_km: float) -> QuadState:
    """State at an arbitrary position along an RK4 trajectory, taken with
    one RK4 sub-step from the nearest grid sample at or below it (the exact
    state is ``continuum_states``)."""
    if position_km < 0 or position_km > profile.positions[-1] + 1e-9:
        raise ValueError(
            f"{position_km} km lies outside the integrated range "
            f"[0, {profile.positions[-1]}]"
        )
    idx = max(bisect.bisect_left(profile.positions, position_km + 1e-12) - 1, 0)
    state = profile.state_at(idx)
    h = position_km - profile.positions[idx]
    if h <= 1e-12:
        return state
    y = _rk4_step(state.as_tuple(), h, profile.kind,
                  attenuation_to_natural(profile.alpha_db_per_km))
    return QuadState(*y)


def gh_capacity_at(profile: OdeProfile, index: int = -1) -> CapacityResult:
    """Gordon-Holevo capacity of the distributed channel truncated at a grid
    sample; requires the profile to carry channel maps."""
    if profile.mult_i is None:
        raise ValueError("profile was integrated without channel tracking")
    stop = index % len(profile) + 1
    return gh_capacity_for_channel(
        profile.mult_i[:stop],
        profile.add_i[:stop],
        profile.mult_q[:stop],
        profile.add_q[:stop],
        profile.nbar,
    )


def _mult_expm1(mult: float, x: float, log_sum: float) -> float:
    # mult * expm1(x), with no overflow where x is large and mult tiny; log_sum
    # is log(mult) + x, formed without the cancellation of adding the two
    if x > 1.0:
        return math.exp(log_sum) - mult
    return mult * math.expm1(x)


def channel_maps(
    kind: AmpKind, positions_km, nbar: float, alpha_db_per_km: float = 0.2
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Exact channel maps (mult_i, add_i, mult_q, add_q) of the continuum
    from its input to each position, as four lists over ``positions_km``.

    A quadrature's signal power at z is mult * (its input signal) and its
    noise variance mult * (input noise) + add.  With T = 2*nbar + 1 held by
    the feedback, the PIA gain is the constant alpha*(T-1)/(T+1).  The PSA
    feedback is set by the conventional input: its gain is alpha*beta/u with
    beta = u(0) and u = sqrt(1 - e^(-2 alpha z)/T), and the maps are
    elementary functions of delta = -2 alpha z - 2 log((1+u)/(1+beta)).
    Every term is formed without cancellation or overflow, so the states
    keep the Heisenberg product, and a flat output its photon count, from
    nbar = 1e-300 to 1e8 at every length.
    Budgets above ``MAX_NBAR`` are refused: past about 1e215 the divisor
    e1 * root_t0 underflows to 0 and the add maps become infinite.  So are
    NaN budgets, and positions that are negative, infinite or NaN.
    """
    if not nbar >= 0 or (kind is _PSA and nbar == 0):
        raise ValueError(f"photon budget must be non-negative, and positive for "
                         f"distributed PSA; got {nbar}")
    if nbar > MAX_NBAR:
        raise ValueError(f"continuum channel maps need nbar <= MAX_NBAR = {MAX_NBAR:g}, "
                         f"got {nbar:g}")
    zs = [float(z) for z in positions_km]
    if not all(0.0 <= z < math.inf for z in zs):
        raise ValueError("positions must be finite and non-negative")
    alpha = attenuation_to_natural(alpha_db_per_km)
    if kind is not _PSA:
        rate = -alpha / (nbar + 1.0)
        mult = [math.exp(rate * z) for z in zs]
        add = [-(nbar + 0.5) * math.expm1(rate * z) for z in zs]
        return mult, add, mult, add
    total = 2.0 * nbar + 1.0
    k = 1.0 / total
    beta_sq = 2.0 * nbar / total
    beta = math.sqrt(beta_sq)
    root_k = math.sqrt(k)
    root_t0 = root_k / (1.0 + beta)
    # Per quadrature (s = +1 for I, -1 for Q): mult = exp(-s*beta*delta/2 - alpha z)
    # and add = mult * integral of (alpha/2)/mult, which is a polynomial in
    # tau = (1-u)/(1+u) times a power of it; e1, e2 = (s*beta -+ 1)/2, where
    # 1 - beta = k/(1+beta) keeps the small exponent exact.  With
    # ell = log((1+u)/(1+beta)) = -delta/2 - alpha z, the exponents
    # log(mult) = -(1 -+ beta) alpha z +- beta ell, log(mult) + e1 delta = ell
    # and log(mult) + e2 delta = -2 alpha z - ell are formed as such: none
    # cancels terms of size alpha z, so the maps keep their precision at any length.
    maps = ([], [], [], [])
    one_minus_beta = k / (1.0 + beta)
    # (mults, adds, d log(mult)/d(alpha z), d log(mult)/d ell, e1, e2) of I and Q
    quadratures = ((*maps[:2], -one_minus_beta, beta, -0.5 * one_minus_beta, 0.5 * (1.0 + beta)),
                   (*maps[2:], -(1.0 + beta), -beta, -0.5 * (1.0 + beta), 0.5 * one_minus_beta))
    for z in zs:
        az = alpha * z
        grow = -math.expm1(-2.0 * az)
        u = math.sqrt(beta_sq + k * grow)
        # u - beta = k * grow / (u + beta), without cancellation
        ell = math.log1p(k * grow / ((u + beta) * (1.0 + beta)))
        delta = -2.0 * az - 2.0 * ell
        for mults, adds, per_az, per_ell, e1, e2 in quadratures:
            mult = math.exp(per_az * az + per_ell * ell)
            mults.append(mult)
            adds.append(-(root_k / 8.0) * (
                _mult_expm1(mult, e1 * delta, ell) / (e1 * root_t0)
                - root_t0 * _mult_expm1(mult, e2 * delta, -2.0 * az - ell) / e2))
    return maps


def continuum_states(
    kind: AmpKind, scenario: Scenario, positions_km, nbar: float,
    alpha_db_per_km: float = 0.2,
) -> list[QuadState]:
    """States of the continuum at each position, from the reference input
    of ``scenario`` (``scenario_input``)."""
    if kind is _PSA and scenario is Scenario.TWO_QUADRATURE:
        raise ValueError("psa with two-quadrature detection has no continuum limit: the "
                         "phase-sensitive feedback is singular for the symmetric input")
    sig_i, sig_q, noise_i, noise_q = scenario_input(scenario, nbar).as_tuple()
    return [QuadState(sig_i * mi, sig_q * mq, noise_i * mi + ai, noise_q * mq + aq)
            for mi, ai, mq, aq in zip(*channel_maps(kind, positions_km, nbar, alpha_db_per_km))]


def distributed_rows(
    grid: list[float],
    nbar: float,
    alpha_db_per_km: float,
    kind: AmpKind,
    scenario: Scenario,
) -> list[SweepRow]:
    """Continuum (R = infinity) capacity rows at each grid distance.

    Shannon rows need only the output state.  A Gordon-Holevo row holds the
    budget along the whole link with one closed-form bound: an input of I
    variance X and Q variance T - X (T = 2*nbar + 1) has photon excess
    slope(z) * (X - 2*nbar - 1/2) at z, slope = (mult_i - mult_q)/2.  That
    is 0 for PIA and lies in [0, 1/2] for PSA (0 <= mult_q <= mult_i <= 1;
    mult_i <= 1 as the conventional state's Heisenberg-limited noise leaves
    its I signal at most 2*nbar), so the checkpoint (1, 0, 0, 1/2) of slope
    1/2, which passes I and replaces Q by vacuum, bounds every z in (0, L].
    """
    if not grid:
        return []
    if scenario is not Scenario.GORDON_HOLEVO:
        states = continuum_states(kind, scenario, grid, nbar, alpha_db_per_km)
        return [SweepRow(length, scenario, kind, None, shannon_capacity(state, scenario))
                for length, state in zip(grid, states)]
    # A row's checkpoints: the bound (PSA only), then its output map.
    bound = [[1.0], [0.0], [0.0], [0.5]] if kind is _PSA else [[], [], [], []]
    ends = channel_maps(kind, grid, nbar, alpha_db_per_km)
    rows = []
    for j, length in enumerate(grid):
        maps = [first + [end[j]] for first, end in zip(bound, ends)]
        bits = gh_capacity_for_channel(*maps, nbar).bits_per_mode
        rows.append(SweepRow(length, scenario, kind, None, bits))
    return rows


def psa_pia_crossover(
    l_min_km: float, l_max_km: float, l_step_km: float, nbar: float,
    alpha_db_per_km: float = 0.2,
) -> tuple[list[SweepRow], float]:
    """Continuum PSA (conventional detection) and PIA (two-quadrature
    detection) rows on the distance grid, and the distance where their
    capacities cross, bisected inside [l_min_km, l_max_km]."""
    pairs = ((AmpKind.PSA, Scenario.CONVENTIONAL), (AmpKind.PIA, Scenario.TWO_QUADRATURE))

    def rows_at(lengths: list[float]) -> list[list[SweepRow]]:
        return [distributed_rows(lengths, nbar, alpha_db_per_km, kind, scenario)
                for kind, scenario in pairs]

    def difference(length: float) -> float:
        (psa,), (pia,) = rows_at([length])
        return pia.capacity_bits_per_mode - psa.capacity_bits_per_mode

    lo, hi = l_min_km, l_max_km
    f_lo, f_hi = difference(lo), difference(hi)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise RuntimeError(
            f"no PSA/PIA crossover bracketed in [{lo}, {hi}] km "
            f"(difference {f_lo:.4g} -> {f_hi:.4g})"
        )
    # past about 8e12 km the midpoint can no longer split a 1e-3 km bracket
    while hi - lo > 1e-3 and lo < (mid := 0.5 * (lo + hi)) < hi:
        if difference(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    psa_rows, pia_rows = rows_at(distance_grid(l_min_km, l_max_km, l_step_km))
    return psa_rows + pia_rows, 0.5 * (lo + hi)


def closed_form_psa(
    length_km: float, nbar: float, alpha_db_per_km: float = 0.2
) -> tuple[float, float]:
    """Constant-rate approximation of the distributed-PSA I quadrature.

    Returns (signal, noise); their sum equals 2*nbar + 1/2 identically, the
    signal decaying on the 1/(4*nbar+1) attenuation scale.
    """
    if not (length_km >= 0 and nbar >= 0):
        raise ValueError(f"length and photon budget must be non-negative, "
                         f"got {length_km} and {nbar}")
    alpha = attenuation_to_natural(alpha_db_per_km)
    sig = 2.0 * nbar * math.exp(-alpha * length_km / (4.0 * nbar + 1.0))
    return sig, (2.0 * nbar + 0.5) - sig


def approx_capacity_psa(
    length_km: float, nbar: float, alpha_db_per_km: float = 0.2
) -> float:
    """Closed-form distributed-PSA capacity, valid once the vacuum half-unit
    is negligible; diverges at zero length.

    The signal fraction SNR/(1+SNR) = 1 - 2**(-2C) decays as
    exp(-alpha*L/(4*nbar)), four times more slowly than the PIA one; the
    capacity itself decays exponentially only once alpha*L/(4*nbar) >> 1.
    """
    if not length_km > 0:
        raise ValueError(f"approximation requires positive length, got {length_km}")
    if not nbar > 0:
        raise ValueError(f"photon budget must be positive, got {nbar}")
    alpha = attenuation_to_natural(alpha_db_per_km)
    return -0.5 * math.log(-math.expm1(-alpha * length_km / (4.0 * nbar))) / _LN2


def approx_capacity_pia(
    length_km: float, nbar: float, alpha_db_per_km: float = 0.2
) -> float:
    """Closed-form distributed-PIA two-quadrature capacity.

    The signal fraction SNR/(1+SNR) = 1 - 2**(-C) decays as
    exp(-alpha*L/nbar), four times faster than the PSA one at every length.
    The capacities' log-slope ratio approaches 4 only for alpha*L/(4*nbar)
    >> 1; at nbar=100 over 3000-6000 km it is about 2.6.
    """
    if not length_km > 0:
        raise ValueError(f"approximation requires positive length, got {length_km}")
    if not nbar > 0:
        raise ValueError(f"photon budget must be positive, got {nbar}")
    alpha = attenuation_to_natural(alpha_db_per_km)
    return -math.log(-math.expm1(-alpha * length_km / nbar)) / _LN2
