"""Continuum limit of densely spaced regeneration.

With amplifier spacing taken to zero, the chain becomes a four-variable ODE
system in the span coordinate: each quadrature's signal and noise power gains
(or loses) at the local per-km amplification rate minus the attenuation, and
loss continuously injects half a vacuum unit per attenuation constant.  The
per-km gain profile is chosen by exact algebraic feedback so that the total
photon number stays pinned at the budget, rather than by the constant-rate
shortcut.  Under that feedback the system solves in closed form
(``channel_maps``), which every continuum analysis uses.  The constant-rate
capacity approximations are provided alongside for comparison.  Positions
and channel maps are lists of Python floats.
"""

from __future__ import annotations

import math

from .capacity import Scenario, gh_capacity_for_channel, scenario_input, shannon_capacity
from .linkchain import _PSA, MAX_NBAR, AmpKind, attenuation_to_natural
from .optimizer import SweepRow, distance_grid
from .quadmodel import QuadState
from .search import illinois_root

_LN2 = math.log(2.0)


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
        raise ValueError("psa with two-quadrature detection has no continuum states: the "
                         "closed-form PSA maps are derived only for the conventional input's "
                         "feedback")
    sig_i, sig_q, noise_i, noise_q = scenario_input(scenario, nbar)
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


class NoCrossingError(ValueError):
    """The distance range brackets no PSA/PIA crossover: a fault of the input."""


def psa_pia_crossover(
    l_min_km: float, l_max_km: float, l_step_km: float, nbar: float,
    alpha_db_per_km: float = 0.2,
) -> tuple[list[SweepRow], float]:
    """Continuum PSA (conventional detection) and PIA (two-quadrature
    detection) rows on the distance grid, and the distance where their
    capacities cross inside [l_min_km, l_max_km], found by ``illinois_root`` to
    sqrt(eps) = 1.5e-8 of itself; ``NoCrossingError`` when that range brackets none."""
    pairs = ((AmpKind.PSA, Scenario.CONVENTIONAL), (AmpKind.PIA, Scenario.TWO_QUADRATURE))

    def rows_at(lengths: list[float]) -> list[list[SweepRow]]:
        return [distributed_rows(lengths, nbar, alpha_db_per_km, kind, scenario)
                for kind, scenario in pairs]

    def difference(length: float) -> float:
        (psa,), (pia,) = rows_at([length])
        return pia.capacity_bits_per_mode - psa.capacity_bits_per_mode

    f_lo, f_hi = difference(l_min_km), difference(l_max_km)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise NoCrossingError(f"no PSA/PIA crossover bracketed in [{l_min_km}, {l_max_km}] km "
                              f"(difference {f_lo:.4g} -> {f_hi:.4g})")
    # the search's own relative tolerance, sqrt(eps)*x, outweighs this positive xatol
    crossing = illinois_root(difference, l_min_km, l_max_km, 1e-9 * l_min_km)[0]
    psa_rows, pia_rows = rows_at(distance_grid(l_min_km, l_max_km, l_step_km))
    return psa_rows + pia_rows, crossing


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
