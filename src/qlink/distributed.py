"""Continuum limit of densely spaced regeneration.

With amplifier spacing taken to zero, the chain becomes a four-variable ODE
system in the span coordinate: each quadrature's signal and noise power gains
(or loses) at the local per-km amplification rate minus the attenuation, and
loss continuously injects half a vacuum unit per attenuation constant.  The
per-km gain profile is chosen by exact algebraic feedback so that the total
photon number stays pinned at the budget, rather than by the constant-rate
shortcut; the closed-form approximations of both are provided alongside for
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import CapacityResult, Scenario, gh_capacity_for_channel, scenario_input
from .linkchain import _PSA, AmpKind, attenuation_to_natural
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


@dataclass
class OdeProfile:
    """Sampled continuum trajectory on a km grid.

    ``gain_coeff`` holds the per-km feedback gain at each sample.  When the
    trajectory was integrated with channel tracking, ``mult_i``/``add_i``/
    ``mult_q``/``add_q`` give the affine input-to-sample channel maps.
    """

    nbar: float
    kind: AmpKind
    alpha_db_per_km: float
    positions: np.ndarray
    sig_i: np.ndarray
    sig_q: np.ndarray
    noise_i: np.ndarray
    noise_q: np.ndarray
    gain_coeff: np.ndarray
    mult_i: np.ndarray | None = None
    add_i: np.ndarray | None = None
    mult_q: np.ndarray | None = None
    add_q: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.positions)

    def state_at(self, index: int) -> QuadState:
        return QuadState(
            float(self.sig_i[index]),
            float(self.sig_q[index]),
            float(self.noise_i[index]),
            float(self.noise_q[index]),
        )

    @property
    def final_state(self) -> QuadState:
        return self.state_at(len(self) - 1)

    def photon_numbers(self) -> np.ndarray:
        total = self.sig_i + self.sig_q + self.noise_i + self.noise_q
        return total / 2.0 - 0.5

    def index_at(self, position_km: float, tol: float = GRID_TOL_KM) -> int:
        idx = int(np.argmin(np.abs(self.positions - position_km)))
        if abs(float(self.positions[idx]) - position_km) > tol:
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


def _integrate(
    kind: AmpKind,
    scenario: Scenario,
    length_km: float,
    nbar: float,
    alpha_db_per_km: float,
    step_km: float,
    track_channel: bool,
) -> OdeProfile:
    if step_km <= 0:
        raise ValueError(f"step must be positive, got {step_km}")
    if length_km < 0:
        raise ValueError(f"length must be non-negative, got {length_km}")
    alpha = attenuation_to_natural(alpha_db_per_km)
    y = scenario_input(scenario, nbar).as_tuple()
    if track_channel:
        y = y + (1.0, 1.0, 0.0, 0.0)  # identity map: (mult_i, mult_q, add_i, add_q)

    n_full = int(math.floor(length_km / step_km + 1e-9))
    remainder = length_km - n_full * step_km
    steps = [step_km] * n_full + ([remainder] if remainder > 1e-12 else [])

    positions = [0.0]
    samples = [y]
    pos = 0.0
    for h in steps:
        try:
            y = _rk4_step(y, h, kind, alpha)
        except ValueError as err:
            raise IntegrationError(f"{err} at {pos} km", pos) from err
        pos += h
        positions.append(pos)
        samples.append(y)
    if positions[-1] != length_km and abs(positions[-1] - length_km) < 1e-9:
        positions[-1] = length_km

    arr = np.asarray(samples, dtype=float)
    try:
        gammas = np.asarray([_feedback_gain(kind, s, alpha) for s in samples])
    except ValueError as err:
        raise IntegrationError(f"{err} at {positions[-1]} km", positions[-1]) from err
    channel = {}
    if track_channel:
        channel = dict(
            mult_i=arr[:, 4], mult_q=arr[:, 5], add_i=arr[:, 6], add_q=arr[:, 7]
        )
    return OdeProfile(
        nbar=nbar,
        kind=kind,
        alpha_db_per_km=alpha_db_per_km,
        positions=np.asarray(positions),
        sig_i=arr[:, 0],
        sig_q=arr[:, 1],
        noise_i=arr[:, 2],
        noise_q=arr[:, 3],
        gain_coeff=gammas,
        **channel,
    )


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

    Classical fixed-step RK4; the feedback gain is re-evaluated at every
    stage point, so the total photon number is conserved to the integrator's
    order.
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
    ``scenario`` (``scenario_input``); the feedback holds the total photon
    number fixed."""
    return _integrate(AmpKind.PIA, scenario, length_km, nbar, alpha_db_per_km,
                      step_km, track_channel)


def state_at_position(profile: OdeProfile, position_km: float) -> QuadState:
    """State at an arbitrary position along a trajectory, taken with one RK4
    sub-step from the nearest grid sample at or below it."""
    if position_km < 0 or position_km > float(profile.positions[-1]) + 1e-9:
        raise ValueError(
            f"{position_km} km lies outside the integrated range "
            f"[0, {float(profile.positions[-1])}]"
        )
    idx = max(int(np.searchsorted(profile.positions, position_km + 1e-12)) - 1, 0)
    state = profile.state_at(idx)
    h = position_km - float(profile.positions[idx])
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


def closed_form_psa(
    length_km: float, nbar: float, alpha_db_per_km: float = 0.2
) -> tuple[float, float]:
    """Constant-rate approximation of the distributed-PSA I quadrature.

    Returns (signal, noise); their sum equals 2*nbar + 1/2 identically, the
    signal decaying on the 1/(4*nbar+1) attenuation scale.
    """
    if length_km < 0:
        raise ValueError(f"length must be non-negative, got {length_km}")
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
    if length_km <= 0:
        raise ValueError(f"approximation requires positive length, got {length_km}")
    if nbar <= 0:
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
    if length_km <= 0:
        raise ValueError(f"approximation requires positive length, got {length_km}")
    if nbar <= 0:
        raise ValueError(f"photon budget must be positive, got {nbar}")
    alpha = attenuation_to_natural(alpha_db_per_km)
    return -math.log(-math.expm1(-alpha * length_km / nbar)) / _LN2
