"""RK4 reference for the continuum limit of densely spaced regeneration.

The continuum is a four-variable ODE system in the span coordinate: each
quadrature's signal and noise power gains (or loses) at the local per-km
amplification rate minus the attenuation, and loss continuously injects half
a vacuum unit per attenuation constant.  The per-km gain is set by exact
algebraic feedback (``_feedback_gain``) so that the total photon number stays
pinned at the budget.  ``qlink.distributed.channel_maps`` solves this system
in closed form; this module integrates it with classical fixed-step RK4, the
oracle the tests hold the closed form to.  ``closed_form_psa`` is the
constant-rate approximation of the PSA I quadrature.  Positions,
trajectories and channel maps are lists of Python floats.
"""

from __future__ import annotations

import bisect
import math
import types

from qlink.capacity import CapacityResult, Scenario, gh_capacity_for_channel, scenario_input
from qlink.linkchain import _PSA, AmpKind, attenuation_to_natural
from qlink.quadmodel import QuadState

DEFAULT_STEP_KM = 0.1
# Distance within which a position counts as an integration sample.
GRID_TOL_KM = 1e-6
# The sampled columns of a trajectory, in the order of its raw tuples.
_COLUMNS = ("sig_i", "sig_q", "noise_i", "noise_q", "mult_i", "mult_q", "add_i", "add_q")


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
    return _feedback_gain(AmpKind.PSA, state, alpha_nat)


def feedback_gain_pia(state: QuadState, alpha_nat: float) -> float:
    """Per-km phase-insensitive gain that holds the total photon number
    fixed."""
    return _feedback_gain(AmpKind.PIA, state, alpha_nat)


class OdeProfile(types.SimpleNamespace):
    """Sampled continuum trajectory on a km grid, one list entry per sample.

    Fields: ``nbar``, ``kind``, ``alpha_db_per_km``, ``positions``, the
    columns ``sig_i``/``sig_q``/``noise_i``/``noise_q``, and ``gain_coeff``,
    the per-km feedback gain at each sample.  When the trajectory was
    integrated with channel tracking, ``mult_i``/``add_i``/``mult_q``/
    ``add_q`` give the affine input-to-sample channel maps; otherwise they
    are None.  A mutable record that compares, prints and pickles by its
    fields; its ``len()`` counts samples.
    """

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
    y = tuple(scenario_input(scenario, nbar))
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
    columns = dict.fromkeys(_COLUMNS)  # untracked maps stay None
    columns.update(zip(_COLUMNS, (list(column) for column in zip(*samples))))
    return OdeProfile(nbar=nbar, kind=kind, alpha_db_per_km=alpha_db_per_km,
                      positions=positions, gain_coeff=gammas, **columns)


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
    state is ``qlink.continuum_states``)."""
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
    y = _rk4_step(state, h, profile.kind,
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
    if not (length_km >= 0 and nbar >= 0):
        raise ValueError(f"length and photon budget must be non-negative, "
                         f"got {length_km} and {nbar}")
    alpha = attenuation_to_natural(alpha_db_per_km)
    sig = 2.0 * nbar * math.exp(-alpha * length_km / (4.0 * nbar + 1.0))
    return sig, (2.0 * nbar + 0.5) - sig
