"""Single stages, the gain ceiling, the photon-budget audit and chi of two
variance pairs, as thin wrappers over the library's own code.

A stage is a walk of ``linkchain._walk`` over one span, or over an amplifier
between two spans of transmission 1; the ceiling is a one-amplifier walk that
records it; the audit is ``linkchain._over_budget`` with each state's index
mapped to its trace position; and chi is ``capacity._chi``.  Tests that hold
the library to ``stage_reference`` or ``gh_reference`` call these, so each
comparison runs library code on one side.
"""

from __future__ import annotations

import math

from qlink.capacity import _chi
from qlink.linkchain import _PSA, AmpKind, PropagationTrace, _over_budget, _walk
from qlink.quadmodel import QuadState


def apply_loss(state: QuadState, tau: float) -> QuadState:
    """Attenuate by power transmission ``tau``; loss mixes in vacuum noise."""
    return QuadState(*_walk(state, (tau,), (), _PSA))


def apply_psa(state: QuadState, gain: float) -> QuadState:
    """Phase-sensitive amplifier: I multiplied by ``gain``, Q divided by it."""
    return QuadState(*_walk(state, (1.0, 1.0), (gain,), _PSA))


def apply_pia(state: QuadState, gain: float) -> QuadState:
    """Phase-insensitive amplifier: both quadratures multiplied by ``gain``,
    with (gain-1)/2 added noise each."""
    return QuadState(*_walk(state, (1.0, 1.0), (gain,), AmpKind.PIA))


def ceiling(y: tuple, nbar: float, kind: AmpKind) -> float:
    """The photon budget's gain ceiling for an amplifier that receives raw state ``y``."""
    _walk(y, (1.0, 1.0), (math.inf,), kind, nbar, record=(record := []))
    return record[1]


def check_power_constraint(trace: PropagationTrace, nbar: float) -> list[tuple[float, float]]:
    """(position, excess) of every trace state over the budget ``nbar`` by more
    than the tolerance."""
    return [(trace.positions[k], excess) for k, excess in _over_budget(trace.states, nbar)]


def holevo_chi(out_total: tuple[float, float], out_noise: tuple[float, float]) -> float:
    """Holevo information of a Gaussian displacement ensemble whose average
    output has the per-quadrature variances ``out_total`` and whose single
    unmodulated output has ``out_noise``."""
    return _chi(*out_noise, out_total[0] - out_noise[0], out_total[1] - out_noise[1])
