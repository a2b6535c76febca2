"""Reference stage algebra: the chain as three per-stage functions.

This is ``linkchain``'s loss, amplifier and gain-ceiling stages as separate
functions on raw (sig_i, sig_q, noise_i, noise_q) tuples, the fold of a plan
over them, and the optimizer's gain repair and Shannon trial as loops over
those stages, with the same checks in the same order.  ``qlink`` walks the
chain in one loop on four floats instead; the tests hold the two to equal
``float.hex`` outputs and the same errors.

The Gordon-Holevo capacity of a plan is composed here as objects: a
validated ``LinkPlan``, its channel maps, the search, and the winning input
propagated as ``QuadState``s into a ``PropagationTrace`` that the photon
budget audit walks.  ``qlink``'s ``gh_capacity`` composes it so too; only
the optimizer's trials search on raw tuples, unaudited.  ``plan_capacity``
scores a plan under any scenario from these parts.
"""

from __future__ import annotations

import math

from qlink import capacity
from qlink.capacity import GHSearchError, Scenario, scenario_input, shannon_capacity
from qlink.linkchain import (
    _PSA,
    MAX_NBAR,
    POWER_TOL,
    AmpKind,
    LinkPlan,
    PropagationTrace,
    attenuation_to_natural,
)
from qlink.quadmodel import QuadState, check_moments


def mean_photon_number(state: QuadState) -> float:
    """Mean photon number of the mode; vacuum carries zero photons."""
    total = state.sig_i + state.sig_q + state.noise_i + state.noise_q
    return total / 2.0 - 0.5


def vacuum_state() -> QuadState:
    """The empty field: no signal, vacuum noise in both quadratures."""
    return QuadState(0.0, 0.0, 0.5, 0.5)


def _loss(y: tuple, tau: float) -> tuple:
    sig_i, sig_q, noise_i, noise_q = y
    vac = (1.0 - tau) / 2.0
    return (tau * sig_i, tau * sig_q, tau * noise_i + vac, tau * noise_q + vac)


def _amplify(y: tuple, kind: AmpKind, gain: float) -> tuple:
    sig_i, sig_q, noise_i, noise_q = y
    if kind is _PSA:
        return (gain * sig_i, sig_q / gain, gain * noise_i, noise_q / gain)
    excess = (gain - 1.0) / 2.0
    return (gain * sig_i, gain * sig_q, gain * noise_i + excess, gain * noise_q + excess)


def _ceiling(y: tuple, nbar: float, kind: AmpKind) -> float:
    if kind is _PSA and nbar > MAX_NBAR:
        raise ValueError(f"the PSA gain ceiling needs nbar <= MAX_NBAR = {MAX_NBAR:g}, "
                         f"got {nbar:g}")
    sig_i, sig_q, noise_i, noise_q = y
    photons = (sig_i + sig_q + noise_i + noise_q) / 2.0 - 0.5  # as mean_photon_number
    if photons > nbar + POWER_TOL:
        raise ValueError("state already exceeds the photon budget")
    if kind is _PSA:
        power_i = sig_i + noise_i
        power_q = sig_q + noise_q
        if power_i < power_q - POWER_TOL:
            raise ValueError("amplified quadrature must carry at least as much power as the "
                             "deamplified one")
        target = 2.0 * nbar + 1.0
        disc = target * target - 4.0 * power_i * power_q
        if disc < 0.0:
            raise ValueError(f"no real gain reaches photon budget {nbar} from {y}")
        ceiling = (target + math.sqrt(disc)) / (2.0 * power_i)
    else:
        ceiling = (nbar + 1.0) / (photons + 1.0)
    return 1.0 if ceiling < 1.0 else ceiling  # as max(ceiling, 1.0), NaN and ties too


def _fold(plan: LinkPlan, y: tuple) -> tuple[list[float], list[tuple]]:
    """Positions and raw tuples at the input and after every span and
    amplifier."""
    alpha = attenuation_to_natural(plan.alpha_db_per_km)
    positions = [0.0]
    points = [y]
    prev = 0.0
    for pos, gain in zip(plan.positions, plan.gains):
        y = _loss(y, math.exp(-alpha * (pos - prev)))
        points.append(y)
        y = _amplify(y, plan.kind, gain)
        points.append(y)
        positions += [pos, pos]
        prev = pos
    positions.append(plan.length_km)
    points.append(_loss(y, math.exp(-alpha * (plan.length_km - prev))))
    return positions, points


def propagate(plan: LinkPlan, state: QuadState) -> tuple[QuadState, PropagationTrace]:
    positions, points = _fold(plan, tuple(state))
    states = (state, *[QuadState(*y) for y in points[1:]])
    return states[-1], PropagationTrace(tuple(positions), states)


def channel_checkpoints(plan: LinkPlan) -> tuple[tuple[float, ...], ...]:
    _, points = _fold(plan, (1.0, 1.0, 0.0, 0.0))
    mult_i, mult_q, add_i, add_q = (tuple(column) for column in zip(*points))
    return mult_i, add_i, mult_q, add_q


def check_power_constraint(trace: PropagationTrace, nbar: float) -> list[tuple[float, float]]:
    violations = []
    for pos, state in zip(trace.positions, trace.states):
        excess = mean_photon_number(state) - nbar
        if excess > POWER_TOL:
            violations.append((pos, excess))
    return violations


def gh_capacity(plan: LinkPlan) -> capacity.CapacityResult:
    """The search on the plan's channel maps, looked up in ``capacity`` at call time so
    that a test can replace it, then the audit of the winning input's trace."""
    result = capacity.gh_capacity_for_channel(*channel_checkpoints(plan), plan.nbar)
    _, trace = propagate(plan, result.achieving_input)
    violations = check_power_constraint(trace, plan.nbar)
    if violations:
        raise GHSearchError(f"achieving input violates the photon budget at {violations[0]}",
                            result.bits_per_mode)
    return result


def plan_capacity(plan: LinkPlan, scenario: Scenario) -> capacity.CapacityResult:
    """Capacity of a plan under the requested detection scenario."""
    if scenario is Scenario.GORDON_HOLEVO:
        return gh_capacity(plan)
    state = scenario_input(scenario, plan.nbar)
    out, _ = propagate(plan, state)
    return capacity.CapacityResult(shannon_capacity(out, scenario), state)


class PlanScorer:
    """The optimizer's gain repair, scoring and Shannon trial over the
    per-stage functions."""

    def __init__(self, length_km, nbar, alpha_db_per_km, kind, scenario):
        self.length_km = length_km
        self.nbar = nbar
        self.alpha_db_per_km = alpha_db_per_km
        self.alpha_nat = attenuation_to_natural(alpha_db_per_km)
        self.kind = kind
        self.scenario = scenario
        self.ref_input = tuple(scenario_input(scenario, nbar))
        self.gh = scenario is Scenario.GORDON_HOLEVO

    def repair_gains(self, positions, gains) -> tuple[list, list, list, tuple]:
        y, prev = self.ref_input, 0.0
        repaired, ceilings, states = [], [], []
        for pos, gain in zip(positions, gains):
            y = _loss(y, math.exp(-self.alpha_nat * (pos - prev)))
            ceiling = _ceiling(y, self.nbar, self.kind)
            gain = min(max(gain, 1.0), ceiling)
            repaired.append(gain)
            ceilings.append(ceiling)
            y = _amplify(y, self.kind, gain)
            states.append(y)
            prev = pos
        y = _loss(y, math.exp(-self.alpha_nat * (self.length_km - prev)))
        return repaired, ceilings, states, y

    def score(self, positions, gains) -> tuple[float, list[float]]:
        gains, _, _, out = self.repair_gains(positions, gains)
        if self.gh:
            plan = LinkPlan(self.alpha_db_per_km, self.length_km, self.nbar,
                            positions, gains, self.kind)
            return gh_capacity(plan).bits_per_mode, gains
        check_moments(*out)
        return shannon_capacity(out, self.scenario), gains

    def trial_score(self, positions, gains, start, y) -> float:
        if self.gh:
            return self.score(positions, gains)[0]
        prev = positions[start - 1] if start else 0.0
        for pos, gain in zip(positions[start:], gains[start:]):
            y = _loss(y, math.exp(-self.alpha_nat * (pos - prev)))
            ceiling = _ceiling(y, self.nbar, self.kind)
            # repair_gains' min(max(gain, 1.0), ceiling), NaN and ties included
            gain = 1.0 if gain < 1.0 else gain
            y = _amplify(y, self.kind, ceiling if ceiling < gain else gain)
            prev = pos
        y = _loss(y, math.exp(-self.alpha_nat * (self.length_km - prev)))
        check_moments(*y)
        return shannon_capacity(y, self.scenario)
