"""Discrete propagation through attenuating spans and quantum-limited amplifiers.

A link is an alternating sequence of passive fiber spans and amplifiers,
starting and ending with a span (the final span is unamplified).  Loss mixes
each quadrature with vacuum; a phase-sensitive amplifier (PSA) multiplies the
I quadrature by its gain and divides the Q quadrature, adding no excess
noise; a phase-insensitive amplifier (PIA) multiplies both quadratures and
adds the quantum-limited (gain-1)/2 noise per quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .quadmodel import QuadState, mean_photon_number

# Slack used when auditing the photon budget along a chain.
POWER_TOL = 1e-9


class AmpKind(str, Enum):
    PSA = "PSA"
    PIA = "PIA"


# Looking up an Enum member costs about 0.1 us on CPython 3.11, a large share
# of one stage; the hot paths compare against this constant instead.
_PSA = AmpKind.PSA


def attenuation_to_natural(alpha_db_per_km: float) -> float:
    """Convert a dB/km attenuation value to a per-km natural-log coefficient."""
    if alpha_db_per_km <= 0:
        raise ValueError(f"attenuation must be positive, got {alpha_db_per_km}")
    return math.log(10.0) * alpha_db_per_km / 10.0


@dataclass(frozen=True)
class SpanSpec:
    """Passive span of ``length_km`` fiber with power transmission ``tau``.

    Zero-length spans (tau = 1) are allowed so that degenerate links such as
    the identity channel can be expressed.  tau = 0 is allowed too: it is the
    correctly rounded transmission of a very long span (past about 16,180 km
    at 0.2 dB/km, exp(-alpha*L) lies below the smallest double).
    """

    length_km: float
    tau: float

    def __post_init__(self) -> None:
        if self.length_km < 0:
            raise ValueError(f"span length must be non-negative, got {self.length_km}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"transmission must lie in [0, 1], got {self.tau}")


@dataclass(frozen=True)
class AmpSpec:
    kind: AmpKind
    gain: float

    def __post_init__(self) -> None:
        if self.gain < 1.0:
            raise ValueError(f"amplifier gain must be >= 1, got {self.gain}")


def _check_amp_positions(positions: tuple[float, ...], length_km: float) -> None:
    prev = 0.0
    for pos in positions:
        if not prev < pos < length_km:
            raise ValueError(
                f"amplifier positions must be strictly increasing inside "
                f"(0, {length_km}), got {positions}"
            )
        prev = pos


@dataclass(frozen=True)
class LinkPlan:
    """A concrete link: attenuation, total length, photon budget and the
    ordered span/amplifier stages."""

    alpha_db_per_km: float
    length_km: float
    nbar: float
    stages: tuple[SpanSpec | AmpSpec, ...]

    def __post_init__(self) -> None:
        if self.length_km < 0:
            raise ValueError(f"total length must be non-negative, got {self.length_km}")
        if self.nbar < 0:
            raise ValueError(f"photon budget must be non-negative, got {self.nbar}")
        alpha = attenuation_to_natural(self.alpha_db_per_km)
        expect_span = True
        total = 0.0
        for stage in self.stages:
            if expect_span:
                if not isinstance(stage, SpanSpec):
                    raise ValueError("stages must alternate span/amplifier starting with a span")
                if not math.isclose(stage.tau, math.exp(-alpha * stage.length_km), rel_tol=1e-9):
                    raise ValueError(
                        f"span transmission {stage.tau} inconsistent with "
                        f"{self.alpha_db_per_km} dB/km over {stage.length_km} km"
                    )
                total += stage.length_km
            elif not isinstance(stage, AmpSpec):
                raise ValueError("stages must alternate span/amplifier starting with a span")
            expect_span = not expect_span
        if not self.stages or not isinstance(self.stages[-1], SpanSpec):
            raise ValueError("stage list must end with a span")
        if not math.isclose(total, self.length_km, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(f"span lengths sum to {total}, expected {self.length_km}")
        _check_amp_positions(self.amp_positions, self.length_km)

    @property
    def amp_count(self) -> int:
        return sum(1 for s in self.stages if isinstance(s, AmpSpec))

    @property
    def amp_positions(self) -> tuple[float, ...]:
        out = []
        pos = 0.0
        for stage in self.stages:
            if isinstance(stage, SpanSpec):
                pos += stage.length_km
            else:
                out.append(pos)
        return tuple(out)

    @property
    def amp_gains(self) -> tuple[float, ...]:
        return tuple(s.gain for s in self.stages if isinstance(s, AmpSpec))

    @classmethod
    def from_amp_positions(
        cls,
        alpha_db_per_km: float,
        length_km: float,
        nbar: float,
        positions: tuple[float, ...] | list[float] = (),
        gains: tuple[float, ...] | list[float] = (),
        kind: AmpKind = AmpKind.PSA,
    ) -> "LinkPlan":
        """Build a plan from amplifier positions (km from the input) and gains."""
        if len(positions) != len(gains):
            raise ValueError("positions and gains must have equal length")
        # checked before the spans are built, which would reject a negative
        # length with a less telling message
        _check_amp_positions(tuple(positions), length_km)
        alpha = attenuation_to_natural(alpha_db_per_km)
        stages: list[SpanSpec | AmpSpec] = []
        prev = 0.0
        for pos, gain in zip(positions, gains):
            seg = pos - prev
            stages.append(SpanSpec(seg, math.exp(-alpha * seg)))
            stages.append(AmpSpec(kind, gain))
            prev = pos
        seg = length_km - prev
        stages.append(SpanSpec(seg, math.exp(-alpha * seg)))
        return cls(alpha_db_per_km, length_km, nbar, tuple(stages))


@dataclass(frozen=True)
class PropagationTrace:
    """States sampled at the input, after each span and after each amplifier."""

    positions: tuple[float, ...]
    states: tuple[QuadState, ...]

    def __len__(self) -> int:
        return len(self.positions)


# One stage's arithmetic on a raw (sig_i, sig_q, noise_i, noise_q) tuple.  A
# chain prefix's channel map transforms exactly like a state, its per-quadrature
# (mult, add) taking the place of (sig, noise), so these fold both.


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


def _fold(plan: LinkPlan, y: tuple) -> tuple[list[float], list[tuple]]:
    """Positions and raw tuples at the input and after every stage."""
    positions = [0.0]
    points = [y]
    pos = 0.0
    for stage in plan.stages:
        if isinstance(stage, SpanSpec):
            y = _loss(y, stage.tau)
            pos += stage.length_km
        else:
            y = _amplify(y, stage.kind, stage.gain)
        positions.append(pos)
        points.append(y)
    return positions, points


def apply_loss(state: QuadState, tau: float) -> QuadState:
    """Attenuate by power transmission ``tau``; loss mixes in vacuum noise."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"transmission must lie in (0, 1], got {tau}")
    return QuadState(*_loss(state.as_tuple(), tau))


def apply_psa(state: QuadState, gain: float) -> QuadState:
    """Quantum-limited phase-sensitive amplifier: I quadrature multiplied by
    ``gain``, Q quadrature divided by it, no excess noise."""
    if gain < 1.0:
        raise ValueError(f"amplifier gain must be >= 1, got {gain}")
    return QuadState(*_amplify(state.as_tuple(), AmpKind.PSA, gain))


def apply_pia(state: QuadState, gain: float) -> QuadState:
    """Quantum-limited phase-insensitive amplifier: both quadratures
    multiplied by ``gain`` with (gain-1)/2 added noise each."""
    if gain < 1.0:
        raise ValueError(f"amplifier gain must be >= 1, got {gain}")
    return QuadState(*_amplify(state.as_tuple(), AmpKind.PIA, gain))


def propagate(plan: LinkPlan, state: QuadState) -> tuple[QuadState, PropagationTrace]:
    """Fold the plan's stages over ``state``; the trace records the input and
    the state after every stage."""
    positions, points = _fold(plan, state.as_tuple())
    states = (state, *[QuadState(*y) for y in points[1:]])
    return states[-1], PropagationTrace(tuple(positions), states)


def check_power_constraint(
    trace: PropagationTrace, nbar: float
) -> list[tuple[float, float]]:
    """Audit the photon budget along a trace.

    Returns (position, excess) for every trace entry whose mean photon number
    exceeds the budget by more than the tolerance.  Loss only removes photons,
    so checking the recorded points covers the whole discrete chain.
    """
    violations = []
    for pos, state in zip(trace.positions, trace.states):
        excess = mean_photon_number(state) - nbar
        if excess > POWER_TOL:
            violations.append((pos, excess))
    return violations


def max_feasible_psa_gain(state: QuadState, nbar: float) -> float:
    """Largest PSA gain that keeps the mode at or below ``nbar`` photons.

    Solves gain*(sig_i+noise_i) + (sig_q+noise_q)/gain = 2*nbar + 1 for the
    larger root, i.e. the gain that lands exactly on the budget.
    """
    power_i = state.sig_i + state.noise_i
    power_q = state.sig_q + state.noise_q
    if mean_photon_number(state) > nbar + POWER_TOL:
        raise ValueError("state already exceeds the photon budget")
    if power_i < power_q - POWER_TOL:
        raise ValueError(
            "amplified quadrature must carry at least as much power as the "
            "deamplified one"
        )
    target = 2.0 * nbar + 1.0
    disc = target * target - 4.0 * power_i * power_q
    if disc < 0.0:
        raise ValueError(f"no real gain reaches photon budget {nbar} from {state!r}")
    gain = (target + math.sqrt(disc)) / (2.0 * power_i)
    return max(gain, 1.0)


def max_feasible_pia_gain(state: QuadState, nbar: float) -> float:
    """Largest PIA gain that keeps the mode at or below ``nbar`` photons.

    A PIA of gain G maps the photon number n to G*(n+1) - 1, so the budget is
    reached at G = (nbar+1)/(n+1).
    """
    photons = mean_photon_number(state)
    if photons > nbar + POWER_TOL:
        raise ValueError("state already exceeds the photon budget")
    return max((nbar + 1.0) / (photons + 1.0), 1.0)


def max_feasible_gain(state: QuadState, nbar: float, kind: AmpKind) -> float:
    if kind is _PSA:
        return max_feasible_psa_gain(state, nbar)
    return max_feasible_pia_gain(state, nbar)


@dataclass(frozen=True)
class ChannelMap:
    """Affine per-quadrature action of a chain prefix.

    Signal powers transform multiplicatively (sig -> mult*sig) while noise
    picks up the accumulated vacuum/amplifier contributions
    (noise -> mult*noise + add).  Composition of the stage maps above.
    """

    mult_i: float = 1.0
    add_i: float = 0.0
    mult_q: float = 1.0
    add_q: float = 0.0

    def apply(self, state: QuadState) -> QuadState:
        return QuadState(
            self.mult_i * state.sig_i,
            self.mult_q * state.sig_q,
            self.mult_i * state.noise_i + self.add_i,
            self.mult_q * state.noise_q + self.add_q,
        )

    def photon_number(self, state: QuadState) -> float:
        total = (
            self.mult_i * (state.sig_i + state.noise_i) + self.add_i
            + self.mult_q * (state.sig_q + state.noise_q) + self.add_q
        )
        return total / 2.0 - 0.5


def channel_checkpoints(plan: LinkPlan) -> list[tuple[float, ChannelMap]]:
    """Affine maps from the input to every trace point of the plan.

    ``propagate(plan, s)`` visits exactly the states ``cm.apply(s)`` for the
    checkpoints returned here, which lets input ensembles be evaluated
    without re-folding the chain.
    """
    positions, points = _fold(plan, (1.0, 1.0, 0.0, 0.0))
    return [
        (pos, ChannelMap(mult_i, add_i, mult_q, add_q))
        for pos, (mult_i, mult_q, add_i, add_q) in zip(positions, points)
    ]
