"""Discrete propagation through attenuating spans and quantum-limited amplifiers.

A link is its amplifiers' positions and gains, all of one kind; the passive
fiber spans lie between consecutive positions, and the final span is
unamplified.  Channel maps of every chain prefix (``channel_checkpoints``)
have the layout of the continuum's ``distributed.channel_maps``.  Loss mixes
each quadrature with vacuum; a phase-sensitive amplifier (PSA) multiplies the
I quadrature by its gain and divides the Q quadrature, adding no excess
noise; a phase-insensitive amplifier (PIA) multiplies both quadratures and
adds the quantum-limited (gain-1)/2 noise per quadrature.  These stages and
the photon budget's gain ceiling are written once, on raw tuples, and the
public functions wrap them for ``QuadState`` values.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .quadmodel import QuadState, mean_photon_number

# Slack used when auditing the photon budget along a chain.
POWER_TOL = 1e-9
# Largest photon budget the model accepts: a power of ten well below where
# the PSA gain ceiling's (2*nbar + 1)**2 overflows (about 1.3e154) and the
# continuum's PSA channel maps underflow a divisor (about 1e215).
MAX_NBAR = 1e150


class AmpKind(str, Enum):
    PSA = "PSA"
    PIA = "PIA"


# Looking up an Enum member costs about 0.1 us on CPython 3.11, a large share
# of one stage; the hot paths compare against this constant instead.
_PSA = AmpKind.PSA


def attenuation_to_natural(alpha_db_per_km: float) -> float:
    """Convert a dB/km attenuation value to a per-km natural-log coefficient."""
    if not 0 < alpha_db_per_km < math.inf:
        raise ValueError(f"attenuation must be positive and finite, got {alpha_db_per_km}")
    return math.log(10.0) * alpha_db_per_km / 10.0


class LinkPlan(namedtuple("LinkPlan", "alpha_db_per_km length_km nbar positions gains kind")):
    """A concrete link: attenuation, total length, photon budget, and the
    positions (km from the input) and gains of its amplifiers, all of one
    kind.  The fiber spans lie between consecutive positions; the last span
    is unamplified.  A span's transmission exp(-alpha*length) may round to
    0.0 (past about 16,180 km at 0.2 dB/km), which leaves vacuum behind it.
    """

    __slots__ = ()

    def __new__(cls, alpha_db_per_km: float, length_km: float, nbar: float,
                positions: tuple[float, ...] = (), gains: tuple[float, ...] = (),
                kind: AmpKind = AmpKind.PSA):
        if not length_km >= 0:
            raise ValueError(f"total length must be non-negative, got {length_km}")
        if not 0 <= nbar < math.inf:
            raise ValueError(f"photon budget must be non-negative and finite, got {nbar}")
        attenuation_to_natural(alpha_db_per_km)
        positions, gains = tuple(positions), tuple(gains)
        if len(positions) != len(gains):
            raise ValueError("positions and gains must have equal length")
        prev = 0.0
        for pos in positions:
            if not prev < pos < length_km:
                raise ValueError(
                    f"amplifier positions must be strictly increasing inside "
                    f"(0, {length_km}), got {positions}"
                )
            prev = pos
        if not all(1.0 <= gain < math.inf for gain in gains):
            raise ValueError(f"amplifier gains must be >= 1 and finite, got {gains}")
        return tuple.__new__(cls, (alpha_db_per_km, length_km, nbar, positions, gains, kind))

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace validates too


class Record:
    """Equality, repr and pickling for the value classes that are not tuples,
    over their ``__slots__``, which list the constructor's parameters in order."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return isinstance(other, Record) and self.__reduce__() == other.__reduce__()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class PropagationTrace(Record):
    """States sampled at the input, after each span and after each amplifier."""

    __slots__ = ("positions", "states")

    def __init__(self, positions: tuple[float, ...], states: tuple[QuadState, ...]):
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "states", states)

    def __setattr__(self, name, value=None):  # frozen
        raise AttributeError(f"cannot assign to field '{name}'")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __len__(self) -> int:
        return len(self.positions)


# The stage algebra on a raw (sig_i, sig_q, noise_i, noise_q) tuple: loss, gain
# and the photon budget's gain ceiling.  A chain prefix's channel map transforms
# exactly like a state, its per-quadrature (mult, add) taking the place of
# (sig, noise), so _loss and _amplify fold both.


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
    return _ceiling(state.as_tuple(), nbar, AmpKind.PSA)


def max_feasible_pia_gain(state: QuadState, nbar: float) -> float:
    """Largest PIA gain that keeps the mode at or below ``nbar`` photons.

    A PIA of gain G maps the photon number n to G*(n+1) - 1, so the budget is
    reached at G = (nbar+1)/(n+1).
    """
    return _ceiling(state.as_tuple(), nbar, AmpKind.PIA)


def channel_checkpoints(plan: LinkPlan) -> tuple[list[float], ...]:
    """Channel maps (mult_i, add_i, mult_q, add_q) from the input to every
    trace point of the plan, as four lists in the layout of
    ``distributed.channel_maps``.

    A quadrature's signal power at a point is mult * (its input signal) and
    its noise variance mult * (input noise) + add; ``propagate(plan, s)``
    visits exactly these states, which lets input ensembles be evaluated
    without re-folding the chain.
    """
    _, points = _fold(plan, (1.0, 1.0, 0.0, 0.0))
    mult_i, mult_q, add_i, add_q = (list(column) for column in zip(*points))
    return mult_i, add_i, mult_q, add_q
