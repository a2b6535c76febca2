"""Discrete propagation through attenuating spans and quantum-limited amplifiers.

A link is its amplifiers' positions and gains, all of one kind; the passive
fiber spans lie between consecutive positions, and the final span is
unamplified.  Channel maps of every chain prefix (``channel_checkpoints``)
have the layout of the continuum's ``distributed.channel_maps``.  Loss mixes
each quadrature with vacuum; a phase-sensitive amplifier (PSA) multiplies the
I quadrature by its gain and divides the Q quadrature, adding no excess
noise; a phase-insensitive amplifier (PIA) multiplies both quadratures and
adds the quantum-limited (gain-1)/2 noise per quadrature.  These stages and
the photon budget's gain ceiling are written once, in one walk of the chain on
four floats (``_walk``) that folds states and channel maps alike: a prefix's
per-quadrature (mult, add) transforms like (sig, noise).
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .quadmodel import QuadState

# Slack used when auditing the photon budget along a chain.
POWER_TOL = 1e-9
# Largest photon budget the model accepts: a power of ten well below where
# the PSA gain ceiling's (2*nbar + 1)**2 overflows (about 1.3e154) and the
# continuum's PSA channel maps underflow a divisor (about 1e215).
MAX_NBAR = 1e150


class AmpKind(str, Enum):
    PSA = "PSA"
    PIA = "PIA"


# The chain walk compares against this; an Enum lookup costs 0.1 us on CPython 3.11.
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
        for prev, pos in zip((0.0, *positions), positions):
            if not prev < pos < length_km:
                raise ValueError(f"amplifier positions must be strictly increasing inside "
                                 f"(0, {length_km}), got {positions}")
        if not all(1.0 <= gain < math.inf for gain in gains):
            raise ValueError(f"amplifier gains must be >= 1 and finite, got {gains}")
        return tuple.__new__(cls, (alpha_db_per_km, length_km, nbar, positions, gains, kind))

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace validates too


class PropagationTrace(namedtuple("PropagationTrace", "positions states")):
    """States sampled at the input, after each span and after each amplifier,
    one per position."""

    __slots__ = ()

    def __new__(cls, positions: tuple[float, ...], states: tuple[QuadState, ...]):
        if len(positions) != len(states):
            raise ValueError(f"a trace needs one state per position, got {len(positions)} "
                             f"positions and {len(states)} states")
        return tuple.__new__(cls, (positions, states))

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace validates too


def _spans(alpha: float, length_km: float, positions) -> list[float]:
    """Power transmissions of the span before each amplifier and of the final span."""
    taus, prev = [], 0.0
    for pos in positions:
        taus.append(math.exp(-alpha * (pos - prev)))
        prev = pos
    taus.append(math.exp(-alpha * (length_km - prev)))
    return taus


def _walk(y, taus, gains, kind: AmpKind, nbar=None, start: int = 0, record=None) -> tuple:
    """Raw output of the chain from raw state ``y`` at the start of span ``start``:
    span k transmits ``taus[k]`` and ends at amplifier k of gain ``gains[k]`` (the
    last, at the output), clipped to [1, max(1, the largest gain within a photon
    budget ``nbar``)] if one is given.  A ``record`` list gets the state after every
    span and amplifier and, with a budget, each amplifier's ceiling and gain first."""
    sig_i, sig_q, noise_i, noise_q = y
    psa, amps, recording, sqrt = kind is _PSA, len(gains), record is not None, math.sqrt
    if nbar is not None:
        if psa and nbar > MAX_NBAR and start < amps:
            raise ValueError(f"the PSA gain ceiling needs nbar <= MAX_NBAR = {MAX_NBAR:g}, "
                             f"got {nbar:g}")
        limit, target = nbar + POWER_TOL, 2.0 * nbar + 1.0
        target_sq = target * target
    for k in range(start, amps + 1):
        tau = taus[k]
        vac = (1.0 - tau) / 2.0
        sig_i, sig_q = tau * sig_i, tau * sig_q
        noise_i, noise_q = tau * noise_i + vac, tau * noise_q + vac
        if recording:
            record.append((sig_i, sig_q, noise_i, noise_q))
        if k == amps:
            return sig_i, sig_q, noise_i, noise_q
        gain = gains[k]
        if nbar is not None:
            photons = (sig_i + sig_q + noise_i + noise_q) / 2.0 - 0.5  # as _over_budget
            if photons > limit:
                raise ValueError("state already exceeds the photon budget")
            if psa:
                power_i, power_q = sig_i + noise_i, sig_q + noise_q
                if power_i < power_q - POWER_TOL:
                    raise ValueError("amplified quadrature must carry at least as much power "
                                     "as the deamplified one")
                disc = target_sq - 4.0 * power_i * power_q
                if disc < 0.0:
                    raise ValueError(f"no real gain reaches photon budget {nbar} from "
                                     f"{(sig_i, sig_q, noise_i, noise_q)}")
                ceiling = (target + sqrt(disc)) / (2.0 * power_i)
            else:
                ceiling = (nbar + 1.0) / (photons + 1.0)
            # min(max(gain, 1.0), max(ceiling, 1.0)) by comparisons, NaN and ties too
            ceiling = 1.0 if ceiling < 1.0 else ceiling
            gain = ceiling if ceiling < gain else (1.0 if gain < 1.0 else gain)
            if recording:
                record += ceiling, gain
        if psa:
            sig_i, sig_q = gain * sig_i, sig_q / gain
            noise_i, noise_q = gain * noise_i, noise_q / gain
        else:
            excess = (gain - 1.0) / 2.0
            sig_i, sig_q = gain * sig_i, gain * sig_q
            noise_i, noise_q = gain * noise_i + excess, gain * noise_q + excess
        if recording:
            record.append((sig_i, sig_q, noise_i, noise_q))


def _fold(plan: LinkPlan, y) -> list[tuple]:
    """Raw tuples at the input and after every span and amplifier."""
    taus = _spans(attenuation_to_natural(plan.alpha_db_per_km), plan.length_km, plan.positions)
    _walk(y, taus, plan.gains, plan.kind, record=(points := [y]))
    return points


def propagate(plan: LinkPlan, state: QuadState) -> tuple[QuadState, PropagationTrace]:
    """Fold the plan's stages over ``state``; the trace records the input and
    the state after every stage."""
    states = (state, *[QuadState(*y) for y in _fold(plan, state)[1:]])
    positions = (0.0, *sorted(plan.positions * 2), plan.length_km)  # each amplifier's twice
    return states[-1], PropagationTrace(positions, states)


def _over_budget(states, nbar: float) -> list[tuple[int, float]]:
    """(index, excess), in order, of each raw state over the budget ``nbar`` by > POWER_TOL.
    Loss only removes photons, so the states after every span and amplifier cover a chain."""
    return [(k, excess) for k, (sig_i, sig_q, noise_i, noise_q) in enumerate(states)
            if (excess := (sig_i + sig_q + noise_i + noise_q) / 2.0 - 0.5 - nbar) > POWER_TOL]


def channel_checkpoints(plan: LinkPlan) -> tuple[tuple[float, ...], ...]:
    """Channel maps (mult_i, add_i, mult_q, add_q) from the input to every
    trace point of the plan, as four tuples in the layout of
    ``distributed.channel_maps``.

    A quadrature's signal power at a point is mult * (its input signal) and
    its noise variance mult * (input noise) + add; ``propagate(plan, s)``
    visits exactly these states, which lets input ensembles be evaluated
    without re-folding the chain.
    """
    mult_i, mult_q, add_i, add_q = zip(*_fold(plan, (1.0, 1.0, 0.0, 0.0)))
    return mult_i, add_i, mult_q, add_q
