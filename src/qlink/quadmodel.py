"""Single-mode quadrature statistics in vacuum units.

A field mode is described by the signal (modulation) power and the quantum
noise variance of each quadrature.  Units are chosen so that the vacuum
noise variance is 1/2 per quadrature; all powers are dimensionless.
"""

from __future__ import annotations

from collections import namedtuple

VACUUM_VARIANCE = 0.5

# Minimum allowed noise-variance product, with a small tolerance so that
# long chains of floating-point stage updates do not trip spurious errors.
# Violations beyond the tolerance raise: clamping would hide model bugs.
HEISENBERG_LIMIT = 0.25
HEISENBERG_TOL = 1e-12


class QuadState(namedtuple("QuadState", "sig_i sig_q noise_i noise_q")):
    """Second moments of one optical mode: per-quadrature signal power and
    noise variance, an immutable tuple in that order."""

    __slots__ = ()

    def __new__(cls, sig_i: float, sig_q: float, noise_i: float, noise_q: float):
        check_moments(sig_i, sig_q, noise_i, noise_q)
        return tuple.__new__(cls, (sig_i, sig_q, noise_i, noise_q))

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace validates too


def check_moments(sig_i: float, sig_q: float, noise_i: float, noise_q: float) -> None:
    """Raise ``ValueError`` unless the moments describe a physical mode; every
    ``QuadState`` is checked here.  Written so that a NaN fails the checks."""
    if not (sig_i >= 0.0 and sig_q >= 0.0):
        raise ValueError(f"signal powers must be non-negative, got "
                         f"sig_i={sig_i}, sig_q={sig_q}")
    if not (noise_i > 0.0 and noise_q > 0.0):
        raise ValueError(f"noise variances must be positive, got "
                         f"noise_i={noise_i}, noise_q={noise_q}")
    product = noise_i * noise_q
    if product < HEISENBERG_LIMIT - HEISENBERG_TOL:
        raise ValueError(f"uncertainty product noise_i*noise_q = {product} "
                         f"is below the Heisenberg limit {HEISENBERG_LIMIT}")
    if (sig_i + sig_q + noise_i + noise_q) / 2.0 - 0.5 < -HEISENBERG_TOL:  # as mean_photon_number
        raise ValueError(f"negative mean photon number for (sig_i, sig_q, noise_i, noise_q) = "
                         f"{(sig_i, sig_q, noise_i, noise_q)}")


def mean_photon_number(state: QuadState) -> float:
    """Mean photon number of the mode; vacuum carries zero photons."""
    total = state.sig_i + state.sig_q + state.noise_i + state.noise_q
    return total / 2.0 - 0.5


def vacuum_state() -> QuadState:
    """The empty field: no signal, vacuum noise in both quadratures."""
    return QuadState(0.0, 0.0, VACUUM_VARIANCE, VACUUM_VARIANCE)


def conventional_input(nbar: float) -> QuadState:
    """Ideal laser input carrying ``nbar`` photons, all modulation in the I
    quadrature, vacuum noise in both quadratures."""
    if nbar < 0:
        raise ValueError(f"mean photon number must be non-negative, got {nbar}")
    return QuadState(2.0 * nbar, 0.0, VACUUM_VARIANCE, VACUUM_VARIANCE)


def symmetric_coherent_input(nbar: float) -> QuadState:
    """Coherent input with the photon budget split evenly between both
    quadratures (used by two-quadrature detection scenarios)."""
    if nbar < 0:
        raise ValueError(f"mean photon number must be non-negative, got {nbar}")
    return QuadState(nbar, nbar, VACUUM_VARIANCE, VACUUM_VARIANCE)

