"""Reference arithmetic of the photon budget's gain ceiling.

This is ``linkchain._ceiling`` as it clipped with the ``max`` builtin, with
the same checks in the same order.  ``qlink.linkchain`` clips with a
comparison instead; the tests hold the two equal with ``==``, NaN and ties
included, and check that both raise the same errors.
"""

from __future__ import annotations

import math

from qlink.linkchain import _PSA, MAX_NBAR, POWER_TOL


def ceiling(y, nbar, kind):
    if kind is _PSA and nbar > MAX_NBAR:
        raise ValueError(f"the PSA gain ceiling needs nbar <= MAX_NBAR = {MAX_NBAR:g}, "
                         f"got {nbar:g}")
    sig_i, sig_q, noise_i, noise_q = y
    photons = (sig_i + sig_q + noise_i + noise_q) / 2.0 - 0.5
    if photons > nbar + POWER_TOL:
        raise ValueError("state already exceeds the photon budget")
    if kind is not _PSA:
        return max((nbar + 1.0) / (photons + 1.0), 1.0)
    power_i = sig_i + noise_i
    power_q = sig_q + noise_q
    if power_i < power_q - POWER_TOL:
        raise ValueError("amplified quadrature must carry at least as much power as the "
                         "deamplified one")
    target = 2.0 * nbar + 1.0
    disc = target * target - 4.0 * power_i * power_q
    if disc < 0.0:
        raise ValueError(f"no real gain reaches photon budget {nbar} from {y}")
    return max((target + math.sqrt(disc)) / (2.0 * power_i), 1.0)
