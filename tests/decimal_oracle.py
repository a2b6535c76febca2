"""The Gordon-Holevo model in stdlib ``decimal``: an oracle independent of
``qlink.capacity``'s float arithmetic.

For an input given by its split ``p`` and squeezing ``r`` it forms the
squeezed vacuum floor, the signal power the photon budget leaves, the photon
count at every checkpoint of a channel and the Holevo information at the
channel output, the last checkpoint.  The channel maps, the budget, ``p`` and
``r`` are taken as the exact values of their doubles.  The Holevo information
is a plain difference of two thermal entropies, g(nu_total - 1/2) -
g(nu_noise - 1/2); it cancels where the signal lies far below the noise, so
the arithmetic carries ``PRECISION`` digits and refuses a cancellation that
would leave fewer than ``KEPT_DIGITS`` of them.  The exponent range is the
decimal maximum, so that no far-tail map under- or overflows.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

PRECISION = 200
KEPT_DIGITS = 40
CONTEXT = Context(prec=PRECISION, Emax=MAX_EMAX, Emin=MIN_EMIN)


def g(x: Decimal) -> Decimal:
    """Entropy in bits of a thermal state with mean photon number ``x``; a
    symplectic eigenvalue that rounding put below 1/2 counts as vacuum."""
    if x <= 0:
        return Decimal(0)
    with localcontext(CONTEXT):
        return ((x + 1) * (x + 1).ln() - x * x.ln()) / Decimal(2).ln()


def input_state(p: float, r: float, nbar: float) -> tuple[Decimal, Decimal, Decimal, Decimal]:
    """(sig_i, sig_q, noise_i, noise_q) of the input at split ``p`` and
    squeezing ``r``: the floor e^{-2r}/2, e^{2r}/2, and the signal power
    that 2*nbar + 1 leaves above it, of which the I quadrature takes ``p``."""
    with localcontext(CONTEXT):
        p, r, nbar = Decimal(p), Decimal(r), Decimal(nbar)
        noise_i = (-2 * r).exp() / 2
        noise_q = (2 * r).exp() / 2
        budget = 2 * nbar + 1 - noise_i - noise_q
        return p * budget, (1 - p) * budget, noise_i, noise_q


def photons(maps, p: float, r: float, nbar: float) -> list[Decimal]:
    """Mean photon number at every checkpoint of the channel ``maps``
    (mult_i, add_i, mult_q, add_q) for the input at (``p``, ``r``)."""
    sig_i, sig_q, noise_i, noise_q = input_state(p, r, nbar)
    with localcontext(CONTEXT):
        var_i, var_q = sig_i + noise_i, sig_q + noise_q
        return [(Decimal(mi) * var_i + Decimal(ai) + Decimal(mq) * var_q + Decimal(aq) - 1) / 2
                for mi, ai, mq, aq in zip(*maps)]


def noise_excess(maps, p: float, r: float, nbar: float) -> Decimal:
    """nu - 1/2 of one unmodulated output for the input at (``p``, ``r``): the
    output noise's excess over vacuum, in units of its symplectic eigenvalue."""
    _, _, noise_i, noise_q = input_state(p, r, nbar)
    with localcontext(CONTEXT):
        mi, ai, mq, aq = (Decimal(m[-1]) for m in maps)
        return ((mi * noise_i + ai) * (mq * noise_q + aq)).sqrt() - Decimal("0.5")


def chi(maps, p: float, r: float, nbar: float) -> Decimal:
    """Holevo information in bits at the channel output for the input at
    (``p``, ``r``): the entropy of the average output state minus that of
    one unmodulated output."""
    sig_i, sig_q, noise_i, noise_q = input_state(p, r, nbar)
    with localcontext(CONTEXT):
        mi, ai, mq, aq = (Decimal(m[-1]) for m in maps)
        out_i = mi * (noise_i + sig_i) + ai
        out_q = mq * (noise_q + sig_q) + aq
        total = g((out_i * out_q).sqrt() - Decimal("0.5"))
        value = total - g(noise_excess(maps, p, r, nbar))
        if value > 0 and total > value * Decimal(10) ** (PRECISION - KEPT_DIGITS):
            raise ArithmeticError(f"chi = {value:.3e} cancels more than "
                                  f"{PRECISION - KEPT_DIGITS} digits of {total:.3e}")
        return value
