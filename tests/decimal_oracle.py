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

The discrete chain is folded here too, from a plan's positions and gains:
loss, PSA and PIA stages on (sig_i, sig_q, noise_i, noise_q), which on the
unit lane (1, 1, 0, 0) gives the exact channel maps, and both Shannon rates
of a folded output.  Given a photon budget, the fold clips each gain to
[1, ceiling], the ceiling computed from its own folded state; without one it
takes the gains as given, as a returned plan's gains are already repaired.
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


def ceiling(state, nbar: float, kind: str) -> Decimal:
    """The largest gain, and at least 1, of an amplifier of ``kind`` ("PSA" or
    "PIA") that leaves the mode ``state`` within the photon budget ``nbar``:
    the larger root G of G*(sig_i + noise_i) + (sig_q + noise_q)/G =
    2*nbar + 1 for a PSA, and (nbar + 1)/(n + 1) for a PIA, where n is the
    state's photon number."""
    sig_i, sig_q, noise_i, noise_q = state
    with localcontext(CONTEXT):
        nbar = Decimal(nbar)
        if kind == "PSA":
            power_i, power_q = sig_i + noise_i, sig_q + noise_q
            target = 2 * nbar + 1
            top = (target + (target * target - 4 * power_i * power_q).sqrt()) / (2 * power_i)
        else:
            top = (nbar + 1) / ((sig_i + sig_q + noise_i + noise_q + 1) / 2)
        return max(top, Decimal(1))


def fold(alpha_db_per_km: float, length_km: float, positions, gains, kind: str,
         state, nbar: float | None = None) -> list[tuple[Decimal, Decimal, Decimal, Decimal]]:
    """``state`` at the input and after every span and amplifier of the link
    whose amplifiers of ``kind`` ("PSA" or "PIA") sit at ``positions`` with
    ``gains``, each clipped to [1, ``ceiling``] if a budget ``nbar`` is given;
    the last span, to ``length_km``, is unamplified.  A span of length d
    transmits 10^(-alpha*d/10) of the power and mixes in vacuum."""
    with localcontext(CONTEXT):
        alpha = Decimal(10).ln() * Decimal(alpha_db_per_km) / 10
        sig_i, sig_q, noise_i, noise_q = (Decimal(x) for x in state)
        points = [(sig_i, sig_q, noise_i, noise_q)]
        ends = [*positions, length_km]
        for k, (prev, end) in enumerate(zip([0.0, *positions], ends)):
            tau = (-alpha * (Decimal(end) - Decimal(prev))).exp()
            vac = (1 - tau) / 2
            sig_i, sig_q = tau * sig_i, tau * sig_q
            noise_i, noise_q = tau * noise_i + vac, tau * noise_q + vac
            points.append((sig_i, sig_q, noise_i, noise_q))
            if k == len(positions):
                return points
            gain = Decimal(gains[k])
            if nbar is not None:
                top = ceiling((sig_i, sig_q, noise_i, noise_q), nbar, kind)
                gain = min(max(gain, Decimal(1)), top)
            if kind == "PSA":
                sig_i, sig_q = gain * sig_i, sig_q / gain
                noise_i, noise_q = gain * noise_i, noise_q / gain
            else:
                excess = (gain - 1) / 2
                sig_i, sig_q = gain * sig_i, gain * sig_q
                noise_i, noise_q = gain * noise_i + excess, gain * noise_q + excess
            points.append((sig_i, sig_q, noise_i, noise_q))


def _log2_1p(x: Decimal) -> Decimal:
    """log2(1 + x), by its series where 1 + x would round away most of ``x``."""
    with localcontext(CONTEXT):
        if x < Decimal(10) ** -(PRECISION // 4):
            ln = x - x * x / 2 + x * x * x / 3
        else:
            ln = (1 + x).ln()
        return ln / Decimal(2).ln()


def conventional_rate(state) -> Decimal:
    """Shannon rate in bits of ideal homodyne detection of the I quadrature."""
    sig_i, _, noise_i, _ = state
    with localcontext(CONTEXT):
        return _log2_1p(sig_i / noise_i) / 2


def two_quadrature_rate(state) -> Decimal:
    """Shannon rate in bits of detecting both quadratures at once, each with
    half a vacuum unit of measurement noise added."""
    sig_i, sig_q, noise_i, noise_q = state
    with localcontext(CONTEXT):
        half = Decimal("0.5")
        return (_log2_1p(sig_i / (noise_i + half)) + _log2_1p(sig_q / (noise_q + half))) / 2
