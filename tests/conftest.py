import math

import hypothesis
import hypothesis.strategies as st

from qlink import AmpKind, LinkPlan, QuadState, Scenario, channel_checkpoints
from qlink.distributed import channel_maps
from qlink.optimizer import equidistant_saturating_plan

hypothesis.settings.register_profile("ci", max_examples=100, deadline=None)
hypothesis.settings.load_profile("ci")


@st.composite
def quad_states(draw):
    """Valid states: arbitrary signal powers over a squeezed thermal floor."""
    sig_i = draw(st.floats(0.0, 1e3))
    sig_q = draw(st.floats(0.0, 1e3))
    squeeze = draw(st.floats(-2.0, 2.0))
    thermal = draw(st.floats(0.0, 10.0))
    noise_i = (0.5 + thermal) * math.exp(-2.0 * squeeze)
    noise_q = (0.5 + thermal) * math.exp(2.0 * squeeze)
    return QuadState(sig_i, sig_q, noise_i, noise_q)


transmissions = st.floats(1e-6, 1.0)
gains = st.floats(1.0, 1e3)


@st.composite
def gh_link_channels(draw):
    """(checkpoint maps, nbar) of Gordon-Holevo links of either kind: the
    continuum (R = 0 drawn), or an equidistant seed plan of R amplifiers,
    half of them with each gain G lowered at random to G**s, 0 <= s <= 1."""
    kind = draw(st.sampled_from([AmpKind.PSA, AmpKind.PIA]))
    amps = draw(st.integers(0, 8))
    length = draw(st.floats(1.0, 6000.0))
    nbar = 10.0 ** draw(st.floats(-6.0, 5.0))
    if amps == 0:
        return channel_maps(kind, [0.0, 0.5 * length, length], nbar), nbar
    plan = equidistant_saturating_plan(length, amps, nbar, 0.2, kind, Scenario.GORDON_HOLEVO).plan
    if draw(st.booleans()):
        shares = draw(st.lists(st.floats(0.0, 1.0), min_size=amps, max_size=amps))
        plan = LinkPlan(0.2, length, nbar, plan.positions,
                        [gain ** s for gain, s in zip(plan.gains, shares)], kind)
    return channel_checkpoints(plan), nbar
