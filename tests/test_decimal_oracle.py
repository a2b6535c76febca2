"""The Gordon-Holevo search, the chain's channel maps and the optimizer's
Shannon scores checked against the decimal oracle."""

import math
import sys
from decimal import Decimal

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, given, settings

import decimal_oracle
from conftest import gh_link_channels
from qlink import AmpKind, Scenario, channel_checkpoints, optimize_plan
from qlink.capacity import _GhChannel, _gh_optimum, gh_capacity_for_channel
from qlink.linkchain import POWER_TOL, _spans, _walk, attenuation_to_natural

# Steps to the neighbouring inputs, in the split p and in the squeezing r
# (the latter as shares of r_cap).
_STEPS = (1e-3, 1e-6)
# Smallest output noise excess over vacuum, b = nu - 1/2, at which the value
# and the optimality are checked.  The search forms the output noise
# variances as doubles near 1/2, so it knows b only to about 2e-16, which
# moves chi by about 2e-16/(b*ln(1/b)) relative: at most 2.4e-13 from
# b = 1e-4 on.  Below that the search's value drifts from the oracle's, and
# below about 1e-16 it loses b altogether (CHANGES.md, FOUND on
# ``_GhChannel.chi``).  At a large b float chi errs the other way: its
# (b+1)*log1p(d/(b+1)) - b*log1p(d/b) cancels, by -1.5e-12 relative at
# b = 4618 (CHANGES.md, FOUND on ``_chi``), so the 1e-12 bound below holds
# on these draws, not at every b.
_RESOLVED_EXCESS = Decimal("1e-4")


@settings(derandomize=True, max_examples=300)
@given(gh_link_channels())
def test_returned_input_meets_the_budget_and_is_the_oracle_optimum(channel_data):
    # The oracle's budget holds at every checkpoint for the returned (p, r);
    # where the output noise is resolved, the oracle's chi there is the
    # returned value, and no input next to it that meets the search's own
    # budget does better.
    maps, nbar = channel_data
    channel = _GhChannel(*maps, nbar)
    value, p, r = _gh_optimum(channel)
    assert gh_capacity_for_channel(*maps, nbar).bits_per_mode == max(value, 0.0)
    assert max(decimal_oracle.photons(maps, p, r, nbar)) <= Decimal(nbar) + Decimal(POWER_TOL)
    if decimal_oracle.noise_excess(maps, p, r, nbar) < _RESOLVED_EXCESS:
        return
    exact = decimal_oracle.chi(maps, p, r, nbar)
    assert abs(Decimal(value) - exact) <= Decimal(1e-12) * exact
    r_cap = math.asinh(math.sqrt(nbar))
    slack = Decimal(nbar) + Decimal(0.5 * POWER_TOL)
    for step in _STEPS:
        for p_near, r_near in ((p - step, r), (p + step, r),
                               (p, r - step * r_cap), (p, r + step * r_cap)):
            if (0.0 <= p_near <= 1.0 and abs(r_near) < r_cap
                    and max(decimal_oracle.photons(maps, p_near, r_near, nbar)) <= slack):
                assert decimal_oracle.chi(maps, p_near, r_near, nbar) <= exact * Decimal(1 + 1e-12)


# Each Shannon scenario's reference input at budget nbar, and its oracle rate.
_SHANNON = {
    Scenario.CONVENTIONAL: (lambda nbar: (2.0 * nbar, 0.0, 0.5, 0.5),
                            decimal_oracle.conventional_rate),
    Scenario.TWO_QUADRATURE: (lambda nbar: (nbar, nbar, 0.5, 0.5),
                              decimal_oracle.two_quadrature_rate),
}
_ALPHA = 0.2


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(AmpKind), st.sampled_from(list(_SHANNON)), st.floats(-3.0, 5.0),
       st.floats(1.0, 2000.0), st.integers(0, 8))
def test_chain_maps_and_shannon_scores_match_the_decimal_fold(kind, scenario, log_nbar,
                                                               length, amps):
    # The optimized plan's channel maps are the oracle's fold of its positions
    # and gains, and its score is the oracle's rate of the reference input
    # folded through it.  The maps carry one rounding per stage, so the add
    # terms are held to 1e-14 of their size or of vacuum's 1/2, whichever is
    # larger.
    nbar = 10.0 ** log_nbar
    best = optimize_plan(length, amps, nbar, _ALPHA, kind, scenario)
    positions, gains = best.plan.positions, best.plan.gains
    exact_maps = decimal_oracle.fold(_ALPHA, length, positions, gains, kind, (1, 1, 0, 0))
    mult_i, add_i, mult_q, add_q = channel_checkpoints(best.plan)
    assert len(mult_i) == len(exact_maps)
    for k, (exact_mult_i, exact_mult_q, exact_add_i, exact_add_q) in enumerate(exact_maps):
        for got, exact in ((mult_i[k], exact_mult_i), (mult_q[k], exact_mult_q)):
            assert abs(Decimal(got) - exact) <= Decimal(1e-12) * exact
        for got, exact in ((add_i[k], exact_add_i), (add_q[k], exact_add_q)):
            assert abs(Decimal(got) - exact) <= Decimal(1e-14) * max(exact, Decimal("0.5"))
    reference_input, rate = _SHANNON[scenario]
    if best.score >= sys.float_info.min:
        out = decimal_oracle.fold(_ALPHA, length, positions, gains, kind, reference_input(nbar))
        exact = rate(out[-1])
        assert abs(Decimal(best.score) - exact) <= Decimal(1e-12) * exact


@pytest.mark.parametrize("kind", list(AmpKind))
@settings(derandomize=True, max_examples=100, deadline=None,
          phases=[Phase.explicit, Phase.generate])  # unshrunk: shrinking takes minutes
@given(st.sampled_from(list(_SHANNON)), st.floats(-2.0, 5.0), st.floats(10.0, 3000.0),
       st.integers(1, 8), st.floats(0.1, 0.3))
def test_walk_ceilings_match_the_decimal_fold(kind, scenario, log_nbar, length, amps, alpha):
    # Seed gains of inf ride every ceiling.  The walk records each ceiling
    # before its amplifier, from its float state; the oracle folds the same
    # link with its own gains clipped to its own ceilings, and computes each
    # ceiling from its folded state.  Each kind's formula gets its own draws.
    nbar = 10.0 ** log_nbar
    positions = [length * k / (amps + 1) for k in range(1, amps + 1)]
    reference_input = _SHANNON[scenario][0](nbar)
    taus = _spans(attenuation_to_natural(alpha), length, positions)
    _walk(reference_input, taus, [math.inf] * amps, kind, nbar, record=(record := []))
    exact_points = decimal_oracle.fold(alpha, length, positions, [math.inf] * amps, kind,
                                       reference_input, nbar)
    ceilings = record[1::4]
    assert len(ceilings) == amps
    for k, got in enumerate(ceilings):
        exact = decimal_oracle.ceiling(exact_points[2 * k + 1], nbar, kind)
        assert abs(Decimal(got) - exact) <= Decimal(1e-13) * exact
