"""The Gordon-Holevo search checked against the decimal oracle."""

import math
from decimal import Decimal

from hypothesis import given, settings

import decimal_oracle
from conftest import gh_link_channels
from qlink.capacity import _GhChannel, _gh_search, _water_filling, gh_capacity_for_channel
from qlink.linkchain import POWER_TOL

# Steps to the neighbouring inputs, in the split p and in the squeezing r
# (the latter as shares of r_cap).
_STEPS = (1e-3, 1e-6)
# Smallest output noise excess over vacuum, b = nu - 1/2, at which the value
# and the optimality are checked.  The search forms the output noise
# variances as doubles near 1/2, so it knows b only to about 2e-16, which
# moves chi by about 2e-16/(b*ln(1/b)) relative: at most 2.4e-13 from
# b = 1e-4 on.  Below that the search's value drifts from the oracle's, and
# below about 1e-16 it loses b altogether (CHANGES.md, FOUND on
# ``_GhChannel.chi``).
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
    value, p, r = _water_filling(channel) or _gh_search(channel)
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
