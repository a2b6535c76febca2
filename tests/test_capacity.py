import math
import pickle
import sys
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from qlink import (
    AmpKind,
    GHSearchError,
    LinkPlan,
    QuadState,
    Scenario,
    attenuation_to_natural,
    channel_checkpoints,
    conventional_input,
    gh_capacity,
    propagate,
    scenario_input,
    shannon_capacity,
    symmetric_coherent_input,
)
import qlink.capacity as capacity
from qlink.capacity import (
    MAX_GH_NBAR,
    CapacityResult,
    _chi,
    _chi_partials,
    _curve,
    _gh_optimum,
    _gh_pieces,
    _GhChannel,
    _squeezed_floor,
    gh_capacity_for_channel,
)
from qlink.distributed import (
    approx_capacity_pia,
    approx_capacity_psa,
    channel_maps,
    distributed_rows,
)
from qlink.linkchain import POWER_TOL
from qlink.optimizer import _PlanScorer, equidistant_saturating_plan, optimize_plan
from qlink.quadmodel import HEISENBERG_LIMIT, HEISENBERG_TOL
from qlink.search import illinois_root

import decimal_oracle
import gh_reference
from chain_stages import apply_psa, check_power_constraint, holevo_chi
from conftest import gh_link_channels, quad_states
from gh_reference import entropy_g, gaussian_state_entropy
from rk4_oracle import closed_form_psa, gh_capacity_at, integrate_pia, integrate_psa
from stage_reference import vacuum_state

ALPHA = attenuation_to_natural(0.2)


def loss_only_plan(length_km, nbar=100.0):
    return LinkPlan(0.2, length_km, nbar)


class TestShannon:
    def test_unit_snr_gives_half_bit(self):
        state = QuadState(0.5, 0.0, 0.5, 0.5)
        assert shannon_capacity(state, Scenario.CONVENTIONAL) == pytest.approx(0.5)

    def test_no_signal_no_information(self):
        assert shannon_capacity(vacuum_state(), Scenario.CONVENTIONAL) == 0.0

    @given(st.floats(0.0, 1e4), st.floats(0.01, 1.0))
    def test_loss_only_closed_form(self, nbar, tau):
        length = -math.log(tau) / ALPHA
        out, _ = propagate(loss_only_plan(length, nbar), conventional_input(nbar))
        expected = 0.5 * math.log2(1.0 + 4.0 * nbar * tau)
        assert shannon_capacity(out, Scenario.CONVENTIONAL) == pytest.approx(
            expected, rel=1e-9, abs=1e-12)

    def test_two_quadrature_vacuum(self):
        assert shannon_capacity(vacuum_state(), Scenario.TWO_QUADRATURE) == 0.0

    @given(st.floats(0.0, 1e4), st.floats(0.5, 20.0))
    def test_two_quadrature_symmetric_reduces_to_single_log(self, sig, noise):
        state = QuadState(sig, sig, noise, noise)
        expected = math.log2(1.0 + sig / (noise + 0.5))
        assert shannon_capacity(state, Scenario.TWO_QUADRATURE) == pytest.approx(
            expected, rel=1e-12)

    @given(quad_states(), st.floats(1.0, 100.0))
    def test_single_quadrature_invariant_under_output_psa(self, state, gain):
        assert shannon_capacity(apply_psa(state, gain), Scenario.CONVENTIONAL) == pytest.approx(
            shannon_capacity(state, Scenario.CONVENTIONAL), rel=1e-12
        )


class TestEntropyG:
    def test_values(self):
        assert entropy_g(0.0) == 0.0
        assert entropy_g(1.0) == pytest.approx(2.0, rel=1e-12)
        # 4*log2(4) - 3*log2(3), evaluated independently
        assert entropy_g(3.0) == pytest.approx(3.2451124978365318, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            entropy_g(-0.1)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_rejects_nan_and_infinity(self, x):
        # both returned NaN
        with pytest.raises(ValueError, match="finite and non-negative"):
            entropy_g(x)

    def test_monotone_and_concave(self):
        xs = [0.05 * k for k in range(200)]
        values = [entropy_g(x) for x in xs]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d > 0 for d in diffs)
        assert all(b < a + 1e-12 for a, b in zip(diffs, diffs[1:]))


class TestGaussianEntropy:
    def test_pure_states_have_zero_entropy(self):
        assert gaussian_state_entropy(0.5, 0.5) == 0.0
        assert gaussian_state_entropy(1.0, 0.25) == 0.0

    @given(st.floats(0.0, 1e4))
    def test_thermal_entropy_matches_g(self, n):
        assert gaussian_state_entropy(n + 0.5, n + 0.5) == pytest.approx(
            entropy_g(n), rel=1e-12, abs=1e-12
        )

    def test_rejects_sub_heisenberg(self):
        with pytest.raises(ValueError):
            gaussian_state_entropy(0.3, 0.3)

    @pytest.mark.parametrize("variances", [(math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_nan(self, variances):
        with pytest.raises(ValueError):
            gaussian_state_entropy(*variances)


class TestHolevoChi:
    def test_no_modulation_no_information(self):
        assert holevo_chi((0.7, 0.9), (0.7, 0.9)) == 0.0

    def test_lossless_even_split_recovers_thermal_entropy(self):
        nbar = 100.0
        assert holevo_chi((nbar + 0.5, nbar + 0.5), (0.5, 0.5)) == pytest.approx(
            entropy_g(nbar), rel=1e-12
        )

    @given(quad_states(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_equals_the_entropy_difference(self, noise, log_i, log_q):
        # chi is rewritten from the rise of nu; where the signal is within
        # three decades of the noise, the textbook difference of the two
        # states' entropies keeps enough digits to check it
        n_i, n_q = noise.noise_i, noise.noise_q
        sig_i, sig_q = n_i * 10.0 ** log_i, n_q * 10.0 ** log_q
        difference = (gaussian_state_entropy(n_i + sig_i, n_q + sig_q)
                      - gaussian_state_entropy(n_i, n_q))
        assert _chi(n_i, n_q, sig_i, sig_q) == pytest.approx(difference, rel=1e-9, abs=1e-12)

    def test_single_quadrature_modulation_value(self):
        # g(sqrt(200.5 * 0.5) - 1/2), frozen via the entropy oracle
        chi = holevo_chi((200.5, 0.5), (0.5, 0.5))
        assert chi == pytest.approx(entropy_g(9.512492197250394), rel=1e-12)
        assert chi == pytest.approx(4.765824181112507, rel=1e-10)

    @pytest.mark.parametrize("nbar", [1e-3, 1.0, 100.0, 1e5])
    @pytest.mark.parametrize("signal", [1e-12, 1e-30, 1e-300])
    def test_signal_far_below_the_noise_keeps_its_precision(self, nbar, signal):
        # As a difference of two entropies, chi at nbar = 100 came out in
        # steps of 8.2e-14 bits, and a Gordon-Holevo row 1e-15 bits deep
        # could rise with distance.  Here nu rises by signal/2 to first order.
        expected = 0.5 * signal * math.log2((nbar + 1.0) / nbar)
        chi = _chi(nbar + 0.5, nbar + 0.5, signal, 0.0)
        assert chi == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("kind", [AmpKind.PSA, AmpKind.PIA])
    def test_vacuum_noise_under_a_subnormal_signal_gives_the_loss_channel_value(self, kind):
        # 100 dB at nbar = 1e-300: the output noise is vacuum (b = 0) and the
        # rise of nu subnormal, so 1/(b + rise) overflowed and chi read inf
        tau = math.exp(-attenuation_to_natural(10.0) * 10.0)
        bits = optimize_plan(10.0, 0, 1e-300, 10.0, kind, Scenario.GORDON_HOLEVO).score
        assert bits == entropy_g(tau * 1e-300)
        assert bits == pytest.approx(1.0312e-307, rel=1e-4)

    @settings(max_examples=500)
    @given(st.floats(-3.0, 6.0), st.floats(-2.0, 2.0), st.floats(-320.0, 6.0),
           st.floats(-320.0, 6.0))
    def test_finite_values_keep_the_reciprocal_form(self, log_n, squeeze, log_i, log_q):
        # Only where 1/(b + rise) overflows does chi take another form; every
        # value that was finite stays bit-identical.
        thermal = 10.0 ** log_n if log_n > -3.0 else 0.0
        noise = ((0.5 + thermal) * math.exp(-squeeze), (0.5 + thermal) * math.exp(squeeze))
        sig_i, sig_q = 10.0 ** log_i, 10.0 ** log_q
        nu = math.sqrt(noise[0] * noise[1])
        rise = ((sig_i * noise[1] + sig_q * noise[0] + sig_i * sig_q)
                / (math.sqrt((noise[0] + sig_i) * (noise[1] + sig_q)) + nu))
        b = max(nu - 0.5, 0.0)
        assume(rise > 0.0 and 1.0 / (b + rise) < math.inf)
        reciprocal = (rise * math.log1p(1.0 / (b + rise))
                      + (b + 1.0) * math.log1p(rise / (b + 1.0))
                      - (b * math.log1p(rise / b) if b > 0.0 else 0.0)) / math.log(2.0)
        assert _chi(*noise, sig_i, sig_q) == reciprocal

    @given(st.floats(0.3, 10.0), st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    def test_chi_non_negative(self, noise, add_i, add_q):
        noise_pair = (noise, 0.3 if noise * 0.3 >= 0.25 else 0.25 / noise)
        total = (noise_pair[0] + add_i, noise_pair[1] + add_q)
        assert holevo_chi(total, noise_pair) >= -1e-12


class TestGhCapacity:
    def test_identity_channel_matches_thermal_entropy(self):
        result = gh_capacity(loss_only_plan(0.0))
        assert result.bits_per_mode == pytest.approx(entropy_g(100.0), abs=1e-9)
        # oracle value, for the record: g(100) = 8.093740780458802
        assert result.bits_per_mode == pytest.approx(8.093740780458802, abs=1e-6)

    def test_half_transmission_matches_closed_form_without_squeezing(self):
        length = math.log(2.0) / ALPHA
        result = gh_capacity(loss_only_plan(length))
        assert result.bits_per_mode == pytest.approx(entropy_g(50.0), abs=1e-4)
        achieved = result.achieving_input
        assert achieved.noise_i == pytest.approx(0.5, abs=1e-3)
        assert achieved.noise_q == pytest.approx(0.5, abs=1e-3)

    def test_zero_budget(self):
        plan = LinkPlan(0.2, 10.0, 0.0)
        assert gh_capacity(plan).bits_per_mode == 0.0

    def test_deterministic(self):
        plan = equidistant_saturating_plan(150.0, 2, 100.0, 0.2).plan
        first = gh_capacity(plan)
        second = gh_capacity(plan)
        assert first == second

    def test_unreachable_budget_raises_with_diagnostic(self):
        # gain so large that every input, however squeezed, overshoots
        plan = LinkPlan(0.2, 10.0, 100.0, [5.0], [1e6])
        with pytest.raises(GHSearchError) as err:
            gh_capacity(plan)
        assert err.value.best_value < 0.0

    def test_error_survives_pickling(self):
        # a sweep worker sends its error to the caller pickled
        copy = pickle.loads(pickle.dumps(GHSearchError("boom", 1.5)))
        assert type(copy) is GHSearchError
        assert (str(copy), copy.best_value) == ("boom", 1.5)

    @pytest.mark.parametrize("length,amps", [(30.0, 0), (100.0, 1), (300.0, 2), (150.0, 4)])
    def test_dominates_conventional_shannon(self, length, amps):
        plan = equidistant_saturating_plan(length, amps, 100.0, 0.2).plan
        out, _ = propagate(plan, conventional_input(100.0))
        conventional = shannon_capacity(out, Scenario.CONVENTIONAL)
        assert gh_capacity(plan).bits_per_mode >= conventional - 1e-6

    def test_achieving_input_reproduces_score_by_propagation(self):
        plan = equidistant_saturating_plan(200.0, 2, 100.0, 0.2).plan
        result = gh_capacity(plan)
        out_total, _ = propagate(plan, result.achieving_input)
        noise_in = QuadState(
            0.0, 0.0, result.achieving_input.noise_i, result.achieving_input.noise_q
        )
        out_noise, _ = propagate(plan, noise_in)
        chi = holevo_chi(
            (out_total.sig_i + out_total.noise_i, out_total.sig_q + out_total.noise_q),
            (out_noise.noise_i, out_noise.noise_q),
        )
        assert chi == pytest.approx(result.bits_per_mode, rel=1e-9, abs=1e-12)


def _columns(maps):
    """(mult_i, mult_q, add_i, add_q) of the channel ``maps``, each a numpy array
    over the checkpoints."""
    return np.asarray(maps, dtype=float).T


def _grid_oracle(maps, nbar, n_p=201, n_r=201):
    """Best Holevo chi over a dense (split, squeezing) grid of inputs that
    keep every checkpoint within the photon budget."""
    mult_i, mult_q, add_i, add_q = _columns(maps)
    r_cap = 0.5 * math.acosh(2.0 * nbar + 1.0)
    splits = np.linspace(0.0, 1.0, n_p)
    best = -math.inf
    for r in np.linspace(-r_cap, r_cap, n_r):
        noise_i, noise_q = 0.5 * math.exp(-2.0 * r), 0.5 * math.exp(2.0 * r)
        budget = 2.0 * nbar + 1.0 - math.cosh(2.0 * r)
        if budget <= 0.0:
            continue
        power_i = splits[:, None] * budget + noise_i
        power_q = (1.0 - splits[:, None]) * budget + noise_q
        photons = 0.5 * (mult_i * power_i + add_i + mult_q * power_q + add_q) - 0.5
        # slack for rounding only: budget-saturating inputs land within it
        for p in splits[(photons <= nbar + 1e-12).all(axis=1)]:
            total = (mult_i[-1] * (p * budget + noise_i) + add_i[-1],
                     mult_q[-1] * ((1.0 - p) * budget + noise_q) + add_q[-1])
            noise = (mult_i[-1] * noise_i + add_i[-1], mult_q[-1] * noise_q + add_q[-1])
            best = max(best, holevo_chi(total, noise))
    return best


DISCRETE_ORACLE_PLANS = {
    "equidistant-100km-R2": lambda: equidistant_saturating_plan(100.0, 2, 100.0, 0.2).plan,
    "equidistant-300km-R4": lambda: equidistant_saturating_plan(300.0, 4, 100.0, 0.2).plan,
    "pia-150km-R1": lambda: equidistant_saturating_plan(
        150.0, 1, 100.0, 0.2, AmpKind.PIA, Scenario.GORDON_HOLEVO).plan,
    "uneven-80km": lambda: LinkPlan(0.2, 80.0, 100.0, [20.0, 50.0], [3.0, 2.0]),
    "loss-only-40km": lambda: loss_only_plan(40.0, nbar=10.0),
}


# gh_capacity and the conventional Shannon rate of each plan above, frozen as
# float.hex: a change to the span transmissions or to the fold order shows here.
PINNED_CAPACITIES = {
    "equidistant-100km-R2": ("0x1.5e83322b44241p+1", "0x1.466d74df212e2p+1"),
    "equidistant-300km-R4": ("0x1.57c8dbb7ee2ffp+0", "0x1.495d105d00540p+0"),
    "loss-only-40km": ("0x1.3e8a3f722113dp+1", "0x1.7016cf347f291p+0"),
    "pia-150km-R1": ("0x1.9ab67685c238bp+0", "0x1.2681031b01821p+0"),
    "uneven-80km": ("0x1.8d0be284a20dcp+1", "0x1.5718ac7f46b2cp+1"),
}


class TestGhExactSearch:
    @pytest.mark.parametrize("name", sorted(DISCRETE_ORACLE_PLANS))
    def test_capacities_are_bit_identical_to_the_pinned_values(self, name):
        plan = DISCRETE_ORACLE_PLANS[name]()
        gh, conventional = PINNED_CAPACITIES[name]
        assert gh_capacity(plan).bits_per_mode.hex() == gh
        out, _ = propagate(plan, conventional_input(plan.nbar))
        assert shannon_capacity(out, Scenario.CONVENTIONAL).hex() == conventional

    @pytest.mark.parametrize("name", sorted(DISCRETE_ORACLE_PLANS))
    def test_discrete_beats_dense_grid_and_meets_budget(self, name):
        plan = DISCRETE_ORACLE_PLANS[name]()
        result = gh_capacity(plan)
        assert result.bits_per_mode >= _grid_oracle(channel_checkpoints(plan), plan.nbar) - 1e-12
        _, trace = propagate(plan, result.achieving_input)
        assert check_power_constraint(trace, plan.nbar) == []

    @pytest.mark.parametrize("integrate", [integrate_psa, integrate_pia])
    def test_distributed_beats_dense_grid_and_meets_budget(self, integrate):
        profile = integrate(200.0, 100.0, 0.2, 0.5, track_channel=True)
        maps = list(zip(profile.mult_i, profile.mult_q, profile.add_i, profile.add_q))
        result = gh_capacity_at(profile)
        assert result.bits_per_mode >= _grid_oracle(maps, 100.0, n_p=101, n_r=101) - 1e-12
        state = result.achieving_input
        mult_i, mult_q, add_i, add_q = _columns(maps)
        photons = 0.5 * (mult_i * (state.sig_i + state.noise_i) + add_i
                         + mult_q * (state.sig_q + state.noise_q) + add_q) - 0.5
        assert photons.max() <= 100.0 + POWER_TOL

    def test_zero_capacity_edge_is_finite(self):
        # 400 dB of loss behind four budget-restoring amplifiers
        plan = equidistant_saturating_plan(2000.0, 4, 100.0, 0.2).plan
        result = gh_capacity(plan)
        assert math.isfinite(result.bits_per_mode)
        assert result.bits_per_mode >= 0.0


def _photons(maps, r, p, nbar):
    """Photon count at every checkpoint for the input at squeezing r and
    split p, straight from the channel maps."""
    mult_i, mult_q, add_i, add_q = _columns(maps)
    noise_i, noise_q, budget = _squeezed_floor(r, nbar)
    return 0.5 * (mult_i * (noise_i + p * budget) + add_i
                  + mult_q * (noise_q + (1.0 - p) * budget) + add_q) - 0.5


@st.composite
def feasible_gh_channels(draw):
    """(checkpoint maps, nbar) of a plan whose amplifier gains are clipped
    to keep the Gordon-Holevo reference input within the budget."""
    kind = draw(st.sampled_from([AmpKind.PSA, AmpKind.PIA]))
    amps = draw(st.integers(0, 6))
    length = draw(st.floats(10.0, 3000.0))
    nbar = 10.0 ** draw(st.floats(-3.0, math.log10(MAX_GH_NBAR)))
    permille = draw(st.lists(st.integers(1, 999), min_size=amps, max_size=amps, unique=True))
    positions = [length * k / 1000.0 for k in sorted(permille)]
    raw_gains = draw(st.lists(st.floats(1.0, 1e12), min_size=amps, max_size=amps))
    scorer = _PlanScorer(length, nbar, 0.2, kind, Scenario.GORDON_HOLEVO)
    gains = scorer.repair_gains(positions, raw_gains)[0]
    plan = LinkPlan(0.2, length, nbar, positions, gains, kind)
    maps = channel_checkpoints(plan)
    if draw(st.booleans()):  # the mirror image amplifies Q, so its checkpoints fall
        maps = _mirrored(maps)
    return maps, nbar


def _mirrored(maps):
    """The channel with its I and Q quadratures swapped at every checkpoint."""
    return [(mq, mi, aq, ai) for mi, mq, ai, aq in maps]


def _masked_budget_interval(maps, nbar):
    """(x_lo, x_hi) of the budget interval as numpy arrays and masks give it,
    or None when a flat checkpoint is over budget or the interval is empty:
    the oracle for the scalar loop in ``_GhChannel``."""
    mult_i, mult_q, add_i, add_q = _columns(maps)
    add_sum = add_i + add_q
    slope = 0.5 * (mult_i - mult_q)
    excess0 = (0.5 * add_sum - 0.5 - nbar - 0.5 * POWER_TOL
               + 0.5 * mult_q * (2.0 * nbar + 1.0))
    falling, rising = slope < 0.0, slope > 0.0
    with np.errstate(over="ignore"):
        x_lo = float((-excess0[falling] / slope[falling]).max(initial=-math.inf))
        x_hi = float((-excess0[rising] / slope[rising]).min(initial=math.inf))
    if excess0[~(falling | rising)].max(initial=-math.inf) > 0.0 or x_lo > x_hi:
        return None
    return x_lo, x_hi


# Channel multipliers, with exact ties, zeros and subnormals: a slope
# 0.5*(mult_i - mult_q) may be zero, or so small that its bound overflows.
_MULTS = st.one_of(st.floats(0.0, 4.0),
                   st.sampled_from([0.0, 5e-324, 1e-310, sys.float_info.min, 1.0]))


@st.composite
def budget_channels(draw):
    """(checkpoint maps, nbar) of arbitrary affine channels, feasible or not."""
    n = draw(st.integers(1, 8))
    mult_i = draw(st.lists(_MULTS, min_size=n, max_size=n))
    mult_q = [m if draw(st.booleans()) else draw(_MULTS) for m in mult_i]
    add_i, add_q = (draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
                    for _ in range(2))
    return list(zip(mult_i, mult_q, add_i, add_q)), 10.0 ** draw(st.floats(-3.0, 5.0))


class TestGhBudgetInterval:
    @settings(max_examples=300)
    @given(feasible_gh_channels(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.data())
    def test_interval_holds_exactly_the_budget(self, channel_data, r_share, p, data):
        maps, nbar = channel_data
        channel = _GhChannel(maps, nbar)
        total = 2.0 * nbar + 1.0
        r_lo, r_hi = -0.5 * math.acosh(total), 0.5 * math.acosh(total)
        # half the draws put X next to an end of the interval, at a squeezing
        # whose inputs reach it: noise_i < X and noise_q < T - X
        edges = [x for x in (channel.x_lo, channel.x_hi) if 0.0 < x < total]
        edge = data.draw(st.sampled_from(edges)) if edges and data.draw(st.booleans()) else None
        if edge is not None:
            r_lo = max(r_lo, -0.5 * math.log(2.0 * edge))
            r_hi = min(r_hi, 0.5 * math.log(2.0 * (total - edge)))
            assume(r_lo < r_hi)
        r = r_lo + r_share * (r_hi - r_lo)
        noise_i, _, budget = _squeezed_floor(r, nbar)
        assume(budget > 0.0)
        if edge is not None:
            x = edge + data.draw(st.floats(-1e-6, 1e-6)) * total
            p = min(max((x - noise_i) / budget, 0.0), 1.0)
        x = noise_i + p * budget
        limit = nbar + 0.5 * POWER_TOL
        # The interval and the direct count round apart by a few eps*T in
        # photons.  Near a checkpoint of small slope that is wider than any
        # fixed distance in X, so draws that close to the limit are skipped.
        rounding = 8.0 * sys.float_info.epsilon * total
        excess = _photons(maps, r, p, nbar).max() - limit
        assume(abs(excess) > rounding)
        assert (channel.x_lo <= x <= channel.x_hi) == (excess <= 0.0)
        value, p = channel.chi(r)
        if value > -math.inf:
            assert _photons(maps, r, p, nbar).max() <= limit + rounding

    @pytest.mark.parametrize("kind", [AmpKind.PSA, AmpKind.PIA])
    def test_interior_checkpoint_order_and_repeats_do_not_matter(self, kind):
        maps = channel_maps(kind, np.linspace(0.0, 3000.0, 30_001), 100.0)
        order = 1 + np.random.default_rng(0).permutation(29_999)
        shuffled = [maps[0], *[maps[k] for k in order], maps[-1]]
        repeated = maps[:-1] + maps[1:-1] + maps[-1:]
        expected = gh_capacity_for_channel(maps, 100.0)
        for variant in (shuffled, repeated):
            assert gh_capacity_for_channel(variant, 100.0) == expected

    @pytest.mark.parametrize("maps", [
        # a flat checkpoint that doubles every input's photon count
        [(1.0, 1.0, 0.0, 0.0), (2.0, 2.0, 0.0, 0.0)],
        # a rising checkpoint needs X <= T/3 and a falling one X >= 2T/3
        [(1.0, 1.0, 0.0, 0.0), (2.0, 0.5, 0.0, 0.0), (0.5, 2.0, 0.0, 0.0)],
    ])
    def test_empty_interval_fails_before_the_search(self, maps, monkeypatch):
        calls = []
        monkeypatch.setattr(_GhChannel, "chi", lambda self, r: calls.append(r))
        with pytest.raises(GHSearchError) as err:
            gh_capacity_for_channel(maps, 100.0)
        assert err.value.best_value == -math.inf
        assert calls == []

    @pytest.mark.parametrize("maps", [
        [(math.nan, 1.0, 0.0, 0.0)],
        [(1.0, 1.0, math.nan, 0.0)],
        [(1.0, 1.0, 0.0, math.nan)],
    ])
    def test_nan_maps_are_infeasible(self, maps):
        # chi is NaN at every squeezing, and a NaN photon count meets no budget
        with pytest.raises(GHSearchError) as err:
            gh_capacity_for_channel(maps, 1.0)
        assert err.value.best_value == -math.inf

    def test_budget_bound_keeps_rounding_within_the_search_margin(self):
        # one rounding of a photon count fits ten times in the 0.5*POWER_TOL
        # margin at MAX_GH_NBAR, and no longer at ten times the budget
        eps = sys.float_info.epsilon
        margin = 0.1 * 0.5 * POWER_TOL
        assert eps * (2.0 * MAX_GH_NBAR + 1.0) <= margin < eps * (20.0 * MAX_GH_NBAR + 1.0)

    @settings(max_examples=300)
    @given(st.one_of(budget_channels(), feasible_gh_channels()))
    def test_interval_equals_the_masked_array_formula(self, channel_data):
        maps, nbar = channel_data
        expected = _masked_budget_interval(maps, nbar)
        if expected is None:
            with pytest.raises(GHSearchError):
                _GhChannel(maps, nbar)
        else:
            channel = _GhChannel(maps, nbar)
            assert (channel.x_lo, channel.x_hi) == expected


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, GHSearchError) as err:
        return type(err), str(err)


def _fallback_capacity(maps, nbar):
    """``gh_capacity_for_channel`` with every channel left to ``_gh_pieces``, at X*
    and r* in the forms that hold for degenerate maps too."""
    def pieces(channel):
        (mi, mq, ai, aq), total = channel.out, channel.total
        if mi >= mq:  # X* - T/2 = (mi*aq - mq*ai)/(2*mi*mq), scaled by the larger multiplier
            x_star = 0.5 * total + (aq - ai * (mq / mi)) / (2.0 * mq) if mq > 0.0 else math.inf
        else:
            x_star = 0.5 * total + (aq * (mi / mq) - ai) / (2.0 * mi) if mi > 0.0 else -math.inf
        logs = [math.log(v) if v > 0.0 else -math.inf for v in (mi, aq, ai, mq)]
        r_star = 0.25 * (logs[0] + logs[1] - logs[2] - logs[3])
        return _gh_pieces(channel, x_star, r_star)

    with mock.patch.object(capacity, "_gh_optimum", pieces):
        return gh_capacity_for_channel(maps, nbar)


def _kind(outcome):
    """``CapacityResult``, or the error type, of an ``_outcome``."""
    return CapacityResult if isinstance(outcome, CapacityResult) else outcome[0]


def _noise_excess(maps, state):
    """nu - 1/2 of the output noise for an input ``state``: its excess over vacuum."""
    mi, mq, ai, aq = maps[-1]
    return math.sqrt((mi * state.noise_i + ai) * (mq * state.noise_q + aq)) - 0.5


class TestGhKernelOracle:
    @settings(max_examples=300)
    @given(st.one_of(budget_channels(), feasible_gh_channels()), st.floats(-1.0, 1.0))
    def test_chi_and_capacity_equal_the_tuple_reference(self, channel_data, share):
        maps, nbar = channel_data
        try:
            channel = _GhChannel(maps, nbar)
        except GHSearchError:
            assume(False)
        total = 2.0 * nbar + 1.0
        r_cap = math.asinh(math.sqrt(nbar))
        rs = [share * r_cap, -r_cap, r_cap, math.nextafter(-r_cap, 0.0),
              math.nextafter(r_cap, 0.0)]
        # the squeezings at which the split p = 0 or p = 1 puts X on an end
        # of the budget interval
        for x in (channel.x_lo, channel.x_hi):
            if 0.0 < x < total:
                rs += [-0.5 * math.log(2.0 * x), 0.5 * math.log(2.0 * (total - x))]
        for r in rs:
            if -r_cap <= r <= r_cap:
                assert (_outcome(channel.chi, r)
                        == _outcome(gh_reference.best_split, channel, r))
        # The search no longer samples the reference's grid, so the outcomes
        # agree in kind, and the value where rounding does not rule it: output
        # noise clear of vacuum (test_never_below_the_grid_search) and a normal
        # double (a subnormal one keeps fewer digits than the bound).
        result = _outcome(_fallback_capacity, maps, nbar)
        reference = _outcome(gh_reference.gh_capacity, channel)
        mi, mq, ai, aq = channel.out
        least = math.sqrt(mi * mq) / 2.0 + math.sqrt(ai * aq)
        if least * least < HEISENBERG_LIMIT - HEISENBERG_TOL:
            # The output breaks the Heisenberg limit for some inputs, its
            # variance product being least, (sqrt(mi*mq)/2 + sqrt(ai*aq))**2,
            # at one squeezing: the search refuses the map, while the
            # reference kernel raises only at the squeezings it probes.
            assert _kind(result) is ValueError and "least variance product" in result[1]
        elif _kind(result) is not _kind(reference):
            # No grid point is feasible: the feasible squeezings lie between
            # two of them, and the reference kernel finds a split (or the
            # search's error) in their middle.
            assert reference[0] is GHSearchError
            r_lo = max(-r_cap, -0.5 * math.log(2.0 * channel.x_hi))
            r_hi = min(r_cap, 0.5 * math.log(2.0 * (total - channel.x_lo)))
            assert 0.0 <= r_hi - r_lo < 2.0 * r_cap / (gh_reference._GH_R_GRID - 1)
            middle = 0.5 * (r_lo + r_hi)
            assert _outcome(gh_reference.best_split, channel, middle)[0] != -math.inf
        elif (isinstance(reference, CapacityResult)
              and _noise_excess(maps, result.achieving_input) >= 1e-4
              and reference.bits_per_mode >= sys.float_info.min):
            assert result.bits_per_mode >= reference.bits_per_mode * (1.0 - 1e-9)

    @pytest.mark.parametrize("nbar", [1e-6, 1.0, 100.0])
    def test_zero_capacity_returns_the_unsqueezed_input(self, nbar):
        # nothing reaches the output, so chi is 0 at every feasible r
        maps = [(1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.5, 0.5)]
        result = gh_capacity_for_channel(maps, nbar)
        assert result == gh_reference.gh_capacity(_GhChannel(maps, nbar))
        assert result.bits_per_mode == 0.0 and result.achieving_input.noise_i == 0.5

    def test_zero_capacity_off_the_unsqueezed_input_is_feasible(self):
        # Nothing reaches the output, and the middle checkpoint needs X >=
        # 2.896, which only squeezings r <= -0.784 reach.  The least squeezed
        # of them, that end, is out of budget by rounding.
        maps = [(0.0, 0.0, 0.0, 0.0), (0.0, 3.0, 1.5, 1.1875), (0.0, 0.0, 1.0, 1.0)]
        channel = _GhChannel(maps, 1.0)
        assert channel.chi(0.5 * math.log(2.0 * (3.0 - channel.x_lo))) == (-math.inf, 0.0)
        result = gh_capacity_for_channel(maps, 1.0)
        assert result.bits_per_mode == 0.0 and result.achieving_input.noise_q < 0.5

    @pytest.mark.parametrize("nbar", [0.5, 1.0, 10.0, MAX_GH_NBAR])
    def test_lossless_link_reaches_the_thermal_entropy(self, nbar):
        # every pure input reaches chi = g(nbar), up to rounding
        bits = gh_capacity_for_channel([(1.0, 1.0, 0.0, 0.0)], nbar).bits_per_mode
        assert bits == pytest.approx(entropy_g(nbar), rel=1e-11)


class TestGhFallbackSearch:
    def test_interleaved_budgets_give_the_same_results(self):
        # The search keeps no state between calls: budgets taken in turn, each
        # twice in a row, give each channel one result, and none falls below
        # the reference's grid search.
        results = {}
        for _ in range(2):
            for nbar in (1e-6, 1.0, 100.0, 1e5):
                for kind in (AmpKind.PSA, AmpKind.PIA):
                    maps = _seed_channel(300.0, 2, kind, nbar)
                    result = _fallback_capacity(maps, nbar)
                    assert results.setdefault((nbar, kind), result) == result
                    reference = gh_reference.gh_capacity(_GhChannel(maps, nbar))
                    assert result.bits_per_mode >= reference.bits_per_mode * (1.0 - 1e-12)

    @pytest.mark.parametrize("nbar", [1e-300, 1e-200, 1e-100, 1e-50, 1e-20])
    @pytest.mark.parametrize("kind", [AmpKind.PSA, AmpKind.PIA])
    @pytest.mark.parametrize("alpha", [0.2, 10.0])
    def test_tiny_budgets_keep_the_search_resolution(self, alpha, kind, nbar):
        # r_cap is about sqrt(nbar): a tolerance that does not shrink with it
        # stops the search after a few steps at 1e-20 (2% short there) and
        # spans the whole bracket below
        channels = [channel_maps(kind, [0.0, 5.0, 10.0], nbar, alpha)]
        for amps in range(5):
            plan = equidistant_saturating_plan(10.0, amps, nbar, alpha, kind,
                                               Scenario.GORDON_HOLEVO).plan
            channels.append(channel_checkpoints(plan))
        for maps in channels:
            result = _fallback_capacity(maps, nbar)
            reference = gh_reference.gh_capacity(_GhChannel(maps, nbar))
            assert result.bits_per_mode >= reference.bits_per_mode * (1.0 - 1e-12)

    @pytest.mark.parametrize("mirrored", [False, True], ids=["psa", "q-amplifying"])
    @pytest.mark.parametrize("width", [1e-3, 1e-6])
    def test_narrow_feasible_interval_at_an_end_of_the_squeezing(self, mirrored, width):
        # One checkpoint bounds X so that only squeezings within width*r_cap
        # of +r_cap (the PSA map's upper bound on X) or of -r_cap (the
        # mirrored map's lower bound) leave a feasible split; the search
        # brackets them alone and finds the best of a dense scan of them.
        nbar = 100.0
        total, r_cap = 2.0 * nbar + 1.0, math.asinh(math.sqrt(nbar))
        edge = 0.5 * math.exp(-2.0 * r_cap * (1.0 - width))  # e^{-2|r|}/2, |r| = r_cap*(1-width)
        maps = _seed_channel(260.0, 2, AmpKind.PSA, nbar)
        if mirrored:
            maps = _mirrored(maps)
            maps = _with_budget_end_at(maps, nbar, total - edge, upper=False)
            ends = (-r_cap, -r_cap * (1.0 - width))
        else:
            maps = _with_budget_end_at(maps, nbar, edge, upper=True)
            ends = (r_cap * (1.0 - width), r_cap)
        channel = _GhChannel(maps, nbar)
        scan = [gh_reference.best_split(channel, ends[0] + k * (ends[1] - ends[0]) / 1000)[0]
                for k in range(1001)]
        best = max(scan)
        assert best > 0.0 and scan.count(-math.inf) < 10  # the scan spans the feasible squeezings
        assert gh_capacity_for_channel(maps, nbar).bits_per_mode >= best * (1.0 - 1e-12)

    @pytest.mark.parametrize("x_of, upper", [
        (lambda total, floor: 0.0, True),
        (lambda total, floor: -1.0, True),
        (lambda total, floor: 0.9999 * floor, True),
        (lambda total, floor: total, False),
        (lambda total, floor: total - 0.9999 * floor, False),
    ], ids=["x-below-0", "x-below-minus-1", "x-below-the-least-noise", "x-above-t",
            "x-above-t-less-the-least-noise"])
    def test_empty_squeezing_interval_raises_infeasible(self, x_of, upper):
        # The budget interval on X is not empty, but no squeezing reaches it:
        # the least noise variance of either quadrature is floor = e^{-2 r_cap}/2.
        nbar = 100.0
        total, floor = 2.0 * nbar + 1.0, 0.5 * math.exp(-2.0 * math.asinh(math.sqrt(nbar)))
        maps = _with_budget_end_at([(1.0, 1.0, 0.0, 0.0)], nbar, x_of(total, floor), upper)
        channel = _GhChannel(maps, nbar)
        assert channel.x_lo <= channel.x_hi
        with pytest.raises(GHSearchError) as err:
            gh_capacity_for_channel(maps, nbar)
        assert err.value.best_value == -math.inf


def _with_budget_end_at(maps, nbar, x, upper):
    """The channel with one more checkpoint, before the output, that puts
    the upper (slope 1) or the lower (slope -1) end of the budget interval
    at I variance ``x``."""
    if upper:
        mult_i, add, mult_q = 2.0, nbar + 0.5 + 0.5 * POWER_TOL - x, 0.0
    else:
        mult_i, add, mult_q = 0.0, x - nbar - 0.5 + 0.5 * POWER_TOL, 2.0
    return [*maps[:-1], (mult_i, mult_q, add, add), maps[-1]]


def _seed_channel(length, amps, kind, nbar=100.0):
    plan = equidistant_saturating_plan(length, amps, nbar, 0.2, kind, Scenario.GORDON_HOLEVO).plan
    return channel_checkpoints(plan)


@st.composite
def curve_channels(draw):
    """(checkpoint maps, nbar) of PSA links, where the water filling mostly takes
    its curve: equidistant seed plans of 1-8 amplifiers over 50-3000 km at nbar
    1e-2 to 1e4, half of them with each gain G lowered to G**s, and half mirrored
    so that I carries the signal.  A PIA map amplifies both quadratures alike,
    so its optimum is the closed form and it never reaches the curve."""
    amps = draw(st.integers(1, 8))
    length = draw(st.floats(50.0, 3000.0))
    nbar = 10.0 ** draw(st.floats(-2.0, 4.0))
    plan = equidistant_saturating_plan(length, amps, nbar, 0.2, AmpKind.PSA,
                                       Scenario.GORDON_HOLEVO).plan
    if draw(st.booleans()):
        shares = draw(st.lists(st.floats(0.0, 1.0), min_size=amps, max_size=amps))
        plan = LinkPlan(0.2, length, nbar, plan.positions,
                        [gain ** s for gain, s in zip(plan.gains, shares)], AmpKind.PSA)
    maps = channel_checkpoints(plan)
    if draw(st.booleans()):
        maps = _mirrored(maps)
    return maps, nbar


# A link whose output noise lies 4618 above vacuum, where float chi cancels
# about 1.5e-12 relative: it puts the search's input 1.9e-12 relative below
# the grid's, the decimal oracle 4.9e-13 above it.
_FAR_MULT = [1.0, 0.9784530694926764, 0.9999977980825794, 7.271751743483416e-10,
             6.892166302473582e-06, 3.358735063270415e-06]
_FAR_ADD = [0.0, 0.010773465253661796, 0.022020275165066307, 0.49999999965242425,
            9477.499996705677, 4618.892938679526]
_FAR = [(mult, mult, add, add) for mult, add in zip(_FAR_MULT, _FAR_ADD)]


class TestGhStructuredSearch:
    @settings(max_examples=200, derandomize=True)
    @given(st.one_of(feasible_gh_channels(), gh_link_channels()))
    @example((_FAR, 1e4))
    def test_never_below_the_grid_search(self, channel_data):
        maps, nbar = channel_data
        try:
            grid = gh_reference.gh_capacity(_GhChannel(maps, nbar)).bits_per_mode
        except GHSearchError:
            assume(False)
        result = gh_capacity_for_channel(maps, nbar)
        # Where the output noise lies within 1e-4 of vacuum, chi carries the
        # rounding of that excess, more than 1e-12 relative, and a search
        # that samples more points finds higher rounding
        # (test_decimal_oracle.py, _RESOLVED_EXCESS).
        if _noise_excess(maps, result.achieving_input) < 1e-4:
            return
        if not result.bits_per_mode >= grid * (1.0 - 1e-12):
            # float chi misranks the two inputs; the decimal oracle ranks them
            _, p, r = _gh_optimum(_GhChannel(maps, nbar))
            _, grid_p, grid_r = gh_reference.gh_search(_GhChannel(maps, nbar))
            found = decimal_oracle.chi(maps, p, r, nbar)
            best = decimal_oracle.chi(maps, grid_p, grid_r, nbar)
            assert found >= best * (1 - Decimal("1e-15"))

    @pytest.mark.parametrize("maps, nbar", [
        # lossless: a_i = a_q = 0, so the noise has no least squeezing
        ([(1.0, 1.0, 0.0, 0.0)], 10.0),
        # the PIA continuum at 1e6 km: m_i = m_q = 9.6e-199, whose product underflows
        (channel_maps(AmpKind.PIA, [0.0, 1e6], 100.0), 100.0),
        # the PSA continuum at 1e4 km: the Q map has underflowed to 0
        (channel_maps(AmpKind.PSA, [0.0, 1e4], 100.0), 100.0),
    ], ids=["lossless", "pia-1e6-km", "psa-1e4-km"])
    def test_degenerate_maps_take_the_fallback_search(self, maps, nbar):
        channel = _GhChannel(maps, nbar)
        reference = gh_reference.gh_capacity(channel).bits_per_mode
        assert gh_capacity_for_channel(maps, nbar).bits_per_mode >= reference * (1.0 - 1e-12)

    def test_corner_optimum_reaches_the_grid_reference(self):
        # The optimum puts X on x_hi at p = 1, a corner, which a golden-section
        # search nears only linearly: it stopped 6.6e-10 relative short before
        # the corners and ends were scored after it.  The subnormal Q multiplier
        # leaves the map to the piecewise search, whose pieces end at corners.
        maps, nbar = [(3.96, 5e-324, 1.815, 1.849)], 1.517
        channel = _GhChannel(maps, nbar)
        reference = gh_reference.gh_capacity(channel).bits_per_mode
        assert gh_capacity_for_channel(maps, nbar).bits_per_mode >= reference * (1.0 - 1e-12)

    def test_end_rounded_out_of_budget_reaches_the_grid_reference(self):
        # Rounding puts the upper end of the feasible squeezings out of budget
        # (chi -inf there) while the optimum lies on it; a golden-section search
        # stopped 7.6e-11 relative short before such an end was scored one
        # double in.  The piecewise search steps such an end inward.
        maps, nbar = [(0.6236, 3.0547, 0.0, 0.8724)], 1.0
        channel = _GhChannel(maps, nbar)
        r_hi = min(math.asinh(1.0), 0.5 * math.log(2.0 * (3.0 - channel.x_lo)))
        assert channel.chi(r_hi) == (-math.inf, 0.0)
        reference = gh_reference.gh_capacity(channel).bits_per_mode
        assert reference == 0.15192089356911284
        assert gh_capacity_for_channel(maps, nbar).bits_per_mode >= reference

    def test_corner_rounded_out_of_budget_for_several_doubles(self):
        # The optimum is the corner where X on x_lo meets p = 1, the upper end
        # of the feasible squeezings, and rounding puts that end and the next
        # doubles below it out of budget.  A search that stepped in one double
        # fell 7.8% short; a golden-section search, 3.8e-12 relative short.
        maps, nbar = [(0.6606, 0.6606, 0.3838, 0.3838)], 3.8939
        maps = _with_budget_end_at(maps, nbar, 8.5349, upper=False)
        channel = _GhChannel(maps, nbar)
        r_hi = 0.5 * math.log(2.0 * (channel.total - channel.x_lo))
        assert channel.chi(r_hi) == channel.chi(math.nextafter(r_hi, 0.0)) == (-math.inf, 0.0)
        reference = gh_reference.gh_capacity(channel).bits_per_mode
        assert gh_capacity_for_channel(maps, nbar).bits_per_mode >= reference * (1.0 - 1e-12)

    @pytest.mark.parametrize("kind, length, amps", [
        (AmpKind.PSA, 260.0, 2),  # the curve on which Q carries no signal
        (AmpKind.PIA, 150.0, 1),  # the interior optimum
    ])
    def test_only_optima_past_the_budget_bounds_take_the_fallback_search(self, kind, length,
                                                                          amps):
        # An X* on the budget interval, however close to its end, is the
        # optimum; one past the end is not, and the optimum lies on that end.
        maps, nbar = _seed_channel(length, amps, kind), 100.0
        _, p, r = _gh_optimum(_GhChannel(maps, nbar))
        noise_i, _, budget = _squeezed_floor(r, nbar)
        x = noise_i + p * budget
        upper = x <= nbar + 0.5
        for share in (1e-6, 1e-9, -1e-9, -1e-3):
            end = x + (share if upper else -share) * (2.0 * nbar + 1.0)
            near = _with_budget_end_at(maps, nbar, end, upper)
            channel = _GhChannel(near, nbar)
            reference = gh_reference.gh_capacity(channel).bits_per_mode
            assert (gh_capacity_for_channel(near, nbar).bits_per_mode
                    >= reference * (1.0 - 1e-12))

    @pytest.mark.parametrize("share", [1e-3, 1e-1])
    @pytest.mark.parametrize("upper", [True, False], ids=["upper-end", "lower-end"])
    @pytest.mark.parametrize("kind, length, amps", [
        (AmpKind.PIA, 150.0, 1), (AmpKind.PIA, 600.0, 3), (AmpKind.PSA, 60.0, 1)])
    def test_budget_end_short_of_the_peak_keeps_the_least_noise(self, kind, length, amps,
                                                                 upper, share):
        # With X held on a budget end short of X*, chi = G(X) - H(r) moves with
        # r through H alone, so r* is the optimum, to the bit.  A golden-section
        # search over r landed 8.8e-10 to 1.1e-7 away from it.
        maps, nbar = _seed_channel(length, amps, kind), 100.0
        mi, mq, ai, aq = _GhChannel(maps, nbar).out
        r_star = 0.25 * (math.log(mi) + math.log(aq) - math.log(ai) - math.log(mq))
        x_star = nbar + 0.5 + (mi * aq - mq * ai) / (2.0 * mi * mq)
        near = _with_budget_end_at(maps, nbar, x_star * (1.0 - share if upper else 1.0 + share),
                                   upper)
        assert _gh_optimum(_GhChannel(near, nbar))[2] == r_star
        achieving = gh_capacity_for_channel(near, nbar).achieving_input
        assert (achieving.noise_i, achieving.noise_q) == _squeezed_floor(r_star, nbar)[:2]

    def test_squeezing_past_the_budget_is_classified_at_the_bound(self):
        # The noise of the 260 km PSA seed plan is least at r* = 3.62, past
        # r_cap = asinh(10) = 3.00; the optimum is where Q carries no signal.
        channel = _GhChannel(_seed_channel(260.0, 2, AmpKind.PSA), 100.0)
        mi, mq, ai, aq = channel.out
        assert 0.25 * math.log(mi * aq / (ai * mq)) > math.asinh(10.0) + 0.5
        value, p, _ = _gh_optimum(channel)
        assert p == 1.0
        assert value >= gh_reference.gh_search(channel)[0] * (1.0 - 1e-12)

    @pytest.mark.parametrize("kind, most_chi, most_slopes", [(AmpKind.PSA, 3, 12),
                                                             (AmpKind.PIA, 1, 0)])
    def test_sweep_gh_seed_plans_need_few_chi_calls(self, kind, most_chi, most_slopes):
        # the benchmark's GH sweep scores these ten seed plans, 50-500 km at
        # R = 2; PSA takes the curve, a root-find on chi's slope whose iterate and
        # bracket ends are scored once each, PIA the closed form, one chi call each
        for length in range(50, 501, 50):
            maps = _seed_channel(float(length), 2, kind)
            calls, slopes = [], []
            with mock.patch.object(capacity, "_chi",
                                   lambda *args: calls.append(args) or _chi(*args)), \
                 mock.patch.object(capacity, "_chi_partials",
                                   lambda *args: slopes.append(args) or _chi_partials(*args)):
                gh_capacity_for_channel(maps, 100.0)
            assert len(calls) <= most_chi and len(slopes) <= most_slopes

    @pytest.mark.parametrize("nbar", [0.0, 100.0])
    def test_a_channel_without_checkpoints_is_refused(self, nbar):
        with pytest.raises(ValueError, match="at least one checkpoint"):
            gh_capacity_for_channel([], nbar)

    @pytest.mark.parametrize("maps, budgets", [
        ([(1.0, 1.0, 0.0)], [0.0, 100.0]),
        ([(1.0, 1.0, 0.0, 0.0, 0.0)], [0.0, 100.0]),
        # an interior checkpoint too, with or without a budget to hold
        ([(1.0, 1.0, 0.0), (1.0, 1.0, 0.0, 0.0)], [0.0, 100.0]),
        ([(1.0, 1.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0)], [0.0, 100.0]),
    ], ids=["output-of-3", "output-of-5", "interior-of-3", "interior-of-5"])
    def test_a_checkpoint_of_other_than_four_entries_is_refused(self, maps, budgets):
        for nbar in budgets:
            with pytest.raises(ValueError, match="expected 4"):
                gh_capacity_for_channel(maps, nbar)


def _searched(maps, nbar, curve_search=None):
    """((chi, p, r), whether the search took a curve) of ``_gh_optimum``.  If given,
    ``curve_search(f, lo, hi, xatol)`` maximizes chi in place of the root-find, whose
    (iterate, bracket ends) become (argmax, argmax, argmax)."""
    taken = []
    channel = _GhChannel(maps, nbar)

    def search(slope, lo, hi, xatol):
        taken.append(True)
        if curve_search is None:
            return illinois_root(slope, lo, hi, xatol)
        x = curve_search(lambda r: channel.chi(r)[0], lo, hi, xatol)[0]
        return x, x, x

    with mock.patch.object(capacity, "illinois_root", search):
        return _gh_optimum(channel), bool(taken)


class TestGhCurveSearch:
    def _check_never_below_brent(self, maps, nbar):
        (value, p, r), _ = _searched(maps, nbar)
        (brent, brent_p, brent_r), _ = _searched(maps, nbar, gh_reference.brent_maximize)
        # Where the output noise rounds to vacuum, float chi has no noise term
        # (ROADMAP, far-tail GH rows).  Both searches then land within 1e-7 of
        # r = 0, 3e-6 to 1e-5 relative below the decimal optimum near
        # |r| = 0.003-0.01, and ranking them ranks rounding.
        noise_i, noise_q, _ = _squeezed_floor(r, nbar)
        if _noise_excess(maps, QuadState(0.0, 0.0, noise_i, noise_q)) <= 0.0:
            return
        # Where it lies within 1e-4 of vacuum, float chi carries the rounding of
        # that excess (test_decimal_oracle.py, _RESOLVED_EXCESS), so the decimal
        # oracle ranks the two inputs.
        if decimal_oracle.noise_excess(maps, p, r, nbar) >= Decimal("1e-4"):
            assert value >= brent * (1.0 - 1e-12)
        else:
            assert (decimal_oracle.chi(maps, p, r, nbar)
                    >= decimal_oracle.chi(maps, brent_p, brent_r, nbar) * (1 - Decimal("1e-12")))

    @staticmethod
    def _curve_taken(maps, nbar):
        """Whether ``_gh_optimum`` returns the optimum of one curve root-find.  It is
        then, bit for bit, the first best (chi, p, r) of ``channel.chi`` at the
        root-find's iterate and both bracket ends, each scored once, in that order,
        with the split that scoring gave; and no ``chi`` call writes to the channel."""
        channel = _GhChannel(maps, nbar)
        fields = dict(vars(channel))
        found = [v.hex() for v in _gh_optimum(channel)]
        assert vars(channel) == fields
        roots, scored, chi = [], [], _GhChannel.chi

        def root(*args):
            roots.append(illinois_root(*args))
            return roots[-1]

        with mock.patch.object(capacity, "illinois_root", root), \
             mock.patch.object(_GhChannel, "chi", lambda self, r: scored.append(r) or chi(self, r)):
            assert [v.hex() for v in _gh_optimum(channel)] == found
        if len(roots) != 1:  # none, or the piecewise search's two after it
            return False
        assert scored == list(roots[0])
        best = None
        for r in roots[0]:
            value, p = channel.chi(r)
            if best is None or value > best[0]:
                best = value, p, r
        assert [v.hex() for v in best] == found
        return True

    @pytest.mark.parametrize("length", range(50, 501, 50))
    def test_curve_optimum_is_the_first_best_of_three_scorings(self, length):
        # every seed plan of the benchmark's PSA sweep but the 50 km one, whose
        # optimum is the closed form, takes the curve
        taken = self._curve_taken(_seed_channel(float(length), 2, AmpKind.PSA), 100.0)
        assert taken == (length > 50)

    @settings(max_examples=200, derandomize=True)
    @given(curve_channels())
    def test_curve_optimum_of_drawn_maps_is_the_first_best_of_three_scorings(self,
                                                                            channel_data):
        assume(self._curve_taken(*channel_data))

    @pytest.mark.parametrize("length", range(50, 501, 50))
    def test_sweep_gh_seed_plans_are_never_below_brent(self, length):
        self._check_never_below_brent(_seed_channel(float(length), 2, AmpKind.PSA), 100.0)

    @settings(max_examples=200, derandomize=True)
    @given(curve_channels())
    def test_never_below_brent(self, channel_data):
        maps, nbar = channel_data
        assume(_searched(maps, nbar)[1])
        self._check_never_below_brent(maps, nbar)

    @settings(max_examples=100, derandomize=True)
    @given(curve_channels(), st.floats(-0.95, 0.95))
    def test_slope_is_the_decimal_central_difference(self, channel_data, share):
        # Along both curves, the slope at r is the decimal chi's central
        # difference, where the output noise is resolved: within 1e-4 of vacuum
        # the float noise excess itself carries more than 1e-12 of rounding.
        maps, nbar = channel_data
        r_cap = math.asinh(math.sqrt(nbar))
        r = share * r_cap
        assume(decimal_oracle.noise_excess(maps, 0.0, r, nbar) >= Decimal("1e-4"))
        lo, hi = r - 1e-6 * r_cap, r + 1e-6 * r_cap
        out = maps[-1]
        for q_carries, p in ((True, 0.0), (False, 1.0)):
            slope = _curve(out, nbar, q_carries)(r)
            central = ((decimal_oracle.chi(maps, p, hi, nbar)
                        - decimal_oracle.chi(maps, p, lo, nbar)) / (Decimal(hi) - Decimal(lo)))
            assert abs(Decimal(slope) - central) <= Decimal("1e-6") * abs(central)


class TestGhQuantumChannels:
    @pytest.mark.parametrize("maps, message", [
        # least variance product 15/64: the search found 2.88 bits here, the grid
        # reference a Heisenberg error at some squeezings
        ([(0.0, 1.0, 0.5, 0.46875)], r"least variance product 0\.234375"),
        ([(1.0, 1.0, -0.5, 1.0)], "must be non-negative"),
        ([(1.0, 1.0, 0.5, 0.5), (1.0, 1.0, 0.5, -1.0)], "must be non-negative"),
    ])
    def test_non_quantum_output_is_refused_before_the_search(self, maps, message,
                                                             monkeypatch):
        calls = []
        monkeypatch.setattr(_GhChannel, "chi", lambda self, r: calls.append(r))
        with pytest.raises(ValueError, match=message):
            gh_capacity_for_channel(maps, 10.0)
        assert calls == []

    @settings(max_examples=300)
    @given(st.one_of(feasible_gh_channels(), gh_link_channels()))
    # a unit-gain amplifier leaves pure loss, whose product rounds to 1/4 - 6e-17
    @example((channel_checkpoints(LinkPlan(0.2, 50.0, 1.0, (2.3,), (1.0,))), 1.0))
    def test_link_channels_are_never_refused(self, channel_data):
        maps, nbar = channel_data
        assert _kind(_outcome(gh_capacity_for_channel, maps, nbar)) is not ValueError


class TestGhBudgetRange:
    @pytest.mark.parametrize("run", [
        lambda: optimize_plan(50.0, 4, 1e6, 0.2, AmpKind.PIA, Scenario.GORDON_HOLEVO),
        lambda: distributed_rows([100.0], 1e6, 0.2, AmpKind.PSA, Scenario.GORDON_HOLEVO),
        lambda: gh_capacity_for_channel([(1.0, 1.0, 0.0, 0.0)], 1e6),
    ], ids=["optimize_plan", "distributed_rows", "gh_capacity_for_channel"])
    def test_budget_above_bound_is_refused(self, run):
        # the first raised GHSearchError by chance of rounding, the second
        # returned a row
        with pytest.raises(ValueError, match="MAX_GH_NBAR"):
            run()

    @pytest.mark.parametrize("nbar", [1e-17, 1e-20, 1e-300])
    @pytest.mark.parametrize("kind", [AmpKind.PSA, AmpKind.PIA])
    def test_tiny_budget_gives_a_row(self, kind, nbar):
        # 2*nbar + 1 - cosh(2r) and acosh(2*nbar + 1) cancelled to 0, so no
        # input met the budget
        assert _squeezed_floor(0.0, nbar)[2] == 2.0 * nbar
        discrete = optimize_plan(50.0, 1, nbar, 0.2, kind, Scenario.GORDON_HOLEVO).score
        (row,) = distributed_rows([50.0], nbar, 0.2, kind, Scenario.GORDON_HOLEVO)
        for bits in (discrete, row.capacity_bits_per_mode):
            assert 0.0 <= bits <= entropy_g(nbar)


class TestScenarioInput:
    @pytest.mark.parametrize("scenario, make", [
        (Scenario.CONVENTIONAL, conventional_input),
        (Scenario.TWO_QUADRATURE, symmetric_coherent_input),
        (Scenario.GORDON_HOLEVO, conventional_input),
    ])
    def test_each_scenario_gets_its_reference_input(self, scenario, make):
        # two-quadrature detection splits the budget evenly between the
        # quadratures; the others put all of it in the I quadrature
        assert scenario_input(scenario, 100.0) == make(100.0)


NAN = math.nan


class TestNonFiniteInputs:
    @pytest.mark.parametrize("call", [
        lambda: QuadState(NAN, 0.0, 0.5, 0.5),
        lambda: QuadState(0.0, 0.0, 0.5, NAN),
        lambda: attenuation_to_natural(NAN),
        lambda: attenuation_to_natural(math.inf),
        lambda: propagate(LinkPlan(0.2, NAN, 100.0), conventional_input(100.0)),
        lambda: propagate(LinkPlan(0.2, 100.0, NAN), conventional_input(100.0)),
        lambda: gh_capacity(LinkPlan(0.2, 100.0, math.inf)),
        lambda: LinkPlan(0.2, 100.0, 100.0, (50.0,), (math.inf,), AmpKind.PIA),
        lambda: LinkPlan(0.2, 100.0, 100.0, (50.0,), (NAN,), AmpKind.PSA),
        lambda: optimize_plan(100.0, 1, NAN, 0.2),
        lambda: optimize_plan(100.0, 0, NAN, 0.2, AmpKind.PIA, Scenario.TWO_QUADRATURE),
        lambda: channel_maps(AmpKind.PSA, [10.0], NAN),
        lambda: channel_maps(AmpKind.PIA, [10.0], NAN),
        lambda: channel_maps(AmpKind.PSA, [10.0, NAN], 100.0),
        lambda: channel_maps(AmpKind.PIA, [math.inf], 100.0),
        lambda: gh_capacity_for_channel([(1.0, 1.0, 0.0, 0.0)], NAN),
        lambda: gh_capacity_for_channel([(1.0, 1.0, 0.0, 0.0)], -1.0),
        lambda: closed_form_psa(NAN, 100.0),
        lambda: closed_form_psa(100.0, NAN),
        lambda: approx_capacity_psa(NAN, 100.0),
        lambda: approx_capacity_pia(100.0, NAN),
    ], ids=["state-signal", "state-noise", "alpha-nan", "alpha-inf", "plan-length",
            "plan-nbar", "plan-nbar-inf", "plan-gain-inf", "plan-gain-nan", "optimize-nbar",
            "optimize-no-amps-nbar", "maps-psa-nbar", "maps-pia-nbar", "maps-position",
            "maps-position-inf", "gh-nbar", "gh-nbar-negative", "closed-form-length",
            "closed-form-nbar", "approx-psa-length", "approx-pia-nbar"])
    def test_is_refused_instead_of_scoring_nan(self, call):
        # each of these passed validation and came out as a NaN (or, for a
        # negative GH budget, as 0 bits)
        with pytest.raises(ValueError):
            call()
