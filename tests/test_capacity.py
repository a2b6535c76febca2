import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from qlink import (
    AmpKind,
    GHSearchError,
    LinkPlan,
    QuadState,
    Scenario,
    apply_psa,
    attenuation_to_natural,
    channel_checkpoints,
    check_power_constraint,
    conventional_input,
    entropy_g,
    gaussian_state_entropy,
    gh_capacity,
    gh_capacity_at,
    holevo_chi,
    integrate_pia,
    integrate_psa,
    plan_capacity,
    propagate,
    shannon_single_quadrature,
    shannon_two_quadrature,
    vacuum_state,
)
from qlink.linkchain import POWER_TOL
from qlink.optimizer import equidistant_saturating_plan

from conftest import quad_states

ALPHA = attenuation_to_natural(0.2)


def loss_only_plan(length_km, nbar=100.0):
    return LinkPlan.from_amp_positions(0.2, length_km, nbar)


class TestShannon:
    def test_unit_snr_gives_half_bit(self):
        assert shannon_single_quadrature(QuadState(0.5, 0.0, 0.5, 0.5)) == pytest.approx(0.5)

    def test_no_signal_no_information(self):
        assert shannon_single_quadrature(vacuum_state()) == 0.0

    @given(st.floats(0.0, 1e4), st.floats(0.01, 1.0))
    def test_loss_only_closed_form(self, nbar, tau):
        length = -math.log(tau) / ALPHA
        out, _ = propagate(loss_only_plan(length, nbar), conventional_input(nbar))
        expected = 0.5 * math.log2(1.0 + 4.0 * nbar * tau)
        assert shannon_single_quadrature(out) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_two_quadrature_vacuum(self):
        assert shannon_two_quadrature(vacuum_state()) == 0.0

    @given(st.floats(0.0, 1e4), st.floats(0.5, 20.0))
    def test_two_quadrature_symmetric_reduces_to_single_log(self, sig, noise):
        state = QuadState(sig, sig, noise, noise)
        expected = math.log2(1.0 + sig / (noise + 0.5))
        assert shannon_two_quadrature(state) == pytest.approx(expected, rel=1e-12)

    @given(quad_states(), st.floats(1.0, 100.0))
    def test_single_quadrature_invariant_under_output_psa(self, state, gain):
        assert shannon_single_quadrature(apply_psa(state, gain)) == pytest.approx(
            shannon_single_quadrature(state), rel=1e-12
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


class TestHolevoChi:
    def test_no_modulation_no_information(self):
        assert holevo_chi((0.7, 0.9), (0.7, 0.9)) == 0.0

    def test_lossless_even_split_recovers_thermal_entropy(self):
        nbar = 100.0
        assert holevo_chi((nbar + 0.5, nbar + 0.5), (0.5, 0.5)) == pytest.approx(
            entropy_g(nbar), rel=1e-12
        )

    def test_single_quadrature_modulation_value(self):
        # g(sqrt(200.5 * 0.5) - 1/2), frozen via the entropy oracle
        chi = holevo_chi((200.5, 0.5), (0.5, 0.5))
        assert chi == pytest.approx(entropy_g(9.512492197250394), rel=1e-12)
        assert chi == pytest.approx(4.765824181112507, rel=1e-10)

    def test_rejects_non_dominating_total(self):
        with pytest.raises(ValueError, match="dominate"):
            holevo_chi((0.4, 0.5), (0.5, 0.5))

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
        plan = LinkPlan.from_amp_positions(0.2, 10.0, 0.0)
        assert gh_capacity(plan).bits_per_mode == 0.0

    def test_deterministic(self):
        plan = equidistant_saturating_plan(150.0, 2, 100.0, 0.2).plan()
        first = gh_capacity(plan)
        second = gh_capacity(plan)
        assert first == second

    def test_unreachable_budget_raises_with_diagnostic(self):
        # gain so large that every input, however squeezed, overshoots
        plan = LinkPlan.from_amp_positions(0.2, 10.0, 100.0, [5.0], [1e6])
        with pytest.raises(GHSearchError) as err:
            gh_capacity(plan)
        assert err.value.best_value < 0.0

    @pytest.mark.parametrize("length,amps", [(30.0, 0), (100.0, 1), (300.0, 2), (150.0, 4)])
    def test_dominates_conventional_shannon(self, length, amps):
        plan = equidistant_saturating_plan(length, amps, 100.0, 0.2).plan()
        out, _ = propagate(plan, conventional_input(100.0))
        conventional = shannon_single_quadrature(out)
        assert gh_capacity(plan).bits_per_mode >= conventional - 1e-6

    def test_achieving_input_reproduces_score_by_propagation(self):
        plan = equidistant_saturating_plan(200.0, 2, 100.0, 0.2).plan()
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


def _grid_oracle(mult_i, add_i, mult_q, add_q, nbar, n_p=201, n_r=201):
    """Best Holevo chi over a dense (split, squeezing) grid of inputs that
    keep every checkpoint within the photon budget."""
    mult_i, add_i, mult_q, add_q = (np.asarray(a, dtype=float)
                                    for a in (mult_i, add_i, mult_q, add_q))
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


def _checkpoint_arrays(plan):
    points = channel_checkpoints(plan)
    return tuple([getattr(cm, name) for _, cm in points]
                 for name in ("mult_i", "add_i", "mult_q", "add_q"))


DISCRETE_ORACLE_PLANS = {
    "equidistant-100km-R2": lambda: equidistant_saturating_plan(100.0, 2, 100.0, 0.2).plan(),
    "equidistant-300km-R4": lambda: equidistant_saturating_plan(300.0, 4, 100.0, 0.2).plan(),
    "pia-150km-R1": lambda: equidistant_saturating_plan(
        150.0, 1, 100.0, 0.2, AmpKind.PIA, Scenario.GORDON_HOLEVO).plan(),
    "uneven-80km": lambda: LinkPlan.from_amp_positions(
        0.2, 80.0, 100.0, [20.0, 50.0], [3.0, 2.0]),
    "loss-only-40km": lambda: loss_only_plan(40.0, nbar=10.0),
}


class TestGhExactSearch:
    @pytest.mark.parametrize("name", sorted(DISCRETE_ORACLE_PLANS))
    def test_discrete_beats_dense_grid_and_meets_budget(self, name):
        plan = DISCRETE_ORACLE_PLANS[name]()
        result = gh_capacity(plan)
        assert result.bits_per_mode >= _grid_oracle(*_checkpoint_arrays(plan), plan.nbar) - 1e-12
        _, trace = propagate(plan, result.achieving_input)
        assert check_power_constraint(trace, plan.nbar) == []

    @pytest.mark.parametrize("integrate", [integrate_psa, integrate_pia])
    def test_distributed_beats_dense_grid_and_meets_budget(self, integrate):
        profile = integrate(200.0, 100.0, 0.2, 0.5, track_channel=True)
        arrays = (profile.mult_i, profile.add_i, profile.mult_q, profile.add_q)
        result = gh_capacity_at(profile)
        assert result.bits_per_mode >= _grid_oracle(*arrays, 100.0, n_p=101, n_r=101) - 1e-12
        state = result.achieving_input
        photons = 0.5 * (profile.mult_i * (state.sig_i + state.noise_i) + profile.add_i
                         + profile.mult_q * (state.sig_q + state.noise_q) + profile.add_q) - 0.5
        assert photons.max() <= 100.0 + POWER_TOL

    def test_zero_capacity_edge_is_finite(self):
        # 400 dB of loss behind four budget-restoring amplifiers
        plan = equidistant_saturating_plan(2000.0, 4, 100.0, 0.2).plan()
        result = gh_capacity(plan)
        assert math.isfinite(result.bits_per_mode)
        assert result.bits_per_mode >= 0.0


class TestPlanCapacity:
    def test_dispatch_matches_functionals(self):
        plan = loss_only_plan(50.0)
        out, _ = propagate(plan, conventional_input(100.0))
        assert plan_capacity(plan, Scenario.CONVENTIONAL).bits_per_mode == pytest.approx(
            shannon_single_quadrature(out)
        )
        assert plan_capacity(plan, Scenario.GORDON_HOLEVO).bits_per_mode == pytest.approx(
            gh_capacity(plan).bits_per_mode
        )

    def test_two_quadrature_uses_symmetric_input(self):
        plan = loss_only_plan(50.0)
        result = plan_capacity(plan, Scenario.TWO_QUADRATURE)
        assert result.achieving_input.sig_i == result.achieving_input.sig_q
