import math
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import Phase, given, settings

from qlink import (
    AmpKind,
    QuadState,
    Scenario,
    attenuation_to_natural,
    conventional_input,
    equidistant_saturating_plan,
    scenario_input,
    shannon_capacity,
)
from qlink.capacity import gh_capacity_for_channel
from qlink.distributed import (
    approx_capacity_pia,
    approx_capacity_psa,
    channel_maps,
    InputError,
    continuum_states,
    distributed_rows,
    psa_pia_crossover,
)
from qlink.linkchain import MAX_NBAR
from qlink.quadmodel import HEISENBERG_LIMIT, HEISENBERG_TOL

from rk4_oracle import (
    IntegrationError,
    checkpoint_positions,
    closed_form_psa,
    feedback_gain_pia,
    feedback_gain_psa,
    gh_capacity_at,
    integrate_pia,
    integrate_psa,
    state_at_position,
)
from stage_reference import mean_photon_number

ALPHA = attenuation_to_natural(0.2)

# Every (kind, scenario) pair with a continuum limit.
CONTINUUM_PAIRS = [
    (AmpKind.PSA, Scenario.CONVENTIONAL),
    (AmpKind.PSA, Scenario.GORDON_HOLEVO),
    (AmpKind.PIA, Scenario.CONVENTIONAL),
    (AmpKind.PIA, Scenario.TWO_QUADRATURE),
    (AmpKind.PIA, Scenario.GORDON_HOLEVO),
]


def _rk4(kind, scenario, length, nbar, step):
    gh = scenario is Scenario.GORDON_HOLEVO
    if kind is AmpKind.PSA:
        return integrate_psa(length, nbar, 0.2, step, track_channel=gh)
    return integrate_pia(length, nbar, 0.2, step, scenario=scenario, track_channel=gh)


class TestFeedbackGain:
    def test_settled_conventional_state_reproduces_constant_rate(self):
        # noise in the deamplified quadrature settled at 1/4 while the
        # amplified quadrature carries 2*nbar + 3/4: the feedback equals
        # alpha * (1 - 1/(4*nbar+1)) regardless of the signal/noise split
        nbar = 100.0
        state = QuadState(2.0 * nbar - 0.25, 0.0, 1.0, 0.25)
        gamma = feedback_gain_psa(state, ALPHA)
        assert gamma / ALPHA == pytest.approx(1.0 - 1.0 / (4.0 * nbar + 1.0), rel=1e-12)
        assert gamma / ALPHA == pytest.approx(0.9975062344139651, rel=1e-12)

    def test_fresh_conventional_state_gives_full_rate(self):
        # with both noise floors still at 1/2 the lever arm equals the
        # photon deficit and the feedback reduces to alpha exactly
        state = QuadState(200.0, 0.0, 0.5, 0.5)
        assert feedback_gain_psa(state, ALPHA) == pytest.approx(ALPHA, rel=1e-12)

    def test_rejects_q_dominated_state(self):
        with pytest.raises(ValueError, match="dominate"):
            feedback_gain_psa(QuadState(0.0, 10.0, 0.5, 0.5), ALPHA)

    def test_pia_steady_value(self):
        state = QuadState(100.0, 100.0, 0.5, 0.5)
        assert feedback_gain_pia(state, ALPHA) / ALPHA == pytest.approx(100.0 / 101.0, rel=1e-12)


class TestClosedFormPsa:
    def test_zero_length(self):
        assert closed_form_psa(0.0, 100.0) == pytest.approx((200.0, 0.5))

    def test_half_decay_point(self):
        nbar = 100.0
        length = (4.0 * nbar + 1.0) * math.log(2.0) / ALPHA
        sig, noise = closed_form_psa(length, nbar)
        assert sig == pytest.approx(nbar, rel=1e-12)
        assert noise == pytest.approx(nbar + 0.5, rel=1e-12)

    def test_unit_exponent_values(self):
        sig, noise = closed_form_psa(401.0 / ALPHA, 100.0)
        assert sig == pytest.approx(200.0 / math.e, rel=1e-12)
        assert noise == pytest.approx(200.0 * (1.0 - 1.0 / math.e) + 0.5, rel=1e-12)

    @pytest.mark.parametrize("nbar", [1.0, 50.0, 100.0, 1234.5])
    @pytest.mark.parametrize("length", [0.0, 10.0, 500.0, 20000.0])
    def test_power_identity(self, nbar, length):
        sig, noise = closed_form_psa(length, nbar)
        assert sig + noise == pytest.approx(2.0 * nbar + 0.5, rel=1e-14)


class TestApproxCapacities:
    def test_psa_special_points(self):
        nbar = 100.0
        assert approx_capacity_psa(4.0 * nbar * math.log(2.0) / ALPHA, nbar) == pytest.approx(0.5)
        assert approx_capacity_psa(4.0 * nbar * math.log(4.0 / 3.0) / ALPHA, nbar) == pytest.approx(1.0)

    def test_pia_special_point(self):
        assert approx_capacity_pia(100.0 * math.log(2.0) / ALPHA, 100.0) == pytest.approx(1.0)

    def test_reject_non_positive_length(self):
        for bad in (0.0, -5.0):
            with pytest.raises(ValueError):
                approx_capacity_psa(bad, 100.0)
            with pytest.raises(ValueError):
                approx_capacity_pia(bad, 100.0)

    def test_approximations_cross_once(self):
        # both quadratures win short range, phase-sensitive wins long haul
        assert approx_capacity_pia(100.0, 100.0) > approx_capacity_psa(100.0, 100.0)
        assert approx_capacity_pia(5000.0, 100.0) < approx_capacity_psa(5000.0, 100.0)

    def test_decline_rate_ratio_reaches_four_asymptotically(self):
        # in the deep exponential tail the PIA rate decays four times faster
        lengths = np.linspace(30000.0, 60000.0, 13)
        ln_psa = np.log([approx_capacity_psa(L, 100.0) for L in lengths])
        ln_pia = np.log([approx_capacity_pia(L, 100.0) for L in lengths])
        slope_psa = np.polyfit(lengths, ln_psa, 1)[0]
        slope_pia = np.polyfit(lengths, ln_pia, 1)[0]
        assert slope_pia / slope_psa == pytest.approx(4.0, rel=0.05)


class TestIntegratePsa:
    def test_zero_length_returns_initial_condition(self):
        profile = integrate_psa(0.0, 100.0)
        assert len(profile) == 1
        assert profile.final_state == conventional_input(100.0)

    def test_photon_number_conserved(self):
        profile = integrate_psa(500.0, 100.0, step_km=0.1)
        drift = np.abs(np.asarray(profile.photon_numbers()) - 100.0).max()
        assert drift < 1e-6 * 100.0

    def test_matches_constant_rate_solution_at_unit_exponent(self):
        length = 401.0 / ALPHA
        profile = integrate_psa(length, 100.0, step_km=0.5)
        sig, noise = closed_form_psa(length, 100.0)
        assert profile.final_state.sig_i == pytest.approx(sig, rel=0.01)
        assert profile.final_state.noise_i == pytest.approx(noise, rel=0.01)

    def test_rk4_fourth_order_convergence(self):
        def endpoint(step):
            state = integrate_psa(80.0, 100.0, step_km=step).final_state
            return np.array([state.sig_i, state.sig_q, state.noise_i, state.noise_q])

        reference = endpoint(0.0125)
        err_coarse = np.abs(endpoint(4.0) - reference).max()
        err_mid = np.abs(endpoint(2.0) - reference).max()
        err_fine = np.abs(endpoint(1.0) - reference).max()
        assert 10.0 < err_coarse / err_mid < 26.0
        assert 10.0 < err_mid / err_fine < 26.0

    def test_deamplified_noise_decays_to_fixed_point(self):
        profile = integrate_psa(200.0, 100.0)
        noise_q = np.asarray(profile.noise_q)
        assert (np.diff(noise_q) <= 1e-15).all()
        gamma = profile.gain_coeff[-1]
        assert noise_q[-1] == pytest.approx(ALPHA / (2.0 * (gamma + ALPHA)), abs=1e-4)
        assert (np.asarray(profile.noise_i) * noise_q >= 0.25 - 1e-12).all()

    def test_vacuum_budget_is_singular(self):
        with pytest.raises(IntegrationError) as err:
            integrate_psa(10.0, 0.0)
        assert err.value.position_km == 0.0

    def test_grid_handles_partial_final_step(self):
        profile = integrate_psa(1.05, 100.0, step_km=0.1)
        assert profile.positions[-1] == pytest.approx(1.05)
        assert len(profile) == 12


class TestIntegratePia:
    def test_zero_length_returns_initial_condition(self):
        profile = integrate_pia(0.0, 100.0)
        assert profile.final_state == QuadState(100.0, 100.0, 0.5, 0.5)

    def test_per_quadrature_power_conserved(self):
        profile = integrate_pia(500.0, 100.0, step_km=0.1)
        power = np.asarray(profile.sig_i) + np.asarray(profile.noise_i)
        assert np.abs(power - 100.5).max() < 1e-6 * 100.0
        assert np.allclose(profile.sig_i, profile.sig_q)

    def test_feedback_stays_at_steady_value(self):
        profile = integrate_pia(100.0, 100.0)
        assert np.allclose(np.asarray(profile.gain_coeff) / ALPHA, 100.0 / 101.0, atol=1e-9)

    def test_total_photon_number_conserved_from_conventional_input(self):
        profile = integrate_pia(500.0, 100.0, scenario=Scenario.CONVENTIONAL)
        assert profile.state_at(0) == conventional_input(100.0)
        assert np.abs(np.asarray(profile.photon_numbers()) - 100.0).max() < 1e-9
        assert (np.asarray(profile.sig_q) == 0.0).all()

    def test_capacity_matches_approximation_at_range(self):
        for length in (1000.0, 3000.0, 5000.0):
            profile = integrate_pia(length, 100.0, step_km=0.25)
            exact = shannon_capacity(profile.final_state, Scenario.TWO_QUADRATURE)
            assert exact == pytest.approx(approx_capacity_pia(length, 100.0), rel=0.05)


class TestPsaVsPia:
    def test_pia_wins_short_range_psa_wins_long_range(self):
        conv, two_q = Scenario.CONVENTIONAL, Scenario.TWO_QUADRATURE
        psa_short = shannon_capacity(integrate_psa(10.0, 100.0).final_state, conv)
        pia_short = shannon_capacity(integrate_pia(10.0, 100.0).final_state, two_q)
        assert pia_short > psa_short
        psa_long = shannon_capacity(integrate_psa(5000.0, 100.0, step_km=0.5).final_state, conv)
        pia_long = shannon_capacity(integrate_pia(5000.0, 100.0, step_km=0.5).final_state, two_q)
        assert pia_long < psa_long

    def test_psa_exact_capacity_tracks_approximation(self):
        profile = integrate_psa(2000.0, 100.0, step_km=0.25)
        exact = shannon_capacity(profile.final_state, Scenario.CONVENTIONAL)
        assert exact == pytest.approx(approx_capacity_psa(2000.0, 100.0), rel=0.05)


class TestContinuumLimit:
    """Dense equidistant chains converge to the continuum for every
    (kind, scenario) pair that has one: both start from the same reference
    input (``scenario_input``)."""

    @pytest.mark.parametrize("kind, scenario", CONTINUUM_PAIRS)
    def test_discrete_chain_converges_to_continuum(self, kind, scenario):
        gh = scenario is Scenario.GORDON_HOLEVO
        if kind is AmpKind.PSA:
            profile = integrate_psa(500.0, 100.0, track_channel=gh)
        else:
            profile = integrate_pia(500.0, 100.0, scenario=scenario, track_channel=gh)
        if gh:
            limit = gh_capacity_at(profile).bits_per_mode
        else:
            limit = shannon_capacity(profile.final_state, scenario)
        gaps = [
            abs(limit - equidistant_saturating_plan(500.0, amps, 100.0, 0.2, kind, scenario).score)
            for amps in (64, 256, 1024)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.02

    @pytest.mark.parametrize("kind, scenario", CONTINUUM_PAIRS)
    # unshrunk: shrinking the failures of a broken walk takes minutes
    @settings(derandomize=True, max_examples=25, deadline=None,
              phases=[Phase.explicit, Phase.generate])
    @given(log_nbar=st.floats(-2.0, 4.0), alpha=st.floats(0.15, 0.25),
           loss_share=st.floats(0.05, 1.0))
    def test_two_richardson_steps_reach_the_continuum(self, kind, scenario, log_nbar, alpha,
                                                      loss_share):
        # An equidistant saturating chain of R amplifiers misses the continuum
        # by a regular series in 1/R, so two Richardson steps from R, 2R and
        # 4R, (8 f(4R) - 6 f(2R) + f(R))/3, leave an error of order R^-3 that
        # falls 8x per doubling.  The loss runs up to 20 dB times
        # max(1, nbar)^0.35: deeper, R = 128 spans are too long for the
        # R^-3 term to lead.  Below 1e-7 at the R = 128 base, that term's
        # coefficient is near a change of sign and the next order competes,
        # so the fall is checked above it only.
        nbar = 10.0 ** log_nbar
        length = loss_share * 20.0 * max(1.0, nbar) ** 0.35 / alpha
        (row,) = distributed_rows([length], nbar, alpha, kind, scenario)
        limit = row.capacity_bits_per_mode
        bits = {amps: equidistant_saturating_plan(length, amps, nbar, alpha, kind,
                                                  scenario).score
                for amps in (128, 256, 512, 1024)}

        def error(base):
            two_step = (8.0 * bits[4 * base] - 6.0 * bits[2 * base] + bits[base]) / 3.0
            return abs(two_step - limit) / limit

        assert error(256) <= (1e-6 if nbar <= 100.0 else 1e-5)
        if error(128) >= 1e-7:
            assert error(128) >= 6.0 * error(256)


class TestStateAtPosition:
    def test_on_grid_positions_return_samples(self):
        profile = integrate_psa(10.0, 100.0, step_km=0.5)
        assert state_at_position(profile, 5.0) == profile.state_at(profile.index_at(5.0))

    def test_sub_step_matches_finer_integration(self):
        coarse = integrate_psa(10.0, 100.0, step_km=0.5)
        fine = integrate_psa(10.0, 100.0, step_km=0.05)
        mid = state_at_position(coarse, 5.25)
        expected = fine.state_at(fine.index_at(5.25))
        assert mid.sig_i == pytest.approx(expected.sig_i, rel=1e-9)
        assert mid.noise_i == pytest.approx(expected.noise_i, rel=1e-8)

    def test_rejects_positions_outside_range(self):
        profile = integrate_psa(10.0, 100.0, step_km=0.5)
        with pytest.raises(ValueError):
            state_at_position(profile, 11.0)


class TestDistributedGh:
    def test_requires_channel_tracking(self):
        profile = integrate_psa(50.0, 100.0)
        with pytest.raises(ValueError, match="channel"):
            gh_capacity_at(profile)

    def test_dominates_conventional_detection(self):
        profile = integrate_psa(100.0, 100.0, step_km=0.5, track_channel=True)
        gh = gh_capacity_at(profile).bits_per_mode
        conventional = shannon_capacity(profile.final_state, Scenario.CONVENTIONAL)
        assert gh >= conventional - 1e-6

    def test_interior_index_matches_shorter_integration(self):
        long = integrate_psa(100.0, 100.0, step_km=0.5, track_channel=True)
        short = integrate_psa(50.0, 100.0, step_km=0.5, track_channel=True)
        idx = long.index_at(50.0)
        assert gh_capacity_at(long, idx).bits_per_mode == pytest.approx(
            gh_capacity_at(short).bits_per_mode, rel=1e-9
        )


class TestClosedFormContinuum:
    """The closed-form channel maps against the RK4 oracle, and the
    properties every continuum state must keep."""

    @staticmethod
    def _endpoint_error(kind, scenario, nbar, length, step):
        # What a row at `length` is computed from: the output state for a
        # Shannon row, the output channel map for a Gordon-Holevo one.
        profile = _rk4(kind, scenario, length, nbar, step)
        (exact,) = channel_maps(kind, [length], nbar)
        if scenario is Scenario.GORDON_HOLEVO:
            got = [float(m[-1]) for m in (profile.mult_i, profile.mult_q,
                                          profile.add_i, profile.add_q)]
            want = exact
        else:
            got = profile.final_state
            sig_i, sig_q, noise_i, noise_q = scenario_input(scenario, nbar)
            mult_i, mult_q, add_i, add_q = exact
            want = (sig_i * mult_i, sig_q * mult_q, noise_i * mult_i + add_i,
                    noise_q * mult_q + add_q)
        return max(abs(g - w) / abs(w) for g, w in zip(got, want) if w != 0.0)

    @pytest.mark.parametrize("kind, scenario", CONTINUUM_PAIRS)
    def test_rk4_converges_to_it_at_fourth_order(self, kind, scenario):
        coarse = self._endpoint_error(kind, scenario, 0.01, 300.0, 0.5)
        fine = self._endpoint_error(kind, scenario, 0.01, 300.0, 0.25)
        assert coarse / fine >= 12.0

    @pytest.mark.parametrize("kind, scenario", CONTINUUM_PAIRS)
    def test_rows_match_rk4(self, kind, scenario):
        lengths = [50.0, 250.0, 500.0]
        profile = _rk4(kind, scenario, lengths[-1], 100.0, 0.1)
        exact = [row.capacity_bits_per_mode
                 for row in distributed_rows(lengths, 100.0, 0.2, kind, scenario)]
        if scenario is Scenario.GORDON_HOLEVO:
            oracle = [gh_capacity_at(profile, profile.index_at(L)).bits_per_mode
                      for L in lengths]
        else:
            oracle = [shannon_capacity(profile.state_at(profile.index_at(L)), scenario)
                      for L in lengths]
        # The PSA GH row at 50 km carries RK4's own error at h = 0.1 km:
        # 2.9e-11 relative, falling to 1.8e-12 at h = 0.05 km.
        rel = 1e-10 if (kind, scenario) == (AmpKind.PSA, Scenario.GORDON_HOLEVO) else 1e-12
        assert exact == pytest.approx(oracle, rel=rel, abs=0.0)

    @given(nbar_exp=st.floats(-6.0, 8.0), length=st.floats(0.0, 20000.0),
           pair=st.sampled_from([p for p in CONTINUUM_PAIRS
                                 if p[1] is not Scenario.GORDON_HOLEVO]))
    def test_states_keep_budget_and_heisenberg_limit(self, nbar_exp, length, pair):
        kind, scenario = pair
        nbar = 10.0 ** nbar_exp
        # QuadState refuses a noise product below the Heisenberg limit
        states = continuum_states(kind, scenario, np.linspace(0.0, length, 33), nbar)
        for state in states:
            assert abs(mean_photon_number(state) - nbar) <= 1e-9 * max(1.0, nbar)
        bits = [shannon_capacity(state, scenario) for state in states]
        assert all(later <= earlier for earlier, later in zip(bits, bits[1:]))

    def test_large_budget_near_the_input_keeps_the_heisenberg_limit(self):
        # Offsets formed as P(z) - mult*P(0) cancel here: they come out 2.7e-7
        # off relative, and the noise product 4e-13 below 1/4.
        nbar, z = 1e4, 2.5e-4
        oracle = integrate_psa(z, nbar, 0.2, z, track_channel=True)
        (maps,) = channel_maps(AmpKind.PSA, [z], nbar)
        want = [float(m[-1]) for m in (oracle.mult_i, oracle.mult_q,
                                       oracle.add_i, oracle.add_q)]
        assert list(maps) == pytest.approx(want, rel=1e-12, abs=0.0)
        (state,) = continuum_states(AmpKind.PSA, Scenario.CONVENTIONAL, [z], nbar)
        assert state.noise_i * state.noise_q >= HEISENBERG_LIMIT - HEISENBERG_TOL

    @pytest.mark.parametrize("kind, scenario", [p for p in CONTINUUM_PAIRS
                                                if p[1] is not Scenario.GORDON_HOLEVO])
    def test_states_are_the_maps_applied_to_the_reference_input(self, kind, scenario):
        # one (mult_i, mult_q, add_i, add_q) tuple per position
        positions = [0.0, 0.5, 100.0, 2500.0, 20000.0]
        maps = channel_maps(kind, positions, 100.0)
        assert len(maps) == len(positions)
        assert all(type(m) is tuple and len(m) == 4 for m in maps)
        sig_i, sig_q, noise_i, noise_q = scenario_input(scenario, 100.0)
        assert continuum_states(kind, scenario, positions, 100.0) == [
            (sig_i * mi, sig_q * mq, noise_i * mi + ai, noise_q * mq + aq)
            for mi, mq, ai, aq in maps]

    @given(nbar_exp=st.floats(-6.0, 5.0), z=st.floats(0.0, 20000.0),
           kind=st.sampled_from([AmpKind.PSA, AmpKind.PIA]))
    def test_budget_slope_lies_between_zero_and_one_half(self, nbar_exp, z, kind):
        # distributed_rows holds the Gordon-Holevo budget with one checkpoint
        # of slope 1/2 because no position has a steeper one
        ((mult_i, mult_q, _, _),) = channel_maps(kind, [z], 10.0 ** nbar_exp)
        slope = 0.5 * (mult_i - mult_q)
        if kind is AmpKind.PIA:
            assert slope == 0.0
        else:
            assert 0.0 <= slope <= 0.5

    @given(nbar_exp=st.floats(-300.0, 8.0), loss_exp=st.floats(0.0, 9.0))
    def test_psa_maps_keep_the_photon_count_at_every_length(self, nbar_exp, loss_exp):
        # The maps once formed exponents by cancelling terms of size alpha*z:
        # the output's photon count drifted as 1e-16 * alpha*z (4.9e-9 photons
        # at nbar = 100 and 1e7 km, which failed the Gordon-Holevo budget),
        # and at small budgets the noise product fell below 1/4.
        nbar = 10.0 ** nbar_exp
        (state,) = continuum_states(AmpKind.PSA, Scenario.CONVENTIONAL,
                                    [10.0 ** loss_exp / ALPHA], nbar)
        assert abs(mean_photon_number(state) - nbar) <= 1e-15 * (2.0 * nbar + 1.0)
        assert state.noise_i * state.noise_q >= HEISENBERG_LIMIT - HEISENBERG_TOL

    @pytest.mark.parametrize("kind, scenario", CONTINUUM_PAIRS)
    @pytest.mark.parametrize("nbar, length", [(1e-300, 1e7), (1e-20, 2e6), (1.0, 5.6e8),
                                              (100.0, 1e7), (1e4, 5.6e7), (1e5, 1e9)])
    def test_rows_far_out_are_finite_and_non_rising(self, kind, scenario, nbar, length):
        # PSA Gordon-Holevo rows failed with "no squeezed input meets the
        # photon budget" at these lengths, and the small-budget PSA states
        # broke the Heisenberg limit
        lengths = [length / 100.0, length / 10.0, length]
        bits = [row.capacity_bits_per_mode
                for row in distributed_rows(lengths, nbar, 0.2, kind, scenario)]
        assert all(math.isfinite(b) and b >= 0.0 for b in bits)
        assert bits == sorted(bits, reverse=True)

    @pytest.mark.parametrize("kind", [AmpKind.PSA, AmpKind.PIA])
    def test_gordon_holevo_rows_equal_the_dense_checkpoint_lattice(self, kind):
        lengths = [0.05, 0.37, 1.0, 10.0, 10.15, 55.55, 100.0, 300.0, 777.0, 1500.0,
                   3000.0, 6000.0]
        for nbar in (1e-6, 1e-3, 0.1, 1.0, 3.2, 100.0, 1e3, 1e4, 1e5):
            rows = distributed_rows(lengths, nbar, 0.2, kind, Scenario.GORDON_HOLEVO)
            lattice = [gh_capacity_for_channel(
                channel_maps(kind, checkpoint_positions(length, 0.1), nbar), nbar)
                for length in lengths]
            assert ([row.capacity_bits_per_mode for row in rows]
                    == [result.bits_per_mode for result in lattice])

    def test_checkpoints_are_the_lattice_below_the_length_then_the_length(self):
        assert np.asarray(checkpoint_positions(0.0, 0.1)).tolist() == [0.0]
        assert checkpoint_positions(0.3, 0.1) == pytest.approx([0.0, 0.1, 0.2, 0.3])
        assert checkpoint_positions(0.25, 0.1) == pytest.approx([0.0, 0.1, 0.2, 0.25])
        assert len(checkpoint_positions(10.15, 0.1)) == 103

    def test_psa_two_quadrature_has_no_continuum(self):
        with pytest.raises(ValueError, match="derived only for the conventional input"):
            continuum_states(AmpKind.PSA, Scenario.TWO_QUADRATURE, [1.0], 100.0)

    def test_psa_needs_a_positive_budget(self):
        with pytest.raises(ValueError, match="photon budget"):
            channel_maps(AmpKind.PSA, [1.0], 0.0)
        assert channel_maps(AmpKind.PIA, [1.0], 0.0)[0][2] == pytest.approx(
            -0.5 * math.expm1(-ALPHA))

    @pytest.mark.parametrize("kind", [AmpKind.PSA, AmpKind.PIA])
    def test_budget_above_max_nbar_is_refused(self, kind):
        # at 1e215 the PSA add map's divisor underflowed and the map went infinite
        with pytest.raises(ValueError, match="MAX_NBAR"):
            channel_maps(kind, [10.0], 1e215)
        (maps,) = channel_maps(kind, [10.0], MAX_NBAR)
        assert all(math.isfinite(m) for m in maps)

    @pytest.mark.parametrize("nbar", [1e-3, 1.0, 1e4])
    def test_psa_maps_and_rows_stay_on_their_far_limit_at_any_loss(self, nbar):
        # alpha*z was once capped at 1e9; the maps cancel no exponents of size
        # alpha*z, so they settle and stay there, up to alpha*z = inf (1e307
        # km at 100 dB/km), and every row there is finite and non-negative.
        (settled,) = channel_maps(AmpKind.PSA, [1e8 / ALPHA], nbar)
        edge = 1e9 / ALPHA
        for positions, alpha_db in (([edge * (1.0 - 1e-9), edge * (1.0 + 1e-9), 1e22], 0.2),
                                    ([1e307], 100.0)):
            for got in channel_maps(AmpKind.PSA, positions, nbar, alpha_db):
                assert got == pytest.approx(settled, rel=1e-6, abs=0.0)
            for scenario in (Scenario.CONVENTIONAL, Scenario.GORDON_HOLEVO):
                for row in distributed_rows(positions, nbar, alpha_db, AmpKind.PSA, scenario):
                    assert math.isfinite(row.capacity_bits_per_mode)
                    assert row.capacity_bits_per_mode >= 0.0
        assert channel_maps(AmpKind.PIA, [1e25], nbar)[0][2] == nbar + 0.5


def _crossover_difference(length, nbar, alpha_db_km):
    """PIA two-quadrature minus PSA conventional continuum capacity at ``length``."""
    (psa,) = distributed_rows([length], nbar, alpha_db_km, AmpKind.PSA, Scenario.CONVENTIONAL)
    (pia,) = distributed_rows([length], nbar, alpha_db_km, AmpKind.PIA, Scenario.TWO_QUADRATURE)
    return pia.capacity_bits_per_mode - psa.capacity_bits_per_mode


def _bracketed_crossovers():
    """(nbar, alpha dB/km, l_min, l_max) of those of 300 seeded draws whose range
    brackets a crossing: nbar 1e-2..1e5, alpha 1e-2..3.2 dB/km, l_min 0.1..316 km
    and l_max 3.2..1e4 times l_min, each log-uniform."""
    rng, configs = random.Random(3), []
    for _ in range(300):
        nbar, alpha = 10.0 ** rng.uniform(-2.0, 5.0), 10.0 ** rng.uniform(-2.0, 0.5)
        l_min = 10.0 ** rng.uniform(-1.0, 2.5)
        l_max = l_min * 10.0 ** rng.uniform(0.5, 4.0)
        if (_crossover_difference(l_min, nbar, alpha) > 0.0
                > _crossover_difference(l_max, nbar, alpha)):
            configs.append((nbar, alpha, l_min, l_max))
    return configs


class TestPsaPiaCrossover:
    def test_rows_are_both_pairs_on_the_grid_and_the_crossing_is_bracketed(self):
        rows, crossing = psa_pia_crossover(400.0, 1000.0, 300.0, 100.0)
        grid = [400.0, 700.0, 1000.0]
        assert rows == (distributed_rows(grid, 100.0, 0.2, AmpKind.PSA, Scenario.CONVENTIONAL)
                        + distributed_rows(grid, 100.0, 0.2, AmpKind.PIA,
                                           Scenario.TWO_QUADRATURE))
        assert f"{crossing:.6g}" == "710.169"
        assert _crossover_difference(crossing * (1.0 - 1e-7), 100.0, 0.2) > 0.0
        assert _crossover_difference(crossing * (1.0 + 1e-7), 100.0, 0.2) < 0.0

    @pytest.mark.parametrize("l_min, l_max", [(10.0, 50.0), (6000.0, 9000.0)])
    def test_a_range_without_a_crossing_is_refused(self, l_min, l_max):
        # PIA leads at 10-50 km and PSA at 6000-9000 km
        with pytest.raises(InputError, match="no PSA/PIA crossover bracketed"):
            psa_pia_crossover(l_min, l_max, 10.0, 100.0)
        assert issubclass(InputError, ValueError)

    def test_printed_crossing_is_the_roots(self):
        # The CLI prints the crossing to 6 digits.  A bisection stopped at 1e-3 km
        # printed 28 of these 69 wrong, and 9.35184 for 9.35212 km at nbar 3 on
        # 1-100 km.
        configs = _bracketed_crossovers()
        assert len(configs) >= 50
        wrong = []
        for nbar, alpha, l_min, l_max in configs:
            crossing = psa_pia_crossover(l_min, l_max, l_max - l_min, nbar, alpha)[1]
            lo, hi = l_min, l_max  # bisected to adjacent doubles
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if _crossover_difference(mid, nbar, alpha) > 0.0:
                    lo = mid
                else:
                    hi = mid
            if f"{crossing:.6g}" not in (f"{lo:.6g}", f"{hi:.6g}"):
                wrong.append((nbar, alpha, l_min, l_max, crossing, lo))
        assert wrong == []
