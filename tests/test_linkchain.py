import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from qlink import (
    AmpKind,
    LinkPlan,
    QuadState,
    attenuation_to_natural,
    channel_checkpoints,
    conventional_input,
    propagate,
)
from qlink.linkchain import MAX_NBAR
from qlink.quadmodel import HEISENBERG_LIMIT, HEISENBERG_TOL

import ceiling_reference
from chain_stages import apply_loss, apply_pia, apply_psa, ceiling, check_power_constraint
from conftest import gains, quad_states, transmissions
from stage_reference import mean_photon_number, vacuum_state


def states_close(a: QuadState, b: QuadState, rel=1e-12, abs_=1e-12):
    for x, y in zip(
        (a.sig_i, a.sig_q, a.noise_i, a.noise_q),
        (b.sig_i, b.sig_q, b.noise_i, b.noise_q),
    ):
        if not math.isclose(x, y, rel_tol=rel, abs_tol=abs_):
            return False
    return True


class TestAttenuation:
    def test_standard_fiber_value(self):
        # independently: ln(10) * 0.2 / 10, and the dB round trip
        alpha = attenuation_to_natural(0.2)
        assert alpha == pytest.approx(0.046051701859880924, rel=1e-12)
        assert 10.0 * math.log10(math.exp(alpha)) == pytest.approx(0.2, rel=1e-12)

    def test_inverse_definition_case(self):
        assert attenuation_to_natural(10.0 * math.log10(math.e)) == pytest.approx(1.0, rel=1e-12)

    def test_linearity(self):
        assert attenuation_to_natural(0.4) == pytest.approx(
            2.0 * attenuation_to_natural(0.2), rel=1e-12
        )

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            attenuation_to_natural(0.0)


class TestStageOperations:
    def test_loss_identity_at_unit_transmission(self):
        state = QuadState(3.0, 1.0, 0.7, 0.6)
        assert apply_loss(state, 1.0) == state

    @given(transmissions)
    def test_vacuum_is_loss_fixed_point(self, tau):
        assert apply_loss(vacuum_state(), tau) == vacuum_state()

    def test_loss_halves_signal_keeps_vacuum_noise(self):
        out = apply_loss(QuadState(200.0, 0.0, 0.5, 0.5), 0.5)
        assert out == QuadState(100.0, 0.0, 0.5, 0.5)

    def test_psa_identity_and_examples(self):
        state = QuadState(3.0, 1.0, 0.7, 0.6)
        assert apply_psa(state, 1.0) == state
        assert apply_psa(vacuum_state(), 2.0) == QuadState(0.0, 0.0, 1.0, 0.25)
        assert apply_psa(QuadState(100.0, 0.0, 0.5, 0.5), 2.0) == QuadState(200.0, 0.0, 1.0, 0.25)

    def test_pia_identity_and_examples(self):
        state = QuadState(3.0, 1.0, 0.7, 0.6)
        assert apply_pia(state, 1.0) == state
        assert apply_pia(vacuum_state(), 2.0) == QuadState(0.0, 0.0, 1.5, 1.5)
        assert apply_pia(QuadState(100.0, 100.0, 0.5, 0.5), 2.0) == QuadState(
            200.0, 200.0, 1.5, 1.5
        )

    @given(quad_states(), transmissions, gains)
    def test_heisenberg_preserved_by_all_stages(self, state, tau, gain):
        for out in (apply_loss(state, tau), apply_psa(state, gain), apply_pia(state, gain)):
            assert out.noise_i * out.noise_q >= HEISENBERG_LIMIT - HEISENBERG_TOL

    @given(quad_states(), gains)
    def test_psa_preserves_uncertainty_product(self, state, gain):
        out = apply_psa(state, gain)
        assert out.noise_i * out.noise_q == pytest.approx(
            state.noise_i * state.noise_q, rel=1e-12
        )

    @given(quad_states(), transmissions, transmissions)
    def test_loss_composition(self, state, tau1, tau2):
        twice = apply_loss(apply_loss(state, tau1), tau2)
        once = apply_loss(state, tau1 * tau2)
        assert states_close(twice, once)

    @given(quad_states(), st.floats(1.0, 30.0), st.floats(1.0, 30.0))
    def test_psa_composition(self, state, g1, g2):
        twice = apply_psa(apply_psa(state, g1), g2)
        once = apply_psa(state, g1 * g2)
        assert states_close(twice, once)

    @given(quad_states(), transmissions)
    def test_loss_never_adds_photons(self, state, tau):
        assert mean_photon_number(apply_loss(state, tau)) <= mean_photon_number(state) + 1e-9


def loss_only_plan(length_km, nbar=100.0, alpha_db=0.2):
    return LinkPlan(alpha_db, length_km, nbar)


class TestLinkPlan:
    def test_stage_bookkeeping(self):
        plan = LinkPlan(0.2, 100.0, 100.0, [40.0, 70.0], [3.0, 2.0])
        assert len(plan.positions) == 2
        assert plan.positions == (40.0, 70.0)
        assert plan.gains == (3.0, 2.0)

    def test_zero_length_plan_is_identity(self):
        plan = loss_only_plan(0.0)
        out, trace = propagate(plan, conventional_input(100.0))
        assert out == conventional_input(100.0)
        assert trace.positions == (0.0, 0.0)

    def test_rejects_unordered_positions(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            LinkPlan(0.2, 100.0, 100.0, [70.0, 40.0], [2.0, 2.0])

    def test_rejects_positions_outside_link(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            LinkPlan(0.2, 100.0, 100.0, [100.0], [2.0])

    def test_rejects_gain_below_one(self):
        with pytest.raises(ValueError, match="gains must be >= 1"):
            LinkPlan(0.2, 100.0, 100.0, [40.0, 70.0], [2.0, 0.999])

    @pytest.mark.parametrize("positions, gains", [([40.0, 70.0], [2.0]), ([40.0], [2.0, 2.0])])
    def test_rejects_mismatched_positions_and_gains(self, positions, gains):
        with pytest.raises(ValueError, match="equal length"):
            LinkPlan(0.2, 100.0, 100.0, positions, gains)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError, match="total length"):
            LinkPlan(0.2, -1.0, 100.0)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="photon budget"):
            LinkPlan(0.2, 100.0, -1.0)

    @pytest.mark.parametrize("alpha_db", [0.0, -0.2])
    def test_rejects_non_positive_attenuation(self, alpha_db):
        with pytest.raises(ValueError, match="attenuation"):
            LinkPlan(alpha_db, 100.0, 100.0)

    def test_list_arguments_become_tuples(self):
        plan = LinkPlan(0.2, 100.0, 100.0, [40.0], [2.0])
        assert plan == LinkPlan(0.2, 100.0, 100.0, (40.0,), (2.0,))
        assert hash(plan) == hash(LinkPlan(0.2, 100.0, 100.0, (40.0,), (2.0,)))

    def test_span_whose_transmission_underflows_is_vacuum(self):
        # exp(-alpha*L) rounds to 0.0 past about 16,180 km at 0.2 dB/km
        plan = LinkPlan(0.2, 17000.0, 100.0, [500.0], [2.0])
        out, _ = propagate(plan, conventional_input(100.0))
        assert out == vacuum_state()


class TestPropagate:
    def test_single_span_quarter_transmission(self):
        length = math.log(4.0) / attenuation_to_natural(0.2)
        out, _ = propagate(loss_only_plan(length), conventional_input(100.0))
        assert states_close(out, QuadState(50.0, 0.0, 0.5, 0.5))

    def test_split_span_equals_single_span(self):
        length = 80.0
        whole, _ = propagate(loss_only_plan(length), conventional_input(100.0))
        split_plan = LinkPlan(0.2, length, 100.0, [30.0], [1.0])
        split, _ = propagate(split_plan, conventional_input(100.0))
        assert states_close(whole, split)

    def test_regenerated_two_span_chain(self):
        # value frozen from a by-hand fold of the stage maps:
        # (200,0,.5,.5) --tau=.5--> (100,0,.5,.5) --G=2 PSA--> (200,0,1,.25)
        #   --tau=.5--> (100,0,.75,.375)
        alpha = attenuation_to_natural(0.2)
        seg = math.log(2.0) / alpha
        plan = LinkPlan(0.2, 2 * seg, 100.0, [seg], [2.0])
        out, trace = propagate(plan, conventional_input(100.0))
        assert states_close(out, QuadState(100.0, 0.0, 0.75, 0.375))
        assert states_close(trace.states[1], QuadState(100.0, 0.0, 0.5, 0.5))
        assert states_close(trace.states[2], QuadState(200.0, 0.0, 1.0, 0.25))

    def test_trace_endpoints(self):
        plan = LinkPlan(0.2, 120.0, 100.0, [60.0], [4.0])
        state = conventional_input(100.0)
        out, trace = propagate(plan, state)
        assert trace.states[0] == state
        assert trace.states[-1] == out
        assert trace.positions[0] == 0.0
        assert trace.positions[-1] == pytest.approx(120.0)
        assert all(b >= a for a, b in zip(trace.positions, trace.positions[1:]))

    @given(quad_states())
    def test_channel_checkpoints_match_propagation(self, state):
        plan = LinkPlan(
            0.2, 150.0, 200.0, [40.0, 90.0], [5.0, 3.0], AmpKind.PSA
        )
        _, trace = propagate(plan, state)
        maps = channel_checkpoints(plan)
        assert len(maps) == len(trace.states)
        for (mult_i, mult_q, add_i, add_q), tstate in zip(maps, trace.states):
            mapped = QuadState(mult_i * state.sig_i, mult_q * state.sig_q,
                               mult_i * state.noise_i + add_i, mult_q * state.noise_q + add_q)
            assert states_close(mapped, tstate, rel=1e-10, abs_=1e-10)


class TestPowerConstraint:
    def test_loss_only_link_at_budget_is_feasible(self):
        _, trace = propagate(loss_only_plan(100.0), conventional_input(100.0))
        assert check_power_constraint(trace, 100.0) == []

    def test_restoring_gain_is_boundary_feasible(self):
        state = apply_loss(conventional_input(100.0), 0.5)
        gain = ceiling(state, 100.0, AmpKind.PSA)
        plan = LinkPlan(
            0.2, 2 * math.log(2.0) / attenuation_to_natural(0.2), 100.0,
            [math.log(2.0) / attenuation_to_natural(0.2)], [gain],
        )
        _, trace = propagate(plan, conventional_input(100.0))
        assert check_power_constraint(trace, 100.0) == []

    def test_overdriven_gain_is_flagged_at_the_amplifier(self):
        seg = math.log(2.0) / attenuation_to_natural(0.2)
        state = apply_loss(conventional_input(100.0), 0.5)
        gain = ceiling(state, 100.0, AmpKind.PSA)
        plan = LinkPlan(0.2, 2 * seg, 100.0, [seg], [1.01 * gain])
        _, trace = propagate(plan, conventional_input(100.0))
        violations = check_power_constraint(trace, 100.0)
        assert len(violations) == 1
        position, excess = violations[0]
        assert position == pytest.approx(seg)
        assert excess > 0.5  # one percent extra gain on a ~2x amplifier


class TestFeasibleGain:
    def test_quadratic_root_value_and_restoration(self):
        state = QuadState(100.0, 0.0, 0.5, 0.5)
        gain = ceiling(state, 100.0, AmpKind.PSA)
        # frozen from the quadratic oracle G = (c + sqrt(c^2-4ab)) / (2a)
        assert gain == pytest.approx(1.9975093361076328, rel=1e-12)
        assert mean_photon_number(apply_psa(state, gain)) == pytest.approx(100.0, abs=1e-9)

    def test_vacuum_with_zero_budget(self):
        assert ceiling(vacuum_state(), 0.0, AmpKind.PSA) == 1.0

    def test_saturated_symmetric_state_gets_unit_gain(self):
        state = QuadState(0.0, 0.0, 10.5, 10.5)
        assert ceiling(state, 10.0, AmpKind.PSA) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_state_over_budget(self):
        with pytest.raises(ValueError, match="budget"):
            ceiling(conventional_input(100.0), 50.0, AmpKind.PSA)

    def test_psa_budget_above_max_nbar_is_refused(self):
        # (2*nbar + 1)**2 overflowed at 1e154, and the ceiling came out inf
        with pytest.raises(ValueError, match="MAX_NBAR"):
            ceiling(conventional_input(1e154), 1e154, AmpKind.PSA)
        assert math.isfinite(ceiling(conventional_input(MAX_NBAR), MAX_NBAR, AmpKind.PSA))

    def test_rejects_q_dominated_state(self):
        with pytest.raises(ValueError, match="quadrature"):
            ceiling(QuadState(0.0, 10.0, 0.5, 0.5), 100.0, AmpKind.PSA)

    def test_checks_keep_their_order(self):
        # budget bound, then the photon count, then the quadrature balance,
        # then the root; the PIA ceiling has no budget bound
        with pytest.raises(ValueError, match="MAX_NBAR"):
            ceiling(QuadState(0.0, 400.0, 0.5, 0.5), 1e151, AmpKind.PSA)
        with pytest.raises(ValueError, match="exceeds the photon budget"):
            ceiling(QuadState(0.0, 400.0, 0.5, 0.5), 100.0, AmpKind.PSA)
        with pytest.raises(ValueError, match="no real gain"):
            # within POWER_TOL of the budget, balanced: the root is complex
            ceiling(QuadState(0.0, 0.0, 10.5 + 4e-10, 10.5 + 4e-10), 10.0, AmpKind.PSA)
        assert ceiling(vacuum_state(), 1e151, AmpKind.PIA) == 1e151 + 1.0

    def test_pia_gain_restores_budget(self):
        state = apply_loss(symmetric(), 0.5)
        gain = ceiling(state, 100.0, AmpKind.PIA)
        assert mean_photon_number(apply_pia(state, gain)) == pytest.approx(100.0, abs=1e-9)

    def test_pia_gain_examples(self):
        assert ceiling(vacuum_state(), 1.0, AmpKind.PIA) == pytest.approx(2.0)
        assert ceiling(symmetric(), 100.0, AmpKind.PIA) == pytest.approx(1.0)


def _ceiling_outcome(fn, y, nbar, kind):
    """``fn``'s ceiling as ``float.hex`` (so NaN equals NaN and -0.0 is not
    0.0), or the message of the error it raises."""
    try:
        return fn(y, nbar, kind).hex()
    except ValueError as err:
        return "ValueError: " + str(err)


class TestCeilingReference:
    """The walk's ceiling clips with a comparison; the ``max`` reference decides."""

    @given(quad_states(), st.floats(0.0, 2.0) | st.just(1.0), st.sampled_from(list(AmpKind)))
    def test_equals_the_max_reference_near_the_budget(self, state, share, kind):
        # budgets around the state's own photon count reach every branch,
        # the clip to 1 and the photon-count check included
        nbar = share * mean_photon_number(state)
        y = tuple(state)
        assert (_ceiling_outcome(ceiling, y, nbar, kind)
                == _ceiling_outcome(ceiling_reference.ceiling, y, nbar, kind))

    @given(quad_states(), st.floats(0.0, 1e6), st.sampled_from(list(AmpKind)))
    def test_equals_the_max_reference(self, state, nbar, kind):
        y = tuple(state)
        assert (_ceiling_outcome(ceiling, y, nbar, kind)
                == _ceiling_outcome(ceiling_reference.ceiling, y, nbar, kind))

    @pytest.mark.parametrize("y, nbar, kind, expected", [
        # ties and clips: the root or ratio exactly 1, or just below it
        ((0.0, 0.0, 0.5, 0.5), 0.0, AmpKind.PIA, "0x1.0000000000000p+0"),
        ((0.0, 0.0, 0.5, 0.5), 0.0, AmpKind.PSA, "0x1.0000000000000p+0"),
        ((0.0, 0.0, 10.5 + 4e-10, 10.5 + 4e-10), 10.0, AmpKind.PIA, "0x1.0000000000000p+0"),
        # NaN passes every check and comes out of both clips
        ((0.0, 0.0, 0.5, 0.5), math.nan, AmpKind.PIA, "nan"),
        ((0.0, 0.0, 0.5, 0.5), math.nan, AmpKind.PSA, "nan"),
        ((math.nan, 0.0, 0.5, 0.5), 1.0, AmpKind.PIA, "nan"),
        ((2.0, 0.0, math.nan, 0.5), 1.0, AmpKind.PSA, "nan"),
        # each check, in its order
        ((0.0, 400.0, 0.5, 0.5), 1e151, AmpKind.PSA, "ValueError: the PSA gain ceiling"),
        ((0.0, 400.0, 0.5, 0.5), 100.0, AmpKind.PSA, "ValueError: state already exceeds"),
        ((0.0, 400.0, 0.5, 0.5), 100.0, AmpKind.PIA, "ValueError: state already exceeds"),
        ((0.0, 10.0, 0.5, 0.5), 100.0, AmpKind.PSA, "ValueError: amplified quadrature"),
        ((0.0, 0.0, 10.5 + 4e-10, 10.5 + 4e-10), 10.0, AmpKind.PSA, "ValueError: no real gain"),
    ])
    def test_edge_cases_equal_the_max_reference(self, y, nbar, kind, expected):
        outcome = _ceiling_outcome(ceiling, y, nbar, kind)
        assert outcome.startswith(expected)
        assert outcome == _ceiling_outcome(ceiling_reference.ceiling, y, nbar, kind)


def symmetric():
    return QuadState(100.0, 100.0, 0.5, 0.5)
