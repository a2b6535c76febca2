"""The chain walk against the per-stage reference algebra.

``stage_reference`` keeps the chain as separate loss, amplifier and ceiling
functions, and the optimizer's gain repair and Shannon trial as loops over
them.  ``qlink`` walks the chain in one loop on four floats
(``linkchain._walk``).  These tests hold every caller of the walk to the
reference: equal ``float.hex`` outputs, and the same exception type and
message.  Single stages and the budget audit reach the library through
``chain_stages``, whose wrappers call ``_walk`` and ``_over_budget``.
"""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, given, settings

import stage_reference
from chain_stages import apply_loss, apply_pia, apply_psa, check_power_constraint
from conftest import quad_states
from qlink import (
    AmpKind,
    GHSearchError,
    LinkPlan,
    QuadState,
    Scenario,
    channel_checkpoints,
    gh_capacity,
    optimize_plan,
    propagate,
)
from qlink import capacity
from qlink.capacity import CapacityResult
from qlink.linkchain import MAX_NBAR, _spans
from qlink.optimizer import _PlanScorer

# A failure reports its first failing example unshrunk: the examples are
# derandomized, and shrinking those of a broken walk takes minutes.
derandomized = settings(derandomize=True, max_examples=150, deadline=None,
                        phases=[Phase.explicit, Phase.generate])

kinds = st.sampled_from([AmpKind.PSA, AmpKind.PIA])
# from no photons up to and past MAX_NBAR, and the budget's edge cases
budgets = (st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e)
           | st.floats(6.0, 152.0).map(lambda e: 10.0 ** e)
           | st.sampled_from([0.0, 1.0, MAX_NBAR, 2.0 * MAX_NBAR, math.inf]))
# below 1, NaN, inf and far above any ceiling
any_gains = st.floats(-1.0, 1e12) | st.sampled_from([0.0, 1.0, math.nan, math.inf])


def hexed(value):
    """``value`` with every float as ``float.hex`` (so NaN equals NaN and
    -0.0 is not 0.0), inside nested tuples and lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [hexed(item) for item in value]
    return value


def outcome(fn, *args):
    """``fn(*args)`` hexed, or the type and message of the exception it raises."""
    try:
        return hexed(fn(*args))
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err).__name__, str(err)


def traced(propagate_fn):
    """A propagation's output, trace positions and trace states, as one tuple."""
    def run(plan, state):
        out, trace = propagate_fn(plan, state)
        return out, trace.positions, trace.states
    return run


@st.composite
def positions_of(draw, length, amps):
    """Amplifier positions on a grid of a thousandth of the link."""
    permille = draw(st.lists(st.integers(1, 999), min_size=amps, max_size=amps, unique=True))
    return [length * k / 1000.0 for k in sorted(permille)]


@st.composite
def close_positions_of(draw, length, amps):
    """Increasing amplifier positions, some spans so short that they keep a
    state at the budget within its tolerance."""
    gaps = draw(st.lists(st.floats(1e-3, 1.0) | st.sampled_from([1e-15, 1e-12, 1e-9]),
                         min_size=amps + 1, max_size=amps + 1))
    total, positions = sum(gaps), []
    for gap in gaps[:-1]:
        positions.append((positions[-1] if positions else 0.0) + length * gap / total)
    return positions


@st.composite
def scorers(draw, scenarios=st.sampled_from(list(Scenario))):
    """(qlink scorer, reference scorer) of the same link."""
    args = (draw(st.floats(1.0, 20000.0)), draw(budgets), 0.2, draw(kinds), draw(scenarios))
    return _PlanScorer(*args), stage_reference.PlanScorer(*args)


class TestFold:
    @derandomized
    @given(kinds, st.integers(0, 12), st.floats(1.0, 20000.0), st.data())
    def test_propagate_and_checkpoints_equal_the_reference(self, kind, amps, length, data):
        positions = data.draw(positions_of(length, amps))
        gains = data.draw(st.lists(st.floats(1.0, 1e12), min_size=amps, max_size=amps))
        plan = LinkPlan(0.2, length, 100.0, positions, gains, kind)
        state = data.draw(quad_states())
        assert (outcome(traced(propagate), plan, state)
                == outcome(traced(stage_reference.propagate), plan, state))
        assert (outcome(channel_checkpoints, plan)
                == outcome(stage_reference.channel_checkpoints, plan))

    @derandomized
    @given(kinds, st.integers(0, 8), st.floats(1.0, 5000.0), st.data())
    def test_power_audit_equals_the_reference(self, kind, amps, length, data):
        # budgets on a traced state's photon count and just either side of
        # the tolerance, so that some traces pass and some fail at any point
        positions = data.draw(positions_of(length, amps))
        gains = data.draw(st.lists(st.floats(1.0, 1e6), min_size=amps, max_size=amps))
        _, trace = propagate(LinkPlan(0.2, length, 100.0, positions, gains, kind),
                             data.draw(quad_states()))
        photons = stage_reference.mean_photon_number(data.draw(st.sampled_from(trace.states)))
        nbar = photons + data.draw(st.sampled_from([-1.0, -2e-9, 0.0, 5e-10, 2e-9, 1.0]))
        assert (outcome(check_power_constraint, trace, nbar)
                == outcome(stage_reference.check_power_constraint, trace, nbar))

    @derandomized
    @given(quad_states(), st.floats(1e-300, 1.0), st.floats(1.0, 1e12))
    def test_single_stages_equal_the_reference(self, state, tau, gain):
        y = tuple(state)
        assert hexed(apply_loss(state, tau)) == hexed(stage_reference._loss(y, tau))
        assert hexed(apply_psa(state, gain)) == hexed(stage_reference._amplify(y, AmpKind.PSA,
                                                                                 gain))
        assert hexed(apply_pia(state, gain)) == hexed(stage_reference._amplify(y, AmpKind.PIA,
                                                                                 gain))


class TestRepairAndTrials:
    @derandomized
    @given(scorers(), st.integers(0, 12), st.data())
    def test_repair_and_score_equal_the_reference(self, pair, amps, data):
        scorer, reference = pair
        positions = data.draw(close_positions_of(scorer.length_km, amps))
        gains = data.draw(st.lists(any_gains, min_size=amps, max_size=amps))
        assert (outcome(lambda *args: scorer.repair_gains(*args)[:4], positions, gains)
                == outcome(reference.repair_gains, positions, gains))
        assert outcome(scorer.score, positions, gains) == outcome(reference.score,
                                                                  positions, gains)

    @derandomized
    @given(scorers(st.sampled_from([Scenario.CONVENTIONAL, Scenario.TWO_QUADRATURE])),
           st.integers(1, 12), st.data())
    def test_trial_from_any_state_equals_the_reference(self, pair, amps, data):
        # A trial walks on from the state it is given: the accepted plan's
        # cached state; a state on the budget or just past it, which an empty
        # span hands to amplifier i unattenuated (a ceiling below 1 is clipped
        # to 1 before the gain is); or any raw tuple (over budget, the
        # deamplified quadrature dominant, NaN).
        scorer, reference = pair
        positions = data.draw(close_positions_of(scorer.length_km, amps))
        gains = data.draw(st.lists(any_gains, min_size=amps, max_size=amps))
        i = data.draw(st.integers(0, amps - 1))
        y = scorer.ref_input
        if i:
            try:
                y = scorer.repair_gains(positions, gains)[2][i - 1]
            except ValueError:
                pass
        excess = scorer.nbar + data.draw(st.sampled_from([0.0, 1e-12, 5e-10, 2e-9]))
        floats = st.floats(0.0, 1e6) | st.sampled_from([-1.0, 0.0, 0.5, math.nan, math.inf])
        y = data.draw(st.sampled_from([y, (2.0 * excess, 0.0, 0.5, 0.5),
                                       (excess, excess, 0.5, 0.5), (0.0, 2.0 * excess, 0.5, 0.5)])
                      | st.tuples(floats, floats, floats, floats))
        if data.draw(st.booleans()):
            positions[i] = positions[i - 1] if i else 0.0
        trial = list(gains)
        trial[i] = data.draw(any_gains)
        assert (outcome(scorer.trial_score, positions, trial, i, y,
                        _spans(scorer.alpha_nat, scorer.length_km, positions))
                == outcome(reference.trial_score, positions, trial, i, y))

    @pytest.mark.parametrize("kind", [AmpKind.PSA, AmpKind.PIA])
    @pytest.mark.parametrize("nbar, y", [
        # on the budget, and within its tolerance past it: a ceiling below 1
        (10.0, (20.0, 0.0, 0.5, 0.5)),
        (10.0, (20.0 + 1e-9, 0.0, 0.5, 0.5)),
        (10.0, (0.0, 0.0, 10.5 + 4e-10, 10.5 + 4e-10)),  # and no real PSA gain
        (10.0, (math.nan, 0.0, 0.5, 0.5)),
        (math.nan, (20.0, 0.0, 0.5, 0.5)),
        # each check, in its order
        (1e151, (0.0, 400.0, 0.5, 0.5)),
        (100.0, (0.0, 400.0, 0.5, 0.5)),
        (100.0, (0.0, 10.0, 0.5, 0.5)),
    ])
    @pytest.mark.parametrize("gain", [0.5, 1.0, 3.0, math.inf, math.nan])
    def test_trial_edge_cases_equal_the_reference(self, kind, nbar, y, gain):
        # amplifier 1 sits on amplifier 0, so the state reaches it unattenuated
        args = (50.0, 100.0, 0.2, kind, Scenario.CONVENTIONAL)
        scorer, reference = _PlanScorer(*args), stage_reference.PlanScorer(*args)
        scorer.nbar = reference.nbar = nbar  # set here: a NaN budget has no reference input
        positions, gains = [5.0, 5.0], [1.0, gain]
        got = outcome(scorer.trial_score, positions, gains, 1, y,
                      _spans(scorer.alpha_nat, 50.0, positions))
        assert got == outcome(reference.trial_score, positions, gains, 1, y)

    @settings(derandomized, max_examples=12)
    @given(kinds, st.sampled_from(list(Scenario)), st.integers(1, 4),
           st.floats(50.0, 3000.0), st.floats(-2.0, 3.0))
    def test_optimizer_trials_equal_the_reference(self, kind, scenario, amps, length,
                                                   log_nbar):
        # Every trial of a real descent, position and gain moves alike, with
        # the spans the optimizer rewrote: the reference walks the trial's
        # positions from the same state.
        nbar = 10.0 ** log_nbar
        reference = stage_reference.PlanScorer(length, nbar, 0.2, kind, scenario)
        trial_score = _PlanScorer.trial_score
        calls = []

        def checked(scorer, positions, gains, start, y, taus):
            calls.append(start)
            expected = outcome(reference.trial_score, list(positions), list(gains), start, y)
            got = outcome(trial_score, scorer, positions, gains, start, y, taus)
            assert got == expected
            return trial_score(scorer, positions, gains, start, y, taus)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_PlanScorer, "trial_score", checked)
            optimize_plan(length, amps, nbar, 0.2, kind, scenario)
        assert calls and set(calls) == set(range(amps))


def gh_outcomes(scorer, positions, gains):
    """The Gordon-Holevo score of raw coordinates three ways: the scorer's raw-tuple
    ``score``; ``gh_capacity`` of the repaired plan; and the reference, which builds the
    plan, folds it per stage and audits a ``PropagationTrace``.  Each is (the hexed value,
    None) or (the exception's type and message, its ``best_value`` if it has one)."""
    def repaired():
        return scorer.plan(positions, scorer.repair_gains(positions, gains)[0])

    def run(fn):
        try:
            return hexed(fn()), None
        except Exception as err:  # noqa: BLE001 - compared, not handled
            best = err.best_value.hex() if isinstance(err, GHSearchError) else None
            return (type(err).__name__, str(err)), best

    return [run(lambda: scorer.score(positions, gains)[0]),
            run(lambda: gh_capacity(repaired()).bits_per_mode),
            run(lambda: stage_reference.gh_capacity(repaired()).bits_per_mode)]


class TestGordonHolevoScoring:
    """A Gordon-Holevo scoring on raw tuples against the plan scored as objects."""

    @derandomized
    @given(kinds, st.floats(1.0, 5000.0), st.integers(0, 8), st.floats(-2.0, 5.0), st.data())
    def test_score_equals_the_plan_capacity(self, kind, length, amps, log_nbar, data):
        # gains lowered below their ceilings (and below 1), left at inf for the
        # repair to clip, far above any ceiling, or NaN, which no plan accepts
        scorer = _PlanScorer(length, 10.0 ** log_nbar, 0.2, kind, Scenario.GORDON_HOLEVO)
        positions = data.draw(close_positions_of(length, amps)
                              | positions_of(length, amps))
        gains = data.draw(st.lists(st.floats(0.0, 3.0) | st.sampled_from([math.inf, 1e12])
                                   | any_gains, min_size=amps, max_size=amps))
        score, plan_capacity, reference = gh_outcomes(scorer, positions, gains)
        assert score == plan_capacity == reference

    @pytest.mark.parametrize("kind", [AmpKind.PSA, AmpKind.PIA])
    @pytest.mark.parametrize("winner", [
        (201.0, 0.0, 0.5, 0.5),  # over the budget at the input
        # on the budget at the input, with more power in the amplified
        # quadrature than the reference input: over it after a PSA
        (199.75, 0.0, 1.0, 0.25),
        (-1.0, 0.0, 0.5, 0.5),  # a negative signal power
        # over the budget at the input, and a negative signal after the first span:
        # every state's moments are checked before the budget
        (201.0, -1e-3, 0.5, 0.5),
    ])
    def test_audit_failures_equal_the_reference(self, kind, winner, monkeypatch):
        # The search is replaced by one whose winner fails the audit; a
        # QuadState built without its checks carries the bad moments.
        scorer = _PlanScorer(300.0, 100.0, 0.2, kind, Scenario.GORDON_HOLEVO)
        positions, gains = [60.0, 170.0], [math.inf, math.inf]
        monkeypatch.setattr(capacity, "gh_capacity_for_channel", lambda *maps: CapacityResult(
            1.25, tuple.__new__(QuadState, winner)))
        outcomes = gh_outcomes(scorer, positions, gains)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        got, best = outcomes[0]
        if winner[1] < 0.0 or winner[0] < 0.0:
            assert (got[0], best) == ("ValueError", None)
            assert got[1].startswith("signal powers must be non-negative")
        elif winner[0] < 200.0 and kind is AmpKind.PIA:  # a PIA amplifies both alike
            assert got == (1.25).hex()
        else:
            assert (got[0], best) == ("GHSearchError", (1.25).hex())
            position = "0.0" if winner[0] > 200.0 else "60.0"
            assert got[1].startswith(f"achieving input violates the photon budget at ({position}, ")
