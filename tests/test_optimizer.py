import inspect
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qlink import (
    AmpKind,
    GHSearchError,
    LinkPlan,
    PropagationTrace,
    QuadState,
    Scenario,
    attenuation_to_natural,
    conventional_input,
    propagate,
    shannon_capacity,
    symmetric_coherent_input,
)
from qlink import capacity, linkchain, optimizer, quadmodel
from qlink.linkchain import _spans
from qlink.optimizer import (
    MAX_GRID_POINTS,
    SweepRow,
    SweepTable,
    _PlanScorer,
    distance_grid,
    equidistant_saturating_plan,
    optimize_plan,
    sweep_distance,
)
from qlink.search import golden_section_maximize

from chain_stages import apply_loss, ceiling, check_power_constraint
from stage_reference import mean_photon_number, plan_capacity

ALPHA = attenuation_to_natural(0.2)


def spans(scorer, positions):
    """The transmissions of ``positions``' spans, as a trial receives them."""
    return _spans(scorer.alpha_nat, scorer.length_km, positions)


def conventional_score(candidate):
    out, _ = propagate(candidate.plan, conventional_input(candidate.plan.nbar))
    return shannon_capacity(out, Scenario.CONVENTIONAL)


def brute_force_single_amp(length_km, nbar, n_pos=60, n_gain=25):
    """Coarse grid oracle over (position, gain) for one amplifier."""
    best = (-1.0, None, None)
    for i in range(1, n_pos):
        pos = length_km * i / n_pos
        before = apply_loss(conventional_input(nbar), math.exp(-ALPHA * pos))
        top = ceiling(before, nbar, AmpKind.PSA)
        for j in range(1, n_gain + 1):
            gain = 1.0 + (top - 1.0) * j / n_gain
            plan = LinkPlan(0.2, length_km, nbar, [pos], [gain])
            out, trace = propagate(plan, conventional_input(nbar))
            if check_power_constraint(trace, nbar):
                continue
            score = shannon_capacity(out, Scenario.CONVENTIONAL)
            if score > best[0]:
                best = (score, pos, gain)
    return best


class TestEquidistantSeed:
    def test_single_span_matches_closed_form(self):
        cand = equidistant_saturating_plan(100.0, 0, 100.0, 0.2)
        expected = 0.5 * math.log2(1.0 + 400.0 * math.exp(-ALPHA * 100.0))
        assert cand.score == pytest.approx(expected, rel=1e-12)
        assert cand.plan.positions == ()

    def test_single_amp_sits_midway_with_restoring_gain(self):
        cand = equidistant_saturating_plan(100.0, 1, 100.0, 0.2)
        assert cand.plan.positions == (50.0,)
        before = apply_loss(conventional_input(100.0), math.exp(-ALPHA * 50.0))
        assert cand.plan.gains[0] == pytest.approx(ceiling(before, 100.0, AmpKind.PSA),
                                                   rel=1e-12)

    def test_all_amplifiers_restore_budget(self):
        cand = equidistant_saturating_plan(500.0, 4, 100.0, 0.2)
        positions = cand.plan.positions
        spans = [b - a for a, b in zip((0.0,) + positions, positions + (500.0,))]
        assert all(s == pytest.approx(100.0) for s in spans)
        _, trace = propagate(cand.plan, conventional_input(100.0))
        # post-amplifier trace entries sit at indices 2, 4, ... for R amps
        for idx in range(2, 2 * 4 + 1, 2):
            assert mean_photon_number(trace.states[idx]) == pytest.approx(100.0, abs=1e-9)
        assert check_power_constraint(trace, 100.0) == []

    def test_pia_chain_restores_budget(self):
        cand = equidistant_saturating_plan(
            300.0, 2, 100.0, 0.2, AmpKind.PIA, Scenario.TWO_QUADRATURE
        )
        _, trace = propagate(cand.plan, symmetric_coherent_input(100.0))
        for idx in (2, 4):
            assert mean_photon_number(trace.states[idx]) == pytest.approx(100.0, abs=1e-9)


SHANNON_PAIRS = [(kind, scenario) for kind in AmpKind
                 for scenario in (Scenario.CONVENTIONAL, Scenario.TWO_QUADRATURE)]
GH_PAIRS = [(kind, Scenario.GORDON_HOLEVO) for kind in AmpKind]


class TestPlanScorer:
    """The scorer's own walk of the chain gives exactly the reference's score."""

    @pytest.mark.parametrize("kind, scenario", SHANNON_PAIRS)
    @pytest.mark.parametrize("positions, gains, clipped", [
        ([35.0, 160.0, 250.0], [3.0, 1.5, 8.0], False),  # uneven spacing
        ([60.0, 200.0], [2.0, 1e6], True),  # second gain above its ceiling
    ])
    def test_score_is_plan_capacity(self, kind, scenario, positions, gains, clipped):
        scorer = _PlanScorer(300.0, 100.0, 0.2, kind, scenario)
        score, repaired = scorer.score(positions, gains)
        assert (repaired[-1] < gains[-1]) == clipped
        plan = LinkPlan(0.2, 300.0, 100.0, positions, repaired, kind)
        assert score == plan_capacity(plan, scenario).bits_per_mode

    @pytest.mark.parametrize("kind, scenario", SHANNON_PAIRS)
    @pytest.mark.parametrize("amps", range(4))
    def test_seed_score_is_plan_capacity(self, kind, scenario, amps):
        cand = equidistant_saturating_plan(400.0, amps, 100.0, 0.2, kind, scenario)
        assert cand.score == plan_capacity(cand.plan, scenario).bits_per_mode


    @pytest.mark.parametrize("kind, scenario", SHANNON_PAIRS)
    def test_shannon_scoring_builds_no_quad_state(self, kind, scenario, monkeypatch):
        # the chain walk, its gain ceilings and the output's checks run on raw tuples
        scorer = _PlanScorer(300.0, 100.0, 0.2, kind, scenario)
        positions, gains = [35.0, 160.0, 250.0], [3.0, 1.5, math.inf]
        states = scorer.repair_gains(positions, gains)[2]

        def built(cls, *state):
            raise AssertionError(f"a scoring built {state!r}")

        monkeypatch.setattr(QuadState, "__new__", built)
        score = scorer.score(positions, gains)[0]
        for i in range(len(positions)):
            y = states[i - 1] if i else scorer.ref_input
            assert scorer.trial_score(positions, gains, i, y, spans(scorer, positions)) == score

    @pytest.mark.parametrize("kind, scenario", SHANNON_PAIRS)
    @pytest.mark.parametrize("moments, message", [
        ((-1.0, 0.0, 0.5, 0.5), "signal powers must be non-negative"),
        ((0.0, math.nan, 0.5, 0.5), "signal powers must be non-negative"),
        ((1.0, 0.0, 0.0, 0.5), "noise variances must be positive"),
        ((1.0, 0.0, 0.5, math.nan), "noise variances must be positive"),
        ((1.0, 0.0, 0.4, 0.5), "below the Heisenberg limit"),
        # a product at the Heisenberg limit holds at least half a photon of
        # noise, so this check is reached only with the limit lowered
        ((0.0, 0.0, 0.25, 0.25), "negative mean photon number"),
    ])
    def test_trial_output_gets_every_quad_state_check(self, kind, scenario, moments, message,
                                                       monkeypatch):
        if message == "negative mean photon number":
            monkeypatch.setattr(quadmodel, "HEISENBERG_LIMIT", 0.0)
        # the final span of a 1e-300 km link transmits exactly 1, so the trial's
        # output is the state it starts from
        scorer = _PlanScorer(1e-300, 100.0, 0.2, kind, scenario)
        with pytest.raises(ValueError, match=message) as built:
            QuadState(*moments)
        with pytest.raises(ValueError) as trial:
            scorer.trial_score([], [], 0, moments, spans(scorer, []))
        assert str(trial.value) == str(built.value)

    @settings(max_examples=300)
    @given(st.sampled_from(SHANNON_PAIRS + GH_PAIRS), st.integers(1, 8),
           st.floats(10.0, 5000.0), st.floats(-3.0, 5.0), st.data())
    def test_walk_from_cached_state_equals_full_walk(self, pair, amps, length, log_nbar, data):
        # The optimizer scores a trial move at amplifier i from the raw state
        # after amplifier i - 1 of the accepted plan; that must be the full
        # walk's score, for gains below 1, above their ceiling and inf alike,
        # and for a Gordon-Holevo search on the gains that walk repairs.
        kind, scenario = pair
        any_gain = st.floats(0.0, 1e12) | st.just(math.inf)
        permille = data.draw(st.lists(st.integers(1, 999), min_size=amps, max_size=amps,
                                      unique=True))
        positions = [length * k / 1000.0 for k in sorted(permille)]
        raw_gains = data.draw(st.lists(any_gain, min_size=amps, max_size=amps))
        scorer = _PlanScorer(length, 10.0 ** log_nbar, 0.2, kind, scenario)
        gains, _, states, *_ = scorer.repair_gains(positions, raw_gains)
        i = data.draw(st.integers(0, amps - 1))
        trial_gains = gains[:i] + [data.draw(any_gain)] + gains[i + 1:]
        if data.draw(st.booleans()):
            lo = positions[i - 1] if i else 0.0
            hi = positions[i + 1] if i + 1 < amps else length
            x = data.draw(st.floats(lo, hi, exclude_min=True, exclude_max=True))
            trial_positions = positions[:i] + [x] + positions[i + 1:]
            if data.draw(st.booleans()):
                trial_gains = gains
        else:
            trial_positions = positions
        y = states[i - 1] if i else scorer.ref_input
        assert (scorer.trial_score(trial_positions, trial_gains, i, y,
                                   spans(scorer, trial_positions))
                == scorer.score(trial_positions, trial_gains)[0])

    @pytest.mark.parametrize("kind", list(AmpKind))
    def test_gordon_holevo_scoring_builds_no_plan_or_trace(self, kind, monkeypatch):
        # a trial's spans and gains feed one search, with the channel maps
        # walked on raw tuples; only ``score`` builds the plan, to audit it
        scorer = _PlanScorer(300.0, 100.0, 0.2, kind, Scenario.GORDON_HOLEVO)
        positions, gains = [35.0, 160.0, 250.0], [3.0, 1.5, math.inf]
        states = scorer.repair_gains(positions, gains)[2]
        score = scorer.score(positions, gains)[0]

        def refused(name):
            def call(*args, **kwargs):
                raise AssertionError(f"a Gordon-Holevo scoring called {name}")
            return call

        monkeypatch.setattr(LinkPlan, "__new__", refused("LinkPlan"))
        monkeypatch.setattr(PropagationTrace, "__new__", refused("PropagationTrace"))
        for module in (linkchain, capacity, optimizer):
            monkeypatch.setattr(module, "propagate", refused("propagate"))
        for module in (linkchain, capacity):
            monkeypatch.setattr(module, "channel_checkpoints", refused("channel_checkpoints"))
        searches, search = [], capacity.gh_capacity_for_channel
        monkeypatch.setattr(capacity, "gh_capacity_for_channel",
                            lambda *maps: searches.append(maps) or search(*maps))
        built, new_state = [], QuadState.__new__
        monkeypatch.setattr(QuadState, "__new__",
                            lambda cls, *state: built.append(state) or new_state(cls, *state))
        for i in range(len(positions)):
            y = states[i - 1] if i else scorer.ref_input
            assert scorer.trial_score(positions, gains, i, y, spans(scorer, positions)) == score
        # one search per trial, on 2R + 2 checkpoints; its winner is the only QuadState
        assert [len(maps[0]) for maps in searches] == [2 * len(positions) + 2] * 3
        assert len(built) == 3

    def test_gordon_holevo_trial_is_the_full_score(self):
        # the trial's contract: the gains before ``start`` are repaired ones
        scorer = _PlanScorer(300.0, 100.0, 0.2, AmpKind.PSA, Scenario.GORDON_HOLEVO)
        positions = [35.0, 160.0, 250.0]
        repaired, _, states, *_ = scorer.repair_gains(positions, [3.0, 0.5, math.inf])
        gains = repaired[:2] + [math.inf]
        assert (scorer.trial_score(positions, gains, 2, states[1], spans(scorer, positions))
                == scorer.score(positions, gains)[0])


# float.hex of optimize_plan's score, positions and gains on a probe set, keyed
# "<kind> <scenario> <L km> <R>": a change to the descent's path shows here.
OPTIMIZE_PINS = json.loads((Path(__file__).parent / "optimize_plan_pins.json").read_text())


class TestOptimizePlan:
    @pytest.mark.parametrize("key", sorted(OPTIMIZE_PINS))
    def test_result_is_bit_identical_to_the_pinned_values(self, key):
        kind, scenario, length, amps = key.split()
        cand = optimize_plan(float(length), int(amps), 100.0, 0.2, AmpKind(kind),
                             Scenario(scenario))
        assert {"score": cand.score.hex(),
                "positions": [x.hex() for x in cand.plan.positions],
                "gains": [g.hex() for g in cand.plan.gains]} == OPTIMIZE_PINS[key]

    def test_no_amplifier_returns_the_unique_plan(self):
        cand = optimize_plan(100.0, 0, 100.0, 0.2)
        expected = 0.5 * math.log2(1.0 + 400.0 * math.exp(-ALPHA * 100.0))
        assert cand.score == pytest.approx(expected, rel=1e-12)

    def test_beats_seed_and_stays_feasible(self):
        for amps in (1, 2, 3):
            seed_cand = equidistant_saturating_plan(240.0, amps, 100.0, 0.2)
            cand = optimize_plan(240.0, amps, 100.0, 0.2)
            assert cand.score >= seed_cand.score - 1e-9
            _, trace = propagate(cand.plan, conventional_input(100.0))
            assert check_power_constraint(trace, 100.0) == []

    def test_matches_single_amp_brute_force(self):
        brute_score, brute_pos, _ = brute_force_single_amp(100.0, 100.0)
        cand = optimize_plan(100.0, 1, 100.0, 0.2)
        assert cand.score >= brute_score - 1e-9
        # coarse oracle pins the optimum location to within its resolution
        assert abs(cand.plan.positions[0] - brute_pos) <= 100.0 / 60.0 + 1e-9

    def test_capacity_non_decreasing_in_amp_count(self):
        scores = [optimize_plan(300.0, r, 100.0, 0.2).score for r in (0, 1, 2)]
        assert scores[0] <= scores[1] + 1e-9 <= scores[2] + 2e-9

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.sampled_from([(kind, scenario) for kind in AmpKind for scenario in Scenario]),
           st.floats(0.0, 2.0), st.integers(1, 8), st.floats(-3.0, 5.0))
    def test_never_below_the_pure_loss_link(self, pair, log_length, amps, log_nbar):
        # Amplifiers of gain 1 leave the pure-loss link, whose score the R = 0
        # plan has; gain searches stopped at 1 + 6e-8 fell below it, by up to
        # 1.25e-6 relative (PIA Gordon-Holevo at 1 km, R = 8).
        kind, scenario = pair
        length, nbar = 10.0 ** log_length, 10.0 ** log_nbar
        floor = optimize_plan(length, 0, nbar, 0.2, kind, scenario).score
        score = optimize_plan(length, amps, nbar, 0.2, kind, scenario).score
        assert score >= floor - 4.0 * math.ulp(floor)

    def test_capacity_non_decreasing_in_budget(self):
        low = optimize_plan(200.0, 1, 50.0, 0.2).score
        high = optimize_plan(200.0, 1, 100.0, 0.2).score
        assert low <= high + 1e-9

    def test_deterministic(self):
        a = optimize_plan(150.0, 2, 100.0, 0.2)
        b = optimize_plan(150.0, 2, 100.0, 0.2)
        assert a == b

    def test_gordon_holevo_scenario_dominates_conventional(self):
        conv = optimize_plan(150.0, 1, 100.0, 0.2, scenario=Scenario.CONVENTIONAL)
        gh = optimize_plan(150.0, 1, 100.0, 0.2, scenario=Scenario.GORDON_HOLEVO)
        assert gh.score >= conv.score - 1e-6

    def test_gordon_holevo_beats_coarse_positional_oracle(self):
        from qlink import gh_capacity
        from qlink.optimizer import _PlanScorer

        best = -1.0
        for i in range(1, 20):
            pos = 100.0 * i / 20
            scorer = _PlanScorer(100.0, 100.0, 0.2, AmpKind.PSA, Scenario.GORDON_HOLEVO)
            plan = LinkPlan(
                0.2, 100.0, 100.0, [pos], scorer.repair_gains([pos], [math.inf])[0]
            )
            best = max(best, gh_capacity(plan).bits_per_mode)
        cand = optimize_plan(100.0, 1, 100.0, 0.2, scenario=Scenario.GORDON_HOLEVO)
        assert cand.score >= best - 1e-6


    def test_gordon_holevo_position_moves_follow_gain_ceiling(self):
        # At 50 km the optimum holds amplifier 2's gain on its budget ceiling;
        # moving it at fixed gain leaves that ridge and stalls at 4.8344832.
        cand = optimize_plan(50.0, 2, 100.0, 0.2, AmpKind.PSA, Scenario.GORDON_HOLEVO)
        assert cand.score >= 4.834484960152672 - 1e-9

    def test_no_line_search_is_replayed(self, monkeypatch):
        fingerprints = []
        search = optimizer.golden_section_maximize

        def recorded(f, lo, hi, tol, incumbent=None):
            # f is pure, so scoring it at three fixed points changes nothing
            fingerprints.append((lo, hi, *(f(lo + k * (hi - lo) / 4.0) for k in (1, 2, 3))))
            return search(f, lo, hi, tol, incumbent)

        monkeypatch.setattr(optimizer, "golden_section_maximize", recorded)
        optimize_plan(100.0, 2, 100.0, 0.2, AmpKind.PSA, Scenario.GORDON_HOLEVO)
        assert len(fingerprints) > 4
        assert len(set(fingerprints)) == len(fingerprints)

    def test_gordon_holevo_audits_only_the_seed_floor_and_result(self, monkeypatch):
        # a trial runs only the search; the plans scored as plans are audited
        audits, over_budget = [], capacity._over_budget
        monkeypatch.setattr(capacity, "_over_budget",
                            lambda states, nbar: audits.append(nbar) or over_budget(states, nbar))
        optimize_plan(260.0, 8, 100.0, 0.2, AmpKind.PSA, Scenario.GORDON_HOLEVO)
        assert len(audits) == 3

    def test_only_an_infeasible_returned_winner_fails_the_point(self, monkeypatch):
        # A search whose winner on one channel leaves the budget (at the input)
        # changes nothing where a trial on that channel loses, and fails the
        # point, as gh_capacity of the plan does, where that plan is returned.
        args = (260.0, 8, 100.0, 0.2, AmpKind.PSA, Scenario.GORDON_HOLEVO)
        search, bad, seen = capacity.gh_capacity_for_channel, [], []

        def patched(*maps):
            result = search(*maps)
            seen.append(maps)
            if maps in bad:
                return result._replace(achieving_input=QuadState(201.0, 0.0, 0.5, 0.5))
            return result

        def channel(plan):
            capacity.gh_capacity(plan)
            return seen[-1]

        monkeypatch.setattr(capacity, "gh_capacity_for_channel", patched)
        expected = optimize_plan(*args)
        trials = list(seen)
        seed = equidistant_saturating_plan(*args).plan
        audited = [channel(seed), channel(seed._replace(gains=(1.0,) * 8)),
                   channel(expected.plan)]
        # the returned plan's channel, as its audit builds it, equals one that a
        # trial searched, of the same type; else ``maps in bad`` would tell the
        # two apart.  ``trials`` opens with the seed's audit and closes with the
        # floor's and the returned plan's.
        assert audited[-1] in trials[1:-2]
        bad.append(next(maps for maps in trials[len(trials) // 2:] if maps not in audited))
        assert optimize_plan(*args) == expected
        bad[:] = audited[-1:]
        with pytest.raises(GHSearchError) as reference:
            capacity.gh_capacity(expected.plan)
        with pytest.raises(GHSearchError) as failed:
            optimize_plan(*args)
        assert str(failed.value) == str(reference.value)
        assert failed.value.best_value == reference.value.best_value == expected.score
        assert str(failed.value).startswith("achieving input violates the photon budget at (0.0, ")


def plan_bits(candidate):
    return (candidate.score.hex(), [x.hex() for x in candidate.plan.positions],
            [g.hex() for g in candidate.plan.gains])


def searched_coordinates(monkeypatch):
    """The objectives' names ("eval_position", "eval_gain") of every line search
    that ``optimize_plan`` runs from now on, in order."""
    names, search = [], optimizer.golden_section_maximize
    monkeypatch.setattr(optimizer, "golden_section_maximize",
                        lambda f, lo, hi, tol, incumbent=None:
                        names.append(f.__name__) or search(f, lo, hi, tol, incumbent))
    return names


def from_incumbent(monkeypatch, seed_score):
    """Give every line search that ``optimize_plan`` runs from now on the incumbent
    that it passes a ``_GAIN_MONOTONE`` pair's: the coordinate searched, read from the
    objective's copy of the coordinates, and the best score so far, from ``seed_score``."""
    search, best = optimizer.golden_section_maximize, [seed_score]

    def probed(f, lo, hi, tol, incumbent=None):
        cells = inspect.getclosurevars(f).nonlocals
        coordinates = cells["trial_positions" if "trial_positions" in cells else "trial_gains"]
        x, fx = search(f, lo, hi, tol, (coordinates[cells["i"]], best[0]))
        best[0] = max(best[0], fx)
        return x, fx

    monkeypatch.setattr(optimizer, "golden_section_maximize", probed)


class TestGainMonotonePairs:
    """Where the Shannon rate never falls as a gain rises, the optimizer runs no
    line search for a gain on its budget ceiling (``optimizer._GAIN_MONOTONE``)."""

    MONOTONE = [(AmpKind.PSA, Scenario.CONVENTIONAL), (AmpKind.PIA, Scenario.TWO_QUADRATURE)]

    def test_skipped_searches_change_no_bit(self, monkeypatch):
        # 60 drawn links of both pairs: L 1-20,000 km, R 1-12, nbar 1e-3 to 1e5
        # and 0.05-1 dB/km; the set emptied forces every gain search, and each
        # search still starts at its incumbent, as a search of these pairs does
        names, rng, skipped = searched_coordinates(monkeypatch), random.Random(0), 0
        for draw in range(60):
            kind, scenario = self.MONOTONE[draw % 2]
            args = (10.0 ** rng.uniform(0.0, math.log10(20000.0)), rng.randint(1, 12),
                    10.0 ** rng.uniform(-3.0, 5.0), rng.uniform(0.05, 1.0), kind, scenario)
            names.clear()
            shipped = optimize_plan(*args)
            searched = len(names)
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "_GAIN_MONOTONE", frozenset())
                from_incumbent(patch, equidistant_saturating_plan(*args).score)
                forced = optimize_plan(*args)
            assert plan_bits(shipped) == plan_bits(forced), args
            skipped += len(names) - 2 * searched  # the forced run's searches less the shipped
        assert skipped > 0

    @settings(max_examples=300, derandomize=True)
    @given(st.sampled_from(sorted(optimizer._GAIN_MONOTONE)), st.integers(1, 12),
           st.floats(1.0, 20000.0), st.floats(-3.0, 5.0), st.floats(0.05, 1.0), st.data())
    def test_no_lower_gain_scores_higher_on_the_ceiling(self, pair, amps, length, log_nbar,
                                                         alpha, data):
        kind, scenario = pair
        permille = data.draw(st.lists(st.integers(1, 999), min_size=amps, max_size=amps,
                                      unique=True))
        positions = [length * k / 1000.0 for k in sorted(permille)]
        scorer = _PlanScorer(length, 10.0 ** log_nbar, alpha, kind, scenario)
        gains, ceilings, states, _, taus = scorer.repair_gains(positions, [math.inf] * amps)
        assert gains == ceilings
        score = scorer.score(positions, gains)[0]
        i = data.draw(st.integers(0, amps - 1))
        lowered = 1.0 + (ceilings[i] - 1.0) * data.draw(st.floats(0.0, 1.0))
        y = states[i - 1] if i else scorer.ref_input
        # never above in exact arithmetic; a gain a few ulps below its ceiling can
        # round to 1-3 ulps above (102 of 150,000 draws weighted toward such gains)
        assert scorer.trial_score(positions, gains[:i] + [lowered] + gains[i + 1:], i, y,
                                  taus) <= score + 8.0 * math.ulp(score)

    @pytest.mark.parametrize("kind, scenario, length, amps, i", [
        (AmpKind.PSA, Scenario.TWO_QUADRATURE, 10.0, 4, 0),  # the PSA deamplifies Q
        (AmpKind.PIA, Scenario.CONVENTIONAL, 1.0, 1, 0),  # the PIA adds (G - 1)/2 to I
    ])
    def test_excluded_pair_has_a_lowered_gain_that_scores_higher(self, kind, scenario,
                                                                 length, amps, i):
        assert (kind, scenario) not in optimizer._GAIN_MONOTONE
        seed = equidistant_saturating_plan(length, amps, 100.0, 0.2, kind, scenario)
        scorer = _PlanScorer(length, 100.0, 0.2, kind, scenario)
        gains, ceilings, states, _, taus = scorer.repair_gains(seed.plan.positions,
                                                               seed.plan.gains)
        assert gains[i] == ceilings[i] > 1.0
        y = states[i - 1] if i else scorer.ref_input
        lowered = gains[:i] + [1.0] + gains[i + 1:]
        assert scorer.trial_score(seed.plan.positions, lowered, i, y, taus) > seed.score + 0.01

    def test_gains_on_their_ceilings_run_only_position_searches(self, monkeypatch):
        names = searched_coordinates(monkeypatch)
        cand = optimize_plan(10.0, 4, 100.0, 0.2, AmpKind.PSA, Scenario.CONVENTIONAL)
        scorer = _PlanScorer(10.0, 100.0, 0.2, AmpKind.PSA, Scenario.CONVENTIONAL)
        gains, ceilings = scorer.repair_gains(cand.plan.positions, cand.plan.gains)[:2]
        assert gains == ceilings
        assert len(names) >= 4 and set(names) == {"eval_position"}
        names.clear()
        optimize_plan(10.0, 4, 100.0, 0.2, AmpKind.PSA, Scenario.TWO_QUADRATURE)
        assert "eval_gain" in names

    def test_searches_started_at_their_incumbents_lose_nothing(self, monkeypatch):
        # 64 drawn links of both pairs, every other one in the ranges above and the
        # rest R=1 links of 1-200 km at nbar 1e-3 to 1, where the descent does leave
        # the seed; the full searches are forced by dropping every incumbent
        rng, search, beaten = random.Random(0), optimizer.golden_section_maximize, 0
        for draw in range(64):
            kind, scenario = self.MONOTONE[draw % 2]
            if draw % 4 < 2:
                link = (10.0 ** rng.uniform(0.0, math.log10(20000.0)), rng.randint(1, 12),
                        10.0 ** rng.uniform(-3.0, 5.0))
            else:
                link = (rng.uniform(1.0, 200.0), 1, 10.0 ** rng.uniform(-3.0, 0.0))
            args = (*link, rng.uniform(0.05, 1.0), kind, scenario)
            shipped = optimize_plan(*args)
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "golden_section_maximize",
                              lambda f, lo, hi, tol, incumbent=None: search(f, lo, hi, tol))
                full = optimize_plan(*args)
            assert shipped.score >= full.score * (1.0 - 1e-12), args
            beaten += shipped.score > equidistant_saturating_plan(*args).score * (1.0 + 1e-6)
        assert beaten > 0

    def test_an_excluded_pair_has_a_line_search_that_the_probe_would_stop(self, monkeypatch):
        # PSA Gordon-Holevo at 60 km, R=8, from the seed: amplifier 6's position with
        # its gain on the ridge peaks twice; an incumbent on the bracket's upper end,
        # against amplifier 7, is beaten by neither neighbour, yet the other peak is
        # 0.065 bits higher
        kind, scenario, i = AmpKind.PSA, Scenario.GORDON_HOLEVO, 6
        assert (kind, scenario) not in optimizer._GAIN_MONOTONE
        scorer = _PlanScorer(60.0, 100.0, 0.2, kind, scenario)
        positions = list(equidistant_saturating_plan(60.0, 8, 100.0, 0.2, kind,
                                                     scenario).plan.positions)
        gains, _, states, _, taus = scorer.repair_gains(positions, [math.inf] * 8)
        gains[i] = math.inf  # the ridge rule: the trial gain follows the ceiling
        left, right = positions[i - 1], positions[i + 1]

        def eval_position(x):
            positions[i] = x
            taus[i:i + 2] = (math.exp(-scorer.alpha_nat * (x - left)),
                              math.exp(-scorer.alpha_nat * (right - x)))
            return scorer.trial_score(positions, gains, i, states[i - 1], taus)

        lo, hi, tol = left + 1e-6, right - 1e-6, optimizer._PARAM_TOL
        incumbent = hi, eval_position(hi)
        assert eval_position(hi - tol) <= incumbent[1]
        assert golden_section_maximize(eval_position, lo, hi, tol, incumbent) == incumbent
        assert golden_section_maximize(eval_position, lo, hi, tol)[1] >= incumbent[1] + 1e-6
        # so the optimizer starts no search of this pair at its incumbent
        passed, search = [], optimizer.golden_section_maximize
        monkeypatch.setattr(optimizer, "golden_section_maximize",
                            lambda f, lo, hi, tol, incumbent=None:
                            passed.append(incumbent) or search(f, lo, hi, tol, incumbent))
        optimize_plan(60.0, 8, 100.0, 0.2, kind, scenario)
        assert len(passed) > 8 and set(passed) == {None}

    def test_a_gain_below_its_ceiling_is_still_searched(self, monkeypatch):
        # at 4510 km a position move leaves a gain below its new ceiling
        names = searched_coordinates(monkeypatch)
        optimize_plan(4510.0, 8, 100.0, 0.2, AmpKind.PSA, Scenario.CONVENTIONAL)
        assert "eval_gain" in names


class TestSweep:
    def test_single_point_reduces_to_optimize(self):
        table = sweep_distance([120.0], 1, 100.0, 0.2)
        cand = optimize_plan(120.0, 1, 100.0, 0.2)
        assert len(table.rows) == 1
        assert table.rows[0].capacity_bits_per_mode == pytest.approx(cand.score, rel=1e-12)

    def test_loss_only_grid_follows_closed_form(self):
        grid = [10.0 * k for k in range(1, 8)]
        table = sweep_distance(grid, 0, 100.0, 0.2)
        for row in table.rows:
            expected = 0.5 * math.log2(1.0 + 400.0 * math.exp(-ALPHA * row.distance_km))
            assert row.capacity_bits_per_mode == pytest.approx(expected, rel=1e-12)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            sweep_distance([50.0, 40.0], 0, 100.0, 0.2)

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValueError, match="positive"):
            sweep_distance([0.0, 10.0], 0, 100.0, 0.2)

    def test_parallel_matches_serial(self):
        grid = [40.0, 80.0, 120.0, 160.0]
        serial = sweep_distance(grid, 1, 100.0, 0.2, max_workers=1)
        parallel = sweep_distance(grid, 1, 100.0, 0.2, max_workers=4)
        assert serial == parallel

    def test_warns_when_capacity_increases_with_distance(self, monkeypatch, caplog):
        import qlink.optimizer as opt

        def growing_capacity(args):
            length = args[0]
            return SweepRow(length, args[5], args[4], args[1], length)

        monkeypatch.setattr(opt, "_sweep_point", growing_capacity)
        with caplog.at_level("WARNING", logger="qlink.optimizer"):
            opt.sweep_distance([10.0, 20.0], 0, 100.0, 0.2)
        assert any("capacity increased" in record.message for record in caplog.records)


@pytest.fixture
def deadline():
    """Fails a test that runs for more than 60 s, so a hung fan-out cannot stall
    the suite (forked children do not inherit the timer)."""
    def expire(signum, frame):
        raise TimeoutError("the sweep ran for more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _in_children(parent, row_or_exit):
    """A ``_sweep_point`` that runs ``row_or_exit(args)`` in a forked worker and
    the real one in the caller."""
    real = optimizer._sweep_point
    return lambda args: row_or_exit(args) if os.getpid() != parent else real(args)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the fan-out forks")
@pytest.mark.usefixtures("deadline")
class TestSweepFanOut:
    @pytest.mark.parametrize("points,workers", [(5, 2), (7, 3)])
    @pytest.mark.parametrize("amps,scenario", [(2, Scenario.GORDON_HOLEVO),
                                               (3, Scenario.TWO_QUADRATURE)])
    def test_pooled_rows_and_plans_equal_the_serial_ones(self, monkeypatch, points, workers,
                                                        amps, scenario):
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        grid = [60.0 * k for k in range(1, points + 1)]
        serial = sweep_distance(grid, amps, 100.0, 0.2, AmpKind.PIA, scenario, max_workers=1)
        pooled = sweep_distance(grid, amps, 100.0, 0.2, AmpKind.PIA, scenario, max_workers=8)
        assert pooled.rows == serial.rows  # each row with its plan, in grid order

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delattr(os, "fork")
        parent = os.getpid()
        seen = []
        monkeypatch.setattr(optimizer, "_sweep_point",
                            lambda args: seen.append(os.getpid()) or SweepRow(
                                args[0], args[5], args[4], args[1], 1.0 / args[0]))
        rows = sweep_distance([10.0, 20.0, 30.0, 40.0], 1, 100.0, 0.2, max_workers=2).rows
        assert [row.distance_km for row in rows] == [10.0, 20.0, 30.0, 40.0]
        assert seen == [parent] * 4

    def test_worker_death_names_the_worker(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def die_at_80_km(args):  # worker 1's second point, after a row at 40 km
            if args[0] == 80.0:
                os._exit(3)
            return SweepRow(args[0], args[5], args[4], args[1], 1.0)

        monkeypatch.setattr(optimizer, "_sweep_point", _in_children(os.getpid(), die_at_80_km))
        with pytest.raises(RuntimeError, match=r"sweep worker 1 .*exit status 3"):
            sweep_distance([20.0, 40.0, 60.0, 80.0], 1, 100.0, 0.2, max_workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def audit_fails(args):
            raise GHSearchError(f"achieving input violates the budget at {args[0]} km", 1.5)

        monkeypatch.setattr(optimizer, "_sweep_point", _in_children(os.getpid(), audit_fails))
        with pytest.raises(GHSearchError) as err:
            sweep_distance([20.0, 40.0, 60.0, 80.0], 1, 100.0, 0.2, AmpKind.PSA,
                           Scenario.GORDON_HOLEVO, max_workers=2)
        assert str(err.value) == "achieving input violates the budget at 40.0 km"
        assert err.value.best_value == 1.5
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_error_carries_the_worker_traceback(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def divide_by_zero(args):  # worker 1's share: 40 and 80 km
            return SweepRow(args[0], args[5], args[4], args[1], 1.0 / 0.0)

        monkeypatch.setattr(optimizer, "_sweep_point", _in_children(os.getpid(), divide_by_zero))
        with pytest.raises(ZeroDivisionError) as err:
            sweep_distance([20.0, 40.0, 60.0, 80.0], 1, 100.0, 0.2, max_workers=2)
        cause = str(err.value.__cause__)
        assert cause.startswith("sweep worker 1 failed:\nTraceback (most recent call last):")
        assert "in divide_by_zero" in cause and "ZeroDivisionError" in cause
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_caller_error_leaves_no_child_behind(self, monkeypatch):
        # the child's rows outgrow a 64 KiB pipe buffer, so it blocks on the
        # write until the caller reads or kills it
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        parent = os.getpid()

        def point(args):
            if os.getpid() != parent:
                return SweepRow(args[0], args[5], args[4], args[1], 1.0, "x" * (1 << 17))
            time.sleep(0.5)  # the child fills its pipe meanwhile
            raise ValueError("the caller's share failed")

        monkeypatch.setattr(optimizer, "_sweep_point", point)
        start = time.monotonic()
        with pytest.raises(ValueError, match="the caller's share failed"):
            sweep_distance([20.0, 40.0, 60.0, 80.0], 1, 100.0, 0.2, max_workers=2)
        assert time.monotonic() - start < 10.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_pooled_sweep_loads_no_process_pool(self):
        code = ("import os, sys\n"
                "os.cpu_count = lambda: 2\n"
                "from qlink import sweep_distance\n"
                "rows = sweep_distance([20.0, 40.0, 60.0, 80.0], 1, 100.0, 0.2, max_workers=2).rows\n"
                "assert len(rows) == 4\n"
                "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestDistanceGrid:
    def test_points_are_computed_from_their_index(self):
        grid = distance_grid(0.1, 1.0, 0.1)
        assert grid == [0.1 + k * 0.1 for k in range(10)]
        assert distance_grid(10.0, 30.0 + 5e-10, 10.0) == [10.0, 20.0, 30.0]
        assert distance_grid(100.0, 50.0, 10.0) == []

    def test_end_tolerance_scales_with_the_step(self):
        # the grid used to end 1e-9 km past ``stop``, 1,001 points here
        assert distance_grid(1e-12, 1e-12, 1e-12) == [1e-12]
        assert distance_grid(1e-300, 1e-300, 1e-300) == [1e-300]
        # within 1e-9 steps of ``stop``, here 1e-8 km
        assert distance_grid(10.0, 30.0 - 5e-9, 10.0) == [10.0, 20.0, 30.0]
        assert distance_grid(10.0, 30.0 - 2e-8, 10.0) == [10.0, 20.0]

    @pytest.mark.parametrize("start, stop, step", [
        (1.0, 100_001.0, 1.0), (0.0, 1.0, 1e-300),
    ])
    def test_rejects_a_grid_over_its_bound(self, start, stop, step):
        # the second grid has 1e300 points: the bound is checked as it grows
        with pytest.raises(ValueError, match=f"at most {MAX_GRID_POINTS} are allowed"):
            distance_grid(start, stop, step)

    @pytest.mark.parametrize("start, stop, step", [
        (1e17, 1e17 + 64.0, 1.0), (1e12, 1e12 + 1e-3, 1e-9), (1e6, 1e6 + 1e-6, 1e-12),
    ])
    def test_rejects_a_step_below_the_spacing_of_doubles(self, start, stop, step):
        # start + k * step rounds back to start short of ``stop``, so the grid
        # would repeat it
        with pytest.raises(ValueError, match="spacing of doubles"):
            distance_grid(start, stop, step)

    @pytest.mark.parametrize("start, step", [
        (1e17, 1.0), (1e12, 1e-9), (1e10, 1e-7), (1e6, 1e-12),
    ])
    def test_one_point_grid_below_the_spacing_of_doubles_is_kept(self, start, step):
        # start + step rounds back to start, but the grid has reached ``stop``:
        # it was refused as a repeat although it repeats nothing
        assert distance_grid(start, start, step) == [start]

    @pytest.mark.parametrize("start, stop, step", [
        (10.0, 20.0, 0.0), (10.0, 20.0, -1.0), (10.0, math.inf, 1.0), (math.nan, 20.0, 1.0),
    ])
    def test_rejects_a_grid_without_end(self, start, stop, step):
        with pytest.raises(ValueError, match="positive step"):
            distance_grid(start, stop, step)


class TestSweepTable:
    def test_csv_formatting(self):
        table = SweepTable(
            [
                SweepRow(100.0, Scenario.CONVENTIONAL, AmpKind.PSA, 2, 1.2345678949),
                SweepRow(50.0, Scenario.CONVENTIONAL, AmpKind.PSA, None, 3.25),
            ]
        ).sort()
        lines = table.csv_lines()
        assert lines[0] == "distance_km,scenario,amp_kind,amp_count,capacity_bits_per_mode"
        assert lines[1] == "100,ConventionalSNL,PSA,2,1.23456789"
        assert lines[2] == "50,ConventionalSNL,PSA,inf,3.25"

    def test_rows_sorted_by_scenario_amps_distance(self):
        rows = [
            SweepRow(50.0, Scenario.GORDON_HOLEVO, AmpKind.PSA, 1, 1.0),
            SweepRow(10.0, Scenario.CONVENTIONAL, AmpKind.PSA, None, 1.0),
            SweepRow(10.0, Scenario.CONVENTIONAL, AmpKind.PSA, 2, 1.0),
            SweepRow(5.0, Scenario.CONVENTIONAL, AmpKind.PSA, 2, 1.0),
        ]
        table = SweepTable(list(rows)).sort()
        assert table.rows == [rows[3], rows[2], rows[1], rows[0]]

    def test_rejects_invalid_capacity(self):
        table = SweepTable([SweepRow(1.0, Scenario.CONVENTIONAL, AmpKind.PSA, 0, -0.5)])
        with pytest.raises(ValueError):
            table.csv_lines()
