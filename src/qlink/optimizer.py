"""Amplifier placement and gain optimization under the photon budget.

The decision variables are the amplifier positions and gains of a link of fixed
length and amplifier count.  A PIA Shannon plan has a closed form.  Other plans come
from a deterministic coordinate descent with golden-section line searches, seeded
from the equidistant plan whose gains restore the photon number exactly to the
budget.  Iterates that overshoot the budget are repaired by scaling the offending
gains down to the feasible boundary, which keeps the search connected.  A trial move
at amplifier i walks on from the cached state after amplifier i - 1, over the cached
spans and gains, and computes only the spans it moves: the full walk's score, bit
for bit.  A Shannon trial keeps only the raw output, checked as a ``QuadState``; a
Gordon-Holevo one runs only the search.  Only the seed, the floor and the returned
plan are scored by ``gh_capacity``, which audits the winning input.  A gain on its
budget ceiling is searched only where a lower gain can score higher.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

from .capacity import Scenario, chain_gh_capacity, gh_capacity, scenario_input, shannon_capacity
from .linkchain import (
    MAX_NBAR,
    AmpKind,
    LinkPlan,
    _spans,
    _walk,
    attenuation_to_natural,
    propagate,  # noqa: F401 - unused here; kept as a patch point for perfbench/traced_run.py
)
from .quadmodel import InputError, check_moments
from .search import golden_section_maximize

# Amplifiers are kept strictly inside the link and strictly ordered.
_POSITION_GAP_KM = 1e-6
# Line-search tolerance (km or gain) and the cap on coordinate-descent sweeps.
_PARAM_TOL = 1e-6
_MAX_SWEEPS = 200
# Largest distance grid that a sweep may build.
MAX_GRID_POINTS = 100_000
# A sweep shares its points among worker processes from this many points on.
_POOL_MIN_POINTS = 4
# (kind, scenario) pairs whose Shannon rate never falls as any gain rises.  A gain trial
# lowers gain i within [1, its ceiling], and the walk clips each later gain to its new
# ceiling, so no gain rises: a gain on its ceiling is optimal up to rounding; unsearched.
# Nor can a position moved downstream at fixed gain win: it raises span i's and i+1's terms.
# PSA conventional: the I noise-to-signal ratio is n0/s0 + sum_j ((1 - tau_j)/2)/s_j, and s_j
# grows with each gain before span j.  Left out: PSA two-quadrature (Q shrinks), Gordon-Holevo.
_GAIN_MONOTONE = frozenset({(AmpKind.PSA, Scenario.CONVENTIONAL)})


# A link plan and its score under a detection scenario.
PlanCandidate = namedtuple("PlanCandidate", "plan score")


class _PlanScorer:
    """Repairs raw coordinates into feasible ones and scores them."""

    def __init__(self, length_km, nbar, alpha_db_per_km, kind, scenario):
        self.length_km = length_km
        self.nbar = nbar
        self.link = (alpha_db_per_km, length_km, nbar)  # a plan's fields before its amplifiers
        self.alpha_nat = attenuation_to_natural(alpha_db_per_km)
        self.kind = kind
        self.scenario = scenario
        self.ref_input = tuple(scenario_input(scenario, nbar))  # an exact tuple unpacks faster
        self.gh = scenario is Scenario.GORDON_HOLEVO

    def repair_gains(self, positions, gains) -> tuple[list, list, list, tuple, list]:
        """Scale down any gain that would push the reference input above the
        photon budget, walking the chain to the output.  Returns the repaired
        gains; each amplifier's ceiling (its largest feasible gain given the
        amplifiers before it) and raw state after it; the reference output as a
        raw tuple; and the spans' transmissions, which the walk used."""
        taus = _spans(self.alpha_nat, self.length_km, positions)
        out = _walk(self.ref_input, taus, gains, self.kind, self.nbar, record=(record := []))
        return record[2::4], record[1::4], record[3::4], out, taus

    def plan(self, positions, gains) -> LinkPlan:
        return LinkPlan(*self.link, positions, gains, self.kind)

    def score(self, positions, gains) -> tuple[float, list[float]]:
        """(score, repaired gains) of coordinates: the repair's own output, or ``gh_capacity``."""
        gains, _, _, out, _ = self.repair_gains(positions, gains)
        if self.gh:
            return gh_capacity(self.plan(positions, gains)).bits_per_mode, gains
        check_moments(*out)
        return shannon_capacity(out, self.scenario), gains

    def trial_score(self, positions, gains, start, y, taus) -> float:
        """``score(...)[0]`` of coordinates repaired before amplifier ``start``, given
        the raw state ``y`` just after amplifier ``start - 1`` and ``taus``, the span
        transmissions of ``positions``, by a walk on from ``y``.  A Shannon trial keeps
        its output; a Gordon-Holevo trial searches the chain with the gains it clips, unaudited."""
        if self.gh:
            _walk(y, taus, gains, self.kind, self.nbar, start, record=(record := []))
            gains = [*gains[:start], *record[2::4]]
            return chain_gh_capacity(taus, gains, self.kind, self.nbar).bits_per_mode
        y = _walk(y, taus, gains, self.kind, self.nbar, start)
        check_moments(*y)
        return shannon_capacity(y, self.scenario)


def equidistant_saturating_plan(
    length_km: float,
    amp_count: int,
    nbar: float,
    alpha_db_per_km: float,
    kind: AmpKind = AmpKind.PSA,
    scenario: Scenario = Scenario.CONVENTIONAL,
) -> PlanCandidate:
    """Evenly spaced amplifiers, each restoring the photon number exactly to
    the budget; feasible by construction and the optimizer's seed."""
    if length_km <= 0:
        raise ValueError(f"link length must be positive, got {length_km}")
    if amp_count < 0:
        raise ValueError(f"amplifier count must be non-negative, got {amp_count}")
    scorer = _PlanScorer(length_km, nbar, alpha_db_per_km, kind, scenario)
    positions = [i * length_km / (amp_count + 1) for i in range(1, amp_count + 1)]
    score, gains = scorer.score(positions, [math.inf] * amp_count)
    return PlanCandidate(scorer.plan(positions, gains), score)


def optimize_plan(
    length_km: float,
    amp_count: int,
    nbar: float,
    alpha_db_per_km: float,
    kind: AmpKind = AmpKind.PSA,
    scenario: Scenario = Scenario.CONVENTIONAL,
) -> PlanCandidate:
    """Locally optimal amplifier positions and gains.

    PIA Shannon pairs take a closed form: R equal spans (Jensen), the last ln 2/alpha
    longer for conventional detection (tau_L = tau/2) and equal for two-quadrature (the
    seed), every gain on its ceiling.  Other pairs take a deterministic coordinate descent
    over the interleaved position/gain coordinates with golden-section line searches; for
    PSA conventional a gain on its ceiling is not searched and each search starts at its
    incumbent (``_GAIN_MONOTONE``).  Returns the seed when neither improves on it, and the
    seed's positions with every gain 1 where that pure-loss link scores higher.
    """
    seed_candidate = equidistant_saturating_plan(
        length_km, amp_count, nbar, alpha_db_per_km, kind, scenario)
    if amp_count == 0:
        return seed_candidate

    scorer = _PlanScorer(length_km, nbar, alpha_db_per_km, kind, scenario)
    positions, gains = list(seed_candidate.plan.positions), seed_candidate.plan.gains
    current = seed_candidate.score
    if kind is AmpKind.PIA and not scorer.gh:  # the closed form; d = 0 gives the seed
        d = math.log(2.0) / scorer.alpha_nat if scenario is Scenario.CONVENTIONAL else 0.0
        closed = [i * (length_km - d) / (amp_count + 1) for i in range(1, amp_count + 1)]
        if d and all(a < b for a, b in zip([0.0, *closed], closed)):  # L > d, no repeats
            score, closed_gains = scorer.score(closed, [math.inf] * amp_count)
            if score > current:
                positions, gains, current = closed, closed_gains, score
    else:
        gains, ceilings, states, _, taus = scorer.repair_gains(positions, gains)
        trial, exp, alpha = scorer.trial_score, math.exp, scorer.alpha_nat  # once per descent
        gain_monotone = (kind, scenario) in _GAIN_MONOTONE
        # A Gordon-Holevo optimum tends to hold a gain on its budget ceiling; a
        # position move at fixed gain leaves that ridge, so there the trial gain
        # follows the ceiling (repair_gains clips inf to it).  The conventional
        # scenarios keep fixed-gain moves, which the ridge rule only slows.
        # Each line search is keyed by everything its objective and bracket read.
        # Scoring is deterministic and ``current`` never falls, so a repeated
        # search's best value is still at most ``current``: it cannot move.
        searched = set()

        for _ in range(_MAX_SWEEPS):
            moved = 0.0
            for i in range(amp_count):
                # A move at amplifier i leaves the chain before it unchanged, so
                # each trial walks on from the raw state after amplifier i - 1.
                y = states[i - 1] if i else scorer.ref_input
                # one double clear of each neighbour even where doubles are sparser
                left = positions[i - 1] if i > 0 else 0.0
                right = positions[i + 1] if i + 1 < amp_count else length_km
                lo = max(left + _POSITION_GAP_KM, math.nextafter(left, math.inf))
                hi = min(right - _POSITION_GAP_KM, math.nextafter(right, -math.inf))
                move_gains = list(gains)
                if scorer.gh and ceilings[i] - gains[i] <= _PARAM_TOL:
                    move_gains[i] = math.inf
                key = ("position", i, *positions[:i], *positions[i + 1 :], *move_gains)
                if hi > lo and key not in searched:
                    searched.add(key)
                    trial_positions, trial_taus = list(positions), list(taus)

                    def eval_position(x: float) -> float:
                        trial_positions[i] = x
                        trial_taus[i] = exp(-alpha * (x - left))
                        trial_taus[i + 1] = exp(-alpha * (right - x))
                        return trial(trial_positions, move_gains, i, y, trial_taus)

                    best_x, best_fx = golden_section_maximize(
                        eval_position, lo, hi, _PARAM_TOL,
                        (positions[i], current) if gain_monotone else None)
                    if best_fx > current:
                        moved = max(moved, abs(best_x - positions[i]))
                        positions[i] = best_x
                        current = best_fx
                        gains, ceilings, states, _, taus = scorer.repair_gains(positions, move_gains)

                ceiling = ceilings[i]
                if gain_monotone and gains[i] == ceiling:
                    continue  # no lower gain scores higher; see _GAIN_MONOTONE
                key = ("gain", i, *positions, *gains[:i], *gains[i + 1 :])
                if ceiling - 1.0 > _PARAM_TOL and key not in searched:
                    searched.add(key)
                    trial_gains = list(gains)

                    def eval_gain(g: float) -> float:
                        trial_gains[i] = g
                        return trial(positions, trial_gains, i, y, taus)

                    best_g, best_fg = golden_section_maximize(
                        eval_gain, 1.0, ceiling, _PARAM_TOL,
                        (gains[i], current) if gain_monotone else None)
                    if best_fg > current:
                        moved = max(moved, abs(best_g - gains[i]))
                        trial_gains[i] = best_g
                        current = best_fg
                        gains, ceilings, states, _, taus = scorer.repair_gains(positions, trial_gains)
            if moved < _PARAM_TOL:
                break

    # every gain 1 leaves the pure-loss link, which gain searches stopped at 1 + tol can miss
    floor, ones = scorer.score(seed_candidate.plan.positions, [1.0] * amp_count)
    if floor > current:
        positions, gains, current = seed_candidate.plan.positions, ones, floor
    plan = scorer.plan(positions, gains)
    if scorer.gh:
        gh_capacity(plan)  # the audit that trials skip: raises if the winner's input is infeasible
    return PlanCandidate(plan, current)


CSV_HEADER = "distance_km,scenario,amp_kind,amp_count,capacity_bits_per_mode"


# amp_count None marks the distributed (R = infinity) limit; plan is a
# finite-amplifier row's plan, not in the CSV
SweepRow = namedtuple("SweepRow", "distance_km scenario amp_kind amp_count "
                      "capacity_bits_per_mode plan", defaults=(None,))


class SweepTable(namedtuple("SweepTable", "rows")):
    """Rows of capacity-vs-distance results, ready for CSV emission."""

    __slots__ = ()

    def sort(self) -> "SweepTable":
        def key(row: SweepRow):
            amps = math.inf if row.amp_count is None else row.amp_count
            return (row.scenario.value, row.amp_kind.value, amps, row.distance_km)

        self.rows.sort(key=key)
        return self

    def csv_lines(self) -> list[str]:
        lines = [CSV_HEADER]
        for row in self.rows:
            if not math.isfinite(row.capacity_bits_per_mode) or row.capacity_bits_per_mode < 0:
                raise ValueError(f"capacity out of range in {row!r}")
            amps = "inf" if row.amp_count is None else str(row.amp_count)
            lines.append(
                f"{row.distance_km:.9g},{row.scenario.value},"
                f"{row.amp_kind.value},{amps},{row.capacity_bits_per_mode:.9g}"
            )
        return lines


def distance_grid(start: float, stop: float, step: float) -> list[float]:
    """Distances start, start + step, ... up to ``stop`` (within 1e-9 steps), each
    computed from its index, until one reaches ``stop``; a step below the spacing of
    doubles, which would repeat a distance, or a grid over ``MAX_GRID_POINTS`` raises."""
    if not (step > 0.0 and math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid needs finite ends and a positive step, got "
                         f"{start}, {stop}, {step}")
    points, last = [], -math.inf
    while last < stop and (value := start + len(points) * step) <= stop + 1e-9 * step:
        if value <= last:
            raise ValueError(f"step {step:g} km is below the spacing of doubles at "
                             f"{value:g} km, so the grid would repeat a distance")
        if len(points) == MAX_GRID_POINTS:
            raise ValueError(f"a grid of {(stop - start) / step + 1:.6g} points; at most "
                             f"{MAX_GRID_POINTS} are allowed")
        points.append(last := value)
    return points


def _sweep_point(args) -> SweepRow:
    length_km, amp_count, _, _, kind, scenario = args
    candidate = optimize_plan(*args)
    return SweepRow(length_km, scenario, kind, amp_count, candidate.score, candidate.plan)


def _fan_out(jobs: list, workers: int) -> list[SweepRow]:
    """Rows of ``jobs`` in order; job k goes to worker k % ``workers``.  The caller
    is worker 0.  Each forked child pickles (True, rows) or (False, (error, traceback))
    into its own pipe and ends through ``os._exit``, with status 0 once sent."""
    import pickle  # imported here: only a pooled sweep needs it
    children = {}  # worker -> (pid, read end of its pipe); on an error, killed and reaped
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.close(read_fd)  # so that a write gets EPIPE once the caller is gone
                    with open(write_fd, "wb") as pipe:
                        try:
                            rows = [_sweep_point(job) for job in jobs[w::workers]]
                            pipe.write(pickle.dumps((True, rows)))
                        except BaseException as exc:  # noqa: BLE001 - sent to the caller
                            import traceback
                            pipe.write(pickle.dumps((False, (exc, traceback.format_exc()))))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children[w] = pid, open(read_fd, "rb")
        shares = [[_sweep_point(job) for job in jobs[::workers]]]
        for w in range(1, workers):
            with children[w][1] as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(children.pop(w)[0], 0)[1])
            if status or not data:
                raise RuntimeError(f"sweep worker {w} sent no rows (exit status {status})")
            ok, value = pickle.loads(data)
            if not ok:  # a pickled exception has lost its traceback; its text is the cause
                raise value[0] from RuntimeError(f"sweep worker {w} failed:\n{value[1]}")
            shares.append(value)
        return [shares[k % workers][k // workers] for k in range(len(jobs))]
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL: the child may be blocked on its full pipe
            os.waitpid(pid, 0)


def sweep_distance(
    grid: list[float],
    amp_count: int,
    nbar: float,
    alpha_db_per_km: float,
    kind: AmpKind = AmpKind.PSA,
    scenario: Scenario = Scenario.CONVENTIONAL,
    *,
    max_workers: int = 1,
) -> SweepTable:
    """Optimize one plan per grid distance; rows, each with its plan, come back in
    grid order.  From four points on, up to ``max_workers`` processes (one per CPU)
    share them: the caller and forked children (serial without ``os.fork``).
    ``InputError``, on an empty grid too: a budget outside [0, ``MAX_NBAR``], a bad attenuation."""
    if not 0 <= nbar <= MAX_NBAR:
        raise InputError(f"photon budget must lie in [0, MAX_NBAR = {MAX_NBAR:g}], got {nbar:g}")
    attenuation_to_natural(alpha_db_per_km)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("distance grid must be strictly increasing")
    if any(length <= 0 for length in grid):
        raise ValueError("distances must be positive")
    jobs = [(length, amp_count, nbar, alpha_db_per_km, kind, scenario) for length in grid]
    workers = min(max_workers, os.cpu_count() or 1, len(jobs))
    if workers > 1 and len(jobs) >= _POOL_MIN_POINTS and hasattr(os, "fork"):
        rows = _fan_out(jobs, workers)
    else:
        rows = [_sweep_point(job) for job in jobs]
    for prev, cur in zip(rows, rows[1:]):
        if cur.capacity_bits_per_mode > prev.capacity_bits_per_mode + 1e-9:
            import logging  # imported here: the module costs every other run about 5 ms

            logging.getLogger(__name__).warning(
                "capacity increased with distance (%s km -> %s km); "
                "optimizer likely stuck at %s km",
                prev.distance_km, cur.distance_km, prev.distance_km,
            )
    return SweepTable(rows)
