"""Amplifier placement and gain optimization under the photon budget.

The decision variables are the amplifier positions and gains of a link of
fixed length and amplifier count.  The search is a deterministic coordinate
descent with golden-section line searches, seeded from the equidistant plan
whose gains restore the photon number exactly to the budget.  Iterates that
overshoot the budget are repaired by scaling the offending gains down to the
feasible boundary, which keeps the search connected.  A Shannon trial move
at amplifier i walks the chain on from the cached state after amplifier i - 1
of the accepted plan and keeps only the raw output, whose moments get the
checks of a ``QuadState``: the full walk's score, bit for bit.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

from .capacity import Scenario, gh_capacity, scenario_input, shannon_rate
from .linkchain import (
    AmpKind,
    LinkPlan,
    _amplify,
    _ceiling,
    _loss,
    attenuation_to_natural,
    propagate,  # noqa: F401 - unused here; kept as a patch point for perfbench/traced_run.py
)
from .quadmodel import check_moments
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


# A link plan and its score under a detection scenario.
PlanCandidate = namedtuple("PlanCandidate", "plan score")


class _PlanScorer:
    """Repairs raw coordinates into feasible ones and scores them."""

    def __init__(self, length_km, nbar, alpha_db_per_km, kind, scenario):
        self.length_km = length_km
        self.nbar = nbar
        self.alpha_db_per_km = alpha_db_per_km
        self.alpha_nat = attenuation_to_natural(alpha_db_per_km)
        self.kind = kind
        self.scenario = scenario
        self.ref_input = scenario_input(scenario, nbar).as_tuple()
        self.gh = scenario is Scenario.GORDON_HOLEVO

    def repair_gains(self, positions, gains) -> tuple[list, list, list, tuple]:
        """Scale down any gain that would push the reference input above the
        photon budget, walking the chain to the output.  Returns the repaired
        gains; each amplifier's ceiling (its largest feasible gain given the
        amplifiers before it) and raw state after it; and the reference output
        as a raw tuple."""
        y, prev = self.ref_input, 0.0
        repaired, ceilings, states = [], [], []
        for pos, gain in zip(positions, gains):
            y = _loss(y, math.exp(-self.alpha_nat * (pos - prev)))
            ceiling = _ceiling(y, self.nbar, self.kind)
            gain = min(max(gain, 1.0), ceiling)
            repaired.append(gain)
            ceilings.append(ceiling)
            y = _amplify(y, self.kind, gain)
            states.append(y)
            prev = pos
        y = _loss(y, math.exp(-self.alpha_nat * (self.length_km - prev)))
        return repaired, ceilings, states, y

    def plan(self, positions, gains) -> LinkPlan:
        return LinkPlan(self.alpha_db_per_km, self.length_km, self.nbar,
                        positions, gains, self.kind)

    def score(self, positions, gains) -> tuple[float, list[float]]:
        """Score repaired coordinates; returns (score, repaired gains)."""
        gains, _, _, out = self.repair_gains(positions, gains)
        if self.gh:
            return gh_capacity(self.plan(positions, gains)).bits_per_mode, gains
        check_moments(*out)
        return shannon_rate(out, self.scenario), gains

    def trial_score(self, positions, gains, start, y) -> float:
        """``score(...)[0]`` of coordinates repaired before amplifier ``start``,
        given the raw state ``y`` just after amplifier ``start - 1``.  A Shannon
        trial walks on from ``y`` as ``repair_gains`` does and keeps only the
        output; a Gordon-Holevo trial folds the whole plan in ``gh_capacity``."""
        if self.gh:
            return self.score(positions, gains)[0]
        prev = positions[start - 1] if start else 0.0
        for pos, gain in zip(positions[start:], gains[start:]):
            y = _loss(y, math.exp(-self.alpha_nat * (pos - prev)))
            ceiling = _ceiling(y, self.nbar, self.kind)
            # repair_gains' min(max(gain, 1.0), ceiling), NaN and ties included
            gain = 1.0 if gain < 1.0 else gain
            y = _amplify(y, self.kind, ceiling if ceiling < gain else gain)
            prev = pos
        y = _loss(y, math.exp(-self.alpha_nat * (self.length_km - prev)))
        check_moments(*y)
        return shannon_rate(y, self.scenario)


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

    Coordinate descent over the interleaved position/gain coordinates with
    golden-section line searches; deterministic for fixed inputs.  Returns
    the seed when no coordinate move improves on it.
    """
    seed_candidate = equidistant_saturating_plan(
        length_km, amp_count, nbar, alpha_db_per_km, kind, scenario)
    if amp_count == 0:
        return seed_candidate

    scorer = _PlanScorer(length_km, nbar, alpha_db_per_km, kind, scenario)
    positions = list(seed_candidate.plan.positions)
    gains, ceilings, states, _ = scorer.repair_gains(positions, seed_candidate.plan.gains)
    current = seed_candidate.score
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

                def eval_position(x: float) -> float:
                    trial = positions[:i] + [x] + positions[i + 1 :]
                    return scorer.trial_score(trial, move_gains, i, y)

                best_x, best_fx = golden_section_maximize(eval_position, lo, hi, _PARAM_TOL)
                if best_fx > current:
                    moved = max(moved, abs(best_x - positions[i]))
                    positions[i] = best_x
                    current = best_fx
                    gains, ceilings, states, _ = scorer.repair_gains(positions, move_gains)

            ceiling = ceilings[i]
            key = ("gain", i, *positions, *gains[:i], *gains[i + 1 :])
            if ceiling - 1.0 > _PARAM_TOL and key not in searched:
                searched.add(key)

                def eval_gain(g: float) -> float:
                    trial = gains[:i] + [g] + gains[i + 1 :]
                    return scorer.trial_score(positions, trial, i, y)

                best_g, best_fg = golden_section_maximize(eval_gain, 1.0, ceiling, _PARAM_TOL)
                if best_fg > current:
                    moved = max(moved, abs(best_g - gains[i]))
                    trial = gains[:i] + [best_g] + gains[i + 1 :]
                    current = best_fg
                    gains, ceilings, states, _ = scorer.repair_gains(positions, trial)
        if moved < _PARAM_TOL:
            break

    return PlanCandidate(scorer.plan(positions, gains), current)


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
    """Distances start, start + step, ... up to ``stop`` (within 1e-9 steps),
    each computed from its index; a step below the spacing of doubles, which
    would repeat a distance, or a grid over ``MAX_GRID_POINTS`` raises."""
    if not (step > 0.0 and math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid needs finite ends and a positive step, got "
                         f"{start}, {stop}, {step}")
    points = []
    while (value := start + len(points) * step) <= stop + 1e-9 * step:
        if points and value <= points[-1]:
            raise ValueError(f"step {step:g} km is below the spacing of doubles at "
                             f"{value:g} km, so the grid would repeat a distance")
        if len(points) == MAX_GRID_POINTS:
            raise ValueError(f"a grid of {(stop - start) / step + 1:.6g} points; at most "
                             f"{MAX_GRID_POINTS} are allowed")
        points.append(value)
    return points


def _sweep_point(args) -> SweepRow:
    length_km, amp_count, _, _, kind, scenario = args
    candidate = optimize_plan(*args)
    return SweepRow(length_km, scenario, kind, amp_count, candidate.score, candidate.plan)


def _fan_out(jobs: list, workers: int) -> list[SweepRow]:
    """Rows of ``jobs`` in order; job k goes to worker k % ``workers``.  The caller
    is worker 0.  Each forked child pickles (True, rows) or (False, exception)
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
                            pipe.write(pickle.dumps((False, exc)))
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
            if not ok:
                raise value
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
    share them: the caller and forked children (serial without ``os.fork``)."""
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
