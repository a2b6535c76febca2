"""Traced in-process run of one qlink CLI command.

Usage: python3 perfbench/traced_run.py SPANS_JSON -- <qlink CLI arguments>

Wraps the public functions of each layer at the name where its caller looks
it up, runs ``qlink.cli.main`` in this process and writes the spans and the
per-layer metrics to SPANS_JSON.  Sweeps are driven with one worker, because
spans recorded in pool workers would be lost with the worker processes.
Nothing under ``src/`` is changed; the wrappers live only in this process.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A grid point counts as improved when the optimizer beats its equidistant
# seed by more than this many bits.
IMPROVED_EPS_BITS = 1e-9
# p90 of the per-point time is reported only with this many points, so that
# ten samples lie beyond it.
P90_MIN_POINTS = 100
# Bytes a GH objective evaluation touches per checkpoint: three float64
# arrays (mult_i, mult_q, add_sum) in the budget audit.
GH_BYTES_PER_CHECKPOINT = 3 * 8


class Tracer:
    """In-memory spans and counters for one traced run.

    A span is [name, start, end, parent index]; the parent is the span that
    was open when it started (-1 at top level).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.seen_errors: set[int] = set()
        self.errors: dict[str, int] = {}

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span named ``name``."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            spans[index][1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                # Count each error once, in the innermost span it left.
                if id(err) not in self.seen_errors:
                    self.seen_errors.add(id(err))
                    key = type(err).__name__
                    self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()

        return wrapper

    def counted_search(self, prefix: str, fn):
        """A golden-section search wrapped to count its calls as
        ``<prefix>.searches`` and its objective calls as ``<prefix>.evals``."""

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            calls = 0

            def counted(x):
                nonlocal calls
                calls += 1
                return f(x)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                self.add(prefix + ".searches")
                self.add(prefix + ".evals", calls)

        return wrapper

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self time and number of spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from qlink import capacity, cli, distributed, optimizer

    cli.parse_config = tracer.span("cli.parse", cli.parse_config)

    csv_lines = tracer.span("cli.csv_lines", optimizer.SweepTable.csv_lines)

    def csv_lines_counted(table):
        lines = csv_lines(table)
        tracer.add("cli.rows", len(lines) - 1)
        return lines

    optimizer.SweepTable.csv_lines = csv_lines_counted

    sweep_distance = cli.sweep_distance
    cli.sweep_distance = lambda *a, **k: sweep_distance(*a, **{**k, "max_workers": 1})

    seed_scores: list[float] = []
    seed_plan = optimizer.equidistant_saturating_plan

    def seed_plan_recorded(*args, **kwargs):
        candidate = seed_plan(*args, **kwargs)
        seed_scores.append(candidate.score)
        return candidate

    optimizer.equidistant_saturating_plan = seed_plan_recorded
    optimize_plan = tracer.span("optimizer.optimize_plan", optimizer.optimize_plan)

    def optimize_plan_compared(*args, **kwargs):
        seed_scores.clear()
        candidate = optimize_plan(*args, **kwargs)
        # Comparison made after the span closed, from the seed score the
        # optimizer computed itself: no extra work inside the timing.
        improved = bool(seed_scores) and candidate.score > seed_scores[0] + IMPROVED_EPS_BITS
        tracer.add("optimizer.improved", int(improved))
        return candidate

    optimizer.optimize_plan = optimize_plan_compared
    optimizer.golden_section_maximize = tracer.counted_search(
        "optimizer.line", optimizer.golden_section_maximize)
    capacity.golden_section_maximize = tracer.counted_search(
        "capacity.gh_line", capacity.golden_section_maximize)

    def gh_search(fn):
        spanned = tracer.span("capacity.gh", fn)

        def wrapper(mult_i, *args, **kwargs):
            evals_before = tracer.counts.get("capacity.gh_line.evals", 0)
            try:
                return spanned(mult_i, *args, **kwargs)
            finally:
                checkpoints = len(mult_i)
                evals = tracer.counts.get("capacity.gh_line.evals", 0) - evals_before
                tracer.add("capacity.gh_checkpoints", checkpoints)
                tracer.add("capacity.gh_bytes", evals * checkpoints * GH_BYTES_PER_CHECKPOINT)

        return wrapper

    capacity.gh_capacity_for_channel = gh_search(capacity.gh_capacity_for_channel)
    distributed.gh_capacity_for_channel = gh_search(distributed.gh_capacity_for_channel)

    optimizer.propagate = tracer.span("linkchain.propagate", optimizer.propagate)
    capacity.propagate = tracer.span("linkchain.propagate", capacity.propagate)
    capacity.channel_checkpoints = tracer.span(
        "linkchain.checkpoints", capacity.channel_checkpoints)

    def integrator(fn):
        spanned = tracer.span("distributed.integrate", fn)

        def wrapper(*args, **kwargs):
            profile = spanned(*args, **kwargs)
            tracer.add("distributed.rk4_steps", len(profile) - 1)
            return profile

        return wrapper

    cli.integrate_psa = integrator(cli.integrate_psa)
    cli.integrate_pia = integrator(cli.integrate_pia)
    cli.state_at_position = tracer.span(
        "distributed.state_at_position", cli.state_at_position)


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """The per-layer metrics, named as in BENCHMARK.json (less trace.*),
    each as {"value": ..., "unit": ...}."""
    self_s, calls = tracer.self_times()
    count = tracer.counts.get
    points = tracer.durations("optimizer.optimize_plan")
    gh_calls = calls.get("capacity.gh", 0)
    gh_evals = count("capacity.gh_line.evals", 0)
    metrics = {
        "cli.parse_s": (sum(tracer.durations("cli.parse")), "s"),
        "cli.csv_lines_s": (sum(tracer.durations("cli.csv_lines")), "s"),
        "cli.rows": (count("cli.rows", 0), "count"),
        "optimizer.optimize_plan.calls": (len(points), "count"),
        "optimizer.optimize_plan.self_s": (self_s.get("optimizer.optimize_plan", 0.0), "s"),
        "optimizer.plan_evals": (count("optimizer.line.evals", 0), "count"),
        "optimizer.line_searches": (count("optimizer.line.searches", 0), "count"),
        "optimizer.point_s.p50": (statistics.median(points) if points else 0.0, "s"),
        "optimizer.point_s.p90": (statistics.quantiles(points, n=10)[8]
                                  if len(points) >= P90_MIN_POINTS else 0.0, "s"),
        "optimizer.improved_ratio": (count("optimizer.improved", 0) / len(points)
                                     if points else 0.0, "ratio"),
        "capacity.gh_calls": (gh_calls, "count"),
        "capacity.gh_self_s": (self_s.get("capacity.gh", 0.0), "s"),
        "capacity.gh_evals": (gh_evals, "count"),
        "capacity.gh_evals_per_call": (gh_evals / gh_calls if gh_calls else 0.0, "count"),
        "capacity.gh_line_searches": (count("capacity.gh_line.searches", 0), "count"),
        "capacity.gh_checkpoints_mean": (count("capacity.gh_checkpoints", 0) / gh_calls
                                         if gh_calls else 0.0, "count"),
        "capacity.gh_bytes_computed": (count("capacity.gh_bytes", 0), "B"),
        "capacity.gh_errors": (tracer.errors.get("GHSearchError", 0), "count"),
        "linkchain.propagate.calls": (calls.get("linkchain.propagate", 0), "count"),
        "linkchain.propagate.self_s": (self_s.get("linkchain.propagate", 0.0), "s"),
        "linkchain.checkpoints.calls": (calls.get("linkchain.checkpoints", 0), "count"),
        "linkchain.checkpoints.self_s": (self_s.get("linkchain.checkpoints", 0.0), "s"),
        "distributed.integrate.calls": (calls.get("distributed.integrate", 0), "count"),
        "distributed.integrate.self_s": (self_s.get("distributed.integrate", 0.0), "s"),
        "distributed.rk4_steps": (count("distributed.rk4_steps", 0), "count"),
        "distributed.state_at_position.calls": (calls.get("distributed.state_at_position", 0),
                                                "count"),
        "distributed.state_at_position.self_s": (
            self_s.get("distributed.state_at_position", 0.0), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_run.py SPANS_JSON -- <qlink CLI arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = Path(argv[0]), argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    from qlink import cli

    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    status = cli.main(cli_args)
    total_s = time.perf_counter() - start

    names = sorted({span[0] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    out_path.write_text(json.dumps({
        "exit_code": status,
        "total_s": total_s,
        "metrics": layer_metrics(tracer),
        "errors": tracer.errors,
        "span_names": names,
        "spans": [[index[n], s, e, p] for n, s, e, p in tracer.spans],
    }), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
