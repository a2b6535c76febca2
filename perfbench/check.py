"""Correctness gate for one qlink CLI run.

A run passes when its CSV has the documented header, the expected rows in
the documented sort order, finite non-negative capacities that never rise
with distance inside a (scenario, amp_kind, amp_count) group, and every row
agrees with the reference CSV captured for the workload.  ``crossover`` runs
must also print the crossing distance on stdout.

The checker reads text only and never imports qlink, so it judges the
program from the outside.
"""

from __future__ import annotations

import math
import re

CSV_HEADER = "distance_km,scenario,amp_kind,amp_count,capacity_bits_per_mode"
GH_SCENARIO = "GordonHolevo"

# Rows that are not Gordon-Holevo must match the reference to this many bits
# in either direction, and also to this share of the reference value: the
# conventional chain's capacities decay to 1e-73 bits over the sweep, where an
# absolute tolerance alone would accept any small number, zero included.
ROW_TOL_BITS = 1e-7
ROW_REL_TOL = 1e-6
# A Gordon-Holevo row is the result of a maximization: a better search may
# raise it, but it must never fall below the reference by more than this.
GH_FALL_TOL_BITS = 1e-9
# Upper limit on how far a Gordon-Holevo row may rise, so an overestimate
# (e.g. a budget check that stopped binding) is still caught.
GH_RISE_TOL_BITS = 1e-4
# Grid distances are compared as numbers, not as strings.
DISTANCE_TOL_KM = 1e-6
# The default crossover command's crossing distance, captured with the
# reference CSVs.  It is bisected to 1e-3 km and printed with six significant
# digits; another exact method may land one bisection step away.
CROSSOVER_KM = 710.169
CROSSOVER_TOL_KM = 5e-3

_CROSSOVER_LINE = re.compile(r"^crossover_km=(\S+)$", re.MULTILINE)


def print_unit(value: float) -> float:
    """One unit in the ninth significant digit, the CSV's printed precision.

    Two values printed at that precision may differ by this much even when
    the numbers behind them agree to better than any tolerance above.
    """
    if value == 0.0:
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - 8)


def parse_csv(text: str) -> tuple[str, list[tuple[float, str, str, float, float]]]:
    """Split CSV text into its header and typed rows.

    Raises ValueError on a malformed row.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty CSV")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields, got {line!r}")
        distance, scenario, kind, amps, capacity = fields
        rows.append((float(distance), scenario, kind, float(amps), float(capacity)))
    return lines[0], rows


def _sort_key(row):
    distance, scenario, kind, amps, _ = row
    return (scenario, kind, amps, distance)


def check_csv(text: str, reference: str) -> list[str]:
    """Problems found in ``text`` against the reference CSV; empty if none."""
    try:
        header, rows = parse_csv(text)
    except ValueError as err:
        return [f"unparseable CSV: {err}"]
    _, ref_rows = parse_csv(reference)
    problems = []
    if header != CSV_HEADER:
        problems.append(f"header {header!r} != {CSV_HEADER!r}")
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} rows, reference has {len(ref_rows)}")

    for lineno, (prev, cur) in enumerate(zip(rows, rows[1:]), 3):
        if _sort_key(cur) <= _sort_key(prev):
            problems.append(f"line {lineno}: rows out of order")

    for lineno, row in enumerate(rows, 2):
        capacity = row[4]
        if not math.isfinite(capacity) or capacity < 0.0:
            problems.append(f"line {lineno}: capacity {capacity} not finite and >= 0")

    for lineno, (prev, cur) in enumerate(zip(rows, rows[1:]), 3):
        same_group = prev[1:4] == cur[1:4]
        if same_group and cur[0] > prev[0] and cur[4] > prev[4]:
            problems.append(
                f"line {lineno}: capacity rises with distance "
                f"({prev[0]:g} km {prev[4]!r} -> {cur[0]:g} km {cur[4]!r})"
            )

    for lineno, (row, ref) in enumerate(zip(rows, ref_rows), 2):
        if abs(row[0] - ref[0]) > DISTANCE_TOL_KM or row[1:4] != ref[1:4]:
            problems.append(f"line {lineno}: row key {row[:4]} != reference {ref[:4]}")
            continue
        diff = row[4] - ref[4]
        slack = print_unit(ref[4])
        if row[1] == GH_SCENARIO:
            ok = -(GH_FALL_TOL_BITS + slack) <= diff <= GH_RISE_TOL_BITS + slack
        else:
            ok = abs(diff) <= min(ROW_TOL_BITS, ROW_REL_TOL * abs(ref[4])) + slack
        if not ok:
            problems.append(
                f"line {lineno}: capacity {row[4]!r} vs reference {ref[4]!r} "
                f"(diff {diff:+.3g} bits)"
            )
    return problems


def check_crossover(stdout: str, expected_km: float = CROSSOVER_KM) -> list[str]:
    """Problems with the ``crossover_km=`` line on stdout; empty if none."""
    found = _CROSSOVER_LINE.findall(stdout)
    if len(found) != 1:
        return [f"expected one crossover_km= line on stdout, found {len(found)}"]
    try:
        value = float(found[0])
    except ValueError:
        return [f"malformed crossover_km value {found[0]!r}"]
    if not abs(value - expected_km) <= CROSSOVER_TOL_KM:
        return [f"crossover_km={value} is not within {CROSSOVER_TOL_KM} km of {expected_km}"]
    return []


def check_run(csv_text: str, stdout: str, reference: str, crossover: bool) -> list[str]:
    """All problems with one run's outputs; empty if the run is correct.
    ``crossover`` runs must also report the crossing on stdout."""
    problems = check_csv(csv_text, reference)
    if crossover:
        problems += check_crossover(stdout)
    return problems
