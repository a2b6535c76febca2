#!/usr/bin/env python3
"""Capacity-versus-distance curve family for optimized amplifier chains.

For each amplifier count (finite counts plus the distributed limit) and each
detection scenario, optimizes the link at every grid distance and writes the
resulting curves into one CSV, same schema as the qlink CLI:

    python scripts/capacity_vs_distance.py --out fig_capacity_vs_distance.csv --quick
"""

import argparse
import sys
import time

from qlink import (
    AmpKind,
    Scenario,
    SweepRow,
    SweepTable,
    distance_grid,
    distributed_rows,
    sweep_distance,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nbar", type=float, default=100.0)
    parser.add_argument("--alpha-db-km", type=float, default=0.2)
    parser.add_argument("--l-max-km", type=float, default=500.0)
    parser.add_argument("--l-step-km", type=float, default=25.0)
    parser.add_argument("--amps", type=int, nargs="*", default=[0, 1, 2, 4, 8])
    parser.add_argument("--out", default="capacity_vs_distance.csv")
    parser.add_argument("--quick", action="store_true",
                        help="coarser grid and fewer amplifier counts")
    args = parser.parse_args()

    if args.quick:
        args.l_step_km = max(args.l_step_km, 100.0)
        args.amps = [r for r in args.amps if r <= 2]

    grid = distance_grid(args.l_step_km, args.l_max_km, args.l_step_km)

    rows: list[SweepRow] = []
    for scenario in (Scenario.CONVENTIONAL, Scenario.GORDON_HOLEVO):
        for amps in args.amps:
            started = time.time()
            table = sweep_distance(grid, amps, args.nbar, args.alpha_db_km,
                                   AmpKind.PSA, scenario, max_workers=8)
            rows.extend(table.rows)
            print(f"{scenario.value} R={amps}: {time.time() - started:.1f}s",
                  file=sys.stderr)
        rows.extend(distributed_rows(grid, args.nbar, args.alpha_db_km, AmpKind.PSA, scenario))
        print(f"{scenario.value} R=inf done", file=sys.stderr)

    lines = SweepTable(rows).sort().csv_lines()
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
