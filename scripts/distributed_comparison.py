#!/usr/bin/env python3
"""Distributed-amplification comparison: the exact continuum versus the
constant-rate approximations, for PSA and PIA regeneration.

Emits one row per (distance, photon budget, curve), where curve is one of
psa_ode, psa_approx, pia_ode, pia_approx:

    python scripts/distributed_comparison.py --out fig_distributed.csv
"""

import argparse
import sys

from qlink import AmpKind, Scenario, distance_grid, distributed_rows
from qlink.distributed import approx_capacity_pia, approx_capacity_psa


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nbar", type=float, nargs="*", default=[50.0, 100.0, 200.0])
    parser.add_argument("--alpha-db-km", type=float, default=0.2)
    parser.add_argument("--l-max-km", type=float, default=5000.0)
    parser.add_argument("--l-step-km", type=float, default=100.0)
    parser.add_argument("--out", default="distributed_comparison.csv")
    args = parser.parse_args()

    grid = distance_grid(args.l_step_km, args.l_max_km, args.l_step_km)

    lines = ["distance_km,nbar,curve,capacity_bits_per_mode"]
    for nbar in args.nbar:
        psa = distributed_rows(grid, nbar, args.alpha_db_km, AmpKind.PSA, Scenario.CONVENTIONAL)
        pia = distributed_rows(grid, nbar, args.alpha_db_km, AmpKind.PIA,
                               Scenario.TWO_QUADRATURE)
        for length, psa_row, pia_row in zip(grid, psa, pia):
            values = {
                "psa_ode": psa_row.capacity_bits_per_mode,
                "psa_approx": approx_capacity_psa(length, nbar, args.alpha_db_km),
                "pia_ode": pia_row.capacity_bits_per_mode,
                "pia_approx": approx_capacity_pia(length, nbar, args.alpha_db_km),
            }
            for curve, capacity in values.items():
                lines.append(f"{length:.9g},{nbar:.9g},{curve},{capacity:.9g}")
        print(f"nbar={nbar:g} done", file=sys.stderr)

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
