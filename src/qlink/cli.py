"""Command-line front end: sweeps, single-link optimization, distributed
integration and the PSA/PIA crossover search, all emitting one CSV schema.

Configuration comes from flags, optionally layered over a flat key=value
config file (flags win).  The resolved configuration is echoed to stderr so
every run is reproducible from its log.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, fields

from .capacity import Scenario, shannon_capacity
from .distributed import (
    DEFAULT_STEP_KM,
    GRID_TOL_KM,
    IntegrationError,
    OdeProfile,
    gh_capacity_at,
    integrate_pia,
    integrate_psa,
    state_at_position,
)
from .linkchain import AmpKind
from .optimizer import SweepRow, SweepTable, distance_grid, optimize_plan, sweep_distance

_KINDS = {"psa": AmpKind.PSA, "pia": AmpKind.PIA}
_SCENARIOS = {
    "conventional-snl": Scenario.CONVENTIONAL,
    "two-quadrature-snl": Scenario.TWO_QUADRATURE,
    "gordon-holevo": Scenario.GORDON_HOLEVO,
}
_COMMANDS = ("sweep", "optimize", "distributed", "crossover")
_FLOAT_KEYS = ("nbar", "alpha_db_km", "l_min_km", "l_max_km", "l_step_km", "ode_step_km")

# Bound on the worker pool used for independent grid points.
_MAX_WORKERS = 8
# Largest grid, and most RK4 steps of a continuum run, that a run may ask for.
MAX_GRID_POINTS = 100_000
MAX_RK4_STEPS = 1_000_000
# A '#' starts a comment at the start of a line or after whitespace.
_COMMENT = re.compile(r"(?:^|\s)#")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    nbar: float = 100.0
    alpha_db_km: float = 0.2
    l_min_km: float = 10.0
    l_max_km: float = 5000.0
    l_step_km: float = 10.0
    amps: int | None = 0  # None encodes the distributed R=infinity limit
    kind: AmpKind = AmpKind.PSA
    scenario: Scenario = Scenario.CONVENTIONAL
    ode_step_km: float = DEFAULT_STEP_KM
    seed: int = 0  # accepted for compatibility; no result depends on it
    out: str = "qlink.csv"

    def grid(self) -> list[float]:
        return distance_grid(self.l_min_km, self.l_max_km, self.l_step_km)


def _coerce(key: str, value: str):
    try:
        if key in _FLOAT_KEYS:
            number = float(value)
            if not math.isfinite(number):
                raise UsageError(f"malformed value for '{key}': must be finite, got {value!r}")
            return number
        if key == "seed":
            return int(value)
        if key == "amps":
            if value.strip().lower() == "inf":
                return None
            amps = int(value)
            if amps < 0:
                raise ValueError
            return amps
        if key == "kind":
            return _KINDS[value.strip().lower()]
        if key == "scenario":
            return _SCENARIOS[value.strip().lower()]
        if key == "command":
            if value not in _COMMANDS:
                raise ValueError
            return value
        if key == "out":
            return value
    except (ValueError, KeyError):
        raise UsageError(f"malformed value for '{key}': {value!r}") from None
    raise UsageError(f"unknown configuration key '{key}'")


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = _COMMENT.split(raw, 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, _, value = line.partition("=")
                values[key.strip()] = _coerce(key.strip(), value.strip())
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlink",
        description="Capacity of multispan optical links with quantum-limited amplification.",
    )
    parser.add_argument("command", nargs="?", choices=_COMMANDS)
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--nbar", help="input photon budget per mode")
    parser.add_argument("--alpha-db-km", dest="alpha_db_km", help="attenuation in dB/km")
    parser.add_argument("--l-min-km", dest="l_min_km", help="first grid distance")
    parser.add_argument("--l-max-km", dest="l_max_km", help="last grid distance")
    parser.add_argument("--l-step-km", dest="l_step_km", help="grid spacing")
    parser.add_argument("--amps", help="amplifier count, or 'inf' for distributed")
    parser.add_argument("--kind", help="amplifier kind: psa or pia")
    parser.add_argument("--scenario", help="|".join(_SCENARIOS))
    parser.add_argument("--ode-step-km", dest="ode_step_km", help="integration step")
    parser.add_argument("--seed", help="accepted for compatibility; no result depends on it")
    parser.add_argument("--out", help="output CSV path")
    return parser


def _check_on_integration_grid(config: RunConfig) -> None:
    # Gordon-Holevo channel maps exist only at integration samples: the
    # multiples of the step, and the integrated length (the last distance).
    step = config.ode_step_km
    for length in config.grid()[:-1]:
        if abs(length - round(length / step) * step) > GRID_TOL_KM:
            raise UsageError(
                f"gordon-holevo distributed rows need every distance on the "
                f"integration grid; {length:g} km is not a multiple of "
                f"--ode-step-km {step:g}"
            )


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve flags over config-file values and validate the combination."""
    args = _build_parser().parse_args(argv)
    merged = {}
    if args.config:
        merged.update(_read_config_file(args.config))
    for key in ("nbar", "alpha_db_km", "l_min_km", "l_max_km", "l_step_km",
                "amps", "kind", "scenario", "ode_step_km", "seed", "out"):
        value = getattr(args, key)
        if value is not None:
            merged[key] = _coerce(key, value)
    if args.command is not None:
        merged["command"] = args.command
    if "command" not in merged:
        raise UsageError("no command given (sweep|optimize|distributed|crossover)")

    config = RunConfig(**merged)
    if config.nbar < 0:
        raise UsageError(f"malformed value for 'nbar': must be >= 0, got {config.nbar}")
    if config.alpha_db_km <= 0:
        raise UsageError(f"malformed value for 'alpha_db_km': must be > 0, got {config.alpha_db_km}")
    if config.l_step_km <= 0:
        raise UsageError(f"malformed value for 'l_step_km': must be > 0, got {config.l_step_km}")
    if config.l_min_km <= 0:
        raise UsageError(f"malformed value for 'l_min_km': must be > 0, got {config.l_min_km}")
    if config.ode_step_km <= 0:
        raise UsageError(f"malformed value for 'ode_step_km': must be > 0, got {config.ode_step_km}")
    if config.command == "distributed":
        config.amps = None
    if config.amps is None and config.command == "optimize":
        raise UsageError("--amps inf is only valid for the distributed/sweep commands")
    if config.command == "crossover" and config.l_max_km <= config.l_min_km:
        raise UsageError("crossover needs l_min_km < l_max_km to bracket the crossing")
    points = (config.l_max_km - config.l_min_km) / config.l_step_km + 1.0
    if points > MAX_GRID_POINTS:
        raise UsageError(
            f"--l-min-km {config.l_min_km:g} to --l-max-km {config.l_max_km:g} in steps "
            f"of --l-step-km {config.l_step_km:g} is a grid of {points:.0f} points; "
            f"at most {MAX_GRID_POINTS} are allowed")
    integrates = config.command == "crossover" or config.amps is None
    steps = config.l_max_km / config.ode_step_km
    if integrates and steps > MAX_RK4_STEPS:
        raise UsageError(
            f"--l-max-km {config.l_max_km:g} in steps of --ode-step-km "
            f"{config.ode_step_km:g} is {steps:.0f} RK4 steps; at most "
            f"{MAX_RK4_STEPS} are allowed")
    sweeps_continuum = config.amps is None and config.command != "crossover"
    if (sweeps_continuum and config.kind is AmpKind.PSA
            and config.scenario is Scenario.TWO_QUADRATURE):
        raise UsageError("psa with two-quadrature-snl has no continuum limit: the "
                         "phase-sensitive feedback is singular for the symmetric input")
    integrates_psa = config.command == "crossover" or (
        config.amps is None and config.kind is AmpKind.PSA)
    if integrates_psa and config.nbar == 0:
        raise UsageError("distributed PSA needs nbar > 0: its feedback gain is singular "
                         "without signal power")
    if sweeps_continuum and config.scenario is Scenario.GORDON_HOLEVO:
        _check_on_integration_grid(config)

    for field in fields(RunConfig):
        value = getattr(config, field.name)
        if field.name == "amps":
            value = "inf" if value is None else value
        elif isinstance(value, AmpKind):
            value = value.value.lower()
        elif isinstance(value, Scenario):
            value = next(k for k, v in _SCENARIOS.items() if v is value)
        print(f"# {field.name}={value}", file=sys.stderr)
    return config


def _integrate(config: RunConfig, kind: AmpKind, scenario: Scenario, length_km: float,
               track=False) -> OdeProfile:
    if kind is AmpKind.PSA:
        return integrate_psa(length_km, config.nbar, config.alpha_db_km,
                             config.ode_step_km, track_channel=track)
    return integrate_pia(length_km, config.nbar, config.alpha_db_km, config.ode_step_km,
                         scenario=scenario, track_channel=track)


def _distributed_rows(config: RunConfig, grid: list[float], kind: AmpKind,
                      scenario: Scenario) -> list[SweepRow]:
    if not grid:
        return []
    wants_gh = scenario is Scenario.GORDON_HOLEVO
    profile = _integrate(config, kind, scenario, grid[-1], track=wants_gh)
    rows = []
    for length in grid:
        if wants_gh:
            # channel coefficients exist only at grid samples
            idx = profile.index_at(length)
            bits = gh_capacity_at(profile, idx).bits_per_mode
        else:
            bits = shannon_capacity(state_at_position(profile, length), scenario)
        rows.append(SweepRow(length, scenario, kind, None, bits))
    return rows


def _run_crossover(config: RunConfig) -> tuple[list[SweepRow], float]:
    grid = config.grid()
    psa = _integrate(config, AmpKind.PSA, Scenario.CONVENTIONAL, config.l_max_km)
    pia = _integrate(config, AmpKind.PIA, Scenario.TWO_QUADRATURE, config.l_max_km)

    def capacities(length: float) -> tuple[float, float]:
        return (shannon_capacity(state_at_position(psa, length), Scenario.CONVENTIONAL),
                shannon_capacity(state_at_position(pia, length), Scenario.TWO_QUADRATURE))

    rows = []
    for length in grid:
        psa_bits, pia_bits = capacities(length)
        rows.append(SweepRow(length, Scenario.CONVENTIONAL, AmpKind.PSA, None, psa_bits))
        rows.append(SweepRow(length, Scenario.TWO_QUADRATURE, AmpKind.PIA, None, pia_bits))

    def difference(length: float) -> float:
        psa_bits, pia_bits = capacities(length)
        return pia_bits - psa_bits

    lo, hi = config.l_min_km, config.l_max_km
    f_lo, f_hi = difference(lo), difference(hi)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise RuntimeError(
            f"no PSA/PIA crossover bracketed in [{lo}, {hi}] km "
            f"(difference {f_lo:.4g} -> {f_hi:.4g})"
        )
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if difference(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return rows, 0.5 * (lo + hi)


def run(config: RunConfig) -> int:
    """Execute the configured command and write the CSV dataset."""
    grid = config.grid()
    crossing = None
    if config.command == "crossover":
        rows, crossing = _run_crossover(config)
    elif config.amps is None:
        rows = _distributed_rows(config, grid, config.kind, config.scenario)
    elif config.command == "optimize":
        rows = []
        for length in grid:
            candidate = optimize_plan(length, config.amps, config.nbar, config.alpha_db_km,
                                      config.kind, config.scenario)
            print(f"# optimized L={length:g} km: positions={list(candidate.positions)} "
                  f"gains={list(candidate.gains)}", file=sys.stderr)
            rows.append(SweepRow(length, config.scenario, config.kind,
                                 config.amps, candidate.score))
    else:
        workers = 1
        if len(grid) >= 4:
            workers = min(_MAX_WORKERS, os.cpu_count() or 1, len(grid))
        table = sweep_distance(grid, config.amps, config.nbar, config.alpha_db_km,
                               config.kind, config.scenario, max_workers=workers)
        rows = table.rows

    lines = SweepTable(rows).sort().csv_lines()
    tmp_path = config.out + ".tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp_path, config.out)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
    if crossing is not None:
        print(f"crossover_km={crossing:.6g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as err:
        print(f"qlink: usage error: {err}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except IntegrationError as err:
        # RK4 stage points overshoot the PSA feedback when the budget is small
        # for the step; no exact check can refuse these inputs beforehand.
        print(f"qlink: usage error: {err}; raise --nbar or lower --ode-step-km",
              file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - boundary: report and set exit status
        print(f"qlink: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
