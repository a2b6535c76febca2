"""Command-line front end: sweeps, single-link optimization, the distributed
limit and the PSA/PIA crossover search, all emitting one CSV schema.

Configuration comes from flags, optionally layered over a flat key=value
config file (flags win).  The resolved configuration is echoed to stderr so
every run is reproducible from its log.  The CLI parses and prints only: the
library builds and bounds the grid, sizes the worker pool and runs every
per-point loop.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections import namedtuple

from .capacity import MAX_GH_NBAR, Scenario
from .distributed import distributed_rows, psa_pia_crossover
from .linkchain import MAX_NBAR, AmpKind
from .optimizer import SweepTable, distance_grid, sweep_distance

# Read only by perfbench/traced_run.py, which still wraps these names of the
# retired RK4 integrators; its counters for them read 0.  The tracer's
# rewrite (ROADMAP item 1) deletes them.
integrate_psa = integrate_pia = state_at_position = None

_KINDS = {"psa": AmpKind.PSA, "pia": AmpKind.PIA}
_SCENARIOS = {
    "conventional-snl": Scenario.CONVENTIONAL,
    "two-quadrature-snl": Scenario.TWO_QUADRATURE,
    "gordon-holevo": Scenario.GORDON_HOLEVO,
}
_COMMANDS = ("sweep", "optimize", "distributed", "crossover")
_FLOAT_KEYS = ("nbar", "alpha_db_km", "l_min_km", "l_max_km", "l_step_km")

# Bound on the worker pool used for independent grid points.
_MAX_WORKERS = 8
# Largest amplifier count.  Measured at 2000 km, whole runs: a PSA conventional point
# takes 0.1 s at R=25 and 21.2 s at R=1000; a PSA Gordon-Holevo one 0.9 s at R=20, 3.2 s
# at R=60 and 10.6 s at R=120, about R**1.4, in O(R) walks, checks and searches.
MAX_AMPS = 1000
# A '#' starts a comment at the start of a line or after whitespace.
_COMMENT = re.compile(r"(?:^|\s)#")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # unknown or malformed flags: exit 2 from main
        raise UsageError(message)


class RunConfig(namedtuple("RunConfig", "command nbar alpha_db_km l_min_km l_max_km l_step_km "
                                         "amps kind scenario seed out",
                           defaults=(100.0, 0.2, 10.0, 5000.0, 10.0, 0, AmpKind.PSA,
                                     Scenario.CONVENTIONAL, 0, "qlink.csv"))):
    """The resolved run.  amps None encodes the distributed R=infinity limit;
    seed is accepted for compatibility, and no result depends on it."""

    __slots__ = ()

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
            if amps > MAX_AMPS:
                raise UsageError(f"malformed value for 'amps': must be at most MAX_AMPS = "
                                 f"{MAX_AMPS}, got {amps}")
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
    parser = _Parser(
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
    parser.add_argument("--seed", help="accepted for compatibility; no result depends on it")
    parser.add_argument("--out", help="output CSV path")
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve flags over config-file values and validate the combination."""
    args = _build_parser().parse_args(argv)
    merged = {}
    if args.config:
        merged.update(_read_config_file(args.config))
    for key in RunConfig._fields[1:]:
        value = getattr(args, key)
        if value is not None:
            merged[key] = _coerce(key, value)
    if args.command is not None:
        merged["command"] = args.command
    if "command" not in merged:
        raise UsageError("no command given (sweep|optimize|distributed|crossover)")
    if merged["command"] == "distributed":
        merged["amps"] = None

    config = RunConfig(**merged)
    if not 0 <= config.nbar <= MAX_NBAR:
        raise UsageError(f"malformed value for 'nbar': must lie in [0, MAX_NBAR = "
                         f"{MAX_NBAR:g}], got {config.nbar}")
    if config.alpha_db_km <= 0:
        raise UsageError(f"malformed value for 'alpha_db_km': must be > 0, got {config.alpha_db_km}")
    # amplifiers spaced evenly over a subnormal length would coincide
    if not config.l_min_km >= sys.float_info.min:
        raise UsageError(f"malformed value for 'l_min_km': must be >= {sys.float_info.min:g}, "
                         f"got {config.l_min_km}")
    if config.amps is None and config.command == "optimize":
        raise UsageError("--amps inf is only valid for the distributed/sweep commands")
    if config.command == "crossover" and config.l_max_km <= config.l_min_km:
        raise UsageError("crossover needs l_min_km < l_max_km to bracket the crossing")
    try:
        config.grid()
    except ValueError as err:
        raise UsageError(f"malformed value for 'l_step_km' (with --l-min-km {config.l_min_km:g}, "
                         f"--l-max-km {config.l_max_km:g}, --l-step-km {config.l_step_km:g}): "
                         f"{err}") from None
    if (config.scenario is Scenario.GORDON_HOLEVO and config.command != "crossover"
            and config.nbar > MAX_GH_NBAR):
        raise UsageError(f"gordon-holevo runs need nbar <= {MAX_GH_NBAR:g}: above it "
                         "photon counts round by more than a tenth of the search's "
                         "budget margin")
    if (config.amps is None and config.command != "crossover" and config.kind is AmpKind.PSA
            and config.scenario is Scenario.TWO_QUADRATURE):
        raise UsageError("psa with two-quadrature-snl has no continuum rows: the closed-form "
                         "PSA maps are derived only for the conventional input's feedback")
    integrates_psa = config.command == "crossover" or (
        config.amps is None and config.kind is AmpKind.PSA)
    if integrates_psa and config.nbar == 0:
        raise UsageError("distributed PSA needs nbar > 0: its feedback gain is singular "
                         "without signal power")

    for key, value in zip(RunConfig._fields, config):
        if key == "amps":
            value = "inf" if value is None else value
        elif isinstance(value, AmpKind):
            value = value.value.lower()
        elif isinstance(value, Scenario):
            value = next(k for k, v in _SCENARIOS.items() if v is value)
        print(f"# {key}={value}", file=sys.stderr)
    return config


def run(config: RunConfig) -> int:
    """Execute the configured command and write the CSV dataset."""
    grid = config.grid()
    crossing = None
    if config.command == "crossover":
        try:
            rows, crossing = psa_pia_crossover(config.l_min_km, config.l_max_km,
                                               config.l_step_km, config.nbar, config.alpha_db_km)
        except ValueError as err:  # a range that brackets no crossing
            raise UsageError(err) from None
    elif config.amps is None:
        rows = distributed_rows(grid, config.nbar, config.alpha_db_km, config.kind,
                                config.scenario)
    else:
        rows = sweep_distance(grid, config.amps, config.nbar, config.alpha_db_km,
                              config.kind, config.scenario, max_workers=_MAX_WORKERS).rows
        if config.command == "optimize":
            for row in rows:
                print(f"# optimized L={row.distance_km:g} km: positions="
                      f"{list(row.plan.positions)} gains={list(row.plan.gains)}",
                      file=sys.stderr)

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
        return run(parse_config(sys.argv[1:] if argv is None else argv))
    except UsageError as err:
        print(f"qlink: usage error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - boundary: report and set exit status
        print(f"qlink: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
