"""Self-test of the correctness gate in check.py.

Usage: python3 perfbench/selftest.py

Feeds the checker the reference CSVs (qlink's outputs for seeds 0 and 7,
and every other seed tried, are byte-identical to them) and mutated copies.
Every reference must pass, every wrong answer below must be rejected, and
deviations inside the stated tolerances must pass.  Exits 1 on the first
expectation that does not hold.  ``run.py`` runs it before measuring.
"""

from __future__ import annotations

import sys
from pathlib import Path

import check

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class SelfTestFailure(Exception):
    pass


def _reference(name: str) -> str:
    return (REFERENCE_DIR / f"{name}.csv").read_text(encoding="utf-8")


def _lines(text: str) -> list[str]:
    return text.rstrip("\n").split("\n")


def _join(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _set_capacity(text: str, line: int, value: str) -> str:
    """``text`` with the capacity on ``line`` (0 = header) replaced."""
    lines = _lines(text)
    fields = lines[line].split(",")
    fields[4] = value
    lines[line] = ",".join(fields)
    return _join(lines)


def _shift(text: str, line: int, bits: float) -> str:
    """``text`` with the capacity on ``line`` moved by ``bits``, written at
    full precision so the shift survives."""
    capacity = float(_lines(text)[line].split(",")[4])
    return _set_capacity(text, line, repr(capacity + bits))


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise SelfTestFailure(what)


def _passes(csv_text: str, reference: str, what: str) -> None:
    problems = check.check_csv(csv_text, reference)
    _expect(not problems, f"{what} should pass, got {problems[:3]}")


def _rejected(csv_text: str, reference: str, what: str) -> None:
    _expect(bool(check.check_csv(csv_text, reference)), f"{what} should be rejected")


def run_all() -> int:
    """Run every expectation; returns the number checked."""
    conv, gh, gh_inf, cross = (_reference(n) for n in
                               ("sweep-conv", "sweep-gh", "sweep-gh-inf", "crossover"))
    count = 0
    for name, ref in (("sweep-conv", conv), ("sweep-gh", gh),
                      ("sweep-gh-inf", gh_inf), ("crossover", cross)):
        _passes(ref, ref, f"{name} reference (seed 0 and seed 7 output)")
        count += 1

    cases_rejected = [
        (_shift(conv, 9, 1e-3), conv, "conventional row shifted up 1e-3 bits"),
        (_shift(conv, 9, -1e-3), conv, "conventional row shifted down 1e-3 bits"),
        (_set_capacity(conv, 80, "0"), conv, "1e-57-bit conventional row set to zero"),
        (_shift(conv, 40, 1e-12), conv, "1e-16-bit conventional row moved 1e-12 bits"),
        (_shift(cross, 700, 1e-3), cross, "distributed row shifted up 1e-3 bits"),
        (_shift(gh, 5, -1e-3), gh, "GH row shifted down 1e-3 bits"),
        (_shift(gh, 5, 1e-3), gh, "GH row shifted up 1e-3 bits"),
        (_shift(gh_inf, 12, -3e-8), gh_inf, "GH row 3e-8 bits below the reference"),
        (_join(_lines(conv)[:50] + _lines(conv)[51:]), conv, "dropped row"),
        (_join(_lines(gh)[:-1]), gh, "dropped last row"),
        (_join(_lines(conv)[:1] + _lines(conv)[2:3] + _lines(conv)[1:2] + _lines(conv)[3:]),
         conv, "two rows swapped"),
        (_set_capacity(gh, 3, "nan"), gh, "NaN capacity"),
        (_set_capacity(gh_inf, 30, "-0.001"), gh_inf, "negative capacity"),
        (_join(["distance_km,scenario,amp_kind,amps,capacity_bits_per_mode"]
               + _lines(gh)[1:]), gh, "wrong header"),
        (gh.replace(",PSA,", ",PIA,", 1), gh, "wrong amplifier kind"),
        ("", gh, "empty output"),
    ]
    # A capacity that rises with distance, judged against itself so that
    # only the monotonicity check can catch it.
    lines = _lines(gh_inf)
    rising = _set_capacity(gh_inf, 20, lines[19].split(",")[4] + "1")
    cases_rejected.append((rising, rising, "capacity rising with distance"))
    for csv_text, ref, what in cases_rejected:
        _rejected(csv_text, ref, what)
        count += 1

    cases_passing = [
        (_shift(gh, 5, 1e-6), gh, "GH row raised by 1e-6 bits"),
        (_shift(gh_inf, 12, -5e-10), gh_inf, "GH row 5e-10 bits below the reference"),
        (_shift(conv, 9, 5e-8), conv, "conventional row moved 5e-8 bits"),
        (_shift(conv, 40, 5e-23), conv, "1e-16-bit conventional row moved 5e-23 bits"),
        (_shift(cross, 700, -5e-8), cross, "distributed row moved -5e-8 bits"),
    ]
    for csv_text, ref, what in cases_passing:
        _passes(csv_text, ref, what)
        count += 1

    crossover_cases = [
        ("crossover_km=710.169\n", True, "crossover line"),
        ("crossover_km=710.171\n", True, "crossover 2 m away"),
        ("", False, "missing crossover line"),
        ("# crossover_km=710.169\n", False, "commented crossover line"),
        ("crossover_km=710.2\n", False, "crossover 31 m away"),
        ("crossover_km=nan\n", False, "NaN crossover"),
        ("crossover_km=710.169\ncrossover_km=710.169\n", False, "two crossover lines"),
    ]
    for stdout, ok, what in crossover_cases:
        problems = check.check_crossover(stdout)
        _expect(not problems if ok else bool(problems),
                f"{what} should {'pass' if ok else 'be rejected'}: {problems}")
        count += 1
    return count


def main() -> int:
    try:
        count = run_all()
    except SelfTestFailure as err:
        print(f"checker self-test FAILED: {err}")
        return 1
    print(f"checker self-test passed ({count} expectations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
