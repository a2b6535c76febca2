"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -v -s`` to see them all)."""

import math
import random
import time

import numpy as np

from qlink import (
    attenuation_to_natural,
    conventional_input,
    gh_capacity,
    propagate,
    shannon_capacity,
    QuadState,
    LinkPlan,
)
from qlink.cli import main as cli_main
from qlink.distributed import approx_capacity_pia, approx_capacity_psa
from qlink.optimizer import equidistant_saturating_plan, optimize_plan
from qlink.capacity import Scenario

from chain_stages import apply_loss, apply_pia, apply_psa
from gh_reference import entropy_g
from rk4_oracle import integrate_pia, integrate_psa
from stage_reference import vacuum_state

ALPHA = attenuation_to_natural(0.2)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status}  {detail}")
    return ok


def test_criterion_1_distributed_psa_matches_closed_form():
    started = time.perf_counter()
    worst = 0.0
    for nbar in (50.0, 100.0, 200.0):
        profile = integrate_psa(5000.0, nbar, 0.2, 0.1)
        for length in (500.0, 1000.0, 2000.0, 5000.0):
            state = profile.state_at(profile.index_at(length))
            exact = shannon_capacity(state, Scenario.CONVENTIONAL)
            approx = approx_capacity_psa(length, nbar)
            worst = max(worst, abs(exact - approx) / exact)
    elapsed = time.perf_counter() - started
    ok = worst < 0.05 and elapsed < 10.0
    assert report(
        1, "closed-form PSA profile", ok,
        f"worst relative gap {worst:.4f} (limit 0.05), runtime {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_discrete_chain_converges_to_continuum():
    started = time.perf_counter()
    continuum = shannon_capacity(integrate_psa(500.0, 100.0).final_state, Scenario.CONVENTIONAL)
    gaps = []
    for amps in (10, 100, 1000):
        discrete = equidistant_saturating_plan(500.0, amps, 100.0, 0.2).score
        gaps.append(abs(discrete - continuum))
    elapsed = time.perf_counter() - started
    ok = gaps[-1] < 0.01 and gaps[0] > gaps[1] > gaps[2] and elapsed < 30.0
    assert report(
        2, "discrete-to-continuum convergence", ok,
        f"gaps R=10/100/1000: {gaps[0]:.4f}/{gaps[1]:.4f}/{gaps[2]:.4f} "
        f"(final limit 0.01), runtime {elapsed:.1f}s (limit 30s)",
    )


def _signal_fraction_slope(lengths, capacities, k):
    """Least-squares slope of ln(SNR/(1+SNR)) against distance.

    A capacity of ``k * log2(1 + SNR)`` bits gives the signal fraction
    ``1 - 2**(-C/k)``: k = 1/2 for one quadrature, k = 1 for two symmetric
    quadratures.
    """
    fractions = -np.expm1(-math.log(2.0) * np.asarray(capacities) / k)
    return np.polyfit(lengths, np.log(fractions), 1)[0]


def _capacity_slope_ratio(lengths, psa, pia):
    return np.polyfit(lengths, np.log(pia), 1)[0] / np.polyfit(lengths, np.log(psa), 1)[0]


def test_criterion_3_decline_rate_ratio_in_stated_window():
    # Under the total power constraint the PIA signal fraction decays as
    # exp(-alpha L / nbar) and the PSA one as exp(-alpha L / (4 nbar)) (the
    # RK4 feedback gives (4 nbar + 1)/(nbar + 1)), so the ratio of their decay
    # rates is 4 at every distance.  The capacities themselves reach that
    # log-slope ratio only in the tail, alpha L / (4 nbar) >> 1.
    nbar = 100.0
    lengths = np.arange(3000.0, 6000.0 + 1.0, 250.0)

    closed_psa = [approx_capacity_psa(L, nbar) for L in lengths]
    closed_pia = [approx_capacity_pia(L, nbar) for L in lengths]
    closed_ratio = (
        _signal_fraction_slope(lengths, closed_pia, 1.0)
        / _signal_fraction_slope(lengths, closed_psa, 0.5)
    )

    psa_profile = integrate_psa(lengths[-1], nbar, step_km=0.5)
    pia_profile = integrate_pia(lengths[-1], nbar, step_km=0.5)
    rk4_psa = [
        shannon_capacity(psa_profile.state_at(psa_profile.index_at(L)), Scenario.CONVENTIONAL)
        for L in lengths
    ]
    rk4_pia = [
        shannon_capacity(pia_profile.state_at(pia_profile.index_at(L)), Scenario.TWO_QUADRATURE)
        for L in lengths
    ]
    rk4_ratio = (
        _signal_fraction_slope(lengths, rk4_pia, 1.0)
        / _signal_fraction_slope(lengths, rk4_psa, 0.5)
    )

    # Context only: the capacity log-slope ratio in the window and in the tail.
    capacity_ratio = _capacity_slope_ratio(lengths, closed_psa, closed_pia)
    far = np.linspace(30000.0, 60000.0, 13)
    far_ratio = _capacity_slope_ratio(
        far,
        [approx_capacity_psa(L, nbar) for L in far],
        [approx_capacity_pia(L, nbar) for L in far],
    )

    ok = abs(closed_ratio - 4.0) <= 0.2 and abs(rk4_ratio - 4.0) <= 0.2
    assert report(
        3, "four-times decline rate over 3000-6000 km", ok,
        f"signal-fraction decay-rate ratio PIA/PSA: closed forms {closed_ratio:.4f}, "
        f"RK4 profiles {rk4_ratio:.4f} (required 4 +- 0.2); context: capacity "
        f"log-slope ratio {capacity_ratio:.4f} here and {far_ratio:.4f} over "
        f"30000-60000 km",
    )


def test_criterion_4_crossover_command_brackets_crossing(tmp_path, capsys):
    out = tmp_path / "crossover.csv"
    code = cli_main(
        ["crossover", "--nbar", "100", "--l-min-km", "10", "--l-max-km", "5000",
         "--l-step-km", "2495", "--out", str(out)]
    )
    captured = capsys.readouterr()
    crossing = float(captured.out.split("crossover_km=")[1].split()[0])
    rows = {}
    for line in out.read_text().splitlines()[1:]:
        dist, scenario, kind, amps, capacity = line.split(",")
        rows[(float(dist), kind)] = float(capacity)
    ok = (
        code == 0
        and 10.0 < crossing < 5000.0
        and rows[(10.0, "PIA")] > rows[(10.0, "PSA")]
        and rows[(5000.0, "PIA")] < rows[(5000.0, "PSA")]
    )
    assert report(
        4, "PSA/PIA crossover exists", ok,
        f"crossing at {crossing:.1f} km; capacities at 10 km "
        f"PIA {rows[(10.0, 'PIA')]:.3f} vs PSA {rows[(10.0, 'PSA')]:.3f}, at 5000 km "
        f"PIA {rows[(5000.0, 'PIA')]:.3f} vs PSA {rows[(5000.0, 'PSA')]:.3f}",
    )


def test_criterion_5_gh_dominance_and_loss_only_oracle():
    failures = []
    for length in (50.0, 100.0, 200.0, 400.0, 800.0):
        for amps in (0, 1, 2, 4):
            plan = equidistant_saturating_plan(length, amps, 100.0, 0.2).plan
            out, _ = propagate(plan, conventional_input(100.0))
            conventional = shannon_capacity(out, Scenario.CONVENTIONAL)
            gh = gh_capacity(plan).bits_per_mode
            if gh < conventional - 1e-6:
                failures.append((length, amps, gh, conventional))
            if amps == 0:
                oracle = entropy_g(100.0 * math.exp(-ALPHA * length))
                if abs(gh - oracle) >= 1e-4:
                    failures.append((length, amps, gh, oracle))
    identity = LinkPlan(0.2, 0.0, 100.0)
    gh_zero = gh_capacity(identity).bits_per_mode
    conv_zero = shannon_capacity(
        propagate(identity, conventional_input(100.0))[0], Scenario.CONVENTIONAL
    )
    oracle_zero = entropy_g(100.0)
    ok = (
        not failures
        and abs(gh_zero - oracle_zero) < 1e-4
        and abs(conv_zero - 4.3237) < 1e-4
    )
    assert report(
        5, "GH dominance and loss-only oracle", ok,
        f"20-point grid clean={not failures}; L->0: GH {gh_zero:.4f} "
        f"(oracle g(100)={oracle_zero:.4f}) vs conventional {conv_zero:.4f}",
    )


def test_criterion_6_long_haul_scenario_equivalence():
    worst = -math.inf
    details = []
    for length in (2000.0, 3000.0):
        conv = optimize_plan(length, 8, 100.0, 0.2, scenario=Scenario.CONVENTIONAL).score
        gh = optimize_plan(length, 8, 100.0, 0.2, scenario=Scenario.GORDON_HOLEVO).score
        worst = max(worst, gh - conv)
        details.append(f"L={length:g}: GH-conv={gh - conv:.3e}")
    ok = worst < 0.1
    assert report(
        6, "long-haul GH equals conventional", ok,
        "; ".join(details) + " (limit 0.1 bits)",
    )


def test_criterion_7_property_suites():
    rng = random.Random(20240801)
    heisenberg_ok = True
    for _ in range(100_000):
        squeeze = rng.uniform(-1.5, 1.5)
        thermal = rng.uniform(0.0, 5.0)
        state = QuadState(
            rng.uniform(0.0, 1000.0),
            rng.uniform(0.0, 1000.0),
            (0.5 + thermal) * math.exp(-2.0 * squeeze),
            (0.5 + thermal) * math.exp(2.0 * squeeze),
        )
        tau = rng.uniform(1e-6, 1.0)
        gain = rng.uniform(1.0, 100.0)
        for out in (apply_loss(state, tau), apply_psa(state, gain), apply_pia(state, gain)):
            if out.noise_i * out.noise_q < 0.25 - 1e-12:
                heisenberg_ok = False

    composition_ok = True
    for _ in range(2000):
        state = QuadState(rng.uniform(0, 100), rng.uniform(0, 100), 0.7, 0.6)
        t1, t2 = rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
        g1, g2 = rng.uniform(1.0, 20.0), rng.uniform(1.0, 20.0)
        left = apply_loss(apply_loss(state, t1), t2)
        right = apply_loss(state, t1 * t2)
        pairs = [(left, right), (apply_psa(apply_psa(state, g1), g2), apply_psa(state, g1 * g2))]
        for a, b in pairs:
            for x, y in zip(
                (a.sig_i, a.sig_q, a.noise_i, a.noise_q),
                (b.sig_i, b.sig_q, b.noise_i, b.noise_q),
            ):
                if not math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12):
                    composition_ok = False

    vacuum_ok = all(
        apply_loss(vacuum_state(), rng.uniform(1e-9, 1.0)) == vacuum_state()
        for _ in range(2000)
    )

    profile = integrate_psa(500.0, 100.0)
    conservation = np.abs(np.asarray(profile.photon_numbers()) - 100.0).max()
    conservation_ok = conservation < 1e-6 * 100.0

    def endpoint(step):
        state = integrate_psa(80.0, 100.0, step_km=step).final_state
        return np.array([state.sig_i, state.sig_q, state.noise_i, state.noise_q])

    reference = endpoint(0.0125)
    ratio_a = np.abs(endpoint(4.0) - reference).max() / np.abs(endpoint(2.0) - reference).max()
    ratio_b = np.abs(endpoint(2.0) - reference).max() / np.abs(endpoint(1.0) - reference).max()
    rk4_ok = 10.0 < ratio_a < 26.0 and 10.0 < ratio_b < 26.0

    ok = heisenberg_ok and composition_ok and vacuum_ok and conservation_ok and rk4_ok
    assert report(
        7, "property suites", ok,
        f"heisenberg(1e5 triples)={heisenberg_ok}, composition={composition_ok}, "
        f"vacuum fixed point={vacuum_ok}, photon drift={conservation:.2e} "
        f"(limit 1e-4), step-halving ratios {ratio_a:.1f}/{ratio_b:.1f} (order 4 => ~16)",
    )


def test_criterion_8_cli_determinism(tmp_path):
    identical = []
    for name, args in {
        "sweep": ["sweep", "--amps", "1", "--l-min-km", "40", "--l-max-km", "120",
                  "--l-step-km", "40", "--seed", "11"],
        "gh": ["sweep", "--amps", "1", "--scenario", "gordon-holevo", "--l-min-km", "50",
               "--l-max-km", "50", "--l-step-km", "50", "--seed", "11"],
    }.items():
        out_a = tmp_path / f"{name}_a.csv"
        out_b = tmp_path / f"{name}_b.csv"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0
        identical.append(out_a.read_bytes() == out_b.read_bytes())
    ok = all(identical)
    assert report(
        8, "CSV determinism", ok,
        f"byte-identical reruns: conventional={identical[0]}, gordon-holevo={identical[1]}",
    )
