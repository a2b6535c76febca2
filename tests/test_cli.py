import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from qlink import (
    AmpKind,
    Scenario,
    attenuation_to_natural,
    channel_maps,
    continuum_states,
    distance_grid,
    shannon_single_quadrature,
)
from qlink.capacity import gh_capacity_for_channel
from qlink.cli import MAX_AMPS, UsageError, main, parse_config
from qlink.optimizer import SweepTable, sweep_distance
from qlink.quadmodel import HEISENBERG_LIMIT, HEISENBERG_TOL

from rk4_oracle import integrate_psa

ALPHA = attenuation_to_natural(0.2)


def run_cli(args):
    return main(args)


def _src_env():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


class TestParsing:
    def test_flags_override_config_file(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("nbar=50\nl_min_km=10  # inline comment\n\n# full comment\n")
        config = parse_config(
            ["sweep", "--config", str(conf), "--nbar", "200", "--out", "x.csv"]
        )
        assert config.nbar == 200.0
        assert config.l_min_km == 10.0
        err = capsys.readouterr().err
        assert "# nbar=200.0" in err
        assert "# command=sweep" in err

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("out=run#2.csv\n  # indented comment\nnbar=50\t# tab comment\n")
        config = parse_config(["sweep", "--config", str(conf)])
        assert config.out == "run#2.csv"
        assert config.nbar == 50.0

    def test_amp_count_flag(self):
        config = parse_config(["sweep", "--nbar", "100", "--alpha-db-km", "0.2", "--amps", "4"])
        assert config.amps == 4
        assert config.alpha_db_km == 0.2

    def test_config_file_supplies_command(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("command=distributed\namps=inf\n")
        config = parse_config(["--config", str(conf)])
        assert config.command == "distributed"
        assert config.amps is None

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("nbbar=50\n")
        assert run_cli(["sweep", "--config", str(conf)]) == 2

    def test_malformed_value_names_the_key(self, tmp_path, capsys):
        assert run_cli(["sweep", "--nbar", "lots"]) == 2
        assert "'nbar'" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["sweep", "--nbr", "10"], ["sweeep"], ["sweep", "--nbar"]])
    def test_bad_flag_returns_usage_error(self, args, capsys):
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("qlink: usage error: ")

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--help"])
        assert exc.value.code == 0
        assert "usage: qlink" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        # wrote a 0-bit row: the continuum's PSA add map became infinite
        ["distributed", "--nbar", "1e215", "--l-min-km", "10", "--l-max-km", "10"],
        # failed at runtime: the PSA gain ceiling's (2n+1)**2 overflowed
        ["sweep", "--amps", "2", "--nbar", "1e154", "--l-min-km", "100", "--l-max-km", "100"],
    ])
    def test_budget_above_max_nbar_is_usage_error(self, args, tmp_path, capsys):
        out = tmp_path / "big.csv"
        assert run_cli(args + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "MAX_NBAR = 1e+150" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["distributed"],
        ["sweep", "--amps", "2"],
    ])
    def test_psa_rows_at_max_nbar_rise_with_the_budget(self, args, tmp_path):
        bits = []
        for nbar in ("1e149", "1e150"):
            out = tmp_path / f"{nbar}.csv"
            assert run_cli(args + ["--nbar", nbar, "--l-min-km", "100", "--l-max-km", "100",
                                   "--out", str(out)]) == 0
            bits.append(float(out.read_text().splitlines()[1].split(",")[4]))
        assert all(math.isfinite(b) for b in bits)
        assert bits[1] > bits[0]

    @pytest.mark.parametrize("l_min", ["0", "-10", "5e-324", "2e-308"])
    def test_non_normal_first_distance_is_usage_error(self, l_min, capsys):
        # 5e-324 km used to give an 8-amplifier plan with coinciding positions
        assert run_cli(["sweep", "--amps", "8", "--l-min-km", l_min, "--l-max-km", "10"]) == 2
        assert "'l_min_km'" in capsys.readouterr().err

    def test_missing_command_is_usage_error(self, capsys):
        assert run_cli(["--nbar", "10"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_infinite_amps_rejected_for_optimize(self, capsys):
        assert run_cli(["optimize", "--amps", "inf"]) == 2
        assert "inf" in capsys.readouterr().err

    def test_negative_amps_rejected(self):
        assert run_cli(["sweep", "--amps", "-2"]) == 2

    @pytest.mark.parametrize("flag", ["--nbar", "--alpha-db-km", "--l-min-km",
                                      "--l-max-km", "--l-step-km"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_is_usage_error(self, flag, value, capsys):
        # --l-max-km inf used to loop forever building the grid.
        assert run_cli(["sweep", f"{flag}={value}"]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_non_finite_config_value_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("alpha_db_km=nan\n")
        assert run_cli(["sweep", "--config", str(conf)]) == 2
        assert "'alpha_db_km'" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["sweep", "--amps", "inf"],
        ["distributed", "--kind", "psa"],
        ["crossover", "--kind", "pia"],
    ])
    def test_zero_budget_distributed_psa_is_usage_error(self, args, capsys):
        assert run_cli(args + ["--nbar", "0"]) == 2
        assert "nbar > 0" in capsys.readouterr().err

    def test_zero_budget_distributed_pia_runs(self, tmp_path):
        out = tmp_path / "pia.csv"
        code = run_cli(
            ["distributed", "--kind", "pia", "--nbar", "0", "--l-min-km", "10",
             "--l-max-km", "20", "--l-step-km", "10",
             "--out", str(out)]
        )
        assert code == 0
        assert [line.split(",")[4] for line in out.read_text().splitlines()[1:]] == ["0", "0"]

    def test_off_lattice_gordon_holevo_distance_is_computed(self, tmp_path):
        out = tmp_path / "gh.csv"
        code = run_cli(
            ["sweep", "--amps", "inf", "--scenario", "gordon-holevo",
             "--l-min-km", "10", "--l-max-km", "10.3", "--l-step-km", "0.15",
             "--out", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 3
        bits = [float(row[4]) for row in rows]
        assert bits[0] >= bits[1] >= bits[2]
        # 10.15 km: the 0.1 km lattice points 0 to 10.1 km, then 10.15 km itself
        length = distance_grid(10.0, 10.3, 0.15)[1]
        positions = np.append(np.arange(102) * 0.1, length)
        expected = gh_capacity_for_channel(*channel_maps(AmpKind.PSA, positions, 100.0), 100.0)
        assert rows[1][4] == f"{expected.bits_per_mode:.9g}"

    def test_gordon_holevo_last_distance_may_end_off_lattice(self, tmp_path):
        # every row's last checkpoint is its own distance
        out = tmp_path / "gh.csv"
        code = run_cli(
            ["distributed", "--scenario", "gordon-holevo", "--l-min-km", "10",
             "--l-max-km", "10.25", "--l-step-km", "0.25", "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("args", [
        ["sweep", "--l-step-km", "1e-9"],
        ["optimize", "--amps", "1", "--l-min-km", "1", "--l-max-km", "100001",
         "--l-step-km", "1"],
        ["distributed", "--l-step-km", "0.01", "--l-max-km", "1100"],
    ])
    def test_oversized_grid_is_usage_error(self, args, capsys):
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert "--l-step-km" in err
        assert "grid of" in err
        assert "at most 100000" in err

    @pytest.mark.parametrize("args", [
        ["sweep", "--amps", "1", "--l-min-km", "1e17", "--l-max-km", "1e17", "--l-step-km", "1"],
        ["optimize", "--amps", "1", "--l-min-km", "1e17", "--l-max-km", "1e17",
         "--l-step-km", "1"],
        ["distributed", "--l-min-km", "1e6", "--l-max-km", "1e6", "--l-step-km", "1e-12"],
    ])
    def test_step_below_the_spacing_of_doubles_is_usage_error(self, args, tmp_path, capsys):
        # start + k * step rounds back to an earlier distance: sweep failed,
        # optimize wrote 9 equal rows, distributed 1,106 rows of 10 distances
        out = tmp_path / "sub-ulp.csv"
        assert run_cli([*args, "--out", str(out)]) == 2
        assert "'l_step_km'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("length", ["1e-12", "1e-300"])
    def test_one_point_grid_of_a_tiny_length_writes_one_row(self, length, tmp_path):
        # the grid used to end 1e-9 km past its last distance: 1,001 rows at
        # 1e-12 km, and an endless build at 1e-300 km
        out = tmp_path / "tiny.csv"
        args = ["distributed", "--l-min-km", length, "--l-max-km", length,
                "--l-step-km", length, "--out", str(out)]
        done = subprocess.run([sys.executable, "-m", "qlink.cli", *args],
                              env=_src_env(), capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        rows = out.read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [float(length)]

    @pytest.mark.parametrize("command", ["sweep", "optimize"])
    def test_amp_count_above_its_bound_is_usage_error(self, command):
        # parsed only: a count over the bound is never run
        with pytest.raises(UsageError, match="MAX_AMPS"):
            parse_config([command, "--amps", str(MAX_AMPS + 1)])
        assert parse_config([command, "--amps", str(MAX_AMPS)]).amps == MAX_AMPS

    def test_largest_grid_is_accepted(self):
        config = parse_config(["sweep", "--l-min-km", "1", "--l-max-km", "100000",
                               "--l-step-km", "1"])
        assert len(config.grid()) == 100_000

    @pytest.mark.parametrize("kind", ["psa", "pia"])
    def test_gordon_holevo_continuum_has_no_checkpoint_bound(self, kind, tmp_path):
        # refused while the budget was held on a 0.1 km checkpoint lattice
        # (2,000,010 checkpoints, over its bound of 1,000,000)
        out = tmp_path / "gh.csv"
        assert run_cli(["sweep", "--amps", "inf", "--kind", kind, "--scenario",
                        "gordon-holevo", "--l-max-km", "200001", "--l-step-km", "1000",
                        "--out", str(out)]) == 0
        bits = [float(line.split(",")[4]) for line in out.read_text().splitlines()[1:]]
        assert len(bits) == 200
        assert all(math.isfinite(b) and b >= 0.0 for b in bits)
        assert bits == sorted(bits, reverse=True)

    def test_ode_step_is_no_longer_accepted(self, tmp_path, capsys):
        assert run_cli(["distributed", "--ode-step-km", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "qlink: usage error: unrecognized arguments: --ode-step-km" in err
        conf = tmp_path / "run.conf"
        conf.write_text("ode_step_km=0.1\n")
        assert run_cli(["distributed", "--config", str(conf)]) == 2
        assert "unknown configuration key 'ode_step_km'" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["distributed"],
        ["sweep", "--amps", "inf", "--l-max-km", "200001", "--l-step-km", "1000"],
        ["crossover"],
    ])
    def test_shannon_continuum_has_no_checkpoint_bound(self, args, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli(args + ["--out", str(out)]) == 0
        bits = [float(line.split(",")[4]) for line in out.read_text().splitlines()[1:]]
        assert bits and all(math.isfinite(b) and b >= 0.0 for b in bits)

    @pytest.mark.parametrize("args", [
        # failed at runtime: "no squeezed input meets the photon budget"
        ["optimize", "--amps", "6", "--kind", "pia", "--l-min-km", "50", "--l-max-km", "50"],
        ["sweep", "--amps", "2", "--l-min-km", "50", "--l-max-km", "50"],
        ["sweep", "--amps", "inf", "--l-min-km", "50", "--l-max-km", "50"],
        ["distributed", "--kind", "pia", "--l-min-km", "50", "--l-max-km", "50"],
    ])
    def test_gordon_holevo_budget_above_bound_is_usage_error(self, args, tmp_path, capsys):
        out = tmp_path / "gh.csv"
        assert run_cli(args + ["--scenario", "gordon-holevo", "--nbar", "1e6",
                               "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "nbar <= 100000" in err
        assert "round" in err

    def test_gordon_holevo_budget_bound_spares_other_scenarios(self):
        assert parse_config(["sweep", "--nbar", "1e6"]).nbar == 1e6
        # crossover compares fixed-input scenarios whatever --scenario says
        assert parse_config(["crossover", "--scenario", "gordon-holevo",
                             "--nbar", "1e6"]).nbar == 1e6

    @pytest.mark.parametrize("kind", ["psa", "pia"])
    @pytest.mark.parametrize("args", [
        ["optimize", "--amps", "2", "--l-min-km", "50", "--l-max-km", "300",
         "--l-step-km", "250"],
        ["optimize", "--amps", "6", "--l-min-km", "50", "--l-max-km", "50"],
        ["distributed", "--l-min-km", "10", "--l-max-km", "1010", "--l-step-km", "500"],
    ])
    def test_gordon_holevo_at_budget_bound_runs(self, kind, args, tmp_path):
        out = tmp_path / "gh.csv"
        assert run_cli(args + ["--kind", kind, "--scenario", "gordon-holevo",
                               "--nbar", "1e5", "--out", str(out)]) == 0
        bits = [float(line.split(",")[4]) for line in out.read_text().splitlines()[1:]]
        assert bits and all(math.isfinite(b) and b > 0.0 for b in bits)

    @pytest.mark.parametrize("args", [
        ["distributed", "--kind", "psa", "--scenario", "two-quadrature-snl"],
        ["sweep", "--amps", "inf", "--scenario", "two-quadrature-snl"],
    ])
    def test_psa_two_quadrature_continuum_is_refused(self, args, capsys):
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert "psa with two-quadrature-snl" in err
        assert "continuum" in err

    def test_amps_inf_allowed_for_sweep(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli(
            ["sweep", "--amps", "inf", "--l-min-km", "10", "--l-max-km", "10",
             "--l-step-km", "10", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[3] == "inf"


class TestSweepCommand:
    def test_loss_only_rows_match_closed_form(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--nbar", "100", "--amps", "0", "--l-min-km", "20",
             "--l-max-km", "60", "--l-step-km", "20", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "distance_km,scenario,amp_kind,amp_count,capacity_bits_per_mode"
        assert len(lines) == 4
        for line in lines[1:]:
            dist, scenario, kind, amps, capacity = line.split(",")
            assert scenario == "ConventionalSNL"
            assert kind == "PSA"
            assert amps == "0"
            expected = 0.5 * math.log2(1.0 + 400.0 * math.exp(-ALPHA * float(dist)))
            assert float(capacity) == pytest.approx(expected, rel=1e-8)

    def test_empty_grid_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = run_cli(
            ["sweep", "--l-min-km", "100", "--l-max-km", "50", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == "distance_km,scenario,amp_kind,amp_count,capacity_bits_per_mode\n"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--amps", "1", "--l-min-km", "40", "--l-max-km", "120",
                "--l-step-km", "40", "--seed", "5"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out_a)]) == 0
        assert run_cli(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("args", [
        ["--amps", "0", "--l-min-km", "17000", "--l-max-km", "17000"],
        ["--amps", "0", "--scenario", "gordon-holevo", "--l-min-km", "17000",
         "--l-max-km", "17000"],
        ["--amps", "0", "--kind", "pia", "--scenario", "gordon-holevo", "--l-min-km", "17000",
         "--l-max-km", "17000"],
        ["--amps", "1", "--scenario", "gordon-holevo", "--l-min-km", "20000",
         "--l-max-km", "20000"],
    ])
    def test_span_whose_transmission_underflows_gives_a_row(self, args, tmp_path):
        # exp(-alpha*L) rounds to 0.0 past about 16,180 km at 0.2 dB/km
        out = tmp_path / "long.csv"
        assert run_cli(["sweep", *args, "--out", str(out)]) == 0
        capacity = float(out.read_text().splitlines()[1].split(",")[-1])
        assert math.isfinite(capacity) and capacity >= 0.0

    @pytest.mark.parametrize("kind", ["psa", "pia"])
    @pytest.mark.parametrize("amps", ["0", "1", "2", "5", "inf"])
    def test_vacuum_level_output_noise_gives_a_row(self, kind, amps, tmp_path):
        # 100 dB at nbar = 1e-300 leaves vacuum noise and a subnormal signal
        # at the output, where chi overflowed: "capacity out of range ... inf"
        out = tmp_path / "deep.csv"
        assert run_cli(["sweep", "--amps", amps, "--kind", kind, "--scenario",
                        "gordon-holevo", "--nbar", "1e-300", "--alpha-db-km", "10",
                        "--l-min-km", "10", "--l-max-km", "10", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[4] == "1.0312404e-307"


class TestOptimizeCommand:
    def test_single_point_row_and_plan_echo(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        code = run_cli(
            ["optimize", "--amps", "1", "--l-min-km", "100", "--l-max-km", "100",
             "--l-step-km", "50", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "# optimized L=100 km" in captured.err
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("100,ConventionalSNL,PSA,1,")


    def test_line_search_finishes_when_tolerance_is_below_a_double_spacing(self, tmp_path):
        # Positions near 1e12 km are 1.2e-4 km apart, above the 1e-6 km line
        # search tolerance; the search used to loop forever.  Same loss as the
        # 1e9 km row, so the same capacity.
        out = tmp_path / "far.csv"
        args = ["--amps", "2", "--l-min-km", "1e12", "--l-max-km", "1e12",
                "--alpha-db-km", "1e-12", "--out", str(out)]
        done = subprocess.run([sys.executable, "-m", "qlink.cli", "optimize", *args],
                              env=_src_env(), capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        near = tmp_path / "near.csv"
        assert run_cli(["optimize", "--amps", "2", "--l-min-km", "1e9", "--l-max-km", "1e9",
                        "--alpha-db-km", "1e-9", "--out", str(near)]) == 0
        far_bits = float(out.read_text().splitlines()[1].split(",")[-1])
        near_bits = float(near.read_text().splitlines()[1].split(",")[-1])
        assert far_bits == pytest.approx(near_bits, rel=1e-9)

    def test_amplifiers_far_out_stay_apart(self, tmp_path, capsys):
        # near 1e12 km doubles are 1.2e-4 km apart, wider than the 1e-6 km gap
        # the position search kept from each neighbour, so a trial position
        # could land on a neighbour and the run failed
        out = tmp_path / "far.csv"
        assert run_cli(["optimize", "--scenario", "gordon-holevo", "--amps", "8",
                        "--alpha-db-km", "1e-6", "--l-min-km", "1e12", "--l-max-km", "1e12",
                        "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2
        echo = capsys.readouterr().err.split("positions=[")[1].split("]")[0]
        positions = [float(x) for x in echo.split(",")]
        assert all(a < b for a, b in zip(positions, positions[1:]))

    def test_pooled_run_echoes_the_serial_plans(self, tmp_path, capsys, monkeypatch):
        # four points and two CPUs: the run goes through the worker pool
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "opt.csv"
        assert run_cli(["optimize", "--amps", "2", "--kind", "pia", "--l-min-km", "100",
                        "--l-max-km", "400", "--l-step-km", "100", "--out", str(out)]) == 0
        echoed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("# optimized")]
        serial = sweep_distance([100.0, 200.0, 300.0, 400.0], 2, 100.0, 0.2, AmpKind.PIA,
                                max_workers=1).rows
        assert echoed == [f"# optimized L={row.distance_km:g} km: positions="
                          f"{list(row.plan.positions)} gains={list(row.plan.gains)}"
                          for row in serial]
        assert out.read_text().splitlines() == SweepTable(serial).sort().csv_lines()


class TestDistributedCommand:
    def test_rows_match_module_endpoint(self, tmp_path):
        out = tmp_path / "dist.csv"
        code = run_cli(
            ["distributed", "--kind", "psa", "--l-min-km", "50", "--l-max-km", "100",
             "--l-step-km", "50", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            dist, scenario, kind, amps, capacity = line.split(",")
            assert (scenario, kind, amps) == ("ConventionalSNL", "PSA", "inf")
            profile = integrate_psa(float(dist), 100.0, 0.2, 0.5)
            assert float(capacity) == pytest.approx(
                shannon_single_quadrature(profile.final_state), rel=1e-8
            )

    def test_pia_conventional_row_is_the_dense_chain_limit(self, tmp_path):
        # 500 km equidistant PIA chains give 1.524/1.547/1.552 bits at
        # R = 256/1024/4096, converging on 1.554
        out = tmp_path / "pia.csv"
        code = run_cli(
            ["distributed", "--kind", "pia", "--scenario", "conventional-snl",
             "--l-min-km", "500", "--l-max-km", "500", "--l-step-km", "500",
             "--out", str(out)]
        )
        assert code == 0
        dist, scenario, kind, amps, capacity = out.read_text().splitlines()[1].split(",")
        assert (dist, scenario, kind, amps) == ("500", "ConventionalSNL", "PIA", "inf")
        assert float(capacity) == pytest.approx(1.554, abs=0.01)

    @pytest.mark.parametrize("args", [
        ["--nbar", "1e-6", "--l-min-km", "10", "--l-max-km", "20", "--l-step-km", "10"],
        ["--nbar", "3e-4", "--l-min-km", "10", "--l-max-km", "30",
         "--l-step-km", "10"],
        ["--nbar", "3e-4", "--l-min-km", "0.37", "--l-max-km", "0.37"],
    ])
    def test_small_budget_gives_valid_rows(self, args, tmp_path):
        # RK4 failed on all three: its stage points overshot the feedback at
        # 1e-6, and its truncation error broke the Heisenberg limit at 3e-4
        out = tmp_path / "small.csv"
        assert run_cli(["distributed", "--kind", "psa", *args, "--out", str(out)]) == 0
        config = parse_config(["distributed", *args])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == pytest.approx(config.grid())
        bits = [float(row[4]) for row in rows]
        assert all(math.isfinite(b) and b >= 0.0 for b in bits)
        assert bits == sorted(bits, reverse=True)
        for state in continuum_states(AmpKind.PSA, Scenario.CONVENTIONAL, config.grid(),
                                      config.nbar):
            assert state.noise_i * state.noise_q >= HEISENBERG_LIMIT - HEISENBERG_TOL

    def test_subnormal_output_slope_gives_a_row(self, tmp_path):
        # the budget bound of the 20,000 km output map overflowed in a divide,
        # and RuntimeWarning is an error here
        out = tmp_path / "gh.csv"
        assert run_cli(["distributed", "--scenario", "gordon-holevo", "--nbar", "1e-6",
                        "--l-min-km", "20000", "--l-max-km", "20000", "--out", str(out)]) == 0
        capacity = float(out.read_text().splitlines()[1].split(",")[4])
        assert math.isfinite(capacity) and capacity >= 0.0

    @pytest.mark.parametrize("kind", ["psa", "pia"])
    @pytest.mark.parametrize("scenario", ["conventional-snl", "gordon-holevo"])
    @pytest.mark.parametrize("nbar", ["1e-300", "1", "1e5"])
    @pytest.mark.parametrize("length, alpha", [("1e22", "0.2"), ("1e307", "100")])
    def test_far_continuum_gives_finite_rows(self, kind, scenario, nbar, length, alpha,
                                             tmp_path):
        # alpha*L is 4.6e20 and inf: PSA runs were refused as past a bound of
        # 1e9 (MAX_PSA_LOSS) that no longer guarded any precision
        out = tmp_path / "far.csv"
        assert run_cli(["distributed", "--kind", kind, "--scenario", scenario, "--nbar", nbar,
                        "--alpha-db-km", alpha, "--l-min-km", length, "--l-max-km", length,
                        "--l-step-km", length, "--out", str(out)]) == 0
        (row,) = out.read_text().splitlines()[1:]
        bits = float(row.split(",")[4])
        assert math.isfinite(bits) and bits >= 0.0

    def test_far_psa_continuum_sweep_and_crossover_compute(self, tmp_path, capsys):
        out = tmp_path / "far.csv"
        assert run_cli(["sweep", "--amps", "inf", "--l-min-km", "1e22", "--l-max-km", "1e22",
                        "--l-step-km", "1e22", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "1e+22,ConventionalSNL,PSA,inf,0"
        # at nbar = 1e10 the curves cross at alpha*L = 3.3e9
        assert run_cli(["crossover", "--nbar", "1e10", "--l-min-km", "1e6", "--l-max-km",
                        "1e14", "--l-step-km", "1e13", "--out", str(out)]) == 0
        crossing = float(capsys.readouterr().out.split("crossover_km=")[1])
        assert crossing * ALPHA > 1e9
        assert len(out.read_text().splitlines()) == 21


class TestCrossoverCommand:
    def test_reports_bracketed_crossing(self, tmp_path, capsys):
        out = tmp_path / "cross.csv"
        code = run_cli(
            ["crossover", "--l-min-km", "400", "--l-max-km", "1000",
             "--l-step-km", "300", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "crossover_km=" in stdout
        crossing = float(stdout.split("crossover_km=")[1].split()[0])
        assert 400.0 < crossing < 1000.0
        lines = out.read_text().splitlines()
        assert any(",TwoQuadratureSNL,PIA,inf," in line for line in lines)
        assert any(",ConventionalSNL,PSA,inf," in line for line in lines)

    def test_unbracketed_range_fails_without_partial_output(self, tmp_path, capsys):
        out = tmp_path / "nope.csv"
        code = run_cli(
            ["crossover", "--l-min-km", "10", "--l-max-km", "50",
             "--l-step-km", "20", "--out", str(out)]
        )
        assert code == 1
        assert "no PSA/PIA crossover" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "nope.csv.tmp").exists()

    def test_degenerate_range_is_usage_error(self):
        assert run_cli(["crossover", "--l-min-km", "100", "--l-max-km", "100"]) == 2

    def test_crossing_past_the_spacing_of_doubles_is_found(self, tmp_path):
        # the bisection looped for ever once its midpoint could no longer
        # split a 1e-3 km bracket (past about 8e12 km); every map depends on
        # alpha*z only, so the crossing is 1,000 times that at 1e-9 dB/km
        args = ["crossover", "--alpha-db-km", "1e-12", "--l-min-km", "1e14",
                "--l-max-km", "1e16", "--l-step-km", "1e14", "--out", str(tmp_path / "x.csv")]
        done = subprocess.run([sys.executable, "-m", "qlink.cli", *args],
                              env=_src_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        crossing = float(done.stdout.split("crossover_km=")[1].split()[0])
        assert crossing == pytest.approx(1.42034e14, rel=1e-5)


class TestWithoutNumpy:
    """The library computes in Python floats: numpy is a dependency of the
    tests only."""

    def test_import_loads_neither_numpy_nor_the_process_pool(self):
        code = ("import sys, qlink.cli; "
                "print(sorted({'numpy', 'concurrent.futures.process'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_every_command_runs_with_numpy_blocked(self, tmp_path, capsys):
        runs = [
            # four points: the sweep goes through the worker pool
            ["sweep", "--amps", "1", "--l-min-km", "20", "--l-max-km", "80",
             "--l-step-km", "20"],
            ["sweep", "--amps", "1", "--scenario", "gordon-holevo", "--l-min-km", "50",
             "--l-max-km", "100", "--l-step-km", "50"],
            ["sweep", "--amps", "inf", "--scenario", "gordon-holevo", "--l-min-km", "100",
             "--l-max-km", "300", "--l-step-km", "100"],
            ["optimize", "--amps", "2", "--kind", "pia", "--l-min-km", "80",
             "--l-max-km", "80"],
            ["distributed", "--kind", "pia", "--scenario", "gordon-holevo", "--nbar", "1e-3",
             "--l-min-km", "500", "--l-max-km", "2000", "--l-step-km", "500"],
            ["distributed", "--kind", "psa", "--l-min-km", "10", "--l-max-km", "20000",
             "--l-step-km", "4000"],
            ["crossover", "--l-min-km", "100", "--l-max-km", "2000", "--l-step-km", "500"],
        ]
        blocked = [args + ["--out", str(tmp_path / f"blocked{i}.csv")]
                   for i, args in enumerate(runs)]
        code = ("import sys\n"
                "sys.modules['numpy'] = None  # any import of numpy now fails\n"
                "from qlink.cli import main\n"
                f"sys.exit(max(main(args) for args in {blocked!r}))\n")
        done = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        for i, args in enumerate(runs):
            normal = tmp_path / f"normal{i}.csv"
            assert run_cli(args + ["--out", str(normal)]) == 0
            assert (tmp_path / f"blocked{i}.csv").read_bytes() == normal.read_bytes(), args
        assert done.stdout == capsys.readouterr().out


_FUZZ_COMMANDS = ["sweep", "optimize", "distributed", "crossover"]
_FUZZ_NBARS = ["0", "1e-300", "1e-6", "1", "100", "1e5", "1e6", "1e150"]
_FUZZ_ALPHAS = ["1e-12", "1e-6", "0.2", "10", "100"]
_FUZZ_SCENARIOS = ["conventional-snl", "two-quadrature-snl", "gordon-holevo"]


@st.composite
def command_lines(draw):
    """Every command, budget, attenuation, kind, scenario and amplifier count,
    on a grid of at most three points from 1e-9 to 1e12 km."""
    l_min = 10.0 ** draw(st.floats(-9.0, 12.0))
    step = l_min * 10.0 ** draw(st.floats(-3.0, 1.0))
    l_max = l_min + (draw(st.integers(1, 3)) - 1) * step
    return [draw(st.sampled_from(_FUZZ_COMMANDS)),
            "--nbar", draw(st.sampled_from(_FUZZ_NBARS)),
            "--alpha-db-km", draw(st.sampled_from(_FUZZ_ALPHAS)),
            "--kind", draw(st.sampled_from(["psa", "pia"])),
            "--scenario", draw(st.sampled_from(_FUZZ_SCENARIOS)),
            "--amps", draw(st.sampled_from(["0", "1", "2", "5", "inf"])),
            "--l-min-km", repr(l_min), "--l-max-km", repr(l_max), "--l-step-km", repr(step)]


class TestCommandLineFuzz:
    """Every command line computes (exit 0) or is refused (exit 2); only a
    crossover search whose range brackets no crossing fails (exit 1)."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(args=command_lines())
    # the bisection hung once its midpoint could not split the bracket
    @example(args=["crossover", "--alpha-db-km", "1e-12", "--l-min-km", "1e14",
                   "--l-max-km", "1e16", "--l-step-km", "1e14"])
    # chi read inf for vacuum output noise under a subnormal signal
    @example(args=["sweep", "--amps", "0", "--kind", "pia", "--scenario", "gordon-holevo",
                   "--nbar", "1e-300", "--alpha-db-km", "10", "--l-min-km", "10",
                   "--l-max-km", "10"])
    @example(args=["distributed", "--kind", "pia", "--scenario", "gordon-holevo",
                   "--nbar", "1e-300", "--alpha-db-km", "10", "--l-min-km", "10",
                   "--l-max-km", "10"])
    # the PSA maps' rounding read as a photon excess, or broke the Heisenberg limit
    @example(args=["distributed", "--scenario", "gordon-holevo", "--l-min-km", "1e7",
                   "--l-max-km", "1e7"])
    @example(args=["sweep", "--amps", "inf", "--scenario", "gordon-holevo",
                   "--l-min-km", "1e7", "--l-max-km", "1e7"])
    @example(args=["distributed", "--nbar", "1e-300", "--alpha-db-km", "100",
                   "--l-min-km", "10214", "--l-max-km", "11755", "--l-step-km", "1541"])
    def test_exit_status_and_rows(self, args):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "fuzz.csv"
            done = subprocess.run([sys.executable, "-m", "qlink.cli", *args, "--out", str(out)],
                                  env=_src_env(), capture_output=True, text=True, timeout=120)
            assert "Traceback" not in done.stderr
            unbracketed = args[0] == "crossover" and "no PSA/PIA crossover" in done.stderr
            assert done.returncode in (0, 2) or (done.returncode == 1 and unbracketed), \
                done.stderr
            if done.returncode == 0:
                bits = [float(line.split(",")[4]) for line in out.read_text().splitlines()[1:]]
                assert all(math.isfinite(b) and b >= 0.0 for b in bits), bits
