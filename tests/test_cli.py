import math

import numpy as np
import pytest

from qlink import (
    AmpKind,
    Scenario,
    attenuation_to_natural,
    channel_maps,
    continuum_states,
    distance_grid,
    integrate_psa,
    shannon_single_quadrature,
)
from qlink.capacity import gh_capacity_for_channel
from qlink.cli import main, parse_config
from qlink.quadmodel import HEISENBERG_LIMIT, HEISENBERG_TOL

ALPHA = attenuation_to_natural(0.2)


def run_cli(args):
    return main(args)


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

    def test_missing_command_is_usage_error(self, capsys):
        assert run_cli(["--nbar", "10"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_infinite_amps_rejected_for_optimize(self, capsys):
        assert run_cli(["optimize", "--amps", "inf"]) == 2
        assert "inf" in capsys.readouterr().err

    def test_negative_amps_rejected(self):
        assert run_cli(["sweep", "--amps", "-2"]) == 2

    @pytest.mark.parametrize("flag", ["--nbar", "--alpha-db-km", "--l-min-km",
                                      "--l-max-km", "--l-step-km", "--ode-step-km"])
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
             "--l-max-km", "20", "--l-step-km", "10", "--ode-step-km", "0.5",
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

    def test_largest_grid_is_accepted(self):
        config = parse_config(["sweep", "--l-min-km", "1", "--l-max-km", "100000",
                               "--l-step-km", "1"])
        assert len(config.grid()) == 100_000

    @pytest.mark.parametrize("args", [
        ["distributed", "--scenario", "gordon-holevo", "--ode-step-km", "1e-9"],
        ["sweep", "--amps", "inf", "--scenario", "gordon-holevo", "--l-max-km", "200001",
         "--l-step-km", "1000", "--ode-step-km", "0.2"],
        ["distributed", "--kind", "pia", "--scenario", "gordon-holevo", "--ode-step-km",
         "1e-9"],
    ])
    def test_oversized_integration_is_usage_error(self, args, capsys):
        # only a Gordon-Holevo continuum channel is built on the checkpoint lattice
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert "--ode-step-km" in err
        assert "budget checkpoints" in err

    @pytest.mark.parametrize("args", [
        ["distributed", "--ode-step-km", "1e-9"],
        ["sweep", "--amps", "inf", "--l-max-km", "200001", "--l-step-km", "1000",
         "--ode-step-km", "0.2"],
        ["crossover", "--ode-step-km", "1e-9"],
    ])
    def test_shannon_continuum_has_no_checkpoint_bound(self, args, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli(args + ["--out", str(out)]) == 0
        bits = [float(line.split(",")[4]) for line in out.read_text().splitlines()[1:]]
        assert bits and all(math.isfinite(b) and b >= 0.0 for b in bits)

    def test_step_bound_applies_only_to_continuum_runs(self):
        assert parse_config(["distributed", "--l-max-km", "100000", "--l-step-km", "1000",
                             "--ode-step-km", "0.1"]).amps is None
        assert parse_config(["sweep", "--amps", "2", "--ode-step-km", "1e-9"]).amps == 2

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


class TestDistributedCommand:
    def test_rows_match_module_endpoint(self, tmp_path):
        out = tmp_path / "dist.csv"
        code = run_cli(
            ["distributed", "--kind", "psa", "--l-min-km", "50", "--l-max-km", "100",
             "--l-step-km", "50", "--ode-step-km", "0.5", "--out", str(out)]
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
        ["--nbar", "3e-4", "--ode-step-km", "1", "--l-min-km", "10", "--l-max-km", "30",
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


class TestCrossoverCommand:
    def test_reports_bracketed_crossing(self, tmp_path, capsys):
        out = tmp_path / "cross.csv"
        code = run_cli(
            ["crossover", "--l-min-km", "400", "--l-max-km", "1000",
             "--l-step-km", "300", "--ode-step-km", "0.5", "--out", str(out)]
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
             "--l-step-km", "20", "--ode-step-km", "0.5", "--out", str(out)]
        )
        assert code == 1
        assert "no PSA/PIA crossover" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "nope.csv.tmp").exists()

    def test_degenerate_range_is_usage_error(self):
        assert run_cli(["crossover", "--l-min-km", "100", "--l-max-km", "100"]) == 2

    def test_ode_step_does_not_change_the_result(self, tmp_path, capsys):
        # a 50 km RK4 step used to overshoot the PSA feedback at 150 km
        default, coarse = tmp_path / "default.csv", tmp_path / "coarse.csv"
        assert run_cli(["crossover", "--out", str(default)]) == 0
        default_out = capsys.readouterr().out
        assert run_cli(["crossover", "--ode-step-km", "50", "--out", str(coarse)]) == 0
        assert capsys.readouterr().out == default_out
        assert "crossover_km=" in default_out
        assert coarse.read_bytes() == default.read_bytes()
