"""Smoke runs of the experiment scripts on one-point grids."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("script, args, header", [
    ("capacity_vs_distance.py", ["--l-max-km", "100", "--l-step-km", "100", "--amps", "0", "1"],
     "distance_km,scenario,amp_kind,amp_count,capacity_bits_per_mode"),
    ("distributed_comparison.py", ["--nbar", "100", "--l-max-km", "100", "--l-step-km", "100"],
     "distance_km,nbar,curve,capacity_bits_per_mode"),
    # 0.15 km is off the 0.1 km lattice the script used to integrate on
    ("distributed_comparison.py", ["--nbar", "100", "--l-max-km", "0.3", "--l-step-km", "0.15"],
     "distance_km,nbar,curve,capacity_bits_per_mode"),
])
def test_script_writes_csv(script, args, header, tmp_path):
    out = tmp_path / "out.csv"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1


@pytest.mark.parametrize("script", ["capacity_vs_distance.py", "distributed_comparison.py"])
def test_script_refuses_a_grid_over_its_bound(script, tmp_path):
    # capacity_vs_distance.py used to start building 5e8 points here
    out = tmp_path / "out.csv"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--l-step-km", "1e-6",
         "--out", str(out)],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 2
    assert "at most 100000" in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("script, args", [
    # computed the conventional curves, then died in the Gordon-Holevo budget check
    ("capacity_vs_distance.py", ["--nbar", "1e6", "--amps", "1", "--l-max-km", "100",
                                 "--l-step-km", "100"]),
    # died in the distributed PSA feedback's budget check
    ("distributed_comparison.py", ["--nbar", "0", "--l-max-km", "100", "--l-step-km", "100"]),
])
def test_script_reports_a_refused_input_as_a_usage_error(script, args, tmp_path):
    out = tmp_path / "out.csv"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert f"{script}: error: " in done.stderr
    assert not out.exists()


def test_benchmark_tracer_finds_its_patch_points():
    # perfbench/traced_run.py wraps library functions by attribute name; run
    # its installer in a fresh interpreter so the patches stay there.
    code = ('import sys; sys.path.insert(0, "perfbench"); import traced_run; '
            'traced_run.install(traced_run.Tracer())')
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
