"""Smoke runs of the experiment scripts on one-point grids."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "out.csv"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1


def test_benchmark_tracer_finds_its_patch_points():
    # perfbench/traced_run.py wraps library functions by attribute name; run
    # its installer in a fresh interpreter so the patches stay there.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ('import sys; sys.path.insert(0, "perfbench"); import traced_run; '
            'traced_run.install(traced_run.Tracer())')
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
