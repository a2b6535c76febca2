"""qlink's benchmark: fixed CLI workloads timed as a user runs them.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One invocation measures one workload.  It runs the CLI command as a
subprocess, one run at a time, for about ``--seconds``; before each run it
times ``setup_s`` samples, fresh interpreters that import ``qlink.cli`` and
resolve the workload's config.  Every time is scaled to a reference host's
speed, measured while the process ran (``speed.py``).  ``check.py`` checks every
run's CSV and stdout, after ``selftest.py`` has checked the checker.  With
``--trace 1`` one in-process traced run (``traced_run.py``) follows, whose
CSV must be byte-identical to the untraced one, and the per-layer metrics
are reported instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit.  Every per-run sample, the environment and the
spans of a traced run are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import selftest
import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
REFERENCE_DIR = BENCH_DIR / "reference"

# setup_s is the median of fresh-interpreter samples, SETUP_PER_RUN taken
# before each CLI run and at least SETUP_MIN_SAMPLES in all.
SETUP_PER_RUN = 2
SETUP_MIN_SAMPLES = 12
# Any process still running this long after the invocation started is
# killed (a CLI run then counts as failed), so the benchmark exits within
# three minutes whatever the program does.
TOTAL_LIMIT_S = 170.0
# No measured run starts this long after the invocation started, which
# leaves room for the traced run.
RUN_LOOP_LIMIT_S = 100.0
# Pool size rule of ``qlink sweep`` for finite amplifier counts.
QLINK_MAX_WORKERS = 8
QLINK_POOL_MIN_POINTS = 4

# What the ``qlink`` console script runs.
CLI_MAIN = "import sys; from qlink.cli import main; sys.exit(main())"
# What setup_s times.
SETUP = "import sys, qlink.cli; qlink.cli.parse_config(sys.argv[1:])"
# Untimed: where qlink comes from, the numpy it runs with, the grid size.
PROBE = (
    "import json, sys; import qlink, qlink.cli; "
    "config = qlink.cli.parse_config(sys.argv[1:]); "
    "import numpy; "
    "print(json.dumps({'qlink': qlink.__file__, 'numpy': numpy.__version__, "
    "'points': len(config.grid())}))"
)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    crossover: bool = False


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("sweep-conv", ("sweep", "--amps", "8", "--l-step-km", "50")),
    Workload("sweep-gh", ("sweep", "--amps", "2", "--scenario", "gordon-holevo",
                          "--l-min-km", "50", "--l-max-km", "500", "--l-step-km", "50")),
    Workload("sweep-gh-inf", ("sweep", "--amps", "inf", "--scenario", "gordon-holevo",
                              "--l-min-km", "100", "--l-max-km", "3000", "--l-step-km", "100")),
    Workload("crossover", ("crossover",), crossover=True),
)}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def qlink_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Finished:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    scale: float
    stdout: str
    stderr: str


def run_process(argv: list[str], workdir: Path, deadline: float) -> Finished:
    """Run ``argv`` to completion and return its exit, times and peak RSS.

    ``os.wait4`` gives the rusage of the child together with every child it
    reaped, i.e. qlink's pool workers: CPU is their sum and ``ru_maxrss``
    the largest peak of any one process in the run.  The run gets its own
    process group, which is killed if it outlives ``deadline`` (a
    ``time.perf_counter`` value).  A ``speed.Sampler`` runs meanwhile and
    gives the factor that scales the run's times to the reference host.
    """
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        with speed.Sampler() as sampler:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=workdir, env=qlink_env(), stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, start_new_session=True)
            killer = threading.Timer(max(deadline - start, 0.0), _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers orphaned by a crash, if any
    return Finished(
        exit_code=proc.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        scale=sampler.scale(),
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def environment(seed: int, probe: dict, workload: Workload) -> dict:
    cpus = os.cpu_count() or 1
    points = probe["points"]
    pooled = workload.args[0] == "sweep" and "inf" not in workload.args
    workers = 1
    if pooled and points >= QLINK_POOL_MIN_POINTS:
        workers = min(QLINK_MAX_WORKERS, cpus, points)
    return {
        "nproc": cpus,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "git_commit": _git_commit(),
        "qlink_pool_workers": workers,
        "grid_points": points,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "platform": platform.platform(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Invocation:
    """One benchmark invocation: a workload, a seed, a working directory
    and the deadline every process it starts must meet."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.perf_counter()
        self.deadline = self.started + TOTAL_LIMIT_S
        self.reference = (REFERENCE_DIR / f"{workload.name}.csv").read_text(encoding="utf-8")
        self.csv_path = workdir / "out.csv"

    def run(self, argv: list[str]) -> Finished:
        return run_process(argv, self.workdir, self.deadline)

    def qlink_args(self) -> list[str]:
        return [*self.workload.args, "--seed", str(self.seed)]

    def probe(self) -> dict:
        """One untimed probe: fills the bytecode cache and reports where
        qlink was imported from, its numpy version and the grid size."""
        done = self.run([sys.executable, "-c", PROBE, *self.qlink_args()])
        if done.exit_code != 0:
            fail(f"cannot import qlink.cli and resolve the config:\n{done.stderr}")
        info = json.loads(done.stdout)
        if not Path(info["qlink"]).resolve().is_relative_to(ROOT / "src"):
            fail(f"qlink was imported from {info['qlink']}, not from {ROOT / 'src'}")
        return info

    def setup_sample(self) -> dict:
        """Wall time of one fresh interpreter importing qlink.cli and
        resolving the workload's config, and its speed scale."""
        done = self.run([sys.executable, "-c", SETUP, *self.qlink_args()])
        if done.exit_code != 0:
            fail(f"setup probe failed:\n{done.stderr}")
        return {"setup_s": done.wall_s, "scale": done.scale}

    def run_checked(self, argv: list[str]) -> tuple[Finished, list[str]]:
        """Run a CLI command writing ``out.csv``; its outcome and problems."""
        self.csv_path.unlink(missing_ok=True)
        done = self.run(argv)
        if done.exit_code != 0:
            return done, [f"exit code {done.exit_code}: {done.stderr.strip()[-500:]}"]
        try:
            csv_text = self.csv_path.read_text(encoding="utf-8")
        except OSError as err:
            return done, [f"no CSV: {err}"]
        return done, check.check_run(csv_text, done.stdout, self.reference,
                                     self.workload.crossover)

    def measure(self, seconds: float) -> tuple[list[dict], list[dict], bytes | None]:
        """CLI runs, one at a time, for about ``seconds``; setup samples are
        taken before each run, so that both medians cover the same stretch
        of time.  No run starts when the one before it, with its setup
        samples, would end more than half its length past ``seconds``.

        Returns the setup samples, each run's sample and problems, and the
        CSV bytes of the last run.
        """
        argv = [sys.executable, "-c", CLI_MAIN, *self.qlink_args(), "--out", "out.csv"]
        setup, runs = [], []
        csv_bytes = None
        stop = min(time.perf_counter() + seconds, self.started + RUN_LOOP_LIMIT_S)
        cycle_s = 0.0
        while not runs or time.perf_counter() + cycle_s / 2 < stop:
            cycle_start = time.perf_counter()
            setup += [self.setup_sample() for _ in range(SETUP_PER_RUN)]
            done, problems = self.run_checked(argv)
            csv_bytes = self.csv_path.read_bytes() if self.csv_path.exists() else None
            runs.append({"run_s": done.wall_s, "cpu_s": done.cpu_s,
                         "peak_rss_mb": done.peak_rss_mb, "scale": done.scale,
                         "exit_code": done.exit_code, "problems": problems})
            cycle_s = time.perf_counter() - cycle_start
        while len(setup) < SETUP_MIN_SAMPLES:
            setup.append(self.setup_sample())
        return setup, runs, csv_bytes

    def traced(self, untraced_csv: bytes | None, spans_path: Path) -> tuple[dict | None, list[str]]:
        """One in-process traced run: its spans file contents and problems."""
        argv = [sys.executable, str(BENCH_DIR / "traced_run.py"), str(spans_path), "--",
                *self.qlink_args(), "--out", "out.csv"]
        done, problems = self.run_checked(argv)
        if not problems and self.csv_path.read_bytes() != untraced_csv:
            problems.append("traced CSV differs from the untraced CSV")
        if done.exit_code != 0 or not spans_path.exists():
            return None, problems
        traced = json.loads(spans_path.read_text(encoding="utf-8"))
        traced["wall_s"] = done.wall_s
        traced["scale"] = done.scale
        return traced, problems


def summary(values: list[float]) -> dict:
    """Count, median, quartiles, extremes, and the highest percentile with
    at least ten samples beyond it (only from 20 samples on)."""
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 20:
        pct = math.floor(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def bench(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "qlink" / "cli.py").is_file():
        fail(f"no qlink sources under {ROOT / 'src'}")
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = (f"{workload.name}-seed{seed}-trace{int(trace)}-"
             f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    workdir = RESULTS_DIR / f"tmp-{stamp}"
    workdir.mkdir()
    traced, trace_problems = None, []
    try:
        inv = Invocation(workload, seed, workdir)
        env = environment(seed, inv.probe(), workload)
        setup_samples, runs, csv_bytes = inv.measure(seconds)
        if trace:
            traced, trace_problems = inv.traced(csv_bytes, RESULTS_DIR / f"{stamp}-spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in runs if r["problems"]) + (1 if trace_problems else 0)
    attempted = len(runs) + (1 if trace else 0)
    # Each time is scaled by the host's speed while it was taken (speed.py);
    # memory is not.
    scaled = {
        "run_s": [r["run_s"] * r["scale"] for r in runs],
        "cpu_s": [r["cpu_s"] * r["scale"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "setup_s": [t["setup_s"] * t["scale"] for t in setup_samples],
    }
    units_of = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    e2e = {name: (statistics.median(values), units_of[name]) for name, values in scaled.items()}
    if not trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    elif traced:
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] * traced["scale"] - e2e["run_s"][0], "unit": "s"}
    else:
        metrics = {}
    result = {
        "correct": failed == 0 and (traced is not None or not trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name, "command": ["qlink", *workload.args, "--seed", str(seed)],
        "seconds": seconds, "trace": trace, "environment": env,
        "samples": {"setup_s": setup_samples, "runs": runs},
        "reference_unit_s": speed.REFERENCE_UNIT_S,
        "summary": {name: summary(values) for name, values in scaled.items()},
        "summary_unscaled": {
            "run_s": summary([r["run_s"] for r in runs]),
            "cpu_s": summary([r["cpu_s"] for r in runs]),
            "setup_s": summary([t["setup_s"] for t in setup_samples]),
            "scale": summary([r["scale"] for r in runs])},
        "fail_ratio": failed / attempted,
        "trace_problems": trace_problems,
        "traced_wall_s": traced["wall_s"] if traced else None,
        "traced_scale": traced["scale"] if traced else None,
        "traced_main_s": traced["total_s"] if traced else None,
        "result": result,
    }
    (RESULTS_DIR / f"{stamp}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    report(workload, record, e2e, metrics if trace else None)
    return result


def report(workload: Workload, record: dict, e2e: dict, layer: dict | None) -> None:
    print(f"# workload {workload.name}: qlink {' '.join(workload.args)}")
    print(f"# environment {json.dumps(record['environment'])}")
    unscaled = " ".join(f"{k}={v['median']:.6g}" for k, v in record["summary_unscaled"].items())
    print(f"# times are scaled to the reference host's speed (speed.py); unscaled medians: {unscaled}")
    for name, (value, unit) in e2e.items():
        stats = record["summary"][name]
        extra = " ".join(f"{k}={v:.6g}" for k, v in stats.items() if k not in ("n", "median"))
        print(f"{workload.name:13s} {name:20s} {value:12.6g} {unit:6s} (median of n={stats['n']}; {extra})")
    print(f"{workload.name:13s} {'fail_ratio':20s} {record['fail_ratio']:12.6g} ratio  "
          f"({record['result']['failed']} failed of {record['result']['attempted']})")
    for run in record["samples"]["runs"]:
        for problem in run["problems"][:5]:
            print(f"# FAIL: {problem}")
    for problem in record["trace_problems"][:5]:
        print(f"# FAIL (traced run): {problem}")
    for name, entry in (layer or {}).items():
        print(f"{workload.name:13s} {name:38s} {entry['value']:14.6g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        selftest.run_all()
    except selftest.SelfTestFailure as err:
        fail(f"checker self-test failed: {err}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
               for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
