"""Benchmark of the fadetrack Monte Carlo study, run from the repository root.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Spawns one worker process (``worker.py``) that imports ``fadetrack`` from
``src/`` and runs the workload's CLI command in whole rounds, then a few
set-up-only workers, one at a time.  It checks every output and prints one
JSON object as the last line of stdout:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Exits non-zero, printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from worker import MIN_ROUNDS  # noqa: E402
from workloads import ENSEMBLE, WORKLOADS  # noqa: E402

ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "_out"
# setup_s is the median cold set-up of this many fresh worker processes
# (the measuring worker and set-up-only ones): one start-up varies by
# about 20 % from the next on a shared host.
SETUP_SPAWNS = 5

# One BLAS thread: the filters are 18-dimensional, and the study runs one
# process at a time on a two-core machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_worker(spec: dict, rundir: Path, timeout: float) -> dict:
    """Run the worker to completion; raise ``RuntimeError`` if it failed."""
    spec_path = rundir / "spec.json"
    env = {**os.environ, **BLAS_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SOURCE),
                                                       os.environ.get("PYTHONPATH")]))}
    spec["spawned_at"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the worker
        raise RuntimeError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads((rundir / "result.json").read_text())


def check_round(workload, seed: int, record: dict) -> list[str]:
    header, rows = checks.read_rows(record["csv"])
    config = workload.config_values(seed)
    if workload.name == "sweep":
        return checks.check_sweep(header, rows, config)
    if workload.name == "ber":
        return checks.check_ber(header, rows, config)
    arrays, diagnostics, problems = checks.load_moments(record["cache_dir"])
    return problems + checks.check_analyze(header, rows, arrays, diagnostics,
                                           config, ENSEMBLE)


def unit_of(name: str) -> str:
    if name.endswith("us_per_symbol"):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "fadetrack" / "__init__.py").is_file():
        print(f"no fadetrack sources under {SOURCE}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rundir = OUT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        spec = {"workload": workload.name, "seed": args.seed,
                "seconds": args.seconds, "trace": bool(args.trace),
                "rundir": str(rundir)}
        # The run length, plus every round the worker may still start.
        timeout = args.seconds + (MIN_ROUNDS + 1) * workload.round_allowance_s
        result = run_worker(spec, rundir, timeout)
        setups = [result["setup_s"]]
        for _ in range(0 if args.trace else SETUP_SPAWNS - 1):
            probe = run_worker({**spec, "setup_only": True}, rundir,
                               workload.round_allowance_s)
            setups.append(probe["setup_s"])
        operations = result["rounds"] + result.get("singles", [])
        done = [r for r in result["rounds"] if r["wall_s"] is not None]
        if not done:
            print("every round failed", file=sys.stderr)
            return 1
        problems = check_round(workload, args.seed, done[0])
        problems += checks.check_identical([r["csv"] for r in done])
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for problem in problems:
        print("CHECK FAILED:", problem, file=sys.stderr)
    if args.trace:
        values = {name: (value, unit_of(name)) for name, value in result["layers"].items()}
    else:
        wall = statistics.median(r["wall_s"] for r in done)
        values = {
            "wall_s": (wall, "s"),
            "packet_runs_per_s": (workload.packet_runs / wall, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": len(operations),
        "failed": sum(r["wall_s"] is None for r in operations),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
