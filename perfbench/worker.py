"""One benchmark process: set up, run CLI rounds, write the figures as JSON.

Started by ``run.py`` with the path of a spec file; the spec carries the
monotonic clock reading taken just before this process was spawned, so
``setup_s`` covers interpreter start, the ``fadetrack`` import and the
config build.  A set-up-only spec stops there.  Untraced mode runs whole
CLI rounds until the run length is used (at least three; their outputs
must be byte-identical).  Traced mode runs one untraced round, one traced
round and one reduced run per receiver of the workload.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import ALGORITHMS, WORKLOADS

# The reported wall time is the median over rounds; three rounds let the
# median discard one round slowed by a noisy neighbour on a shared host.
MIN_ROUNDS = 3


def timed_cli_round(cli, argv) -> float | None:
    """Wall seconds of one ``fadetrack`` CLI command; ``None`` if it failed."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        return None
    elapsed = time.perf_counter() - start
    return elapsed if code == 0 else None


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    from fadetrack import cli, harness

    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    harness.make_experiment_config(workload.config_values(seed))
    setup_s = time.monotonic() - spec["spawned_at"]
    rundir = Path(spec["rundir"])
    if spec.get("setup_only"):
        (rundir / "result.json").write_text(json.dumps({"setup_s": setup_s}))
        return 0

    rounds: list[dict] = []

    def run_round() -> None:
        n = len(rounds)
        out = rundir / f"round{n}.csv"
        cache = rundir / f"cache{n}"
        wall = timed_cli_round(cli, workload.argv(seed, out, cache))
        rounds.append({"csv": str(out), "cache_dir": str(cache), "wall_s": wall})

    result: dict = {"setup_s": setup_s}
    if not spec["trace"]:
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < spec["seconds"]:
            run_round()
    else:
        from tracing import Tracer

        run_round()
        with Tracer() as tracer:
            run_round()
        tracer.write(rundir.parent / f"spans-{workload.name}.npz")
        layers = tracer.metrics()
        layers["trace.overhead_s"] = tracer.overhead_s()
        singles = []
        for algorithm in ALGORITHMS:
            layers[f"harness.alg.{algorithm}.us_per_symbol"] = 0.0
        for algorithm in workload.algorithms:
            reduced, symbols = workload.single_algorithm(algorithm)
            wall = timed_cli_round(cli, reduced.argv(seed, rundir / "single.csv"))
            singles.append({"algorithm": algorithm, "wall_s": wall})
            if wall is not None:
                layers[f"harness.alg.{algorithm}.us_per_symbol"] = wall * 1e6 / symbols
        result["layers"] = layers
        result["singles"] = singles

    result["rounds"] = rounds
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (rundir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
