"""The benchmark's workloads: what each one runs through the ``fadetrack`` CLI.

A workload is a CLI subcommand plus a flat configuration (the CLI's own
config keys).  The benchmark seed becomes the program's master seed; every
other input is fixed here, so one seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The analyze experiment always simulates these two receivers.
ANALYZE_RECEIVERS = ("bidir-nlms-equal", "diff-nlms")

ENSEMBLE = 10_000


def program_seed(seed: int) -> int:
    """Master seed handed to the program for a benchmark seed."""
    return 20240801 + seed % 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict = field(default_factory=dict)
    # Generous wall-time allowance for one CLI round (about four times the
    # round measured on a 2-core machine); bounds the worker's run time.
    round_allowance_s: float = 60.0

    @property
    def grid(self) -> tuple[float, ...]:
        """The experiment's sweep axis: SNR points for ``ber``, rates otherwise."""
        key = "snr_db" if self.command == "ber" else "fading_grid"
        return tuple(float(tok) for tok in self.config[key].split(","))

    @property
    def algorithms(self) -> tuple[str, ...]:
        if self.command == "analyze":
            return ANALYZE_RECEIVERS
        return tuple(self.config["algorithms"].split(","))

    @property
    def packet_runs(self) -> int:
        """Packets x receivers x grid points of one CLI run."""
        points = 1 if self.command == "analyze" else len(self.grid)
        return int(self.config["packets"]) * len(self.algorithms) * points

    def config_values(self, seed: int) -> dict[str, str]:
        """The configuration as ``key -> text``, the config-file form."""
        return {**self.config, "seed": str(program_seed(seed))}

    def argv(self, seed: int, out, cache_dir=None) -> list[str]:
        args = [self.command, "--out", str(out), "--threads", "1"]
        for key, text in self.config_values(seed).items():
            args += ["--" + key.replace("_", "-"), text]
        if self.command == "analyze":
            args += ["--ensemble", str(ENSEMBLE), "--cache-dir", str(cache_dir)]
        return args

    def single_algorithm(self, algorithm: str) -> tuple["Workload", int]:
        """A one-packet run of this workload's experiment with one receiver.

        Returns the reduced workload and the number of symbols it
        processes.  ``analyze`` takes no receiver list (it always runs both
        of its receivers after the moment ensemble), so each of its two
        receivers is timed through the ``ber`` experiment on the analyze
        scenario instead.
        """
        config = {**self.config, "algorithms": algorithm, "packets": "1"}
        command = "ber" if self.command == "analyze" else self.command
        reduced = Workload(self.name, command, config)
        return reduced, len(reduced.grid) * int(config["packet_len"])


WORKLOADS = {
    # Criterion 6's desk sweep (DESK_SWEEP) with the oracle added, at a
    # reduced packet count: the CG correlation update and solve dominate.
    "sweep": Workload("sweep", "sinr-vs-fading", {
        "users": "5", "gain": "16", "paths": "3", "snr_db": "15",
        "fading_grid": "0.001,0.005,0.01,0.02", "packet_len": "1000",
        "train_len": "200", "packets": "1",
        "algorithms": "mmse,rls,diff-cg,bidir-cg,bidir-cg-equal",
        "lambda_cg": "0.97", "jmax": "1", "lambda_rls": "0.95", "isi": "0",
    }, round_allowance_s=10.0),
    # Learning curves with ISI on: NLMS and mixing steps, the per-symbol
    # oracle over the ISI covariance and ~12k CSV rows; no CG.
    "ber": Workload("ber", "ber", {
        "users": "5", "gain": "16", "paths": "3", "snr_db": "0,5",
        "fading_grid": "0.005", "packet_len": "1000", "train_len": "200",
        "packets": "4",
        "algorithms": "mmse,nlms,rls,diff-nlms,bidir-nlms,bidir-nlms-equal",
        "isi": "1",
    }, round_allowance_s=20.0),
    # Criterion 7's configuration with a cold 10^4 moment ensemble: moment
    # estimation, fading on 5-sample windows, the K/G recursions.
    "analyze": Workload("analyze", "analyze", {
        "users": "5", "gain": "16", "paths": "3", "snr_db": "15",
        "fading_grid": "0.005", "packet_len": "600", "train_len": "600",
        "packets": "4", "algorithms": "bidir-nlms", "mu": "0.2", "isi": "1",
    }, round_allowance_s=90.0),
}

# Every receiver some workload runs; the traced run reports one
# ``harness.alg.<name>.us_per_symbol`` for each, zero where not run.
ALGORITHMS = tuple(dict.fromkeys(a for w in WORKLOADS.values() for a in w.algorithms))
