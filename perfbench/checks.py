"""Output checks that read only the CSV and the documented moment-cache files.

Each check returns a list of problems (empty when the output is correct).
The properties come from the method, not from the program's code:

* ``sweep``: the per-symbol MMSE oracle maximizes the Rayleigh quotient on
  every packet, so no receiver's mean normalized SINR exceeds the oracle's
  at any rate and mark; every BER lies in [0, 1].
* ``ber``: a per-symbol BER averaged over ``packets`` packets is a count
  over ``packets``; the oracle beats every adaptive receiver after
  training, and no receiver beats the single-user L-path Rayleigh MRC
  bound (Proakis), less a stated margin.
* ``analyze``: a fixed filter's SINR never exceeds the largest generalized
  eigenvalue of (signal, interference) correlations; every ensemble member
  carries the white noise floor; codes and channel power are unit, so the
  signal correlation has unit trace up to Monte Carlo error.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import linalg

HEADER = ["experiment", "algorithm", "sweep", "symbol", "ber", "sinr_db", "ci", "seed"]

SINR_TOL_DB = 1e-7        # rounding allowance on dB comparisons of exact bounds
COUNT_TOL = 1e-9          # ber * packets may differ from an integer by this
MRC_MARGIN = 0.75         # oracle BER may fall this share below the MRC bound
TRACE_MARGIN = 0.05       # |tr(signal_corr) - 1|; ~8 standard errors at 10^4 members
NOISE_FLOOR_RTOL = 1e-9   # relative rounding allowance on the noise floor

ANALYZE_SIMULATED = ("bidir-nlms-equal", "diff-nlms")
ANALYZE_CURVES = ANALYZE_SIMULATED + ("mmse-bound", "bidir-nlms-equal-analytical",
                                      "diff-nlms-analytical")


def read_rows(path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        return header, [dict(zip(header, row)) for row in reader]


def _num(text: str) -> float | None:
    return float(text) if text != "" else None


def _series(rows, experiment: str) -> tuple[dict, list[str]]:
    """``(algorithm, sweep) -> {symbol: row}`` and any format problems."""
    problems = []
    series: dict[tuple[str, float], dict[int, dict]] = {}
    for row in rows:
        if row.get("experiment") != experiment:
            problems.append(f"row of experiment {row.get('experiment')!r}")
            continue
        key = (row["algorithm"], float(row["sweep"]))
        series.setdefault(key, {})[int(row["symbol"])] = row
    return series, problems


def _header_problems(header) -> list[str]:
    return [] if header == HEADER else [f"header {header} is not {HEADER}"]


def check_sweep(header, rows, config: dict) -> list[str]:
    problems = _header_problems(header)
    series, more = _series(rows, "sinr-vs-fading")
    problems += more
    rates = [float(t) for t in config["fading_grid"].split(",")]
    algorithms = config["algorithms"].split(",")
    marks = (int(config["train_len"]) - 1, int(config["packet_len"]) - 1)
    if len(rows) != len(rates) * len(algorithms) * len(marks):
        problems.append(f"{len(rows)} rows, expected "
                        f"{len(rates) * len(algorithms) * len(marks)}")
    for rate in rates:
        for mark in marks:
            values = {}
            for name in algorithms:
                row = series.get((name, rate), {}).get(mark)
                if row is None:
                    problems.append(f"missing {name} at rate {rate}, symbol {mark}")
                    continue
                ber, sinr = _num(row["ber"]), _num(row["sinr_db"])
                if ber is None or not 0.0 <= ber <= 1.0:
                    problems.append(f"{name} at rate {rate}: ber {row['ber']!r} outside [0, 1]")
                if sinr is None or not math.isfinite(sinr):
                    problems.append(f"{name} at rate {rate}: sinr {row['sinr_db']!r}")
                    continue
                values[name] = sinr
            oracle = values.get("mmse")
            if oracle is None:
                continue
            for name, sinr in values.items():
                if sinr > oracle + SINR_TOL_DB:
                    problems.append(f"{name} at rate {rate}, symbol {mark}: "
                                    f"{sinr} dB above the oracle's {oracle} dB")
    return problems


def mrc_ber_bound(snr_db: float, paths: int) -> float:
    """BER of BPSK with L-branch MRC over equal-power Rayleigh paths.

    Proakis, Digital Communications (BPSK with L-th order diversity), with
    the mean SNR per branch equal to the total SNR over L.  Unequal branch powers or interference
    only raise the BER, so this bounds every receiver from below.
    """
    per_path = 10.0 ** (snr_db / 10.0) / paths
    mu = math.sqrt(per_path / (1.0 + per_path))
    return ((1.0 - mu) / 2.0) ** paths * sum(
        math.comb(paths - 1 + k, k) * ((1.0 + mu) / 2.0) ** k for k in range(paths))


def check_ber(header, rows, config: dict) -> list[str]:
    problems = _header_problems(header)
    series, more = _series(rows, "ber")
    problems += more
    snrs = [float(t) for t in config["snr_db"].split(",")]
    algorithms = config["algorithms"].split(",")
    packets = int(config["packets"])
    length = int(config["packet_len"])
    train = int(config["train_len"])
    for row in rows:
        ber = _num(row["ber"])
        if ber is None or not 0.0 <= ber <= 1.0:
            problems.append(f"{row['algorithm']} symbol {row['symbol']}: ber {row['ber']!r}")
            continue
        count = ber * packets
        if abs(count - round(count)) > COUNT_TOL:
            problems.append(f"{row['algorithm']} symbol {row['symbol']}: "
                            f"ber x packets = {count!r} is not a count")
    for snr in snrs:
        post = {}
        for name in algorithms:
            curve = series.get((name, snr), {})
            first = 0 if name in ("mmse", "nlms", "rls") else 1
            if sorted(curve) != list(range(first, length)):
                problems.append(f"{name} at {snr} dB: symbols are not {first}..{length - 1}")
                continue
            post[name] = float(np.mean([_num(curve[i]["ber"]) or 0.0
                                        for i in range(train, length)]))
        oracle = post.get("mmse")
        if oracle is None:
            problems.append(f"no mmse curve at {snr} dB")
            continue
        for name, ber in post.items():
            if name != "mmse" and not oracle < ber:
                problems.append(f"{name} at {snr} dB: post-training ber {ber} "
                                f"not above the oracle's {oracle}")
        bound = mrc_ber_bound(snr, int(config["paths"]))
        if oracle < (1.0 - MRC_MARGIN) * bound:
            problems.append(f"mmse at {snr} dB: post-training ber {oracle} below "
                            f"the MRC bound {bound} less {MRC_MARGIN:.0%}")
    return problems


def load_moments(cache_dir) -> tuple[dict | None, dict | None, list[str]]:
    """The single ``<sha>.npz``/``<sha>.json`` pair of a fresh cache directory."""
    cache = Path(cache_dir)
    npz = sorted(cache.glob("*.npz"))
    if len(npz) != 1 or not npz[0].with_suffix(".json").exists():
        return None, None, [f"expected one .npz/.json pair in {cache}, found {len(npz)} .npz"]
    with np.load(npz[0]) as data:
        arrays = {key: data[key] for key in data.files}
    diagnostics = json.loads(npz[0].with_suffix(".json").read_text())
    return arrays, diagnostics, []


def check_analyze(header, rows, arrays: dict | None, diagnostics: dict | None,
                  config: dict, ensemble: int) -> list[str]:
    problems = _header_problems(header)
    series, more = _series(rows, "analyze")
    problems += more
    rate = float(config["fading_grid"].split(",")[0])
    length = int(config["packet_len"])
    for name in ANALYZE_CURVES:
        curve = series.get((name, rate), {})
        if sorted(curve) != list(range(length)):
            problems.append(f"{name}: symbols are not 0..{length - 1}")
        for row in curve.values():
            value = _num(row["sinr_db"])
            if value is None or not math.isfinite(value):
                problems.append(f"{name} symbol {row['symbol']}: sinr {row['sinr_db']!r}")
    if arrays is None:
        return problems + ["no moment matrices to check against"]
    if diagnostics.get("ensemble_size") != ensemble:
        problems.append(f"ensemble {diagnostics.get('ensemble_size')} is not {ensemble}")
    signal = arrays["signal_corr"]
    interference = arrays["interference_corr"]
    for label, matrix in (("signal_corr", signal), ("interference_corr", interference)):
        if not np.allclose(matrix, matrix.conj().T, rtol=0.0, atol=1e-12):
            problems.append(f"{label} is not Hermitian")
    noise = 10.0 ** (-float(config["snr_db"].split(",")[0]) / 10.0)
    floor = float(np.linalg.eigvalsh(interference).min())
    if floor < noise * (1.0 - NOISE_FLOOR_RTOL):
        problems.append(f"lambda_min(interference_corr) = {floor} below the noise "
                        f"variance {noise}")
    trace = float(np.real(np.trace(signal)))
    if abs(trace - 1.0) > TRACE_MARGIN:
        problems.append(f"tr(signal_corr) = {trace}, not within {TRACE_MARGIN} of 1")
    if floor > 0.0:
        peak = float(linalg.eigh(signal, interference, eigvals_only=True).max())
        limit = 10.0 * math.log10(peak)
        for name in ANALYZE_SIMULATED:
            for row in series.get((name, rate), {}).values():
                value = _num(row["sinr_db"])
                if value is not None and value > limit + SINR_TOL_DB:
                    problems.append(f"{name} symbol {row['symbol']}: {value} dB above "
                                    f"the fixed-filter limit {limit} dB")
    return problems



def check_identical(paths) -> list[str]:
    """Every output of one seed must be byte-identical to the first."""
    paths = [Path(p) for p in paths]
    first = paths[0].read_bytes()
    return [f"{p.name} differs from {paths[0].name}"
            for p in paths[1:] if p.read_bytes() != first]
