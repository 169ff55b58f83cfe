"""The benchmark's own tests: each output check rejects a doctored output,
and the per-layer tracer survives functions the package no longer has."""

import csv

import numpy as np
import pytest

import checks
from tracing import Tracer
from workloads import WORKLOADS

SWEEP = WORKLOADS["sweep"].config_values(0)
BER = {**WORKLOADS["ber"].config_values(0), "packet_len": "20", "train_len": "10"}
ANALYZE = {**WORKLOADS["analyze"].config_values(0), "packet_len": "10"}


def row(experiment, algorithm, sweep, symbol, ber=None, sinr=None):
    return {"experiment": experiment, "algorithm": algorithm, "sweep": repr(sweep),
            "symbol": str(symbol), "ber": "" if ber is None else repr(ber),
            "sinr_db": "" if sinr is None else repr(sinr), "ci": "0.1", "seed": "1"}


def sweep_rows():
    rows = []
    for name in SWEEP["algorithms"].split(","):
        for rate in (0.001, 0.005, 0.01, 0.02):
            for mark in (199, 999):
                sinr = -0.5 if name == "mmse" else -3.0
                rows.append(row("sinr-vs-fading", name, rate, mark, ber=0.1, sinr=sinr))
    return rows


def ber_rows():
    rows = []
    for name in BER["algorithms"].split(","):
        first = 0 if name in ("mmse", "nlms", "rls") else 1
        for snr in (0.0, 5.0):
            for i in range(first, 20):
                # mmse: one error in four packets on every other symbol (0.125).
                ber = (0.25 if i % 2 else 0.0) if name == "mmse" else 0.5
                rows.append(row("ber", name, snr, i, ber=ber))
    return rows


def moments(dim=6, noise=10 ** -1.5):
    rng = np.random.default_rng(7)
    s = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    signal = np.outer(s, s.conj()) / np.vdot(s, s).real
    a = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    interference = noise * np.eye(dim) + 0.1 * a @ a.conj().T
    return {"signal_corr": signal, "interference_corr": interference}, {"ensemble_size": 10000}


def analyze_rows(sinr):
    return [row("analyze", name, 0.005, i, sinr=sinr)
            for name in checks.ANALYZE_CURVES for i in range(10)]


def test_sweep_accepts_valid_output():
    assert checks.check_sweep(checks.HEADER, sweep_rows(), SWEEP) == []


def test_sweep_rejects_sinr_above_oracle():
    rows = sweep_rows()
    doctored = next(r for r in rows if r["algorithm"] == "bidir-cg")
    doctored["sinr_db"] = repr(-0.49)
    assert checks.check_sweep(checks.HEADER, rows, SWEEP)


def test_sweep_rejects_ber_outside_unit_interval_and_missing_point():
    rows = sweep_rows()
    rows[0]["ber"] = "1.5"
    assert checks.check_sweep(checks.HEADER, rows, SWEEP)
    assert checks.check_sweep(checks.HEADER, sweep_rows()[1:], SWEEP)


def test_ber_accepts_valid_output():
    assert checks.check_ber(checks.HEADER, ber_rows(), BER) == []


def test_ber_rejects_non_integral_count():
    rows = ber_rows()
    rows[3]["ber"] = repr(0.3)   # 0.3 x 4 packets is no error count
    assert any("not a count" in p for p in checks.check_ber(checks.HEADER, rows, BER))


def test_ber_rejects_oracle_worse_than_adaptive():
    rows = [dict(r, ber=repr(0.0)) if r["algorithm"] == "diff-nlms" else r
            for r in ber_rows()]
    assert any("not above the oracle" in p
               for p in checks.check_ber(checks.HEADER, rows, BER))


def test_ber_rejects_oracle_below_mrc_bound():
    rows = [dict(r, ber=repr(0.0)) if r["algorithm"] == "mmse" else r
            for r in ber_rows()]
    assert any("MRC bound" in p for p in checks.check_ber(checks.HEADER, rows, BER))


def test_mrc_bound_matches_single_branch_closed_form():
    # L = 1: Pb = (1 - sqrt(g / (1 + g))) / 2.
    g = 10 ** 0.5
    assert checks.mrc_ber_bound(5.0, 1) == pytest.approx((1 - np.sqrt(g / (1 + g))) / 2)


def test_analyze_accepts_valid_output():
    arrays, diagnostics = moments()
    assert checks.check_analyze(checks.HEADER, analyze_rows(-5.0), arrays,
                                diagnostics, ANALYZE, 10000) == []


def test_analyze_rejects_lowered_noise_floor():
    arrays, diagnostics = moments()
    arrays["interference_corr"] = arrays["interference_corr"] - 0.5 * 10 ** -1.5 * np.eye(6)
    problems = checks.check_analyze(checks.HEADER, analyze_rows(-5.0), arrays,
                                    diagnostics, ANALYZE, 10000)
    assert any("noise variance" in p for p in problems)


def test_analyze_rejects_sinr_above_fixed_filter_limit():
    arrays, diagnostics = moments()
    problems = checks.check_analyze(checks.HEADER, analyze_rows(40.0), arrays,
                                    diagnostics, ANALYZE, 10000)
    assert any("fixed-filter limit" in p for p in problems)


def test_analyze_rejects_signal_power_and_ensemble_mismatch():
    arrays, diagnostics = moments()
    arrays["signal_corr"] = 1.2 * arrays["signal_corr"]
    problems = checks.check_analyze(checks.HEADER, analyze_rows(-5.0), arrays,
                                    {"ensemble_size": 1000}, ANALYZE, 10000)
    assert any("tr(signal_corr)" in p for p in problems)
    assert any("ensemble" in p for p in problems)


def test_identical_outputs(tmp_path):
    paths = []
    for n, text in enumerate(("a,b\n", "a,b\n", "a,c\n")):
        paths.append(tmp_path / f"{n}.csv")
        paths[-1].write_text(text)
    assert checks.check_identical(paths[:2]) == []
    assert checks.check_identical(paths) == ["2.csv differs from 0.csv"]


def test_read_rows_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=checks.HEADER)
        writer.writeheader()
        writer.writerows(sweep_rows())
    header, rows = checks.read_rows(path)
    assert header == checks.HEADER and rows == sweep_rows()


def test_tracer_counts_calls_through_imported_names():
    from fadetrack import harness, receivers

    corr = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
    cross = np.array([1.0, 0.0], dtype=complex)
    with Tracer() as tracer:
        # harness binds isi_tail with "from .dscdma import"; a 2-dim system
        # converges in two CG iterations, before j_max = 5.
        harness.isi_tail(np.ones(18, dtype=complex), 16)
        receivers.cg_solve(corr, cross, np.zeros(2), 5)
    metrics = tracer.metrics()
    assert metrics["dscdma.isi.calls"] == 1
    assert metrics["receivers.cg_solve.calls"] == 1
    assert metrics["receivers.cg_solve.iterations"] == 2
    assert metrics["receivers.cg_solve.early_exits"] == 1
    assert harness.isi_tail.__name__ == "isi_tail"   # restored on exit


def test_tracer_reports_removed_function_with_zero_calls(monkeypatch, tmp_path):
    from fadetrack import harness, receivers

    monkeypatch.delattr(receivers, "update_mixing")
    monkeypatch.delattr(harness, "update_mixing")
    with Tracer() as tracer:
        pass
    metrics = tracer.metrics()
    assert metrics["receivers.update_mixing.calls"] == 0
    assert metrics["receivers.update_mixing.s"] == 0.0
    tracer.write(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as data:
        assert data["spans"].size == 0


def test_overhead_estimate_charges_each_span():
    from fadetrack import harness

    with Tracer() as tracer:
        pass
    assert tracer.overhead_s(batches=3, calls=2000) == 0.0
    with Tracer() as tracer:
        for _ in range(100):
            harness.isi_tail(np.ones(18, dtype=complex), 16)
    overhead = tracer.overhead_s(batches=3, calls=2000)
    assert 0.0 <= overhead < tracer.metrics()["dscdma.isi.s"]
