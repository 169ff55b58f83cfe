"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The Monte Carlo criteria (6 and 7) dominate the runtime.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fadetrack.analysis import (
    g_step,
    k_step,
    make_analysis_state,
)
from fadetrack.fading import (
    FadingConfig,
    clarke_autocorrelation,
    empirical_autocorrelation,
    generate_fading,
)
from fadetrack.harness import (
    ExperimentConfig,
    run_analysis_comparison,
    run_ber_curve,
    run_sinr_vs_fading,
)
from fadetrack.receivers import (
    MixingState,
    PairErrors,
    cg_solve,
    cg_step_lanes,
    make_mixing_state,
    pair_errors_lanes,
    pair_indices,
    pair_nlms_lanes,
    update_mixing,
)

from test_analysis import scalar_moments
from test_receivers import filter_outputs, pair_nlms_step


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_cg_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(1001)
    dim = 8
    worst = 0.0
    for _ in range(100):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(z)
        eigs = rng.uniform(0.1, 10.0, size=dim)
        corr = (q * eigs) @ q.conj().T
        target = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        direct = np.linalg.solve(corr, target)
        iterated = cg_solve(corr, target, np.zeros(dim), j_max=dim)
        worst = max(worst, np.linalg.norm(iterated - direct) / np.linalg.norm(direct))
    elapsed = time.time() - start
    report("criterion 1 (CG oracle equivalence)",
           worst <= 1e-8 and elapsed < 5.0,
           f"worst relative error {worst:.2e} over 100 systems in {elapsed:.2f}s")


def test_criterion_2_mixing_simplex():
    start = time.time()
    rng = np.random.default_rng(1002)
    state = make_mixing_state(3, forget=0.9)
    pairs = pair_indices(3)
    worst_sum = 0.0
    in_range = True
    for _ in range(100_000):
        magnitudes = rng.uniform(0.0, 5.0, size=3)
        errs = PairErrors(errors=magnitudes.astype(complex),
                          total=float(magnitudes.sum()), pairs=pairs)
        state = MixingState(state.weights, forget=float(rng.uniform()))
        state = update_mixing(state, errs)
        worst_sum = max(worst_sum, abs(float(state.weights.sum()) - 1.0))
        if np.any(state.weights < 0.0) or np.any(state.weights > 1.0):
            in_range = False
    elapsed = time.time() - start
    report("criterion 2 (mixing simplex)",
           worst_sum <= 1e-12 and in_range and elapsed < 5.0,
           f"worst |sum-1| = {worst_sum:.2e}, all weights in [0,1], {elapsed:.2f}s")


def test_criterion_3_fading_fidelity():
    start = time.time()
    worst = 0.0
    for rate in (0.005, 0.01, 0.05):
        seq = generate_fading(FadingConfig(normalized_doppler=rate, seed=7), 1_000_000)
        for lag in (1, 2):
            emp = empirical_autocorrelation(seq.gains[0], lag).real
            worst = max(worst, abs(emp - clarke_autocorrelation(rate, lag)))
    seq = generate_fading(FadingConfig(normalized_doppler=0.01, seed=7), 1_000_000)
    f1 = empirical_autocorrelation(seq.gains[0], 1).real
    f2 = empirical_autocorrelation(seq.gains[0], 2).real
    elapsed = time.time() - start
    report("criterion 3 (fading fidelity)",
           worst <= 0.01 and abs(f1 - f2) < 0.005 and elapsed < 30.0,
           f"worst autocorr error {worst:.4f}, |f1-f2| = {abs(f1 - f2):.4f}, {elapsed:.1f}s")


def test_criterion_4_static_channel_fixed_point():
    start = time.time()
    rng = np.random.default_rng(1004)
    dim = 8
    signature = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    symbols = 2.0 * rng.integers(0, 2, size=1000) - 1.0

    received = np.stack([b * signature for b in symbols], axis=-1)

    # Pair errors vanish identically for arbitrary filters.
    max_err = 0.0
    for _ in range(100):
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        errors, _ = pair_errors_lanes(filter_outputs(w[None], received[None, :, :3]),
                                      symbols[None, :3])
        max_err = max(max_err, float(np.max(np.abs(errors))))

    # Both trackers hold their initial filter over 1000 symbols.  The CG
    # statistics start unregularized so the accumulated system satisfies
    # the normal equations at the initial filter exactly.
    w0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    rho = make_mixing_state(3).weights[None]
    w_nlms, power, w_cg = w0[None], np.ones(1), w0[None]
    autocorr = np.zeros((2, 1, dim, dim), dtype=complex)
    outer = np.outer(received[:, 1], received[:, 1].conj())[None]
    crosscorr = np.zeros((1, 3, dim), dtype=complex)
    for i in range(2, symbols.size):
        window, window_symbols = received[None, :, i - 2:i + 1], symbols[None, i - 2:i + 1]
        errors, _ = pair_errors_lanes(filter_outputs(w_nlms, window), window_symbols)
        w_nlms, power = pair_nlms_lanes(w_nlms, power, 0.5, 0.9, rho, errors, window,
                                        window_symbols)
        w_cg = cg_step_lanes(autocorr, outer, crosscorr, w_cg, 0.998, 5, 0.0, rho, window,
                             window_symbols, filter_outputs(w_cg, window))
    nlms_drift = float(np.max(np.abs(w_nlms[0] - w0)))
    cg_drift = float(np.max(np.abs(w_cg[0] - w0)))
    elapsed = time.time() - start
    report("criterion 4 (static-channel fixed point)",
           max_err <= 1e-14 and nlms_drift <= 1e-12 and cg_drift <= 1e-12
           and elapsed < 5.0,
           f"max pair error {max_err:.2e}, drift nlms {nlms_drift:.2e} / "
           f"cg {cg_drift:.2e}, {elapsed:.2f}s")


def test_criterion_5_degeneracy_equivalences():
    start = time.time()
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(10_000):
        dim = 4
        vectors = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                   for _ in range(3)]
        symbols = list(2.0 * rng.integers(0, 2, size=3) - 1.0)
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        step_size, norm_forget = float(rng.uniform(0.01, 1.0)), float(rng.uniform())
        state = (w, float(rng.uniform(0.5, 2.0)), step_size, norm_forget)
        # First pair only against the two-sample window of the newest samples.
        bidir, _ = pair_nlms_step(*state, [1.0, 0.0, 0.0], vectors, symbols)
        diff, _ = pair_nlms_step(*state, [1.0], vectors, symbols)
        worst = max(worst, float(np.max(np.abs(bidir - diff))))

    # Analysis recursions collapse when the extra moments vanish.
    m = scalar_moments(r1=0.5, f1=0.3, j1=0.2, r2=0.0, f2=0.0, r3=0.0, f3=0.0)
    collapse = 0.0
    for step in (k_step, g_step):
        a = step(make_analysis_state(1, 0.2), m, (1.0, 1.0, 1.0))
        b = step(make_analysis_state(1, 0.2), m, (1.0,))
        collapse = max(collapse,
                       float(np.max(np.abs(a.weight_err_corr - b.weight_err_corr))),
                       float(np.max(np.abs(a.cross_corr - b.cross_corr))))
    elapsed = time.time() - start
    report("criterion 5 (degeneracy equivalences)",
           worst <= 1e-12 and collapse <= 1e-12 and elapsed < 10.0,
           f"worst step difference {worst:.2e}, analysis collapse {collapse:.2e}, "
           f"{elapsed:.1f}s")


DESK_SWEEP = ExperimentConfig(
    users=5, gain=16, paths=3, snr_db=(15.0,),
    fading_grid=(0.001, 0.005, 0.01, 0.02),
    packet_len=1000, train_len=200, packets=100,
    algorithms=("rls", "diff-cg", "bidir-cg", "bidir-cg-equal"),
    lambda_cg=0.97, jmax=1, lambda_rls=0.95, isi=False, seed=20240801,
)


@pytest.fixture(scope="module")
def fading_sweep_records():
    start = time.time()
    records = run_sinr_vs_fading(DESK_SWEEP)
    return records, time.time() - start


def _sweep_value(records, algorithm, rate, symbol):
    return next(r.sinr_db for r in records
                if r.algorithm == algorithm and r.sweep == rate and r.symbol == symbol)


def test_criterion_6_fading_sweep_trends(fading_sweep_records):
    records, sweep_elapsed = fading_sweep_records
    start = time.time() - sweep_elapsed
    end = DESK_SWEEP.packet_len - 1
    train = DESK_SWEEP.train_len - 1
    gap_bd = (_sweep_value(records, "bidir-cg", 0.01, end)
              - _sweep_value(records, "diff-cg", 0.01, end))
    rls_drop = (_sweep_value(records, "rls", 0.01, train)
                - _sweep_value(records, "rls", 0.01, end))

    # (c) compares the adaptive-mixing tracker against its equal-weight
    # twin on per-packet paired channels; the stochastic-gradient variant
    # is the one whose update actually scales with the weights (the CG
    # solve is invariant to a common weight scale).
    from fadetrack.harness import _simulate
    mark = DESK_SWEEP.packet_len - 1
    gaps = []
    for _, runs in _simulate(DESK_SWEEP, [(0.02, 15.0)], ("bidir-nlms", "bidir-nlms-equal"),
                             marks=(mark,)):
        gaps.extend(runs["bidir-nlms"].sinr[:, 0] - runs["bidir-nlms-equal"].sinr[:, 0])
    gap_mix = float(np.mean(gaps))
    elapsed = time.time() - start
    report("criterion 6 (fading-sweep trends)",
           gap_bd >= 1.0 and rls_drop >= 3.0 and gap_mix >= 0.0 and elapsed < 600.0,
           f"(a) bidir-cg - diff-cg at 0.01: {gap_bd:+.2f} dB (need >= 1); "
           f"(b) rls training->end loss at 0.01: {rls_drop:+.2f} dB (need >= 3); "
           f"(c) mixing - equal at 0.02: {gap_mix:+.2f} dB (need >= 0) "
           f"[{elapsed:.1f}s]")


def test_criterion_7_analysis_agreement():
    start = time.time()
    cfg = ExperimentConfig(
        users=5, gain=16, paths=3, snr_db=(15.0,), fading_grid=(0.005,),
        packet_len=600, train_len=600, packets=60,
        algorithms=("bidir-nlms",), mu=0.2, seed=20240801)
    records = run_analysis_comparison(cfg, ensemble_size=10_000)
    curves = {}
    for name in ("bidir-nlms-equal", "bidir-nlms-equal-analytical", "mmse-bound"):
        vals = [r.sinr_db for r in sorted(
            (r for r in records if r.algorithm == name), key=lambda r: r.symbol)]
        curves[name] = float(np.mean(vals[-len(vals) // 5:]))
    analytical = curves["bidir-nlms-equal-analytical"]
    simulated = curves["bidir-nlms-equal"]
    bound = curves["mmse-bound"]
    elapsed = time.time() - start
    report("criterion 7 (analytical vs simulated SINR)",
           abs(analytical - simulated) <= 2.0
           and abs(analytical - bound) <= 2.0
           and abs(simulated - bound) <= 2.0
           and elapsed < 300.0,
           f"steady state: analytical {analytical:.2f} dB, simulated "
           f"{simulated:.2f} dB, MMSE bound {bound:.2f} dB, {elapsed:.1f}s")


def test_criterion_8_awgn_ber_sanity():
    start = time.time()
    snr_db = 4.0
    cfg = ExperimentConfig(users=1, gain=8, paths=1, snr_db=(snr_db,),
                           fading_grid=(0.0,), packet_len=20_000, train_len=0,
                           packets=50, algorithms=("mmse",), isi=False, seed=1008)
    records = run_ber_curve(cfg)
    ber = float(np.mean([r.ber for r in records]))
    expected = 0.5 * math.erfc(math.sqrt(10.0 ** (snr_db / 10.0)))
    rel = abs(ber - expected) / expected
    elapsed = time.time() - start
    report("criterion 8 (AWGN BER sanity)",
           rel <= 0.10 and abs(expected - 0.01250) < 1e-5 and elapsed < 60.0,
           f"BER {ber:.5f} vs tail integral {expected:.5f} "
           f"(rel {rel:.3f}, 10^6 bits, {elapsed:.1f}s)")


def test_criterion_9_csv_determinism(tmp_path):
    start = time.time()
    args = ["--users", "2", "--gain", "8", "--paths", "2", "--snr-db", "12",
            "--fading-grid", "0.005", "--packet-len", "60", "--train-len", "20",
            "--packets", "4", "--algorithms", "mmse,rls,bidir-cg,diff-nlms",
            "--seed", "99"]
    outputs = []
    for name, threads in (("a.csv", 1), ("b.csv", 1), ("c.csv", 4)):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "fadetrack.cli", "ber",
                        *args, "--threads", str(threads), "--out", str(out)],
                       check=True, capture_output=True)
        outputs.append(out.read_bytes())
    stats = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "fadetrack.cli", "channel-stats",
                        "--fading-grid", "0.005,0.02", "--seed", "3",
                        "--samples", "20000", "--out", str(out)],
                       check=True, capture_output=True)
        stats.append(out.read_bytes())
    elapsed = time.time() - start
    report("criterion 9 (CSV determinism)",
           outputs[0] == outputs[1] == outputs[2] and stats[0] == stats[1]
           and elapsed < 60.0,
           f"ber runs byte-identical across reruns and thread counts, "
           f"channel-stats reproducible, {elapsed:.1f}s")
