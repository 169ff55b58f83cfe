"""Reproducible Monte Carlo experiments over the DS-CDMA model.

Wires the channel model, the adaptive receivers and the SINR analysis
into three experiments emitting CSV records: per-symbol BER learning
curves, normalized SINR versus fading rate, and analytical-versus-
simulated SINR convergence.  Packets are independent work items seeded
from ``(master seed, packet index)``, so results are byte-reproducible
regardless of packet count or thread count.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis
from .dscdma import (
    ChannelScenario,
    code_convolution_operator,
    conditional_covariance,
    isi_tail,  # noqa: F401  (unused; perfbench/test_perfbench.py traces harness.isi_tail)
    random_code,
    received_block,
)
from .fading import (
    FadingConfig,
    clarke_autocorrelation,
    empirical_autocorrelation,
    generate_fading,
)
from .receivers import (
    History,
    MixingState,
    bidir_cg_step,
    bidir_nlms_step,
    compute_pair_errors,
    conventional_nlms_step,
    conventional_rls_step,
    make_cg_state,
    make_filter_state,
    make_rls_state,
    matched_filter_init,
    update_mixing,
)

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "MetricsRecord",
    "CONFIG_KEYS",
    "load_config_file",
    "make_experiment_config",
    "run_ber_curve",
    "run_sinr_vs_fading",
    "run_analysis_comparison",
    "run_channel_stats",
    "emit_csv",
    "emit_channel_stats",
]


@dataclass(frozen=True)
class _Receiver:
    update: str                                    # "mmse" (oracle), "nlms", "rls" or "cg"
    pair_weights: tuple[float, ...] | None = None  # initial mixing weights
    adapt: bool = False                            # mixing follows the pair errors


_THIRDS = (1.0 / 3.0,) * 3

# Coherent baselines (no pair weights) use BPSK with coherent detection;
# the pair-error trackers modulate and detect differentially.  One pair
# weight selects the two-sample window.
_RECEIVERS = {
    "mmse": _Receiver("mmse"),
    "nlms": _Receiver("nlms"),
    "rls": _Receiver("rls"),
    "diff-nlms": _Receiver("nlms", (1.0,)),
    "diff-cg": _Receiver("cg", (1.0, 0.0, 0.0)),
    "bidir-nlms": _Receiver("nlms", _THIRDS, adapt=True),
    "bidir-nlms-equal": _Receiver("nlms", _THIRDS),
    "bidir-cg": _Receiver("cg", _THIRDS, adapt=True),
    "bidir-cg-equal": _Receiver("cg", _THIRDS),
}
ALGORITHMS = tuple(_RECEIVERS)

_SINR_FLOOR = 1e-12  # linear floor applied before dB conversion

_MMSE_BLOCK = 128  # symbols per batched oracle solve; bounds the (block, M, M) stack


@dataclass(frozen=True)
class ExperimentConfig:
    """Desk-scale experiment description; see README for every key."""

    users: int = 5
    gain: int = 16
    paths: int = 3
    snr_db: tuple[float, ...] = (15.0,)
    fading_grid: tuple[float, ...] = (0.001, 0.005, 0.01, 0.02)
    packet_len: int = 1000
    train_len: int = 200
    packets: int = 100
    algorithms: tuple[str, ...] = ("mmse", "rls", "diff-cg", "bidir-cg")
    mu: float = 0.2
    lambda_e: float = 0.9
    lambda_m: float = 0.9
    lambda_cg: float = 0.99
    jmax: int = 5
    lambda_rls: float = 0.95
    delta: float = 0.01
    cg_loading: float = 0.0
    isi: bool = True
    seed: int = 20240801
    paper_literal_t1: bool = False

    def __post_init__(self) -> None:
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}")
        # Each check is a plain or chained comparison, which NaN fails.
        checks = (
            (self.packet_len >= 3, "packet_len must be at least 3"),
            (0 <= self.train_len <= self.packet_len, "train_len must lie in [0, packet_len]"),
            (self.packets >= 1, "packets must be at least 1"),
            (all(map(len, (self.snr_db, self.fading_grid, self.algorithms))),
             "snr_db, fading_grid and algorithms must be nonempty"),
            (self.mu >= 0, "mu must be nonnegative"),
            (0 <= self.lambda_e <= 1, "lambda_e must lie in [0, 1]"),
            (0 <= self.lambda_m <= 1, "lambda_m must lie in [0, 1]"),
            (0 <= self.lambda_cg <= 1, "lambda_cg must lie in [0, 1]"),
            (0 < self.lambda_rls <= 1, "lambda_rls must lie in (0, 1]"),
            (self.jmax >= 0, "jmax must be nonnegative"),
            (self.delta >= 0, "delta must be nonnegative"),
            (self.delta > 0 or "rls" not in self.algorithms,
             "delta must be positive when rls is selected"),
            (self.cg_loading >= 0, "cg_loading must be nonnegative"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)


@dataclass(frozen=True)
class MetricsRecord:
    """One CSV row of experiment output."""

    experiment: str
    algorithm: str
    sweep: float
    symbol: int
    ber: float | None
    sinr_db: float | None
    ci: float | None
    seed: int


# ----------------------------------------------------------------------
# Configuration file handling: flat "key = value" text format.
# ----------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(tok for tok in text.replace(",", " ").split())


CONFIG_KEYS = {
    "users": int,
    "gain": int,
    "paths": int,
    "snr_db": _parse_floats,
    "fading_grid": _parse_floats,
    "packet_len": int,
    "train_len": int,
    "packets": int,
    "algorithms": _parse_names,
    "mu": float,
    "lambda_e": float,
    "lambda_m": float,
    "lambda_cg": float,
    "jmax": int,
    "lambda_rls": float,
    "delta": float,
    "cg_loading": float,
    "isi": _parse_bool,
    "seed": int,
    "paper_literal_t1": _parse_bool,
}


def load_config_file(path) -> dict[str, str]:
    """Read a flat key-value config file; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = text
    return values


def make_experiment_config(file_values: dict[str, str] | None = None,
                           **overrides) -> ExperimentConfig:
    """Build a config from file values and typed overrides (which win)."""
    merged: dict = {}
    if file_values:
        for key, text in file_values.items():
            merged[key] = CONFIG_KEYS[key](text)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        merged[key] = value
    return ExperimentConfig(**merged)


# ----------------------------------------------------------------------
# Packet environment: everything one packet's algorithms share.
# ----------------------------------------------------------------------

@dataclass
class _PacketEnv:
    scenario: ChannelScenario
    code_chips: np.ndarray            # desired user's code
    signatures: list[np.ndarray]      # per user, (M, T), amplitude folded in
    gains_desired: np.ndarray         # (L, T)
    data: np.ndarray                  # desired user's data symbols, (T,)
    refs: dict[str, np.ndarray]       # mode -> desired user's transmitted symbols
    received: dict[str, np.ndarray]   # mode -> (M, T)


def _mode_of(name: str) -> str:
    return "coherent" if _RECEIVERS[name].pair_weights is None else "differential"


def _build_packet_env(cfg: ExperimentConfig, fading_rate: float, snr_db: float,
                      packet_index: int, modes, fixed_codes=None) -> _PacketEnv:
    scenario = ChannelScenario(
        users=cfg.users, gain=cfg.gain, paths=cfg.paths,
        snr_db=snr_db, fading_rate=fading_rate, include_isi=cfg.isi,
    )
    length = cfg.packet_len
    root = np.random.SeedSequence([cfg.seed, packet_index])
    code_ss, fade_ss, data_ss, noise_ss = root.spawn(4)

    if fixed_codes is None:
        code_rng = np.random.default_rng(code_ss)
        codes = [random_code(cfg.gain, code_rng) for _ in range(cfg.users)]
    else:
        codes = list(fixed_codes)

    signatures = []
    gains_desired = None
    for k, child in enumerate(fade_ss.spawn(cfg.users)):
        if fading_rate == 0.0:
            # Zero fading rate means a pure AWGN-style experiment: every
            # path carries its mean-square gain deterministically, so the
            # configured SNR is the realized one.
            profile = np.full(cfg.paths, 1.0 / cfg.paths)
            gains = np.repeat(np.sqrt(profile)[:, None], length, axis=1).astype(complex)
        else:
            fade_seed = int(child.generate_state(1, np.uint64)[0])
            config = FadingConfig(
                normalized_doppler=fading_rate, num_paths=cfg.paths,
                num_oscillators=scenario.num_oscillators, seed=fade_seed,
            )
            gains = generate_fading(config, length).gains
        if k == 0:
            gains_desired = gains
        operator = scenario.user_amplitude(k) * code_convolution_operator(codes[k], cfg.paths)
        signatures.append(operator @ gains)

    data_rng = np.random.default_rng(data_ss)
    data = 2.0 * data_rng.integers(0, 2, size=(cfg.users, length)) - 1.0

    noise_rng = np.random.default_rng(noise_ss)
    sigma2 = scenario.noise_variance
    noise = np.sqrt(sigma2 / 2.0) * (
        noise_rng.standard_normal((scenario.window, length))
        + 1j * noise_rng.standard_normal((scenario.window, length)))

    refs: dict[str, np.ndarray] = {}
    received: dict[str, np.ndarray] = {}
    for mode in sorted(set(modes)):
        if mode == "coherent":
            symbols = data
        else:
            # Differential encoding over the packet: symbol 0 carries the
            # reference, data[i] rides the transition into symbol i.
            symbols = np.empty_like(data)
            symbols[:, 0] = 1.0
            symbols[:, 1:] = np.cumprod(data[:, 1:], axis=1)
        refs[mode] = symbols[0]
        received[mode] = received_block(
            signatures, list(symbols), cfg.gain, noise=noise, include_isi=cfg.isi)
    return _PacketEnv(
        scenario=scenario, code_chips=codes[0].chips, signatures=signatures,
        gains_desired=gains_desired, data=data[0], refs=refs, received=received,
    )


def _normalized_sinr_db(w: np.ndarray, env: _PacketEnv, i: int) -> float:
    """Instantaneous output SINR divided by the realized input SNR, in dB."""
    s = env.signatures[0][:, i]
    num = float(np.abs(np.vdot(w, s)) ** 2)
    scenario = env.scenario
    cov = conditional_covariance(env.signatures, scenario.gain, scenario.noise_variance,
                                 [i], include_isi=scenario.include_isi)[0]
    den = float(np.real(np.vdot(w, cov @ w))) - num
    snr_inst = (scenario.amplitude**2
                * float(np.sum(np.abs(env.gains_desired[:, i]) ** 2))
                / scenario.noise_variance)
    ratio = max(num / den / snr_inst, _SINR_FLOOR)
    return 10.0 * np.log10(ratio)


# ----------------------------------------------------------------------
# Per-packet algorithm drivers.
# ----------------------------------------------------------------------

@dataclass
class _AlgorithmRun:
    errors: np.ndarray                    # per-symbol data errors; NaN where undefined
    snapshots: dict[int, float]           # symbol index -> normalized SINR (dB)
    weights: np.ndarray | None            # (M, T) trajectory when requested


def _initial_power(r_all: np.ndarray) -> float:
    power = float(np.real(np.vdot(r_all[:, 0], r_all[:, 0])))
    return power if power > 0 else 1.0


def _unit_power_gain(z: complex, forget: float) -> float:
    """Rescale enforcing the unit output-power constraint E|w^H r|^2 = 1.

    The pair-error cost is minimized by the zero correlator.  The power
    estimate is one forgetting step from unit power towards this symbol's
    output, with no running average across symbols.  The positive real
    factor leaves the SINR and the relative pair errors untouched while
    blocking the slow collapse (and its direction-noise accumulation)
    observed without it.
    """
    power = forget * 1.0 + (1.0 - forget) * abs(z) ** 2
    return float(1.0 / np.sqrt(max(power, 1e-12)))


def _run_algorithm(name: str, cfg: ExperimentConfig, env: _PacketEnv,
                   snapshots=(), record_weights: bool = False) -> _AlgorithmRun:
    spec = _RECEIVERS[name]
    snap_set = set(snapshots)
    if spec.update == "mmse":
        return _run_mmse(cfg, env, snap_set, record_weights)
    mode = _mode_of(name)
    r_all = env.received[mode]
    b_true = env.refs[mode]
    length = cfg.packet_len
    window = env.scenario.window
    snaps: dict[int, float] = {}
    errors = np.full(length, np.nan)
    trajectory = np.empty((window, length), dtype=np.complex128) if record_weights else None

    w_init = matched_filter_init(env.code_chips, window)
    if spec.update == "rls":
        state = make_rls_state(w_init, delta=cfg.delta, forget=cfg.lambda_rls)
    elif spec.update == "cg":
        state = make_cg_state(w_init, forget=cfg.lambda_cg, max_iters=cfg.jmax,
                              delta=cfg.delta, paper_literal_t1=cfg.paper_literal_t1,
                              loading=cfg.cg_loading)
    else:
        state = make_filter_state(w_init, cfg.mu, cfg.lambda_m, _initial_power(r_all))
    differential = mode == "differential"
    if differential:
        mix = MixingState(weights=np.array(spec.pair_weights), forget=cfg.lambda_e)
        hist = History(depth=2 if len(spec.pair_weights) == 1 else 3)

    z_prev = 0.0 + 0.0j
    ref_prev = 1.0
    for i in range(length):
        r_i = r_all[:, i]
        z = complex(np.vdot(state.weights, r_i))

        if differential and i == 0:
            # Symbol 0 carries the protocol-known reference, no data.
            ref = b_true[0]
        else:
            statistic = z * np.conj(z_prev) if differential else z
            decided = 1.0 if statistic.real >= 0 else -1.0
            errors[i] = 0.0 if decided == env.data[i] else 1.0
            tracked = decided * ref_prev if differential else decided
            ref = b_true[i] if i < cfg.train_len else tracked

        if spec.update == "rls":
            state = conventional_rls_step(state, r_i, ref)
        elif not differential:
            state = conventional_nlms_step(state, r_i, ref)
        else:
            hist.push(r_i, ref)
            if hist.full:
                errs = None
                if spec.adapt:
                    errs = compute_pair_errors(state.weights, hist, hist.depth)
                    mix = update_mixing(mix, errs)
                if spec.update == "cg":
                    state = bidir_cg_step(state, mix, hist)
                else:
                    state = bidir_nlms_step(state, mix, hist, errs)
            gamma = _unit_power_gain(z, cfg.lambda_m)
            rescaled = {"weights": gamma * state.weights}
            if spec.update == "cg":
                # The cross vectors are linear in the filter, so they rescale too.
                rescaled["crosscorr"] = tuple(gamma * t for t in state.crosscorr)
            state = replace(state, **rescaled)

        if record_weights:
            trajectory[:, i] = state.weights
        if i in snap_set:
            snaps[i] = _normalized_sinr_db(state.weights, env, i)
        z_prev = z
        ref_prev = ref
    return _AlgorithmRun(errors=errors, snapshots=snaps, weights=trajectory)


def _run_mmse(cfg: ExperimentConfig, env: _PacketEnv, snap_set,
              record_weights: bool) -> _AlgorithmRun:
    """Per-symbol MMSE oracle, solved in blocks, with coherent detection."""
    scenario = env.scenario
    length = cfg.packet_len
    filters = np.empty((length, scenario.window), dtype=np.complex128)  # row i: symbol i
    for cols in np.split(np.arange(length), np.arange(_MMSE_BLOCK, length, _MMSE_BLOCK)):
        cov = conditional_covariance(env.signatures, scenario.gain, scenario.noise_variance,
                                     cols, include_isi=scenario.include_isi)
        filters[cols] = np.linalg.solve(cov, env.signatures[0][:, cols].T[..., None])[..., 0]
    z = np.einsum("im,mi->i", np.conj(filters), env.received["coherent"])
    errors = (np.where(z.real >= 0, 1.0, -1.0) != env.data).astype(float)
    snaps = {i: _normalized_sinr_db(filters[i], env, i) for i in snap_set}
    return _AlgorithmRun(errors=errors, snapshots=snaps,
                         weights=filters.T if record_weights else None)


def _sole_point(cfg: ExperimentConfig, key: str) -> float:
    """The one point of a grid the experiment does not sweep; extra points raise."""
    values = getattr(cfg, key)
    if len(values) != 1:
        raise ValueError(f"{key} must hold one point here, got {values}")
    return values[0]


def _map_packets(worker, packets: int, threads: int) -> list:
    """Run per-packet workers, reducing in packet order regardless of scheduling."""
    if threads <= 1:
        return [worker(p) for p in range(packets)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(packets)))


# ----------------------------------------------------------------------
# Experiments.
# ----------------------------------------------------------------------

def run_ber_curve(cfg: ExperimentConfig, threads: int = 1) -> list[MetricsRecord]:
    """Per-symbol BER learning curves averaged over packets.

    One record per (SNR grid point, algorithm, symbol index); in
    differential mode symbol 0 carries no data and is skipped.  The
    fading grid must hold one rate.
    """
    fading_rate = _sole_point(cfg, "fading_grid")
    records: list[MetricsRecord] = []
    modes = {_mode_of(name) for name in cfg.algorithms}
    for snr_db in cfg.snr_db:

        def worker(packet: int) -> dict[str, np.ndarray]:
            env = _build_packet_env(cfg, fading_rate, snr_db, packet, modes)
            return {name: _run_algorithm(name, cfg, env).errors for name in cfg.algorithms}

        results = _map_packets(worker, cfg.packets, threads)
        for name in cfg.algorithms:
            stacked = np.vstack([res[name] for res in results])
            counts = np.sum(~np.isnan(stacked), axis=0)
            means = np.nansum(stacked, axis=0) / np.maximum(counts, 1)
            for i in range(cfg.packet_len):
                if counts[i] == 0:
                    continue
                p = float(means[i])
                half = 1.96 * np.sqrt(max(p * (1.0 - p), 0.0) / counts[i])
                records.append(MetricsRecord(
                    experiment="ber", algorithm=name, sweep=float(snr_db),
                    symbol=i, ber=p, sinr_db=None, ci=float(half), seed=cfg.seed))
    return records


def run_sinr_vs_fading(cfg: ExperimentConfig, threads: int = 1) -> list[MetricsRecord]:
    """Mean normalized SINR at end of training and end of packet.

    For every fading rate and algorithm, two records are emitted: the
    filter right after the last training symbol and the final filter,
    each scored against the instantaneous channel at that symbol and
    normalized by the realized input SNR.  The record's ``ber`` field
    carries the post-training BER.  The SNR grid must hold one point.
    """
    snr_db = _sole_point(cfg, "snr_db")
    if min(cfg.fading_grid) > 0.001 or max(cfg.fading_grid) < 0.02:
        raise ValueError("fading grid must span at least [0.001, 0.02]")
    if cfg.train_len < 1:
        raise ValueError("sinr-vs-fading needs a training prefix")
    records: list[MetricsRecord] = []
    modes = {_mode_of(name) for name in cfg.algorithms}
    marks = (cfg.train_len - 1, cfg.packet_len - 1)
    for rate in cfg.fading_grid:

        def worker(packet: int) -> dict[str, tuple[dict[int, float], float]]:
            env = _build_packet_env(cfg, rate, snr_db, packet, modes)
            out = {}
            for name in cfg.algorithms:
                run = _run_algorithm(name, cfg, env, snapshots=marks)
                post = run.errors[cfg.train_len:]
                post_ber = float(np.nanmean(post)) if post.size else float("nan")
                out[name] = (run.snapshots, post_ber)
            return out

        results = _map_packets(worker, cfg.packets, threads)
        for name in cfg.algorithms:
            bers = np.array([res[name][1] for res in results])
            for mark in marks:
                values = np.array([res[name][0][mark] for res in results])
                half = 1.96 * float(np.std(values)) / np.sqrt(cfg.packets)
                records.append(MetricsRecord(
                    experiment="sinr-vs-fading", algorithm=name, sweep=float(rate),
                    symbol=mark, ber=float(np.nanmean(bers)),
                    sinr_db=float(np.mean(values)), ci=half, seed=cfg.seed))
    return records


def run_analysis_comparison(cfg: ExperimentConfig, ensemble_size: int = 10000,
                            cache_dir=None, g_init: str = "identity",
                            threads: int = 1) -> list[MetricsRecord]:
    """Analytical SINR recursions against simulated learning curves.

    Takes one point of each grid (extra points raise) and ignores
    ``cfg.algorithms``: it always simulates ``bidir-nlms-equal`` and
    ``diff-nlms``.  Emits, per symbol: the recursion curve and the
    packet-averaged simulated curve for these three-sample and two-sample
    trackers (equal pair weights, trained for the whole packet), plus the
    flat ``mmse-bound`` row.  That row is the ratio of the instantaneous
    MMSE filter's mean signal and interference powers
    (:func:`analysis.mmse_bound_db`), not an upper bound on the simulated
    curves.  The SINR of simulated filters is scored against the ensemble
    moment matrices, so both curves live on the same scale.
    """
    rate = _sole_point(cfg, "fading_grid")
    snr_db = _sole_point(cfg, "snr_db")
    if ensemble_size < 10000:
        raise ValueError("analysis comparison needs an ensemble of at least 10^4")
    # Codes are part of the analyzed configuration: the ensemble moments
    # and every simulated packet share the same fixed code set, otherwise
    # the code structure would average out of the moment matrices.
    scenario = ChannelScenario(
        users=cfg.users, gain=cfg.gain, paths=cfg.paths,
        snr_db=snr_db, fading_rate=rate, include_isi=cfg.isi,
        code_seed=cfg.seed,
    )
    fixed_codes = scenario.codes()
    moments = analysis.load_or_estimate(scenario, ensemble_size, seed=cfg.seed,
                                        cache_dir=cache_dir)
    length = cfg.packet_len
    records: list[MetricsRecord] = []

    # Effective scalar step of the normalized update: mu over the mean
    # input energy tracked by the normalization factor.  Equal mixing
    # spreads it as mu/3 per pair in the three-sample tracker.
    mean_energy = float(np.real(np.trace(moments.autocorr_terms[0])))
    mu_eff = cfg.mu / mean_energy
    pairs = {"bidirectional": ("bidir-nlms-equal", mu_eff / 3.0),
             "differential": ("diff-nlms", mu_eff)}

    mmse_ratio = analysis.mmse_bound_db(moments)
    for i in range(length):
        records.append(MetricsRecord(
            experiment="analyze", algorithm="mmse-bound", sweep=float(rate),
            symbol=i, ber=None, sinr_db=mmse_ratio, ci=None, seed=cfg.seed))

    train_cfg = replace(cfg, train_len=cfg.packet_len)
    for variant, (alg_name, mu_variant) in pairs.items():
        state = analysis.make_analysis_state(moments.dim, mu_variant, g_init)
        propagation = analysis.propagation_matrix(moments, mu_variant, variant)
        for i in range(length):
            state = analysis.k_step(state, moments, variant, propagation)
            state = analysis.g_step(state, moments, variant, propagation)
            records.append(MetricsRecord(
                experiment="analyze", algorithm=f"{alg_name}-analytical",
                sweep=float(rate), symbol=i, ber=None,
                sinr_db=analysis.analytical_sinr(state, moments), ci=None,
                seed=cfg.seed))

        def worker(packet: int) -> np.ndarray:
            env = _build_packet_env(train_cfg, rate, snr_db, packet,
                                    {"differential"}, fixed_codes=fixed_codes)
            run = _run_algorithm(alg_name, train_cfg, env, record_weights=True)
            weights = run.weights
            sig_power = np.real(np.einsum(
                "mi,mi->i", np.conj(weights), moments.signal_corr @ weights))
            int_power = np.real(np.einsum(
                "mi,mi->i", np.conj(weights), moments.interference_corr @ weights))
            return sig_power / int_power

        curves = np.vstack(_map_packets(worker, cfg.packets, threads))
        mean_linear = np.mean(curves, axis=0)
        per_packet_db = 10.0 * np.log10(np.maximum(curves, _SINR_FLOOR))
        ci = 1.96 * np.std(per_packet_db, axis=0) / np.sqrt(cfg.packets)
        for i in range(length):
            records.append(MetricsRecord(
                experiment="analyze", algorithm=alg_name, sweep=float(rate),
                symbol=i, ber=None,
                sinr_db=float(10.0 * np.log10(max(mean_linear[i], _SINR_FLOOR))),
                ci=float(ci[i]), seed=cfg.seed))
    return records


def run_channel_stats(cfg: ExperimentConfig, samples: int = 200000,
                      lags=(1, 2, 5)) -> list[tuple]:
    """Empirical versus theoretical fading autocorrelation rows."""
    rows = []
    for rate in cfg.fading_grid:
        config = FadingConfig(normalized_doppler=rate, num_paths=1, seed=cfg.seed)
        seq = generate_fading(config, samples)
        for lag in lags:
            emp = empirical_autocorrelation(seq.gains[0], lag)
            rows.append((float(rate), int(lag), emp.real, emp.imag,
                         clarke_autocorrelation(rate, lag)))
    return rows


# ----------------------------------------------------------------------
# CSV output.
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # repr is the shortest exact representation, so records survive a
    # parse round trip bit-for-bit and output stays deterministic.
    return repr(float(value))


def emit_csv(records, path) -> None:
    """Write records as UTF-8 CSV, ordered by (algorithm, sweep, symbol)."""
    ordered = sorted(records, key=lambda r: (r.experiment, r.algorithm, r.sweep, r.symbol))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["experiment", "algorithm", "sweep", "symbol",
                         "ber", "sinr_db", "ci", "seed"])
        for rec in ordered:
            writer.writerow([
                rec.experiment, rec.algorithm, _fmt(rec.sweep), _fmt(rec.symbol),
                _fmt(rec.ber), _fmt(rec.sinr_db), _fmt(rec.ci), _fmt(rec.seed)])


def emit_channel_stats(rows, path) -> None:
    """Write channel-stats rows with their own header."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["fading_rate", "lag", "empirical_re", "empirical_im",
                         "theoretical"])
        for row in sorted(rows):
            writer.writerow([_fmt(v) for v in row])
