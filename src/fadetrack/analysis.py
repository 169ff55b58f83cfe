"""Moment matrices and analytical SINR recursions for the NLMS trackers.

The transient SINR of the pair-error stochastic-gradient receivers is
predicted from second-order statistics estimated once per scenario by an
ensemble average: signal and interference-plus-noise correlations, the
per-pair autocorrelation and cross-instant correlation matrices, and the
residual pair errors of the instantaneous MMSE filter.  A pair of matrix
recursions propagates the filter-error covariance ``K[i]`` and the
optimum/error cross-correlation ``G[i]``; tracing them against the
signal and interference correlations yields the SINR curve.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dscdma import (
    ChannelScenario,
    code_convolution_operator,
    conditional_covariance,
    isi_precursor,
    isi_tail,
)
from .fading import FadingConfig, generate_fading
from .receivers import History, compute_pair_errors

__all__ = [
    "MomentMatrices",
    "AnalysisState",
    "estimate_moment_matrices",
    "load_or_estimate",
    "save_moments",
    "load_moments",
    "make_analysis_state",
    "k_step",
    "g_step",
    "analytical_sinr",
    "simulated_sinr",
    "mmse_bound_db",
]

_VARIANTS = ("bidirectional", "differential")

_MIN_ENSEMBLE = 1000

_SPECTRAL_TOL = 1e-9

# Part of the moment-cache key: bump it whenever a change to
# estimate_moment_matrices changes its output, so no stale entry is reused.
_ESTIMATOR_VERSION = 1


@dataclass(frozen=True)
class MomentMatrices:
    """Ensemble moments of one scenario.

    ``autocorr_terms`` and ``cross_terms`` hold the three per-pair
    matrices; ``min_mse`` the mean squared pair errors of the
    instantaneous MMSE filter; ``p_s_opt``/``p_i_opt`` its mean output
    signal and interference-plus-noise powers.  ``diagnostics`` records
    the measured residuals of the independence assumptions used by the
    recursions (they are reported, not assumed away silently).
    """

    signal_corr: np.ndarray
    interference_corr: np.ndarray
    autocorr_terms: np.ndarray
    cross_terms: np.ndarray
    min_mse: np.ndarray
    p_s_opt: float
    p_i_opt: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.signal_corr.shape[0]


@dataclass(frozen=True)
class AnalysisState:
    """Error-covariance recursion state: K, G and the effective step."""

    weight_err_corr: np.ndarray
    cross_corr: np.ndarray
    step_size: float


def make_analysis_state(dim: int, step_size: float, g_init: str = "identity") -> AnalysisState:
    """Initial recursion state; both matrices start at the identity.

    ``g_init="zero"`` starts the cross-correlation at zero instead, for
    comparison with the published initialization.
    """
    eye = np.eye(dim, dtype=np.complex128)
    if g_init == "identity":
        cross = eye.copy()
    elif g_init == "zero":
        cross = np.zeros((dim, dim), dtype=np.complex128)
    else:
        raise ValueError("g_init must be 'identity' or 'zero'")
    return AnalysisState(weight_err_corr=eye.copy(), cross_corr=cross, step_size=step_size)


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


def estimate_moment_matrices(scenario: ChannelScenario, ensemble_size: int,
                             seed: int = 0) -> MomentMatrices:
    """Monte Carlo estimate of every moment the recursions need.

    Spreading codes are the scenario's fixed set; each ensemble member
    draws a five-symbol fading window per user, symbols and noise.
    Matrix moments are accumulated through their conditional
    (channel-given) expectations, which are exact in the symbols and
    noise; the optimum-filter pair errors are sampled.
    """
    if ensemble_size < _MIN_ENSEMBLE:
        raise ValueError(
            f"ensemble_size {ensemble_size} below the statistical floor {_MIN_ENSEMBLE}")
    dim = scenario.window
    gain = scenario.gain
    sigma2 = scenario.noise_variance
    isi = scenario.include_isi and scenario.paths > 1

    signal_corr = np.zeros((dim, dim), dtype=np.complex128)
    interference_corr = np.zeros((dim, dim), dtype=np.complex128)
    autocorr = np.zeros((3, dim, dim), dtype=np.complex128)
    cross = np.zeros((3, dim, dim), dtype=np.complex128)
    min_mse = np.zeros(3)
    opt_outer = np.zeros((dim, dim), dtype=np.complex128)
    lag_cross = 0.0 + 0.0j
    lag_power = 0.0
    symbol_lag = 0.0

    operators = [scenario.user_amplitude(k) * code_convolution_operator(code, scenario.paths)
                 for k, code in enumerate(scenario.codes())]

    root = np.random.SeedSequence([int(seed), ensemble_size])
    children = root.spawn(ensemble_size)
    for child in children:
        rng = np.random.default_rng(child)
        fade_seeds = rng.integers(0, 2**63 - 1, size=scenario.users)
        # Per-symbol signatures over a five-symbol window centred on the
        # observation instant: indices 0..4 map to symbols i-3 .. i+1.
        mains = []
        for k in range(scenario.users):
            config = FadingConfig(
                normalized_doppler=scenario.fading_rate,
                num_paths=scenario.paths,
                power_profile=scenario.power_profile,
                num_oscillators=scenario.num_oscillators,
                seed=int(fade_seeds[k]),
            )
            gains = generate_fading(config, 5).gains
            mains.append(operators[k] @ gains)

        cov_now, cov_prev = conditional_covariance(
            mains, gain, sigma2, (3, 2), include_isi=scenario.include_isi)
        desired = mains[0]
        sig_outer = np.outer(desired[:, 3], np.conj(desired[:, 3]))
        w_opt = np.linalg.solve(cov_now, desired[:, 3])

        signal_corr += sig_outer
        interference_corr += cov_now - sig_outer
        autocorr[0] += cov_now
        autocorr[1] += cov_now
        autocorr[2] += cov_prev
        cross[0] += np.outer(desired[:, 3], np.conj(desired[:, 2]))
        cross[1] += np.outer(desired[:, 3], np.conj(desired[:, 1]))
        cross[2] += np.outer(desired[:, 2], np.conj(desired[:, 1]))
        if isi:
            cross[0] += np.outer(isi_tail(desired[:, 2], gain),
                                 np.conj(isi_precursor(desired[:, 3], gain)))
            cross[2] += np.outer(isi_tail(desired[:, 1], gain),
                                 np.conj(isi_precursor(desired[:, 2], gain)))

        opt_outer += np.outer(w_opt, np.conj(w_opt))

        # Sampled observations at windows i-2, i-1, i feed the optimum
        # filter's pair errors and the independence diagnostics.
        symbols = 2.0 * rng.integers(0, 2, size=(scenario.users, 5)) - 1.0
        noise = np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3)))
        received = []
        for j, w in enumerate((1, 2, 3)):
            r = noise[:, j].copy()
            for k, sig in enumerate(mains):
                r += symbols[k, w] * sig[:, w]
                if isi:
                    r += symbols[k, w - 1] * isi_tail(sig[:, w - 1], gain)
                    r += symbols[k, w + 1] * isi_precursor(sig[:, w + 1], gain)
            received.append(r)
        hist = History(depth=3)
        for j, w in enumerate((1, 2, 3)):
            hist.push(received[j], symbols[0, w])
        errs = compute_pair_errors(w_opt, hist, 3)
        min_mse += np.abs(errs.errors) ** 2
        lag_cross += np.vdot(received[2], received[1])
        lag_power += float(np.real(np.vdot(received[2], received[2])))
        symbol_lag += symbols[0, 3] * symbols[0, 2]

    scale = 1.0 / ensemble_size
    diagnostics = {
        "lag1_received_crosscorr_rel": float(abs(lag_cross) * scale / (lag_power * scale)),
        "lag1_symbol_corr": float(symbol_lag * scale),
        "ensemble_size": ensemble_size,
    }
    signal_avg = _hermitize(signal_corr * scale)
    interference_avg = _hermitize(interference_corr * scale)
    opt_avg = _hermitize(opt_outer * scale)
    # Mean output powers of the optimum filter against the ensemble
    # correlations: E[w_o^H R w_o] = tr(R E[w_o w_o^H]).
    return MomentMatrices(
        signal_corr=signal_avg,
        interference_corr=interference_avg,
        autocorr_terms=np.stack([_hermitize(m * scale) for m in autocorr]),
        cross_terms=cross * scale,
        min_mse=min_mse * scale,
        p_s_opt=float(np.real(np.trace(signal_avg @ opt_avg))),
        p_i_opt=float(np.real(np.trace(interference_avg @ opt_avg))),
        diagnostics=diagnostics,
    )


def _pair_range(variant: str) -> range:
    if variant == "bidirectional":
        return range(3)
    if variant == "differential":
        return range(1)
    raise ValueError(f"variant must be one of {_VARIANTS}")


def _transition(m: MomentMatrices, mu: float, variant: str) -> np.ndarray:
    """Mean weight-error propagation matrix ``I + mu * sum(F_n - R_n)``."""
    bracket = np.zeros((m.dim, m.dim), dtype=np.complex128)
    for n in _pair_range(variant):
        bracket = bracket + (m.cross_terms[n] - m.autocorr_terms[n])
    return np.eye(m.dim) + mu * bracket


def k_step(state: AnalysisState, m: MomentMatrices, variant: str) -> AnalysisState:
    """One step of the filter-error covariance recursion.

    ``K <- B K B^H + mu^2 * sum_n R_n J_n`` with
    ``B = I + mu * sum_n (F_n - R_n)`` over the active pairs (three for
    the bidirectional variant, one for the differential one).  The output
    is re-symmetrized; a non-contractive ``B`` is reported as a warning.
    """
    mu = state.step_size
    propagation = _transition(m, mu, variant)
    radius = float(np.max(np.abs(np.linalg.eigvals(propagation))))
    if radius > 1.0 + _SPECTRAL_TOL:
        warnings.warn(
            f"non-contractive configuration: spectral radius {radius:.6f} > 1",
            RuntimeWarning, stacklevel=2)
    noise = np.zeros_like(propagation)
    for n in _pair_range(variant):
        noise = noise + m.min_mse[n] * m.autocorr_terms[n]
    updated = propagation @ state.weight_err_corr @ propagation.conj().T + mu**2 * noise
    return replace(state, weight_err_corr=_hermitize(updated))


def g_step(state: AnalysisState, m: MomentMatrices, variant: str) -> AnalysisState:
    """One step of the optimum/error cross-correlation recursion.

    ``G <- G * (mu * sum_n (F_n - R_n))``; the bracket omits the identity
    so the cross term decays whenever its spectral radius is below one.
    """
    mu = state.step_size
    bracket = _transition(m, mu, variant) - np.eye(m.dim)
    return replace(state, cross_corr=state.cross_corr @ bracket)


def analytical_sinr(state: AnalysisState, m: MomentMatrices) -> float:
    """SINR in dB predicted from the recursion state.

    Traces of the matrix products supply the scalar signal and
    interference powers:

        (tr(K Rs) + 2 Re tr(G Rs) + Ps) / (tr(K Ri) + 2 Re tr(G Ri) + Pi).
    """
    k, g = state.weight_err_corr, state.cross_corr
    num = float(np.real(np.trace(k @ m.signal_corr))
                + 2.0 * np.real(np.trace(g @ m.signal_corr))) + m.p_s_opt
    den = float(np.real(np.trace(k @ m.interference_corr))
                + 2.0 * np.real(np.trace(g @ m.interference_corr))) + m.p_i_opt
    if den <= 0.0 or num <= 0.0:
        raise ValueError("invalid regime: non-positive SINR numerator or denominator")
    return 10.0 * np.log10(num / den)


def simulated_sinr(w: np.ndarray, m: MomentMatrices) -> float:
    """Rayleigh-quotient SINR of a concrete filter, in dB."""
    w = np.asarray(w)
    if not np.any(w):
        raise ValueError("filter must be nonzero")
    num = float(np.real(np.vdot(w, m.signal_corr @ w)))
    den = float(np.real(np.vdot(w, m.interference_corr @ w)))
    if den <= 0.0:
        raise ValueError("invalid regime: non-positive interference power")
    return 10.0 * np.log10(num / den)


def mmse_bound_db(m: MomentMatrices) -> float:
    """Ratio of the instantaneous MMSE filter's mean signal and interference
    powers ``p_s_opt / p_i_opt`` in dB; not an upper bound on the SINR of
    filters scored against the ensemble matrices, which can end above it.
    """
    return 10.0 * np.log10(m.p_s_opt / m.p_i_opt)


# ----------------------------------------------------------------------
# Disk cache: <key>.npz with the arrays, <key>.json with the scenario.
# ----------------------------------------------------------------------

def _cache_key(scenario: ChannelScenario, ensemble_size: int, seed: int) -> str:
    payload = {
        "users": scenario.users,
        "gain": scenario.gain,
        "paths": scenario.paths,
        "snr_db": scenario.snr_db,
        "fading_rate": scenario.fading_rate,
        "include_isi": scenario.include_isi,
        "num_oscillators": scenario.num_oscillators,
        "amplitude": scenario.amplitude,
        "interferer_amplitude": scenario.interferer_amplitude,
        "power_profile": scenario.power_profile,
        "code_seed": scenario.code_seed,
        "ensemble_size": ensemble_size,
        "seed": seed,
        "estimator_version": _ESTIMATOR_VERSION,
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return digest[:24]


def save_moments(m: MomentMatrices, base: Path) -> None:
    np.savez(
        base.with_suffix(".npz"),
        signal_corr=m.signal_corr,
        interference_corr=m.interference_corr,
        autocorr_terms=m.autocorr_terms,
        cross_terms=m.cross_terms,
        min_mse=m.min_mse,
        p_s_opt=m.p_s_opt,
        p_i_opt=m.p_i_opt,
    )
    base.with_suffix(".json").write_text(json.dumps(m.diagnostics, sort_keys=True, indent=2))


def load_moments(base: Path) -> MomentMatrices:
    with np.load(base.with_suffix(".npz")) as data:
        diagnostics = json.loads(base.with_suffix(".json").read_text())
        return MomentMatrices(
            signal_corr=data["signal_corr"],
            interference_corr=data["interference_corr"],
            autocorr_terms=data["autocorr_terms"],
            cross_terms=data["cross_terms"],
            min_mse=data["min_mse"],
            p_s_opt=float(data["p_s_opt"]),
            p_i_opt=float(data["p_i_opt"]),
            diagnostics=diagnostics,
        )


def load_or_estimate(scenario: ChannelScenario, ensemble_size: int, seed: int = 0,
                     cache_dir: str | Path | None = None) -> MomentMatrices:
    """Estimate moments, reusing a disk cache keyed by the configuration."""
    if cache_dir is None:
        return estimate_moment_matrices(scenario, ensemble_size, seed)
    cache = Path(cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    base = cache / _cache_key(scenario, ensemble_size, seed)
    if base.with_suffix(".npz").exists() and base.with_suffix(".json").exists():
        return load_moments(base)
    moments = estimate_moment_matrices(scenario, ensemble_size, seed)
    save_moments(moments, base)
    return moments
