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
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dscdma import (
    ChannelScenario,
    code_convolution_operator,
    conditional_covariance,
    mmse_filters,
    received_block,
    signature_rows,
)
from .fading import FadingConfig, fading_windows
from .receivers import pair_errors_lanes, pair_indices

__all__ = [
    "MomentMatrices",
    "AnalysisState",
    "estimate_moment_matrices",
    "load_or_estimate",
    "save_moments",
    "load_moments",
    "make_analysis_state",
    "propagation_matrix",
    "k_step",
    "g_step",
    "analytical_sinr",
    "analytical_curve",
    "simulated_sinr",
    "mmse_bound_db",
]

_MIN_ENSEMBLE = 1000

_SPECTRAL_TOL = 1e-9

# Part of the moment-cache key: bump it whenever a change to
# estimate_moment_matrices changes its output, so no stale entry is reused.
_ESTIMATOR_VERSION = 7

# Ensemble members drawn, processed and summed together; a fixed constant,
# so the seeding layout (one generator per chunk) never depends on an
# option.  At 128 members a chunk's arrays peak near 5 MB.
_CHUNK_MEMBERS = 128


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
    draws a five-symbol fading window per user (exact Clarke Gaussian
    vectors from :func:`fading_windows`), symbols and noise.
    Matrix moments are accumulated through their conditional
    (channel-given) expectations, which are exact in the symbols and
    noise; the optimum-filter pair errors are sampled.  Members are drawn
    in chunks of ``_CHUNK_MEMBERS``, one generator per chunk spawned from
    ``(seed, ensemble_size)``, and each chunk is processed and summed in
    turn, so the result depends only on the scenario, the ensemble size
    and the seed.
    """
    if ensemble_size < _MIN_ENSEMBLE:
        raise ValueError(
            f"ensemble_size {ensemble_size} below the statistical floor {_MIN_ENSEMBLE}")
    dim = scenario.window
    gain = scenario.gain
    sigma2 = scenario.noise_variance
    spill = dim - gain if scenario.include_isi else 0
    pairs = pair_indices(3)

    signal_corr = np.zeros((dim, dim), dtype=np.complex128)
    cov_sum = np.zeros((2, dim, dim), dtype=np.complex128)  # windows i and i-1
    cross = np.zeros((3, dim, dim), dtype=np.complex128)
    min_mse = np.zeros(3)
    opt_outer = np.zeros((dim, dim), dtype=np.complex128)
    lag_cross = 0.0 + 0.0j
    lag_power = 0.0
    symbol_lag = 0.0

    operators = np.stack([code_convolution_operator(c, scenario.paths) for c in scenario.codes()])
    fading = FadingConfig(normalized_doppler=scenario.fading_rate, num_paths=scenario.paths)
    n_chunks = -(-ensemble_size // _CHUNK_MEMBERS)
    children = np.random.SeedSequence([int(seed), ensemble_size]).spawn(n_chunks)
    for c, child in enumerate(children):
        size = min(_CHUNK_MEMBERS, ensemble_size - c * _CHUNK_MEMBERS)
        rng = np.random.default_rng(child)
        gains = fading_windows(fading, 5, rng, (size, scenario.users))
        symbols = 2.0 * rng.integers(0, 2, size=(scenario.users, size, 5)) - 1.0
        normals = rng.standard_normal((2, size, dim, 3))

        # Per-symbol signatures over a five-symbol window centred on the
        # observation instant: columns 0..4 map to symbols i-3 .. i+1, so
        # pair (d, l) reads columns 3 - d and 3 - l.
        signatures = operators @ gains  # (members, users, dim, 5)
        mains = np.swapaxes(signatures, 0, 1)  # (users, members, dim, 5)
        desired = mains[0]
        # One gather, with the members folded into the users axis: a
        # covariance of these rows is the sum of the members' covariances.
        folded = signature_rows(signatures.reshape(size * scenario.users, dim, 5))
        rows = np.moveaxis(folded.reshape(5, dim, size, scenario.users), 2, 0)  # per member
        w_opt = mmse_filters(rows, gain, sigma2, [3], scenario.include_isi)[:, 0]
        cov_sum += conditional_covariance(folded, gain, size * sigma2, (3, 2),
                                          scenario.include_isi)
        # Sampled observations at windows i-2, i-1, i (columns 1..3) feed
        # the optimum filter's pair errors and the independence diagnostics.
        noise = np.sqrt(sigma2 / 2.0) * (normals[0] + 1j * normals[1])
        received = received_block(mains, symbols, gain,
                                  include_isi=scenario.include_isi)[..., 1:4] + noise
        ref = symbols[0, :, 1:4]
        outputs = np.matmul(np.conj(w_opt)[..., None, :], received)[..., 0, :]
        errors, _ = pair_errors_lanes(outputs, ref)

        signal_corr += _outer_sum(desired[..., 3], desired[..., 3])
        for n, (d, l) in enumerate(pairs):
            cross[n] += _outer_sum(desired[..., 3 - d], desired[..., 3 - l])
            if spill > 0 and l - d == 1:
                # Adjacent symbols: the older one's tail against the newer one's
                # precursor; only the (spill x spill) corner they share is nonzero.
                cross[n, :spill, gain:] += _outer_sum(desired[:, gain:, 3 - l],
                                                      desired[:, :spill, 3 - d])
        opt_outer += _outer_sum(w_opt, w_opt)
        min_mse += np.sum(np.abs(errors) ** 2, axis=0)
        lag_cross += np.vdot(received[..., 2], received[..., 1])
        lag_power += float(np.sum(np.abs(received[..., 2]) ** 2))
        symbol_lag += float(ref[:, 2] @ ref[:, 1])

    scale = 1.0 / ensemble_size
    diagnostics = {
        "lag1_received_crosscorr_rel": float(abs(lag_cross) * scale / (lag_power * scale)),
        "lag1_symbol_corr": float(symbol_lag * scale),
        "ensemble_size": ensemble_size,
    }
    signal_avg = _hermitize(signal_corr * scale)
    interference_avg = _hermitize((cov_sum[0] - signal_corr) * scale)
    opt_avg = _hermitize(opt_outer * scale)
    autocorr = cov_sum[[d for d, _ in pairs]]  # pair (d, l) reads window i - d
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


def _outer_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_c outer(x[c], conj(y[c]))`` over the leading (member) axis."""
    return x.T @ np.conj(y)


def _pair_weights(weights) -> tuple[float, ...]:
    """A receiver's pair weights, checked: one to three finite, non-negative values."""
    weights = tuple(float(w) for w in weights)
    if not (1 <= len(weights) <= 3 and all(0.0 <= w < np.inf for w in weights)):
        raise ValueError(f"pair weights must be 1 to 3 finite, non-negative values: {weights}")
    return weights


def propagation_matrix(m: MomentMatrices, mu: float, weights) -> np.ndarray:
    """Mean weight-error propagation matrix ``I + mu * sum_n w_n (F_n - R_n)``.

    ``weights`` are a receiver's pair weights (``harness._RECEIVERS``):
    ``w_n`` weighs pair ``n`` of the three-sample window, and one weight
    is the two-sample restriction.  The matrix is constant over a run, so
    compute it once and pass it to :func:`k_step` and :func:`g_step`; a
    non-contractive matrix is reported here, as a warning.
    """
    propagation = _transition(m, mu, weights)
    radius = float(np.max(np.abs(np.linalg.eigvals(propagation))))
    if radius > 1.0 + _SPECTRAL_TOL:
        warnings.warn(
            f"non-contractive configuration: spectral radius {radius:.6f} > 1",
            RuntimeWarning, stacklevel=2)
    return propagation


def _transition(m: MomentMatrices, mu: float, weights) -> np.ndarray:
    terms = m.cross_terms - m.autocorr_terms
    return np.eye(m.dim) + mu * sum(w * terms[n] for n, w in enumerate(_pair_weights(weights)))


def k_step(state: AnalysisState, m: MomentMatrices, weights,
           propagation: np.ndarray | None = None) -> AnalysisState:
    """One step of the filter-error covariance recursion.

    ``K <- B K B^H + mu^2 * sum_n w_n^2 J_n R_n`` with ``B`` the
    :func:`propagation_matrix` of the state's step size, computed (and
    checked) here unless given.  The output is re-symmetrized.
    """
    mu = state.step_size
    if propagation is None:
        propagation = propagation_matrix(m, mu, weights)
    updated = _k_update(state.weight_err_corr, propagation, _noise_term(m, mu, weights))
    return replace(state, weight_err_corr=updated)


def g_step(state: AnalysisState, m: MomentMatrices, weights,
           propagation: np.ndarray | None = None) -> AnalysisState:
    """One step of the optimum/error cross-correlation recursion.

    ``G <- G * (mu * sum_n w_n (F_n - R_n))``, that is ``B - I`` for the
    :func:`propagation_matrix` ``B`` (computed here, without its check,
    unless given); the bracket omits the identity so the cross term
    decays whenever its spectral radius is below one.
    """
    if propagation is None:
        propagation = _transition(m, state.step_size, weights)
    bracket = propagation - np.eye(m.dim)
    return replace(state, cross_corr=state.cross_corr @ bracket)


def _noise_term(m: MomentMatrices, mu: float, weights) -> np.ndarray:
    """``mu^2 * sum_n (w_n w_n J_n) R_n`` over the weighted pairs."""
    return mu**2 * sum((w * w * m.min_mse[n]) * m.autocorr_terms[n]
                       for n, w in enumerate(_pair_weights(weights)))


def _k_update(k: np.ndarray, propagation: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """``B K B^H + noise``, re-symmetrized: the one K step of :func:`k_step` and
    :func:`analytical_curve`."""
    return _hermitize(propagation @ k @ propagation.conj().T + noise)


def analytical_sinr(state: AnalysisState, m: MomentMatrices) -> float:
    """SINR in dB predicted from the recursion state.

    Traces of the matrix products supply the scalar signal and
    interference powers:

        (tr(K Rs) + 2 Re tr(G Rs) + Ps) / (tr(K Ri) + 2 Re tr(G Ri) + Pi).
    """
    iterates = np.stack([state.weight_err_corr, state.cross_corr])
    return float(_sinr_db(iterates[None], m)[0])


def analytical_curve(m: MomentMatrices, mu: float, weights, length: int,
                     g_init: str = "identity") -> np.ndarray:
    """``(length,)`` SINR in dB after each of ``length`` K/G steps.

    The same values as :func:`k_step`, :func:`g_step` and
    :func:`analytical_sinr` applied step by step from
    :func:`make_analysis_state`, bit for bit: the propagation matrix (with
    its check), the noise term and ``B - I`` are computed once, and every
    step's traces are taken together at the end.  Raises ``ValueError``
    if any step is in a non-positive regime.
    """
    state = make_analysis_state(m.dim, mu, g_init)
    propagation = propagation_matrix(m, mu, weights)
    noise = _noise_term(m, mu, weights)
    bracket = propagation - np.eye(m.dim)
    iterates = np.empty((length, 2, m.dim, m.dim), dtype=np.complex128)
    k, g = state.weight_err_corr, state.cross_corr
    for t in range(length):
        k = iterates[t, 0] = _k_update(k, propagation, noise)
        g = iterates[t, 1] = g @ bracket
    return _sinr_db(iterates, m)


def _sinr_db(iterates: np.ndarray, m: MomentMatrices) -> np.ndarray:
    """SINR in dB of each ``(K, G)`` pair of a ``(T, 2, M, M)`` stack."""
    # traces[t, a, b] = tr(X_a R_b) for X = (K, G) and R = (Rs, Ri).
    traces = np.einsum("taij,bji->tab", iterates,
                       np.stack([m.signal_corr, m.interference_corr])).real
    num, den = (traces[:, 0] + 2.0 * traces[:, 1] + (m.p_s_opt, m.p_i_opt)).T
    if np.any(den <= 0.0) or np.any(num <= 0.0):
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
    payload = {**asdict(scenario), "ensemble_size": ensemble_size, "seed": seed,
               "estimator_version": _ESTIMATOR_VERSION}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return digest[:24]


# The fields written to the .npz; the diagnostics dict goes to the .json.
_NPZ_FIELDS = [f for f in fields(MomentMatrices) if f.type != "dict"]


def save_moments(m: MomentMatrices, base: Path) -> None:
    np.savez(base.with_suffix(".npz"), **{f.name: getattr(m, f.name) for f in _NPZ_FIELDS})
    base.with_suffix(".json").write_text(json.dumps(m.diagnostics, sort_keys=True, indent=2))


def load_moments(base: Path) -> MomentMatrices:
    with np.load(base.with_suffix(".npz")) as data:
        # The scalar powers come back as 0-d arrays.
        arrays = {f.name: float(data[f.name]) if f.type == "float" else data[f.name]
                  for f in _NPZ_FIELDS}
    return MomentMatrices(**arrays, diagnostics=json.loads(base.with_suffix(".json").read_text()))


def load_or_estimate(scenario: ChannelScenario, ensemble_size: int, seed: int = 0,
                     cache_dir: str | Path | None = None) -> MomentMatrices:
    """Estimate moments, reusing a disk cache keyed by the configuration; the
    directory is made only to save an estimate, so a failed one leaves none."""
    if cache_dir is None:
        return estimate_moment_matrices(scenario, ensemble_size, seed)
    cache = Path(cache_dir)
    base = cache / _cache_key(scenario, ensemble_size, seed)
    if base.with_suffix(".npz").exists() and base.with_suffix(".json").exists():
        return load_moments(base)
    moments = estimate_moment_matrices(scenario, ensemble_size, seed)
    cache.mkdir(parents=True, exist_ok=True)
    save_moments(moments, base)
    return moments
