"""Adaptive receive filters built on cross-instant pair errors.

The estimators here track the ratio between successive received vectors
instead of the fading coefficients themselves.  For a window of D
adjacent symbols, every ordered sample pair (d, l), d < l, contributes a
consistency error

    e_n = b[i-d] * w^H r[i-l] - b[i-l] * w^H r[i-d],

which vanishes for any filter on a static noiseless single-user channel.
Convex mixing weights over the pairs adapt to the channel's correlation
structure.  Two adaptive updates are provided for the three-sample
window: a normalized stochastic-gradient step and a conjugate-gradient
solver over exponentially averaged correlation statistics.  The
differential tracker is the one-pair restriction of the same updates.
Conventional NLMS/RLS trackers serve as baselines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DegenerateInputError",
    "FilterState",
    "MixingState",
    "PairErrors",
    "History",
    "CgState",
    "RlsState",
    "pair_indices",
    "compute_pair_errors",
    "update_mixing",
    "bidir_nlms_step",
    "conventional_nlms_step",
    "conventional_rls_step",
    "update_cg_correlations",
    "cg_solve",
    "bidir_cg_step",
    "matched_filter_init",
    "make_filter_state",
    "make_mixing_state",
    "make_cg_state",
    "make_rls_state",
]


class DegenerateInputError(ValueError):
    """Raised when an all-zero input history collapses the normalization."""


def _samples(r) -> np.ndarray:
    """Accept either a ReceivedVector or a bare complex vector."""
    return np.asarray(getattr(r, "samples", r))


@dataclass(frozen=True)
class FilterState:
    """Receive filter with its running power normalization.

    ``power_norm`` tracks the exponentially averaged input energy that
    divides the step size; it must stay positive.
    """

    weights: np.ndarray
    power_norm: float
    step_size: float
    norm_forget: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.complex128))
        if self.power_norm <= 0:
            raise ValueError("power_norm must be positive")
        if self.step_size < 0:
            raise ValueError("step_size must be nonnegative")
        if not 0.0 <= self.norm_forget <= 1.0:
            raise ValueError("norm_forget must lie in [0, 1]")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")


def make_filter_state(weights, step_size: float, norm_forget: float = 0.9,
                      power_norm: float = 1.0) -> FilterState:
    return FilterState(weights=np.asarray(weights, dtype=np.complex128),
                       power_norm=power_norm, step_size=step_size,
                       norm_forget=norm_forget)


@dataclass(frozen=True)
class MixingState:
    """Convex weights over the sample pairs, with forgetting factor."""

    weights: np.ndarray
    forget: float

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        if not 0.0 <= self.forget <= 1.0:
            raise ValueError("forget must lie in [0, 1]")
        if weights.ndim != 1:
            raise ValueError("mixing weights must be a 1-D array")
        # Plain-float checks: numpy reductions dominate the cost on three
        # weights.  The chained comparison also rejects NaN.
        values = weights.tolist()
        for x in values:
            if not 0.0 <= x <= 1.0:
                raise ValueError("mixing weights must lie in [0, 1]")
        if abs(sum(values) - 1.0) > 1e-12:
            raise ValueError("mixing weights must sum to 1")


def make_mixing_state(num_pairs: int, forget: float = 0.9) -> MixingState:
    return MixingState(weights=np.full(num_pairs, 1.0 / num_pairs), forget=forget)


@dataclass(frozen=True)
class PairErrors:
    """Cross-instant consistency errors of one sample window."""

    errors: np.ndarray
    total: float
    pairs: tuple[tuple[int, int], ...]


class History:
    """Sliding window of the last ``depth`` observations and references.

    ``vector(d)`` and ``symbol(d)`` return the entry ``d`` symbols back
    from the most recent push.
    """

    def __init__(self, depth: int = 3):
        if depth < 2:
            raise ValueError("depth must be at least 2")
        self.depth = depth
        self._r: deque = deque(maxlen=depth)
        self._b: deque = deque(maxlen=depth)

    def push(self, received, symbol: float) -> None:
        samples = _samples(received)
        if self._r and samples.shape != self._r[-1].shape:
            raise ValueError("received vectors must share their length")
        self._r.append(samples)
        self._b.append(float(symbol))

    @property
    def full(self) -> bool:
        return len(self._r) == self.depth

    def count(self) -> int:
        return len(self._r)

    def vector(self, lag: int) -> np.ndarray:
        return self._r[-1 - lag]

    def symbol(self, lag: int) -> float:
        return self._b[-1 - lag]


def pair_indices(depth: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic enumeration of ordered lag pairs (d, l), d < l."""
    return tuple((d, l) for d in range(depth - 1) for l in range(d + 1, depth))


def compute_pair_errors(w: np.ndarray, hist: History, depth: int = 3) -> PairErrors:
    """Evaluate every pair error of the ``depth``-sample window.

    For each lag pair (d, l) with d < l,

        e_n = b[i-d] * w^H r[i-l] - b[i-l] * w^H r[i-d],

    enumerated lexicographically; ``total`` is the sum of magnitudes.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    if hist.count() < depth:
        raise ValueError("history does not cover the requested depth")
    w = np.asarray(w)
    if w.shape != hist.vector(0).shape:
        raise ValueError("filter and stored vectors have different lengths")
    outputs = np.array([np.vdot(w, hist.vector(d)) for d in range(depth)])
    pairs = pair_indices(depth)
    errors = np.array([hist.symbol(d) * outputs[l] - hist.symbol(l) * outputs[d]
                       for d, l in pairs])
    total = float(np.sum(np.abs(errors)))
    return PairErrors(errors=errors, total=total, pairs=pairs)


def update_mixing(state: MixingState, errs: PairErrors) -> MixingState:
    """One convex reweighting of the pair mixing factors.

    Pairs with relatively small error magnitude gain weight:

        rho_n <- forget * rho_n
                 + (1 - forget) * (e_T - |e_n|) / ((P - 1) * e_T).

    The innovation is normalized by ``P - 1`` so the weights stay on the
    simplex exactly.  A zero total error carries no information and
    leaves the weights unchanged.

    The recursion runs in plain floats, with the same operation order as
    the array expression (clip at 0, then divide by the left-to-right
    sum): on a handful of weights numpy's per-call overhead would
    dominate.
    """
    num = state.weights.size
    if errs.errors.size != num:
        raise ValueError("error count does not match mixing weights")
    if num == 1 or errs.total == 0.0:
        return MixingState(weights=state.weights.copy(), forget=state.forget)
    forget, total = state.forget, errs.total
    gain, scale = 1.0 - forget, (num - 1) * total
    weights, weight_sum = [], 0.0
    for rho, mag in zip(state.weights.tolist(), np.abs(errs.errors).tolist()):
        rho = forget * rho + gain * ((total - mag) / scale)
        if rho < 0.0:
            rho = 0.0
        weights.append(rho)
        weight_sum += rho
    return MixingState(weights=np.array([rho / weight_sum for rho in weights]),
                       forget=forget)


def _updated_power_norm(fs: FilterState, newest: np.ndarray) -> float:
    energy = float(np.real(np.vdot(newest, newest)))
    power = fs.norm_forget * fs.power_norm + (1.0 - fs.norm_forget) * energy
    if power <= 0.0 or not np.isfinite(power):
        raise DegenerateInputError("input power normalization underflowed")
    return power


def bidir_nlms_step(fs: FilterState, mix: MixingState, hist: History,
                    errs: PairErrors | None = None) -> FilterState:
    """Normalized stochastic-gradient update over the pair window.

    Pair errors are evaluated with the pre-update filter, the power
    normalization is refreshed from the newest observation, and the
    filter moves along the mixed one-sided gradient.  Three mixing
    weights select the three-sample window,

        w <- w + mu / M * ( rho_1 b[i-1] conj(e_1) r[i]
                          + rho_2 b[i-2] conj(e_2) r[i]
                          + rho_3 b[i-2] conj(e_3) r[i-1] );

    one weight selects its two-sample restriction, the differential
    tracker, which keeps only the first term.

    Reference symbols are real (+-1) so their conjugation is implicit.
    """
    rho = mix.weights
    if rho.size not in (1, 3):
        raise ValueError("bidirectional update needs one or three mixing weights")
    depth = 2 if rho.size == 1 else 3
    if hist.count() < depth:
        raise ValueError(f"update needs a history of {depth} samples")
    if errs is None:
        errs = compute_pair_errors(fs.weights, hist, depth)
    power = _updated_power_norm(fs, hist.vector(0))
    b1 = hist.symbol(1)
    if depth == 2:
        step = rho[0] * b1 * np.conj(errs.errors[0]) * hist.vector(0)
    else:
        b2 = hist.symbol(2)
        e1, e2, e3 = errs.errors
        step = (rho[0] * b1 * np.conj(e1) * hist.vector(0)
                + rho[1] * b2 * np.conj(e2) * hist.vector(0)
                + rho[2] * b2 * np.conj(e3) * hist.vector(1))
    weights = fs.weights + (fs.step_size / power) * step
    return replace(fs, weights=weights, power_norm=power)


def conventional_nlms_step(fs: FilterState, r, b_ref: float) -> FilterState:
    """Standard NLMS tracking of a known (or decided) reference symbol."""
    x = _samples(r)
    if x.shape != fs.weights.shape:
        raise ValueError("filter and observation dimensions differ")
    power = _updated_power_norm(fs, x)
    error = b_ref - np.vdot(fs.weights, x)
    weights = fs.weights + (fs.step_size / power) * x * np.conj(error)
    return replace(fs, weights=weights, power_norm=power)


@dataclass(frozen=True)
class RlsState:
    """Exponentially weighted RLS state: filter and inverse correlation."""

    weights: np.ndarray
    inv_corr: np.ndarray
    forget: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.complex128))
        object.__setattr__(self, "inv_corr", np.asarray(self.inv_corr, dtype=np.complex128))
        if not 0.0 < self.forget <= 1.0:
            raise ValueError("forget must lie in (0, 1]")


def make_rls_state(weights, delta: float = 0.01, forget: float = 0.998) -> RlsState:
    """Fresh RLS state with regularized initial inverse correlation ``I/delta``."""
    weights = np.asarray(weights, dtype=np.complex128)
    if delta <= 0:
        raise ValueError("delta must be positive")
    inv_corr = np.eye(weights.size, dtype=np.complex128) / delta
    return RlsState(weights=weights, inv_corr=inv_corr, forget=forget)


_RLS_SYM_TOL = 1e-6


def conventional_rls_step(state: RlsState, r, b_ref: float) -> RlsState:
    """One exponentially weighted recursive least-squares update.

    A zero observation leaves the state unchanged.  The inverse
    correlation is re-symmetrized whenever round-off drives its Hermitian
    asymmetry beyond ``1e-6``.
    """
    x = _samples(r)
    if x.shape != state.weights.shape:
        raise ValueError("filter and observation dimensions differ")
    if not np.any(x):
        return replace(state)
    px = state.inv_corr @ x
    denom = state.forget + float(np.real(np.vdot(x, px)))
    k = px / denom
    error = b_ref - np.vdot(state.weights, x)
    weights = state.weights + k * np.conj(error)
    # x^H P = (P x)^H for Hermitian P, saving one matrix-vector product.
    inv_corr = (state.inv_corr - np.outer(k, np.conj(px))) / state.forget
    drift = np.max(np.abs(inv_corr - inv_corr.conj().T))
    if drift > _RLS_SYM_TOL:
        inv_corr = 0.5 * (inv_corr + inv_corr.conj().T)
    return RlsState(weights=weights, inv_corr=inv_corr, forget=state.forget)


@dataclass(frozen=True)
class CgState:
    """Exponentially averaged correlation statistics for the CG receiver.

    ``autocorr[n]`` and ``crosscorr[n]`` hold the per-pair time averages;
    the solver runs ``max_iters`` iterations per symbol from the previous
    filter.  ``loading`` adds ``loading * tr(R) / M * I`` to the mixed
    system at solve time only; zero solves the plain recursion.
    ``paper_literal_t1`` reproduces a published variant in which the first
    cross vector is chained to the third one's past value.
    """

    autocorr: tuple[np.ndarray, np.ndarray, np.ndarray]
    crosscorr: tuple[np.ndarray, np.ndarray, np.ndarray]
    forget: float
    max_iters: int
    weights: np.ndarray
    paper_literal_t1: bool = False
    loading: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.complex128))
        if not 0.0 <= self.forget <= 1.0:
            raise ValueError("forget must lie in [0, 1]")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.loading >= 0.0:
            raise ValueError("loading must be nonnegative")


def make_cg_state(weights, forget: float = 0.998, max_iters: int = 5,
                  delta: float = 0.01, paper_literal_t1: bool = False,
                  loading: float = 0.0) -> CgState:
    """Fresh CG state with ``delta * I`` autocorrelation regularization."""
    weights = np.asarray(weights, dtype=np.complex128)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    dim = weights.size
    eye = np.eye(dim, dtype=np.complex128)
    zeros = np.zeros(dim, dtype=np.complex128)
    return CgState(
        autocorr=tuple(delta * eye.copy() for _ in range(3)),
        crosscorr=tuple(zeros.copy() for _ in range(3)),
        forget=forget,
        max_iters=max_iters,
        weights=weights,
        paper_literal_t1=paper_literal_t1,
        loading=loading,
    )


def update_cg_correlations(cs: CgState, mix: MixingState, hist: History):
    """Advance the per-pair correlation averages and mix them.

    Rank-one updates with forgetting factor ``lambda``:

        Rbar_1 <- lam Rbar_1 + |b[i-1]|^2 r[i]   r[i]^H
        Rbar_2 <- lam Rbar_2 + |b[i-2]|^2 r[i]   r[i]^H
        Rbar_3 <- lam Rbar_3 + |b[i-2]|^2 r[i-1] r[i-1]^H
        tbar_1 <- lam tbar_1 + b[i-1] (r[i-1]^H w) r[i]   conj(b[i])
        tbar_2 <- lam tbar_2 + b[i-2] (r[i-2]^H w) r[i]   conj(b[i])
        tbar_3 <- lam tbar_3 + b[i-2] (r[i-2]^H w) r[i-1] conj(b[i-1])

    where ``w`` is the pre-update filter.  Returns the mixed system
    ``(Rbar, tbar)`` together with the advanced state.
    """
    if not hist.full or hist.depth < 3:
        raise ValueError("correlation update needs a full three-sample history")
    if mix.weights.size != 3:
        raise ValueError("correlation update needs three mixing weights")
    r0, r1, r2 = hist.vector(0), hist.vector(1), hist.vector(2)
    if r0.shape != cs.weights.shape:
        raise ValueError("stored vectors and filter dimensions differ")
    b0, b1, b2 = hist.symbol(0), hist.symbol(1), hist.symbol(2)
    lam = cs.forget
    w = cs.weights
    auto = (
        lam * cs.autocorr[0] + (b1 * np.conj(b1)) * np.outer(r0, np.conj(r0)),
        lam * cs.autocorr[1] + (b2 * np.conj(b2)) * np.outer(r0, np.conj(r0)),
        lam * cs.autocorr[2] + (b2 * np.conj(b2)) * np.outer(r1, np.conj(r1)),
    )
    t1_prev = cs.crosscorr[2] if cs.paper_literal_t1 else cs.crosscorr[0]
    cross = (
        lam * t1_prev + b1 * np.vdot(r1, w) * np.conj(b0) * r0,
        lam * cs.crosscorr[1] + b2 * np.vdot(r2, w) * np.conj(b0) * r0,
        lam * cs.crosscorr[2] + b2 * np.vdot(r2, w) * np.conj(b1) * r1,
    )
    rho = mix.weights
    mixed_auto = rho[0] * auto[0] + rho[1] * auto[1] + rho[2] * auto[2]
    mixed_cross = rho[0] * cross[0] + rho[1] * cross[1] + rho[2] * cross[2]
    advanced = replace(cs, autocorr=auto, crosscorr=cross)
    return mixed_auto, mixed_cross, advanced


def cg_solve(corr: np.ndarray, cross: np.ndarray, w_init: np.ndarray,
             j_max: int, tol: float = 1e-12, history: list | None = None) -> np.ndarray:
    """Conjugate-gradient iterations toward ``corr @ w = cross``.

    Runs at most ``j_max`` iterations from ``w_init`` with exact line
    search; exits early once the gradient norm falls below ``tol`` and
    stops at the current iterate if the curvature along a direction is
    not positive (semi-definite safeguard).  For a positive-definite
    system and ``j_max >= dim`` the result matches the direct solution.
    When ``history`` is given, each accepted iterate is appended to it.
    """
    corr = np.asarray(corr)
    cross = np.asarray(cross)
    w = np.array(w_init, dtype=np.complex128)
    if corr.shape != (w.size, w.size) or cross.shape != w.shape:
        raise ValueError("system dimensions are inconsistent")
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    grad = corr @ w - cross
    direction = -grad
    # Exponentially accumulated systems carry roundoff proportional to
    # their scale, so both safeguards are scale-relative: the gradient
    # exit threshold and the semi-definite curvature floor.  Without the
    # scaling, a singular system's roundoff-level gradient eventually
    # clears an absolute threshold and a junk direction's near-zero
    # curvature produces a catastrophic step.
    scale = float(np.real(np.trace(corr))) / max(w.size, 1)
    grad_exit = tol * max(1.0, float(np.linalg.norm(cross)))
    for _ in range(j_max):
        if np.linalg.norm(grad) < grad_exit:
            break
        corr_dir = corr @ direction
        curvature = float(np.real(np.vdot(direction, corr_dir)))
        floor = 1e-13 * scale * float(np.real(np.vdot(direction, direction)))
        if curvature <= floor:
            break
        alpha = -np.vdot(direction, grad) / curvature
        w = w + alpha * direction
        grad = corr @ w - cross
        beta = np.vdot(grad, corr_dir) / curvature
        direction = -grad + beta * direction
        if history is not None:
            history.append(w.copy())
    return w


def bidir_cg_step(cs: CgState, mix: MixingState, hist: History) -> CgState:
    """Advance the correlations and re-solve the mixed system.

    The solver is warm-started at the previous filter, so ``max_iters``
    conjugate-gradient iterations per symbol suffice to track the
    solution of the mixed normal equations.  A positive ``cs.loading``
    loads the solved system's diagonal, which stabilizes a
    sample-starved system; the stored statistics stay unloaded.
    """
    mixed_auto, mixed_cross, advanced = update_cg_correlations(cs, mix, hist)
    if advanced.loading > 0:
        dim = advanced.weights.size
        load = advanced.loading * float(np.real(np.trace(mixed_auto))) / dim
        mixed_auto = mixed_auto + load * np.eye(dim)
    weights = cg_solve(mixed_auto, mixed_cross, advanced.weights, advanced.max_iters)
    return replace(advanced, weights=weights)


def matched_filter_init(code_chips: np.ndarray, window: int) -> np.ndarray:
    """Zero-padded spreading code used as the initial receive filter."""
    chips = np.asarray(code_chips, dtype=np.complex128)
    if window < chips.size:
        raise ValueError("window must cover the code")
    w = np.zeros(window, dtype=np.complex128)
    w[:chips.size] = chips
    return w
