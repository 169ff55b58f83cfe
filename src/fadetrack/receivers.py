"""Adaptive receive filters built on cross-instant pair errors.

The estimators here track the ratio between successive received vectors
instead of the fading coefficients themselves.  For a window of D
adjacent symbols, every ordered sample pair (d, l), d < l, contributes a
consistency error

    e_n = b[i-d] * w^H r[i-l] - b[i-l] * w^H r[i-d],

which vanishes for any filter on a static noiseless single-user channel.
Convex mixing weights over the pairs adapt to the channel's correlation
structure.  Two adaptive updates are provided, a normalized
stochastic-gradient step and a conjugate-gradient solver over
exponentially averaged correlation statistics.  Both take the
three-sample window or the two-sample window of pair (0, 1) alone: the
differential tracker's restriction, and every tracker's first step.
Conventional NLMS/RLS trackers serve as baselines.

Every update is an array kernel over leading *lane* axes: independent
filters, each with its own observations, stepped at once (the
``*_lanes`` functions).  A window is an ``(L, M, D)`` slice of received
vectors in time order, newest last; one filter is one lane.  Kernels
read the filter's outputs w^H r over the window, ``(L, D)``, which the
caller forms once per symbol.  Receivers that read the same window add a
leading receiver axis to their state, ``(n, L, ...)``, over which the
window broadcasts.  So do the statistics of the received samples alone:
the input power, the RLS inverse and, since symbols are +-1, the CG
autocorrelations (one average per window sample, as a pair's is its
newer sample's), all kept once per lane.  Kernels reduce along non-lane
axes only, so a lane's bits never depend on the other lanes.  They can
depend on the shape of its operands: a sample's output formed alone may
differ in the last bit from its column of the window's product.
The RLS and CG kernels update the caller's state arrays in place, as
their docstrings say (the RLS inverse; the CG autocorrelations, the
newest outer product and the cross vectors), and return the new filters.
Two plain per-symbol functions remain: :func:`update_mixing`, the
reference :func:`mixing_lanes` is pinned to, and :func:`cg_solve`, one
system at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "DegenerateInputError",
    "MixingState",
    "PairErrors",
    "pair_indices",
    "update_mixing",
    "cg_solve",
    "lane_dot",
    "pair_errors_lanes",
    "mixing_lanes",
    "pair_nlms_lanes",
    "nlms_lanes",
    "rls_lanes",
    "cg_correlations_lanes",
    "cg_solve_lanes",
    "cg_step_lanes",
    "matched_filter_init",
    "make_mixing_state",
]


class DegenerateInputError(ValueError):
    """Raised when all-zero observations collapse the power normalization."""


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


def pair_indices(depth: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic enumeration of ordered lag pairs (d, l), d < l."""
    return tuple((d, l) for d in range(depth - 1) for l in range(d + 1, depth))


# ----------------------------------------------------------------------
# Lane kernels.
# ----------------------------------------------------------------------

_RLS_SYM_TOL = 1e-6


def lane_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``vdot(a[l], b[l])`` of every lane: ``(L, M)`` and ``(L, M)`` give ``(L,)``."""
    return np.matmul(np.conj(a)[..., None, :], b[..., :, None])[..., 0, 0]


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a[l] @ x[l]`` of every lane."""
    return np.matmul(a, x[..., None])[..., 0]


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of every lane's vector."""
    return np.sqrt(lane_dot(x, x).real)


def _real_mix(rho: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``sum_p rho[..., p] * terms[..., p, :]`` of complex ``(..., P, K)`` terms, real
    weights, one BLAS call per lane.  The weights are made C-contiguous first; the
    terms are read in place, each lane's ``K`` values unit-strided, which BLAS sums
    the same whatever the stride between its ``P`` rows."""
    weights = np.ascontiguousarray(rho)[..., None, :]
    flat = terms.view(np.float64)
    return np.matmul(weights, flat)[..., 0, :].view(np.complex128)


def _power_lanes(power: np.ndarray, forget: float, newest: np.ndarray) -> np.ndarray:
    """Refreshed input-power normalization; raises if any lane underflows."""
    power = forget * power + (1.0 - forget) * lane_dot(newest, newest).real
    if not np.all(np.isfinite(power) & (power > 0.0)):
        raise DegenerateInputError("input power normalization underflowed")
    return power


@cache
def _pair_layout(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window columns (oldest first) of each pair's newer sample ``d`` and older sample
    ``l``, and the ``(P, D)`` matrix scattering the pairs onto their newer columns."""
    newer = np.array([depth - 1 - d for d, _ in pair_indices(depth)])
    older = np.array([depth - 1 - l for _, l in pair_indices(depth)])
    scatter = np.zeros((newer.size, depth))
    scatter[np.arange(newer.size), newer] = 1.0
    for array in (newer, older, scatter):
        array.setflags(write=False)
    return newer, older, scatter


def pair_errors_lanes(outputs: np.ndarray, symbols: np.ndarray):
    """Pair errors ``(L, P)`` of a ``D``-sample window and their magnitude sums ``(L,)``.

    From the filter's window outputs w^H r ``(L, D)``, for each lag pair
    (d, l), d < l, enumerated lexicographically (:func:`pair_indices`),

        e_n = b[i-d] * w^H r[i-l] - b[i-l] * w^H r[i-d].
    """
    newer, older, _ = _pair_layout(outputs.shape[-1])
    errors = symbols[..., newer] * outputs[..., older] - symbols[..., older] * outputs[..., newer]
    return errors, np.abs(errors).sum(axis=-1)


def mixing_lanes(rho: np.ndarray, errors: np.ndarray, total: np.ndarray,
                 forget: float) -> np.ndarray:
    """:func:`update_mixing` on ``(L, P)`` weights, as its docstring's array formula
    (clipped at 0 with ``maximum``).

    Lanes with a zero total error, and every lane of a single pair, keep
    their weights.
    """
    num = rho.shape[-1]
    if num == 1:
        return rho.copy()
    silent = total == 0.0
    some_silent = silent.any()  # each select runs only when some lane is silent
    scale = (np.where(silent, 1.0, total) if some_silent else total)[..., None]
    innovation = (scale - np.abs(errors)) / ((num - 1) * scale)
    mixed = np.maximum(forget * rho + (1.0 - forget) * innovation, 0.0)
    mixed = mixed / mixed.sum(axis=-1, keepdims=True)
    return np.where(silent[..., None], rho, mixed) if some_silent else mixed


def pair_nlms_lanes(w: np.ndarray, power: np.ndarray, step_size: float, norm_forget: float,
                    rho: np.ndarray, errors: np.ndarray, window: np.ndarray,
                    symbols: np.ndarray):
    """Normalized stochastic-gradient update over the pair window; returns ``(w, power)``.

    ``errors`` are the pair errors of the pre-update filter
    (:func:`pair_errors_lanes`).  The power normalization is refreshed
    from the newest observation, ``p <- norm_forget p + (1 - norm_forget)
    |r[i]|^2``, and the filter moves along the mixed one-sided gradient:
    pair (d, l) adds ``rho_n b[i-l] conj(e_n) r[i-d]``.  Three mixing
    weights select the three-sample window,

        w <- w + mu / p * ( rho_1 b[i-1] conj(e_1) r[i]
                          + rho_2 b[i-2] conj(e_2) r[i]
                          + rho_3 b[i-2] conj(e_3) r[i-1] );

    one weight (a two-sample window) selects its two-sample restriction,
    the differential tracker, which keeps only the first term.  Reference
    symbols are real (+-1) so their conjugation is implicit.
    """
    power = _power_lanes(power, norm_forget, window[..., -1])
    _, older, scatter = _pair_layout(window.shape[-1])
    coefficients = np.matmul((rho * symbols[..., older] * np.conj(errors))[..., None, :], scatter)
    return w + (step_size / power)[..., None] * _matvec(window, coefficients[..., 0, :]), power


def nlms_lanes(w: np.ndarray, power: np.ndarray, step_size: float, norm_forget: float,
               x: np.ndarray, ref: np.ndarray, output: np.ndarray):
    """Standard NLMS tracking of a known (or decided) reference; returns ``(w, power)``.

    With ``output = w^H x`` of every lane,

        p <- norm_forget p + (1 - norm_forget) |x|^2,
        w <- w + mu / p * x conj(ref - output).
    """
    power = _power_lanes(power, norm_forget, x)
    error = ref - output
    return w + (step_size / power)[..., None] * x * np.conj(error)[..., None], power


def rls_lanes(w: np.ndarray, inv_corr: np.ndarray, forget: float, x: np.ndarray,
              ref: np.ndarray, output: np.ndarray) -> np.ndarray:
    """One exponentially weighted least-squares update; returns the new ``w``.

    With ``output = w^H x`` of every lane and ``P`` the inverse correlation,

        k = P x / (lambda + x^H P x),
        w <- w + k conj(ref - output),
        P <- (P - k (P x)^H) / lambda.

    ``inv_corr`` is updated in place.  Lanes with a zero observation keep
    their state.  An inverse whose Hermitian asymmetry exceeds ``1e-6`` is
    re-symmetrized, lane by lane.
    """
    px = _matvec(inv_corr, x)
    k = px / (forget + lane_dot(x, px).real)[..., None]
    weights = w + k * np.conj(ref - output)[..., None]
    seen = np.any(x != 0, axis=-1)
    kept = None if seen.all() else inv_corr[~seen]
    # x^H P = (P x)^H for Hermitian P, saving one matrix-vector product.
    inv_corr -= k[..., :, None] * np.conj(px)[..., None, :]
    inv_corr /= forget
    adjoint = np.conj(np.swapaxes(inv_corr, -1, -2))
    skewed = np.abs(inv_corr - adjoint).max(axis=(-2, -1)) > _RLS_SYM_TOL
    if skewed.any():  # each select runs only when some lane needs it
        np.copyto(inv_corr, 0.5 * (inv_corr + adjoint), where=skewed[..., None, None])
    if kept is None:
        return weights
    inv_corr[~seen] = kept
    return np.where(seen[..., None], weights, w)


def cg_correlations_lanes(autocorr: np.ndarray, outer: np.ndarray, crosscorr: np.ndarray,
                          outputs: np.ndarray, forget: float, rho: np.ndarray, window: np.ndarray,
                          symbols: np.ndarray, paper_literal_t1: bool = False):
    """Advance the correlation averages in place and mix them.

    Rank-one updates with forgetting factor ``lambda``:

        Rbar_1 <- lam Rbar_1 + |b[i-1]|^2 r[i]   r[i]^H
        Rbar_2 <- lam Rbar_2 + |b[i-2]|^2 r[i]   r[i]^H
        Rbar_3 <- lam Rbar_3 + |b[i-2]|^2 r[i-1] r[i-1]^H
        tbar_1 <- lam tbar_1 + b[i-1] (r[i-1]^H w) r[i]   conj(b[i])
        tbar_2 <- lam tbar_2 + b[i-2] (r[i-2]^H w) r[i]   conj(b[i])
        tbar_3 <- lam tbar_3 + b[i-2] (r[i-2]^H w) r[i-1] conj(b[i-1])

    where w is the pre-update filter.  Symbols are +-1, so Rbar_1 =
    Rbar_2 and the autocorrelations depend on the received samples alone,
    not on the filter, the decisions or ``rho``: ``autocorr`` is one
    ``(2, L, M, M)`` stack (Rbar_3, Rbar_1), the averages of r[i-1] and
    r[i], shared by every receiver of a leading receiver axis.  ``outer``
    is the ``(L, M, M)`` outer product r[i-1] r[i-1]^H on entry and r[i]
    r[i]^H on exit, so each step forms one outer product; the caller steps
    consecutive samples.  The ``(n, L, 3, M)`` cross vectors follow each
    receiver's ``(n, L, D)`` outputs w^H r and symbols over the ``(L, M,
    D)`` window (r^H w is their conjugate), and ``rho`` holds its ``(n, L,
    P)`` weights over the pairs (:func:`pair_indices`).  A two-sample
    window holds pair (0, 1) alone: only tbar_1 takes a new term.
    ``paper_literal_t1`` reproduces a published variant in which
    ``tbar_1`` is chained to the past value of ``tbar_3``.  ``autocorr``,
    ``outer`` and ``crosscorr`` are updated in place; returns each lane's
    mixed system ``(Rbar, tbar) = sum_n rho_n (Rbar_n, tbar_n)`` over the
    window's pairs; the autocorrelations mix as rho_3 Rbar_3 + (rho_1 + rho_2) Rbar_1.
    """
    newer, older, scatter = _pair_layout(window.shape[-1])
    num = newer.size
    autocorr *= forget
    autocorr[0] += outer
    newest = window[..., -1]
    np.multiply(newest[..., :, None], np.conj(newest)[..., None, :], out=outer)
    autocorr[1] += outer
    samples = np.swapaxes(window, -1, -2)
    if paper_literal_t1:
        crosscorr[..., 0, :] = crosscorr[..., 2, :]
    crosscorr *= forget
    gains = (symbols * np.conj(outputs))[..., older] * symbols[..., newer]
    crosscorr[..., :num, :] += gains[..., None] * samples[..., newer, :]
    # Each lane reads its (2, M^2) rows in place, broadcast over the receivers.
    terms = autocorr.reshape(2, autocorr.shape[1], -1).swapaxes(0, 1)
    mixed_auto = _real_mix(rho @ scatter[:, -2:], terms).reshape(rho.shape[:-1] + outer.shape[-2:])
    return mixed_auto, _real_mix(rho, crosscorr[..., :num, :])


def cg_solve_lanes(corr: np.ndarray, cross: np.ndarray, w_init: np.ndarray, j_max: int,
                   tol: float = 1e-12, history: list | None = None) -> np.ndarray:
    """The iterations of :func:`cg_solve` on every lane, each with its own exits.

    A lane whose gradient falls below its exit threshold, or whose
    curvature along the direction falls to its floor, stops at its
    current iterate while the others go on.  When ``history`` is given,
    the ``(L, M)`` iterates are appended after each iteration that moved
    some lane.  ``w_init`` is not written; the result may be ``w_init``
    itself when no lane moves.
    """
    w = w_init
    grad = _matvec(corr, w) - cross
    direction = -grad
    # Exponentially accumulated systems carry roundoff proportional to
    # their scale, so both safeguards are scale-relative: the gradient
    # exit threshold and the semi-definite curvature floor.  Without the
    # scaling, a singular system's roundoff-level gradient eventually
    # clears an absolute threshold and a junk direction's near-zero
    # curvature produces a catastrophic step.
    scale = np.trace(corr, axis1=-2, axis2=-1).real / max(w.shape[-1], 1)
    grad_exit = tol * np.maximum(1.0, _norm(cross))
    active = np.ones(w.shape[:-1], dtype=bool)
    # The first direction is -grad exactly: d^H d and -d^H g are g^H g, bit for bit.
    descent = lane_dot(grad, grad)
    grad_sq = dir_sq = descent.real
    for it in range(j_max):
        active &= ~(np.sqrt(grad_sq) < grad_exit)
        if not active.any():
            break
        corr_dir = _matvec(corr, direction)
        curvature = lane_dot(direction, corr_dir).real
        active &= ~(curvature <= 1e-13 * scale * dir_sq)
        if not active.any():
            break
        every = active.all()  # each select runs only when some lane has stopped
        if not every:
            curvature = np.where(active, curvature, 1.0)
        step = w + (descent / curvature)[..., None] * direction
        w = step if every else np.where(active[..., None], step, w)
        if history is not None:
            history.append(w.copy())
        if it + 1 == j_max:
            break  # the last iterate needs no next gradient or direction
        grad = _matvec(corr, w) - cross
        beta = lane_dot(grad, corr_dir) / curvature
        direction = -grad + beta[..., None] * direction
        grad_sq = lane_dot(grad, grad).real
        dir_sq = lane_dot(direction, direction).real
        descent = -lane_dot(direction, grad)
    return w


def cg_step_lanes(autocorr: np.ndarray, outer: np.ndarray, crosscorr: np.ndarray,
                  w: np.ndarray, forget: float, max_iters: int, loading: float,
                  rho: np.ndarray, window: np.ndarray, symbols: np.ndarray,
                  outputs: np.ndarray, paper_literal_t1: bool = False) -> np.ndarray:
    """Advance the correlations in place and re-solve the mixed system; returns ``w``.

    :func:`cg_correlations_lanes` advances the statistics ``autocorr``,
    ``outer`` and ``crosscorr`` in place from ``w``'s window ``outputs``
    (the first two shared over the receiver axis), then
    :func:`cg_solve_lanes` runs ``max_iters`` iterations warm-started at
    ``w``, which suffices to track the mixed normal equations.  A positive
    ``loading`` adds ``loading * tr(Rbar) / M * I`` to the solved system
    only, which stabilizes a sample-starved system; the stored statistics
    stay unloaded.
    """
    mixed_auto, mixed_cross = cg_correlations_lanes(
        autocorr, outer, crosscorr, outputs, forget, rho, window, symbols, paper_literal_t1)
    if loading > 0:
        dim = w.shape[-1]
        load = loading * np.trace(mixed_auto, axis1=-2, axis2=-1).real / dim
        mixed_auto += load[..., None, None] * np.eye(dim)
    return cg_solve_lanes(mixed_auto, mixed_cross, w, max_iters)


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
    iterates = None if history is None else []
    w = cg_solve_lanes(corr[None], cross[None], w[None], j_max, tol, iterates)
    if history is not None:
        history.extend(step[0] for step in iterates)
    return w[0]


def matched_filter_init(code_chips: np.ndarray, window: int) -> np.ndarray:
    """Zero-padded spreading code used as the initial receive filter."""
    chips = np.asarray(code_chips, dtype=np.complex128)
    if window < chips.size:
        raise ValueError("window must cover the code")
    w = np.zeros(window, dtype=np.complex128)
    w[:chips.size] = chips
    return w
