"""Correlated Rayleigh fading with a Clarke Doppler spectrum.

A packet's paths (:func:`generate_fading`) are synthesized with a
sum-of-sinusoids model: arrival angles equally spaced around the circle
with one uniformly random rotation per path, plus an independent uniform
phase per oscillator.  With that stratification the time autocorrelation
of a single realization converges to ``J0(2*pi*fd_ts*m)`` at lag ``m``
with spectral accuracy in the oscillator count, while the marginal
distribution approaches a circular complex Gaussian.

A short window (:func:`fading_windows`) is drawn exactly instead: a few
Clarke samples form a circular complex Gaussian vector whose covariance
is the Toeplitz matrix of ``J0``, so each window is one fixed factor of
that matrix times standard normals.  ``J0`` itself comes from numpy
alone (:func:`clarke_autocorrelation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FadingConfig",
    "FadingSequence",
    "generate_fading",
    "fading_windows",
    "clarke_autocorrelation",
    "correlation_factors",
    "empirical_autocorrelation",
]

# Samples per block of generate_fading, which takes one exact anchor phasor per block.
_BLOCK = 32

_PROFILE_TOL = 1e-12

# Largest |x| whose J0 is taken by quadrature; beyond it the Hankel
# expansion's first neglected term is below 1e-20.
_J0_QUADRATURE_MAX = 64.0


@dataclass(frozen=True)
class FadingConfig:
    """Parameters of a multipath Rayleigh fading process.

    Parameters
    ----------
    normalized_doppler : float
        Doppler frequency times symbol period (dimensionless); zero
        freezes the channel.
    num_paths : int
        Number of mutually independent propagation paths.
    power_profile : tuple of float, optional
        Mean-square gain per path; must be nonnegative and sum to one.
        Defaults to a uniform profile.
    num_oscillators : int
        Sum-of-sinusoids order per path of :func:`generate_fading`, at
        least 8; :func:`fading_windows` draws exact Gaussian windows and
        does not use it.
    seed : int
        Seed of the generator; equal configs yield bit-identical output.
    """

    normalized_doppler: float
    num_paths: int = 1
    power_profile: tuple[float, ...] | None = None
    num_oscillators: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.normalized_doppler < np.inf:
            raise ValueError("normalized_doppler must be finite and nonnegative")
        if self.num_paths < 1:
            raise ValueError("num_paths must be at least 1")
        if self.num_oscillators < 8:
            raise ValueError("num_oscillators must be at least 8")
        profile = self.power_profile
        if profile is None:
            profile = (1.0 / self.num_paths,) * self.num_paths
        profile = tuple(float(p) for p in profile)
        object.__setattr__(self, "power_profile", profile)
        if len(profile) != self.num_paths:
            raise ValueError("power_profile length must equal num_paths")
        if not all(0 <= p < np.inf for p in profile):
            raise ValueError("path powers must be finite and nonnegative")
        if abs(sum(profile) - 1.0) > _PROFILE_TOL:
            raise ValueError("power_profile must sum to 1 within 1e-12")


@dataclass(frozen=True)
class FadingSequence:
    """Complex path gains over symbol time.

    ``gains[l, i]`` is the gain of path ``l`` at symbol ``i``; shape is
    ``(num_paths, length)``.
    """

    gains: np.ndarray
    config: FadingConfig

    @property
    def length(self) -> int:
        return self.gains.shape[1]


def _phasor(angle) -> np.ndarray:
    """``exp(1j * angle)`` filled from real cosines and sines (the same bits, fewer complex ops)."""
    out = np.empty(np.shape(angle), dtype=np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _doppler_rates(normalized_doppler: float, rotation, q: int) -> np.ndarray:
    """Angular Doppler rates, shape ``S + (q,)``, of sum-of-sinusoids paths.

    ``rotation`` (shape ``S``) turns each path's ``q`` equally spaced
    arrival angles, in units of their spacing.
    """
    # cos(2*pi*(k + rotation)/q) by angle addition: trig per path, not per oscillator.
    turn = _phasor(2.0 * np.pi * np.expand_dims(rotation, -1) / q)
    return 2.0 * np.pi * normalized_doppler * (_phasor(2.0 * np.pi * np.arange(q) / q) * turn).real


def fading_windows(config: FadingConfig, length: int, rng: np.random.Generator,
                   batch: tuple[int, ...]) -> np.ndarray:
    """Many independent short fading windows at once.

    Returns ``(*batch, num_paths, length)`` gains.  Each path's window is
    an exact circular complex Gaussian vector with variance
    ``power_profile[l]`` and the Clarke correlation ``J0(2*pi*fd*|m-n|)``
    between samples ``m`` and ``n``: one block of standard normals drawn
    from ``rng`` (``config.seed`` is not used) times the fixed factor of
    :func:`_clarke_factor`.  Its second-order moments are those of
    :func:`generate_fading`'s model; unlike a finite sum of sinusoids it is
    Gaussian, so ``E|h|^4 = 2 p^2`` exactly.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    # Real and imaginary parts interleaved, so the product views as complex as it is.
    normals = rng.standard_normal((*batch, config.num_paths, length, 2))
    factor = _clarke_factor(config.normalized_doppler, length)
    amplitude = np.sqrt(np.multiply(config.power_profile, 0.5))[:, None]
    return (factor @ normals).view(np.complex128)[..., 0] * amplitude


@lru_cache(maxsize=64)
def _clarke_factor(normalized_doppler: float, length: int) -> np.ndarray:
    """Read-only real ``F`` with ``F @ F.T`` the ``length x length`` Clarke correlation.

    Taken from ``eigh`` rather than Cholesky: the matrix has rank one at rate
    zero and is numerically singular at small rates.  Eigenvalues below
    ``length * eps`` times the largest are set to zero, so at rate zero the
    samples of a window are one draw, repeated.
    """
    lags = np.arange(length)
    corr = _bessel_j0(2.0 * np.pi * normalized_doppler * lags)[np.abs(lags[:, None] - lags)]
    values, vectors = np.linalg.eigh(corr)
    values[values < length * np.finfo(float).eps * values[-1]] = 0.0
    factor = vectors * np.sqrt(values)
    factor.setflags(write=False)
    return factor


def _bessel_j0(x) -> np.ndarray:
    """``J0(x)``: by :func:`_j0_quadrature` up to ``|x| = _J0_QUADRATURE_MAX``
    (an array within it takes that rule as a whole), by :func:`_j0_hankel` beyond,
    so the cost per argument is bounded."""
    x = np.asarray(x, dtype=float)
    near = np.abs(x) <= _J0_QUADRATURE_MAX
    if near.all():
        return _j0_quadrature(x)
    out = np.empty(x.shape)
    out[near] = _j0_quadrature(x[near])
    out[~near] = _j0_hankel(np.abs(x[~near]))
    return out


def _j0_quadrature(x: np.ndarray) -> np.ndarray:
    """``J0(x)`` as the mean of ``cos(x cos(theta))`` over midpoints of ``[0, pi]``.

    The integrand is periodic and analytic, so the midpoint (trapezoid) rule
    is exact to rounding once the node count passes ``|x|`` by a margin: with
    ``64 + 2*ceil(max|x|)`` nodes it agrees with ``scipy.special.j0`` to about
    1e-15 on ``[0, 60]``.
    """
    n = 64 + 2 * int(np.ceil(np.max(np.abs(x), initial=0.0)))
    theta = np.pi * (np.arange(n) + 0.5) / n
    return np.cos(np.multiply.outer(x, np.cos(theta))).mean(axis=-1)


def _hankel_series(terms: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficients of ``x^-2k`` in ``P`` and of ``x^-(2k+1)`` in ``Q``, ``k < terms``.

    ``a_k = prod_{j<=k} -(2j-1)^2 / (8j)``; ``P`` takes ``(-1)^k a_2k`` and
    ``Q`` takes ``(-1)^k a_(2k+1)``.
    """
    a = [1.0]
    for j in range(1, 2 * terms):
        a.append(a[-1] * -((2 * j - 1) ** 2) / (8 * j))
    return (tuple((-1) ** k * a[2 * k] for k in range(terms)),
            tuple((-1) ** k * a[2 * k + 1] for k in range(terms)))


_HANKEL_P, _HANKEL_Q = _hankel_series(8)


def _j0_hankel(x: np.ndarray) -> np.ndarray:
    """``J0(x)``, ``x > _J0_QUADRATURE_MAX``, from the Hankel expansion
    ``sqrt(2/(pi x)) * (P cos(x - pi/4) - Q sin(x - pi/4))``.

    The phase ``x - pi/4`` is rounded as ``scipy.special.j0`` rounds it; at
    ``x`` near 1e7 that rounding (1e-9) is the size of the argument's own.
    """
    inv2 = 1.0 / (x * x)
    p = q = 0.0
    for cp, cq in zip(reversed(_HANKEL_P), reversed(_HANKEL_Q)):
        p = p * inv2 + cp
        q = q * inv2 + cq
    phase = x - np.pi / 4.0
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(phase) - q / x * np.sin(phase))


def generate_fading(config: FadingConfig, length: int) -> FadingSequence:
    """Generate a correlated Rayleigh fading sequence.

    Paths are independent zero-mean complex processes with per-path
    variance ``power_profile[l]`` and lag-``m`` autocorrelation matching
    :func:`clarke_autocorrelation`.  Deterministic given ``config.seed``.

    Parameters
    ----------
    config : FadingConfig
    length : int
        Number of symbol-spaced samples, at least 1.

    Returns
    -------
    FadingSequence
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    rng = np.random.default_rng(config.seed)
    draws = [(rng.uniform(), rng.uniform(0.0, 2.0 * np.pi, size=config.num_oscillators))
             for _ in range(config.num_paths)]
    rotation, phases = map(np.array, zip(*draws))
    omega = _doppler_rates(config.normalized_doppler, rotation, config.num_oscillators)
    amplitude = np.sqrt(np.divide(config.power_profile, config.num_oscillators))[:, None]
    amplitude = amplitude * _phasor(phases)
    # Sample b*_BLOCK + j sums amplitude * exp(1j*omega*b*_BLOCK) * exp(1j*omega*j) over
    # oscillators.  Splitting omega*_BLOCK (Veltkamp) into a head, whose products with all
    # block indices b are exact, and a small tail rounds no large angle: no drift with length.
    index = np.arange(-(-length // _BLOCK))[:, None]
    stride = omega[:, None, :] * _BLOCK
    scaled = stride * (2.0 ** (len(index) - 1).bit_length() + 1.0)
    head = scaled - (scaled - stride)
    anchors = _phasor(index * head)
    anchors *= _phasor(index * (stride - head))
    anchors *= amplitude[:, None, :]
    gains = (anchors @ _phasor(omega[..., None] * np.arange(_BLOCK))).reshape(len(omega), -1)
    return FadingSequence(gains=np.ascontiguousarray(gains[:, :length]), config=config)


def clarke_autocorrelation(normalized_doppler: float, lag: int) -> float:
    """Theoretical channel autocorrelation at an integer symbol lag.

    Returns ``J0(2*pi*normalized_doppler*lag)`` for a unit-power path;
    equals 1 at lag 0 and lies in ``[-1, 1]``.
    """
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    return float(_bessel_j0(2.0 * np.pi * normalized_doppler * lag))


def correlation_factors(seq: FadingSequence, index: int) -> tuple[float, float, float]:
    """Adjacent-sample correlation factors of the first path at ``index``.

    Returns the model values for the three causal sample pairs ending at
    ``index``: lag 1 over ``(index, index-1)``, lag 2 over
    ``(index, index-2)`` and lag 1 over ``(index-1, index-2)``, each
    scaled by the first path's power.  The first and third coincide
    because the process is wide-sense stationary.
    """
    if index < 2:
        raise ValueError("index must be at least 2")
    if index >= seq.length:
        raise ValueError(f"index {index} outside sequence of length {seq.length}")
    p0 = seq.config.power_profile[0]
    fd = seq.config.normalized_doppler
    lag1 = p0 * clarke_autocorrelation(fd, 1)
    lag2 = p0 * clarke_autocorrelation(fd, 2)
    return (lag1, lag2, lag1)


def empirical_autocorrelation(path_gains: np.ndarray, lag: int) -> complex:
    """Sample autocorrelation ``mean(h[i+m] * conj(h[i]))`` of one path."""
    g = np.asarray(path_gains)
    if g.ndim != 1:
        raise ValueError("path_gains must be one-dimensional")
    if lag < 0 or lag >= g.size:
        raise ValueError("lag must lie in [0, len(path_gains))")
    if lag == 0:
        return complex(np.mean(np.abs(g) ** 2))
    return complex(np.mean(g[lag:] * np.conj(g[:-lag])))
