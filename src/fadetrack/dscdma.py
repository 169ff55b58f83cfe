"""Synchronous DS-CDMA uplink model.

Builds the chip-rate observation window of a multiuser uplink with
multipath symbol-rate block fading: spreading codes, banded channel
convolution matrices, BPSK and differential modulation, the linear
receiver front end and hard detection.

The observation for symbol ``i`` spans ``M = N + L - 1`` chips, where
``N`` is the processing gain and ``L`` the number of paths.  With
multipath, the tail of symbol ``i-1`` and the precursor of symbol
``i+1`` leak into the window; both contributions can be disabled for
unit testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fading import FadingSequence

__all__ = [
    "SpreadingCode",
    "ChannelScenario",
    "UserParams",
    "ReceivedVector",
    "SymbolStream",
    "random_code",
    "build_channel_matrix",
    "code_convolution_operator",
    "isi_tail",
    "isi_precursor",
    "conditional_covariance",
    "modulate_coherent",
    "modulate_differential",
    "synthesize_received",
    "received_block",
    "filter_output",
    "detect_coherent",
    "detect_differential",
]

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class SpreadingCode:
    """Unit-norm binary spreading sequence with chips ``+-1/sqrt(N)``."""

    chips: np.ndarray

    def __post_init__(self) -> None:
        chips = np.asarray(self.chips, dtype=np.float64)
        object.__setattr__(self, "chips", chips)
        if chips.ndim != 1 or chips.size < 2:
            raise ValueError("code must be a vector of length at least 2")
        if abs(np.linalg.norm(chips) - 1.0) > _NORM_TOL:
            raise ValueError("code must have unit Euclidean norm")

    @property
    def gain(self) -> int:
        return self.chips.size


def random_code(gain: int, rng: np.random.Generator) -> SpreadingCode:
    """Draw a random ``+-1/sqrt(gain)`` spreading code."""
    if gain < 2:
        raise ValueError("gain must be at least 2")
    signs = 2.0 * rng.integers(0, 2, size=gain) - 1.0
    return SpreadingCode(chips=signs / np.sqrt(gain))


@dataclass(frozen=True)
class UserParams:
    """Amplitude, code and fading process of one uplink user."""

    amplitude: float
    code: SpreadingCode
    fading: FadingSequence

    def __post_init__(self) -> None:
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")


@dataclass(frozen=True)
class ReceivedVector:
    """One chip-rate observation window of length ``N + L - 1``."""

    samples: np.ndarray
    symbol_index: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("samples must be a vector")


@dataclass(frozen=True)
class SymbolStream:
    """Data symbols and the transmitted symbols they map to.

    Symbols run along the last axis; leading axes stack streams.  In
    coherent mode ``transmitted`` equals ``data``.  In differential mode
    ``transmitted[..., 0]`` is a reference and ``transmitted[..., i] =
    data[..., i-1] * transmitted[..., i-1]`` for ``i >= 1``: ``data[..., j]``
    rides the sign transition between transmitted symbols ``j`` and ``j + 1``.
    """

    data: np.ndarray
    transmitted: np.ndarray
    mode: str

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        transmitted = np.asarray(self.transmitted, dtype=np.float64)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "transmitted", transmitted)
        for name, values in (("data", data), ("transmitted", transmitted)):
            if not np.all(np.abs(values) == 1.0):
                raise ValueError(f"{name} symbols must be +-1")
        if self.mode == "coherent":
            if not np.array_equal(data, transmitted):
                raise ValueError("coherent stream must transmit the data unchanged")
        elif self.mode == "differential":
            if data.ndim == 0 or transmitted.shape != (*data.shape[:-1], data.shape[-1] + 1):
                raise ValueError("differential stream must carry a leading reference")
            if not np.array_equal(transmitted[..., 1:], data * transmitted[..., :-1]):
                raise ValueError("differential recursion violated")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")


def modulate_coherent(data) -> SymbolStream:
    """Wrap ``+-1`` data as plain BPSK symbols."""
    data = np.asarray(data, dtype=np.float64)
    if data.size == 0:
        raise ValueError("data must be nonempty")
    return SymbolStream(data=data, transmitted=data.copy(), mode="coherent")


def modulate_differential(data, reference: float = 1.0) -> SymbolStream:
    """Differentially encode ``+-1`` data onto a reference symbol.

    ``transmitted[..., 0]`` is the reference; each later symbol along the
    last axis is the product of the previous one and the data symbol it
    carries, so detection from the ratio of adjacent symbols inverts it.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 0 or data.size == 0:
        raise ValueError("data must be nonempty")
    if reference not in (-1.0, 1.0):
        raise ValueError("reference must be +-1")
    transmitted = np.empty((*data.shape[:-1], data.shape[-1] + 1))
    transmitted[..., 0] = reference
    transmitted[..., 1:] = reference * np.cumprod(data, axis=-1)
    return SymbolStream(data=data, transmitted=transmitted, mode="differential")


def build_channel_matrix(taps, code_length: int) -> np.ndarray:
    """Banded convolution matrix of an ``L``-tap channel.

    Entry ``(m, n)`` equals ``taps[m - n]`` when ``0 <= m - n < L`` and is
    zero otherwise; the result has shape ``(N + L - 1, N)`` and maps a
    code vector to its chip-rate convolution with the taps.
    """
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.ndim != 1 or taps.size == 0:
        raise ValueError("taps must be a nonempty vector")
    if code_length < 2:
        raise ValueError("code_length must be at least 2")
    num_taps = taps.size
    matrix = np.zeros((code_length + num_taps - 1, code_length), dtype=np.complex128)
    cols = np.arange(code_length)
    for lag, tap in enumerate(taps):
        matrix[cols + lag, cols] = tap
    return matrix


def code_convolution_operator(code: SpreadingCode, num_taps: int) -> np.ndarray:
    """Matrix ``C`` with ``C @ taps = convolve(taps, code.chips)``.

    Shape ``(N + L - 1, L)``; applying it to a tap vector gives the
    received signature of one symbol, so a whole packet of signatures is
    one matrix product with the fading gains.
    """
    if num_taps < 1:
        raise ValueError("num_taps must be at least 1")
    gain = code.gain
    op = np.zeros((gain + num_taps - 1, num_taps))
    for lag in range(num_taps):
        op[lag:lag + gain, lag] = code.chips
    return op


def isi_tail(signature: np.ndarray, gain: int) -> np.ndarray:
    """Part of a symbol's signature (axis 0) that spills into the next window."""
    out = np.zeros_like(signature)
    out[: signature.shape[0] - gain] = signature[gain:]
    return out


def isi_precursor(signature: np.ndarray, gain: int) -> np.ndarray:
    """Part of a symbol's signature (axis 0) that spills into the previous window."""
    out = np.zeros_like(signature)
    out[gain:] = signature[: signature.shape[0] - gain]
    return out


def conditional_covariance(signatures, gain: int, noise_variance: float, columns,
                           include_isi: bool = True) -> np.ndarray:
    """Covariances, ``(..., len(columns), M, M)``, of :func:`received_block` columns.

    Given the users' ``(..., M, T)`` ``signatures`` (any leading batch
    axes), each is ``noise_variance * I`` plus the sum over users of the
    outer products of the signature, the previous symbol's tail and the
    next symbol's precursor (zero past packet edges).  Each sum over users
    is one ``(M x K) @ (K x M)`` product; the tail and precursor fill only
    the ``M - N`` square corners they spill into, so only those corners are
    added.  ``matmul`` takes one BLAS call per matrix, so a column's bits do
    not depend on the batch axes or the other columns.
    """
    columns = np.asarray(columns, dtype=np.intp)
    window, length = np.shape(signatures[0])[-2:]
    n = columns.size
    spill = window - gain if include_isi else 0
    index = np.concatenate([columns, columns - 1, columns + 1]) if spill > 0 else columns
    inside = (index >= 0) & (index < length)
    index = np.where(inside, index, 0)
    # (..., len(index), M, K), contiguous: each column's users side by side.
    rows = np.ascontiguousarray(np.moveaxis(np.asarray(signatures)[..., index] * inside,
                                            (0, -1), (-1, -3)))
    total = _gram(rows[..., :n, :, :])
    if spill > 0:
        total[..., :spill, :spill] += _gram(rows[..., n:2 * n, gain:, :])
        total[..., gain:, gain:] += _gram(rows[..., 2 * n:, :spill, :])
    diagonal = np.arange(window)
    total[..., diagonal, diagonal] += noise_variance
    return total


def _gram(rows: np.ndarray) -> np.ndarray:
    """``rows @ rows^H`` of each matrix of a stack."""
    return rows @ np.swapaxes(np.conj(rows), -1, -2)


def synthesize_received(
    users,
    streams,
    i: int,
    noise_var: float,
    rng: np.random.Generator | None = None,
    include_isi: bool = True,
) -> ReceivedVector:
    """Synthesize the uplink observation for symbol ``i``.

    Sums every user's faded signature weighted by its transmitted symbol,
    adds the tail of symbol ``i-1`` and the precursor of symbol ``i+1``
    when ``include_isi`` is set (absent neighbors contribute zero), and
    adds circular complex Gaussian noise of covariance ``noise_var * I``.
    User 0 is the desired user by convention.
    """
    if len(users) == 0 or len(users) != len(streams):
        raise ValueError("users and streams must be nonempty and match")
    if noise_var < 0:
        raise ValueError("noise variance must be nonnegative")
    gain = users[0].code.gain
    paths = users[0].fading.gains.shape[0]
    for user in users:
        if user.code.gain != gain or user.fading.gains.shape[0] != paths:
            raise ValueError("all users must share the processing gain and path count")
    if i < 0:
        raise ValueError("symbol index must be nonnegative")
    window = gain + paths - 1
    total = np.zeros(window, dtype=np.complex128)
    for user, stream in zip(users, streams):
        symbols = stream.transmitted
        gains = user.fading.gains
        if i >= symbols.size or i >= gains.shape[1]:
            raise ValueError(f"symbol index {i} outside stream or fading range")
        operator = user.amplitude * code_convolution_operator(user.code, paths)
        total += symbols[i] * (operator @ gains[:, i])
        if include_isi:
            if i - 1 >= 0:
                total += symbols[i - 1] * isi_tail(operator @ gains[:, i - 1], gain)
            if i + 1 < min(symbols.size, gains.shape[1]):
                total += symbols[i + 1] * isi_precursor(operator @ gains[:, i + 1], gain)
    if noise_var > 0:
        if rng is None:
            raise ValueError("rng is required when noise_var > 0")
        scale = np.sqrt(noise_var / 2.0)
        total = total + scale * (rng.standard_normal(window) + 1j * rng.standard_normal(window))
    return ReceivedVector(samples=total, symbol_index=i)


def received_block(signatures, symbols, gain: int, noise=None, include_isi: bool = True) -> np.ndarray:
    """Vectorized packet synthesis from per-symbol signatures.

    ``signatures[k]`` is the ``(..., M, T)`` array of user ``k``'s faded
    signatures (amplitude folded in; any leading batch axes) and
    ``symbols[k]`` the matching ``(..., T)`` transmitted symbols.  Column
    ``i`` of the result equals :func:`synthesize_received` for symbol ``i``
    with the same noise.
    """
    first = np.asarray(signatures[0])
    *batch, window, length = first.shape
    r = np.zeros(first.shape, dtype=np.complex128)
    for sig, b in zip(signatures, symbols):
        sig = np.asarray(sig)
        b = np.asarray(b)
        if sig.shape != first.shape or b.shape != (*batch, length):
            raise ValueError("signature/symbol shapes are inconsistent")
        x = sig * b[..., None, :]
        r += x
        if include_isi and window > gain:
            r[..., : window - gain, 1:] += x[..., gain:, :-1]
            r[..., gain:, :-1] += x[..., : window - gain, 1:]
    if noise is not None:
        r = r + noise
    return r


def filter_output(w: np.ndarray, r: ReceivedVector) -> complex:
    """Linear receiver output ``w^H r``."""
    samples = r.samples if isinstance(r, ReceivedVector) else np.asarray(r)
    w = np.asarray(w)
    if w.shape != samples.shape:
        raise ValueError("filter and observation dimensions differ")
    return complex(np.vdot(w, samples))


def detect_coherent(z: complex) -> int:
    """Hard BPSK decision; an exact tie maps to +1."""
    return 1 if z.real >= 0 else -1


def detect_differential(z_now: complex, z_prev: complex) -> int:
    """Hard decision on the phase ratio of adjacent filter outputs."""
    return detect_coherent(z_now * np.conj(z_prev))


@dataclass(frozen=True)
class ChannelScenario:
    """Physical configuration of one uplink simulation cell.

    Exactly what an experiment sets: every user has unit amplitude and
    equal path powers, as in the simulated packets, so the signal-to-noise
    ratio is ``1 / noise_variance`` with unit total channel power.
    """

    users: int
    gain: int
    paths: int
    snr_db: float
    fading_rate: float
    include_isi: bool = True
    code_seed: int = 0

    def __post_init__(self) -> None:
        if self.users < 1:
            raise ValueError("users must be at least 1")
        if self.gain < 2:
            raise ValueError("gain must be at least 2")
        if self.paths < 1:
            raise ValueError("paths must be at least 1")
        if not 0 <= self.fading_rate < np.inf:
            raise ValueError("fading_rate must be finite and nonnegative")
        if not -np.inf < self.snr_db < np.inf:
            raise ValueError("snr_db must be finite")
        if self.code_seed < 0:
            raise ValueError("code_seed must be nonnegative")

    @property
    def window(self) -> int:
        return self.gain + self.paths - 1

    @property
    def noise_variance(self) -> float:
        return 1.0 / 10.0 ** (self.snr_db / 10.0)

    def codes(self) -> list[SpreadingCode]:
        """The scenario's fixed spreading codes, drawn from ``code_seed``."""
        rng = np.random.default_rng(self.code_seed)
        return [random_code(self.gain, rng) for _ in range(self.users)]
