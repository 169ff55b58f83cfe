"""Reproducible Monte Carlo experiments over the DS-CDMA model.

Wires the channel model, the adaptive receivers and the SINR analysis
into three experiments emitting CSV records: per-symbol BER learning
curves, normalized SINR versus fading rate, and analytical-versus-
simulated SINR convergence.  Packets draw from streams seeded by
``(master seed, packet index)``.  A lane is one (receiver, packet, grid
point) item: the receivers of one kind step all their lanes of a chunk in
one loop, and no lane's bits depend on the lanes stepped beside it, so
results are byte-reproducible regardless of the packet count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis
from .dscdma import (
    ChannelScenario,
    code_convolution_operator,
    conditional_covariance,
    isi_tail,  # noqa: F401  (unused; perfbench/test_perfbench.py traces harness.isi_tail)
    mmse_filters,
    modulate_differential,
    random_code,
    received_block,
    signature_rows,
)
from .fading import (
    FadingConfig,
    clarke_autocorrelation,
    empirical_autocorrelation,
    generate_fading,
)
from .receivers import (
    cg_step_lanes,
    lane_dot,
    matched_filter_init,
    mixing_lanes,
    nlms_lanes,
    pair_errors_lanes,
    pair_nlms_lanes,
    rls_lanes,
    update_mixing,  # noqa: F401  (unused; perfbench/test_perfbench.py removes harness.update_mixing)
)

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "MetricsRecord",
    "CONFIG_KEYS",
    "load_config_file",
    "make_experiment_config",
    "check_experiment",
    "run_ber_curve",
    "run_sinr_vs_fading",
    "run_analysis_comparison",
    "run_channel_stats",
    "emit_csv",
    "emit_channel_stats",
]


_SINR_FLOOR = 1e-12  # linear floor applied before dB conversion

_MMSE_BLOCK = 64  # symbols per batched oracle solve; bounds the (block, M, J) basis

# (packet, grid point) lanes per chunk.  A constant, not an option: each
# lane's bits are the same in any chunk, and this bounds the (lanes, M, T)
# blocks.
_CHUNK_LANES = 32


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
            (self.users >= 1, "users must be at least 1"),
            (self.gain >= 2, "gain must be at least 2"),
            (self.paths >= 1, "paths must be at least 1"),
            (self.packet_len >= 3, "packet_len must be at least 3"),
            (0 <= self.train_len <= self.packet_len, "train_len must lie in [0, packet_len]"),
            (self.packets >= 1, "packets must be at least 1"),
            (self.seed >= 0, "seed must be nonnegative"),
            (all(map(len, (self.snr_db, self.fading_grid, self.algorithms))),
             "snr_db, fading_grid and algorithms must be nonempty"),
            *((len(set(values)) == len(values), f"{key} must not repeat an entry")
              for key, values in (("snr_db", self.snr_db), ("fading_grid", self.fading_grid),
                                  ("algorithms", self.algorithms))),
            (all(map(math.isfinite, self.snr_db)), "every snr_db must be finite"),
            (all(0 <= rate < math.inf for rate in self.fading_grid),
             "every fading_grid rate must be finite and nonnegative"),
            (0 <= self.mu < math.inf, "mu must be finite and nonnegative"),
            (0 <= self.lambda_e <= 1, "lambda_e must lie in [0, 1]"),
            (0 <= self.lambda_m <= 1, "lambda_m must lie in [0, 1]"),
            (0 <= self.lambda_cg <= 1, "lambda_cg must lie in [0, 1]"),
            (0 < self.lambda_rls <= 1, "lambda_rls must lie in (0, 1]"),
            (self.jmax >= 0, "jmax must be nonnegative"),
            (0 <= self.delta < math.inf, "delta must be finite and nonnegative"),
            (self.delta > 0 or "rls" not in self.algorithms,
             "delta must be positive when rls is selected"),
            (0 <= self.cg_loading < math.inf, "cg_loading must be finite and nonnegative"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)


class MetricsRecord(NamedTuple):
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


# Each key's text parser, by the annotation of its ExperimentConfig field.
_PARSERS = {"int": int, "float": float, "bool": _parse_bool,
            "tuple[float, ...]": _parse_floats, "tuple[str, ...]": _parse_names}
CONFIG_KEYS = {field.name: _PARSERS[field.type] for field in fields(ExperimentConfig)}


def load_config_file(path) -> dict[str, str]:
    """Read a flat key-value config file; '#' starts a comment and a key may
    appear once."""
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
        if key in values:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
        values[key] = text
    return values


def make_experiment_config(texts: dict[str, str] | None = None,
                           **overrides) -> ExperimentConfig:
    """Build a config from ``key -> text`` values in the config-file form and typed
    overrides, which win.  A text that does not parse raises ``ValueError`` naming
    its key."""
    unknown = [key for key in (*(texts or ()), *overrides) if key not in CONFIG_KEYS]
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    values = {}
    for key, text in (texts or {}).items():
        try:
            values[key] = CONFIG_KEYS[key](text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return ExperimentConfig(**{**values, **overrides})


# ----------------------------------------------------------------------
# Packet draws and chunks: a chunk's lanes written as arrays.
# ----------------------------------------------------------------------

class _PacketDraws:
    """One packet's draws that no grid point changes, made once per run.

    Codes, data and unit-variance noise come from streams seeded by
    ``(seed, packet index)``, and the users' ``(K, M, L)`` code operators
    and ``(K, T)`` transmitted symbols, which every receiver reads, are built
    from them once: symbol 0 is every user's +1 reference and ``data[:, i]``
    rides the transition into symbol i (``data[:, 0]`` is never sent).
    Fading gains are drawn for one rate at a time and kept until another
    rate is asked for.
    """

    def __init__(self, cfg: ExperimentConfig, index: int, fixed_codes=None):
        self.cfg, self.index = cfg, index
        code_ss, fade_ss, data_ss, noise_ss = np.random.SeedSequence([cfg.seed, index]).spawn(4)
        code_rng = np.random.default_rng(code_ss)
        self.codes = (list(fixed_codes) if fixed_codes is not None
                      else [random_code(cfg.gain, code_rng) for _ in range(cfg.users)])
        self.operators = np.stack([code_convolution_operator(c, cfg.paths) for c in self.codes])
        self._fade_seeds = [int(child.generate_state(1, np.uint64)[0])
                            for child in fade_ss.spawn(cfg.users)]
        data_rng = np.random.default_rng(data_ss)
        self.data = 2.0 * data_rng.integers(0, 2, size=(cfg.users, cfg.packet_len)) - 1.0
        self.transmitted = modulate_differential(self.data[:, 1:]).transmitted
        noise_rng = np.random.default_rng(noise_ss)
        shape = (cfg.gain + cfg.paths - 1, cfg.packet_len)
        self.unit_noise = noise_rng.standard_normal(shape) + 1j * noise_rng.standard_normal(shape)
        self._rate, self._gains = None, None

    def gains(self, scenario: ChannelScenario) -> np.ndarray:
        """The users' ``(K, L, T)`` path gains at the scenario's fading rate."""
        cfg, rate = self.cfg, scenario.fading_rate
        if rate != self._rate:
            if rate == 0.0:
                # Zero fading rate means a pure AWGN-style experiment: every
                # path carries its mean-square gain deterministically, so
                # the configured SNR is the realized one.
                self._gains = np.full((cfg.users, cfg.paths, cfg.packet_len),
                                      np.sqrt(1.0 / cfg.paths), dtype=complex)
            else:
                self._gains = np.stack([generate_fading(FadingConfig(
                    normalized_doppler=rate, num_paths=cfg.paths, seed=fade_seed,
                ), cfg.packet_len).gains for fade_seed in self._fade_seeds])
            self._rate = rate
        return self._gains


class _Chunk:
    """A chunk's lanes as arrays, written lane by lane by :meth:`fill`: the step inputs
    (the one ``(L, M, T)`` received block, user 0's transmitted symbols and the initial
    filters), the scoring terms at the sorted, distinct ``marks`` and, with ``oracle``
    set, the mmse oracle's data errors and filters at the marks."""

    def __init__(self, cfg: ExperimentConfig, lanes: int, marks=(), oracle: bool = False):
        window, length, n = cfg.gain + cfg.paths - 1, cfg.packet_len, len(marks)
        self.cfg, self.marks = cfg, np.asarray(marks, dtype=np.intp)
        self.received = np.empty((lanes, window, length), complex)
        self.refs, self.w_init = np.empty((lanes, length)), np.empty((lanes, window), complex)
        self.cov = np.empty((lanes, n, window, window), complex)  # received covariance
        self.target = np.empty((lanes, n, window), complex)       # user 0's signature
        self.snr = np.empty((lanes, n))                           # realized input SNR
        # Filters at the marks only: no lane's (T, M) oracle filters outlive its fill.
        self.oracle = ((np.empty((lanes, length)), np.empty((lanes, n, window), complex))
                       if oracle else None)

    def fill(self, j: int, draws: _PacketDraws, fading_rate: float, snr_db: float) -> None:
        """Write lane ``j``: the packet of ``draws`` at one grid point."""
        cfg, marks = self.cfg, self.marks
        scenario = ChannelScenario(users=cfg.users, gain=cfg.gain, paths=cfg.paths, snr_db=snr_db,
                                   fading_rate=fading_rate, include_isi=cfg.isi)
        variance = scenario.noise_variance
        gains = draws.gains(scenario)
        signatures = draws.operators @ gains  # (K, M, T)
        noise = np.sqrt(variance / 2.0) * draws.unit_noise
        self.received[j] = received_block(signatures, draws.transmitted, cfg.gain, noise=noise,
                                          include_isi=cfg.isi)
        self.refs[j] = draws.transmitted[0]
        self.w_init[j] = matched_filter_init(draws.codes[0].chips, scenario.window)
        rows = signature_rows(signatures)  # (T, M, K)
        self.cov[j] = conditional_covariance(rows, cfg.gain, variance, marks, cfg.isi)
        self.target[j] = rows[marks, :, 0]
        self.snr[j] = np.sum(np.abs(gains[0][:, marks]) ** 2, axis=0) / variance
        if self.oracle is None:
            return
        # The per-symbol MMSE oracle, solved in blocks, with coherent detection.
        length = cfg.packet_len
        filters = np.empty((length, scenario.window), complex)  # row i: symbol i
        for cols in np.split(np.arange(length), np.arange(_MMSE_BLOCK, length, _MMSE_BLOCK)):
            filters[cols] = mmse_filters(rows, cfg.gain, variance, cols, cfg.isi)
        z = np.einsum("im,mi->i", np.conj(filters), self.received[j])
        errors, at_marks = self.oracle
        errors[j] = np.where(z.real >= 0, 1.0, -1.0) != self.refs[j]
        at_marks[j] = filters[marks]


def _score(filters, cov, target, snr) -> np.ndarray:
    """Output SINR over realized input SNR, in dB, of ``(L, n, M)`` filters.

    Against a :class:`_Chunk`'s terms, lane by lane: no lane's bits depend on its chunk.
    """
    signal = np.abs(lane_dot(filters, target)) ** 2
    total = lane_dot(filters, np.matmul(cov, filters[..., None])[..., 0]).real
    return 10.0 * np.log10(np.maximum(signal / (total - signal) / snr, _SINR_FLOOR))


# ----------------------------------------------------------------------
# The lane engine: every receiver steps a chunk of lanes at once.
# ----------------------------------------------------------------------

def _initial_power(received: np.ndarray) -> np.ndarray:
    first = received[..., 0]
    power = lane_dot(first, first).real
    return np.where(power > 0, power, 1.0)


def _unit_power_gain(z: np.ndarray, forget: float) -> np.ndarray:
    """Rescale enforcing the unit output-power constraint E|w^H r|^2 = 1.

    The pair-error cost is minimized by the zero correlator.  The power
    estimate is one forgetting step from unit power towards this symbol's
    output, with no running average across symbols.  The positive real
    factor leaves the SINR and the relative pair errors untouched while
    blocking the slow collapse (and its direction-noise accumulation)
    observed without it.
    """
    power = forget * 1.0 + (1.0 - forget) * np.abs(z) ** 2
    return 1.0 / np.sqrt(np.maximum(power, 1e-12))


class _NlmsLanes:
    """Conventional NLMS on known or decided symbols."""

    def __init__(self, specs, cfg: ExperimentConfig, w_init, received):
        self.weights, self.power = w_init.copy(), _initial_power(received)
        self.step_size, self.forget = cfg.mu, cfg.lambda_m

    def update(self, window, symbols, outputs) -> None:
        self.weights, self.power = nlms_lanes(self.weights, self.power, self.step_size,
                                              self.forget, window[..., -1], symbols[..., -1],
                                              outputs[..., -1])


class _RlsLanes:
    """Exponentially weighted RLS on known or decided symbols.  The ``(lanes, M, M)``
    inverse depends on the received samples alone, so it has no receiver axis."""

    def __init__(self, specs, cfg: ExperimentConfig, w_init, received):
        lanes, dim = w_init.shape[-2:]
        self.weights, self.forget = w_init.copy(), cfg.lambda_rls
        self.inv_corr = np.repeat(np.eye(dim, dtype=np.complex128)[None] / cfg.delta, lanes, axis=0)

    def update(self, window, symbols, outputs) -> None:
        self.weights = rls_lanes(self.weights, self.inv_corr, self.forget, window[..., -1],
                                 symbols[..., -1], outputs[..., -1])


class _PairLanes:
    """State every pair-error tracker shares: filter, mixing weights and the rescale.

    ``specs`` holds one receiver per index of the receiver axis.  Its
    weights name the first pairs of the three-sample window, filled out
    with zeros.  At symbol 1 every receiver takes pair (0, 1) alone with
    weight one; from symbol 2 on its lanes take its own weights, and only
    an adaptive receiver's lanes move them.
    """

    def __init__(self, specs, cfg: ExperimentConfig, w_init):
        self.weights = w_init.copy()
        rows = [spec.pair_weights + (0.0,) * (3 - len(spec.pair_weights)) for spec in specs]
        # Full, so that the adaptive rows are written back in place.
        self.mixing = np.repeat(np.array(rows)[:, None], w_init.shape[1], axis=1)
        self.one_pair = np.ones((*w_init.shape[:-1], 1))
        self.adaptive = [k for k, spec in enumerate(specs) if spec.adapt]
        self.mixing_forget = cfg.lambda_e

    def mix(self, symbols, outputs):
        """Every receiver's pair errors from its window ``outputs``, and the mixing
        weights, each adaptive receiver's row first moved along its errors on three
        samples; elementwise per lane, so a lane's bits do not depend on its group."""
        errors, total = pair_errors_lanes(outputs, symbols)
        if outputs.shape[-1] == 2:
            return errors, self.one_pair
        for k in self.adaptive:
            self.mixing[k] = mixing_lanes(self.mixing[k], errors[k], total[k], self.mixing_forget)
        return errors, self.mixing

    def rescale(self, gamma) -> None:
        self.weights *= gamma[..., None]


class _PairNlmsLanes(_PairLanes):
    """Pair-error NLMS over the pair window."""

    def __init__(self, specs, cfg: ExperimentConfig, w_init, received):
        super().__init__(specs, cfg, w_init)
        self.power, self.step_size, self.forget = _initial_power(received), cfg.mu, cfg.lambda_m

    def update(self, window, symbols, outputs) -> None:
        errors, rho = self.mix(symbols, outputs)
        self.weights, self.power = pair_nlms_lanes(self.weights, self.power, self.step_size,
                                                   self.forget, rho, errors, window, symbols)


class _CgLanes(_PairLanes):
    """Correlation recursions re-solved by warm-started conjugate gradients.  With +-1
    symbols, the receivers share one ``(2, lanes, M, M)`` stack, the averages of the
    window's two newest samples, and the newest sample's outer product, which the first
    update (symbol 1) finds as ``r[0] r[0]^H``.  The kernel updates all three in place."""

    def __init__(self, specs, cfg: ExperimentConfig, w_init, received):
        super().__init__(specs, cfg, w_init)
        lanes, dim = w_init.shape[-2:]
        self.autocorr = np.tile(cfg.delta * np.eye(dim, dtype=np.complex128), (2, lanes, 1, 1))
        first = received[..., 0]
        self.outer = first[..., :, None] * np.conj(first)[..., None, :]
        self.crosscorr = np.zeros((*w_init.shape[:-1], 3, dim), dtype=np.complex128)
        self.cfg = cfg

    def update(self, window, symbols, outputs) -> None:
        _, rho = self.mix(symbols, outputs)
        cfg = self.cfg
        self.weights = cg_step_lanes(
            self.autocorr, self.outer, self.crosscorr, self.weights, cfg.lambda_cg, cfg.jmax,
            cfg.cg_loading, rho, window, symbols, outputs, cfg.paper_literal_t1)

    def rescale(self, gamma) -> None:
        super().rescale(gamma)
        # The cross vectors are linear in the filter, so they rescale too.
        self.crosscorr *= gamma[..., None, None]


@dataclass(frozen=True)
class _Receiver:
    lanes: type | None                             # lane state; None: the mmse oracle
    pair_weights: tuple[float, ...] | None = None  # initial mixing weights
    adapt: bool = False                            # mixing follows the pair errors


_THIRDS = (1.0 / 3.0,) * 3

# Every receiver reads one differentially encoded stream.  Coherent
# baselines (no pair weights) detect each transmitted symbol; the pair-error
# trackers detect the product of adjacent ones, the data.  Pair weights name
# the first pairs of the three-sample window (pair_indices(3)), so the
# two-sample restriction is one weight on pair (0, 1).
_RECEIVERS = {
    "mmse": _Receiver(None),
    "nlms": _Receiver(_NlmsLanes),
    "rls": _Receiver(_RlsLanes),
    "diff-nlms": _Receiver(_PairNlmsLanes, (1.0,)),
    "diff-cg": _Receiver(_CgLanes, (1.0,)),
    "bidir-nlms": _Receiver(_PairNlmsLanes, _THIRDS, adapt=True),
    "bidir-nlms-equal": _Receiver(_PairNlmsLanes, _THIRDS),
    "bidir-cg": _Receiver(_CgLanes, _THIRDS, adapt=True),
    "bidir-cg-equal": _Receiver(_CgLanes, _THIRDS),
}
ALGORITHMS = tuple(_RECEIVERS)


def _groups(names) -> list[tuple[str, ...]]:
    """The adaptive receivers that share one step loop, in order of first appearance.

    A group holds the receivers of one lane class: every CG receiver, or
    every pair NLMS receiver; the others step alone.  The oracle belongs to
    no group.
    """
    groups: dict[type, list[str]] = {}
    for name in names:
        spec = _RECEIVERS[name]
        if spec.lanes is not None:
            groups.setdefault(spec.lanes, []).append(name)
    return [tuple(group) for group in groups.values()]


def _step_lanes(names, cfg: ExperimentConfig, received, refs, w_init,
                marks=(), record_weights: bool = False):
    """Receivers ``names`` of one group on a chunk of lanes, one step per symbol.

    ``received`` is the chunk's ``(L, M, T)`` block, ``refs`` the desired
    user's ``(L, T)`` transmitted symbols and ``w_init`` the initial
    filters; a differential decision is checked against the data bit
    ``refs[:, i] * refs[:, i - 1]``.  Each receiver's state
    has a leading receiver axis, ``(len(names), L, ...)``, over which these
    shared inputs and the statistics of the received samples alone (CG
    autocorrelations, input power, RLS inverse) broadcast, so every lane
    reads its window as a strided slice of ``received`` itself, newest last:
    the coherent trackers step from symbol 0 on one sample, the pair
    trackers from symbol 1 on two (pair (0, 1) alone), then three.  Each
    symbol forms every filter's outputs w^H r over its window in one
    product, which detection, the rescale and the update read.  Returns,
    per receiver, the data errors ``(L, T)`` (NaN where undefined), the
    filters right after each of the sorted, distinct ``marks``
    ``(L, len(marks), M)`` and, when asked, the ``(L, M, T)`` filter
    trajectories.
    """
    specs = [_RECEIVERS[name] for name in names]
    lanes, window, length = received.shape
    shape = (len(names), lanes)
    tracker = specs[0].lanes(specs, cfg, np.broadcast_to(w_init, (*shape, window)), received)
    differential = specs[0].pair_weights is not None
    # Column 0 of the differential truth wraps around and is never read.
    truth = refs * np.roll(refs, 1, axis=-1) if differential else refs
    used = np.empty((*shape, length))  # the symbols the updates see: known or decided
    errors = np.full((*shape, length), np.nan)
    filters = np.empty((*shape, len(marks), window), dtype=np.complex128)
    trajectory = (np.empty((*shape, window, length), dtype=np.complex128) if record_weights
                  else [None] * len(names))
    mark_of = {i: k for k, i in enumerate(marks)}
    z_prev = None
    for i in range(length):
        past = max(i - 2, 0) if differential else i
        samples = received[..., past:i + 1]
        outputs = np.matmul(np.conj(tracker.weights)[..., None, :], samples)[..., 0, :]
        z = outputs[..., -1]
        if differential and i == 0:
            # Symbol 0 carries the protocol-known reference, no data.
            used[..., 0] = refs[:, 0]
        else:
            statistic = z * np.conj(z_prev) if differential else z
            decided = np.where(statistic.real >= 0, 1.0, -1.0)
            errors[..., i] = decided != truth[:, i]
            if i < cfg.train_len:
                used[..., i] = refs[:, i]
            else:
                used[..., i] = decided * used[..., i - 1] if differential else decided
        if i or not differential:  # symbol 0 holds no pair
            tracker.update(samples, used[..., past:i + 1], outputs)
        if differential:
            tracker.rescale(_unit_power_gain(z, cfg.lambda_m))
        if record_weights:
            trajectory[..., i] = tracker.weights
        if i in mark_of:
            filters[..., mark_of[i], :] = tracker.weights
        z_prev = z
    # A non-finite filter stays non-finite, so one check after the packet
    # catches an overflow at any symbol.
    for name, weights in zip(names, tracker.weights):
        if not np.isfinite(weights).all():
            raise ValueError(f"{name} filter weights became non-finite")
    return list(zip(errors, filters, trajectory))


@dataclass
class _LaneRuns:
    errors: np.ndarray          # (L, T) data errors; NaN where undefined
    sinr: np.ndarray            # (L, len(marks)) normalized SINR (dB) after each mark
    weights: np.ndarray | None  # (L, M, T) trajectories when requested


def _simulate(cfg: ExperimentConfig, points, names, marks=(), record_weights: bool = False,
              fixed_codes=None):
    """Run receivers ``names`` on every (packet, grid point) lane, a chunk at a time.

    ``points`` holds ``(fading rate, SNR dB)`` pairs.  Lanes go packet
    by packet, so each packet's draws are made once and shared by its
    points; chunks of ``_CHUNK_LANES`` consecutive lanes step together.
    The oracle's outputs come with the chunk; the receivers of a group
    (:func:`_groups`) share one step loop over the whole chunk, and no
    lane's result depends on the others.  Yields each chunk's
    ``(packet, point index)`` lanes with ``{name: _LaneRuns}``, the SINR
    scored after each of the sorted, distinct ``marks``.
    """
    items = [(p, g) for p in range(cfg.packets) for g in range(len(points))]
    draws = None
    for start in range(0, len(items), _CHUNK_LANES):
        lanes = items[start:start + _CHUNK_LANES]
        num = len(lanes)
        chunk = _Chunk(cfg, num, marks, "mmse" in names)
        for j, (packet, g) in enumerate(lanes):
            if draws is None or draws.index != packet:
                draws = None  # before the next packet's draws are made
                draws = _PacketDraws(cfg, packet, fixed_codes)
            chunk.fill(j, draws, *points[g])
        # Keep a packet's draws only while its lanes run on into the next chunk.
        if start + num == len(items) or items[start + num][0] != draws.index:
            draws = None
        outputs = {} if chunk.oracle is None else {"mmse": (*chunk.oracle, None)}
        for group in _groups(names):
            outputs.update(zip(group, _step_lanes(group, cfg, chunk.received, chunk.refs,
                                                  chunk.w_init, marks, record_weights)))
        runs = {name: _LaneRuns(errors, _score(filters, chunk.cov, chunk.target, chunk.snr),
                                weights) for name, (errors, filters, weights) in outputs.items()}
        del chunk  # before the next chunk allocates its own
        yield lanes, runs


def check_experiment(experiment: str, cfg: ExperimentConfig,
                     ensemble_size: int | None = None, samples: int | None = None,
                     lags=None) -> None:
    """Raise ``ValueError`` if ``cfg`` does not suit ``experiment`` (a CLI subcommand).

    These rules come on top of :class:`ExperimentConfig`'s own: each ``run_*``
    function applies them before any work, and the CLI reports them as usage
    errors.  A grid the experiment does not sweep must hold one point;
    ``ensemble_size``, when given, is the ``analyze`` moment ensemble's size;
    ``samples`` and ``lags`` are ``channel-stats``' fading samples per rate
    and its autocorrelation lags, one or more distinct lags in ``[0, samples)``.
    """
    unswept = {"ber": ("fading_grid",), "sinr-vs-fading": ("snr_db",),
               "analyze": ("fading_grid", "snr_db")}
    for key in unswept.get(experiment, ()):
        values = getattr(cfg, key)
        if len(values) != 1:
            raise ValueError(f"{key} must hold one point here, got {values}")
    rules = []
    if experiment == "sinr-vs-fading":
        rules = [(min(cfg.fading_grid) <= 0.001 and max(cfg.fading_grid) >= 0.02,
                  "fading grid must span at least [0.001, 0.02]"),
                 (cfg.train_len >= 1, "sinr-vs-fading needs a training prefix"),
                 (cfg.train_len < cfg.packet_len,
                  "sinr-vs-fading needs symbols after training")]
    elif experiment == "analyze":
        rules = [(cfg.fading_grid[0] > 0, "analyze needs a positive fading rate"),
                 (ensemble_size is None or ensemble_size >= 10000,
                  "analysis comparison needs an ensemble of at least 10^4")]
    elif experiment == "channel-stats":
        rules = [(samples >= 1, "--samples must be at least 1"),
                 (len(set(lags)) == len(lags) > 0 and 0 <= min(lags) <= max(lags) < samples,
                  "--lags must list one or more distinct lags in [0, samples)")]
    for ok, message in rules:
        if not ok:
            raise ValueError(message)


# ----------------------------------------------------------------------
# Experiments.
# ----------------------------------------------------------------------

def _collect(cfg: ExperimentConfig, points, marks=()):
    """Every receiver's lanes per (grid point, packet): the data errors ``(points,
    packets, T)``, NaN where undefined (float16 holds 0, 1 and NaN exactly), and the
    normalized SINR (dB) after each of ``marks``, ``(points, packets, len(marks))``."""
    shape = (len(points), cfg.packets)
    errors = {name: np.empty((*shape, cfg.packet_len), dtype=np.float16)
              for name in cfg.algorithms}
    sinr = {name: np.empty((*shape, len(marks))) for name in cfg.algorithms}
    for lanes, runs in _simulate(cfg, points, cfg.algorithms, marks=marks):
        packets, grid = np.array(lanes).T
        for name, run in runs.items():
            errors[name][grid, packets] = run.errors
            sinr[name][grid, packets] = run.sinr
    return errors, sinr


def run_ber_curve(cfg: ExperimentConfig) -> list[MetricsRecord]:
    """Per-symbol BER learning curves averaged over packets.

    One record per (SNR grid point, algorithm, symbol index).  Symbol 0
    is every user's known +1 reference: a pair tracker makes no decision
    there and skips it, and a coherent receiver's symbol-0 row is decided
    on that known symbol.  The fading grid must hold one rate.
    """
    check_experiment("ber", cfg)
    errors, _ = _collect(cfg, [(cfg.fading_grid[0], snr_db) for snr_db in cfg.snr_db])
    records: list[MetricsRecord] = []
    for g, snr_db in enumerate(cfg.snr_db):
        for name in cfg.algorithms:
            stacked = errors[name][g].astype(float)
            counts = np.sum(~np.isnan(stacked), axis=0)
            means = np.nansum(stacked, axis=0) / np.maximum(counts, 1)
            half = 1.96 * np.sqrt(np.maximum(means * (1.0 - means), 0.0) / np.maximum(counts, 1))
            records += [MetricsRecord("ber", name, float(snr_db), i, p, None, ci, cfg.seed)
                        for i, n, p, ci in zip(range(cfg.packet_len), counts.tolist(),
                                               means.tolist(), half.tolist()) if n]
    return records


def run_sinr_vs_fading(cfg: ExperimentConfig) -> list[MetricsRecord]:
    """Mean normalized SINR at end of training and end of packet.

    For every fading rate and algorithm, two records are emitted: the
    filter right after the last training symbol and the final filter,
    each scored against the instantaneous channel at that symbol and
    normalized by the realized input SNR.  The record's ``ber`` field
    carries the post-training BER.  The SNR grid must hold one point.
    """
    check_experiment("sinr-vs-fading", cfg)
    marks = (cfg.train_len - 1, cfg.packet_len - 1)
    errors, sinr = _collect(cfg, [(rate, cfg.snr_db[0]) for rate in cfg.fading_grid], marks)
    records: list[MetricsRecord] = []
    for g, rate in enumerate(cfg.fading_grid):
        for name in cfg.algorithms:
            post = errors[name][g, :, cfg.train_len:].astype(float)
            post_ber = float(np.nanmean(np.nanmean(post, axis=1)))
            for k, mark in enumerate(marks):
                values = sinr[name][g, :, k]
                half = 1.96 * float(np.std(values)) / np.sqrt(cfg.packets)
                records.append(MetricsRecord("sinr-vs-fading", name, float(rate), mark, post_ber,
                                             float(np.mean(values)), half, cfg.seed))
    return records


def run_analysis_comparison(cfg: ExperimentConfig, ensemble_size: int = 10000,
                            cache_dir=None, g_init: str = "identity") -> list[MetricsRecord]:
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
    check_experiment("analyze", cfg, ensemble_size)
    rate, snr_db = cfg.fading_grid[0], cfg.snr_db[0]
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

    # Effective scalar step of the normalized update: mu over the mean
    # input energy tracked by the normalization factor.  Each tracker's
    # recursion weighs its pairs by the tracker's own mixing weights.
    mean_energy = float(np.real(np.trace(moments.autocorr_terms[0])))
    mu_eff = cfg.mu / mean_energy
    names = ("bidir-nlms-equal", "diff-nlms")

    mmse_ratio = analysis.mmse_bound_db(moments)
    records = [MetricsRecord("analyze", "mmse-bound", float(rate), i, None, mmse_ratio, None,
                             cfg.seed) for i in range(length)]

    curves = {name: np.empty((cfg.packets, length)) for name in names}
    train_cfg = replace(cfg, train_len=cfg.packet_len)
    for lanes, runs in _simulate(train_cfg, [(rate, snr_db)], names, record_weights=True,
                                 fixed_codes=fixed_codes):
        packets = [packet for packet, _ in lanes]
        for name, run in runs.items():
            w, w_conj = run.weights, np.conj(run.weights)
            sig_power, int_power = (np.einsum("lmi,lmi->li", w_conj, corr @ w).real
                                    for corr in (moments.signal_corr, moments.interference_corr))
            curves[name][packets] = sig_power / int_power

    for name in names:
        curve = analysis.analytical_curve(moments, mu_eff, _RECEIVERS[name].pair_weights,
                                          length, g_init)
        records += [MetricsRecord("analyze", f"{name}-analytical", float(rate), i, None,
                                  sinr, None, cfg.seed) for i, sinr in enumerate(curve.tolist())]

        mean_linear = np.mean(curves[name], axis=0)
        per_packet_db = 10.0 * np.log10(np.maximum(curves[name], _SINR_FLOOR))
        ci = 1.96 * np.std(per_packet_db, axis=0) / np.sqrt(cfg.packets)
        records += [MetricsRecord("analyze", name, float(rate), i, None,
                                  float(10.0 * np.log10(max(mean, _SINR_FLOOR))), half, cfg.seed)
                    for i, (mean, half) in enumerate(zip(mean_linear.tolist(), ci.tolist()))]
    return records


def run_channel_stats(cfg: ExperimentConfig, samples: int = 200000,
                      lags=(1, 2, 5)) -> list[tuple]:
    """Empirical versus theoretical fading autocorrelation rows."""
    check_experiment("channel-stats", cfg, samples=samples, lags=lags)
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


def _column(values) -> list[str]:
    """``_fmt`` of each value; a column of built-in floats (ints) alone takes ``repr``
    (``str``) in one pass.  Types match exactly: numpy scalars and bools take ``_fmt``."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map(repr, values))
    if kinds == {int}:
        return list(map(str, values))
    return list(map(_fmt, values))


def _write(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def emit_csv(records, path) -> None:
    """Write records as UTF-8 CSV, ordered by (experiment, algorithm, sweep, symbol)."""
    columns = list(zip(*sorted(records, key=itemgetter(0, 1, 2, 3))))
    # The experiment and algorithm names are written as they are.
    _write(path, MetricsRecord._fields, zip(*columns[:2], *map(_column, columns[2:])))


def emit_channel_stats(rows, path) -> None:
    """Write channel-stats rows with their own header."""
    _write(path, ("fading_rate", "lag", "empirical_re", "empirical_im", "theoretical"),
           zip(*map(_column, zip(*sorted(rows)))))
