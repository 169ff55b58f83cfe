"""Fading generator and channel-correlation statistics."""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.special import j0
from scipy.stats import kurtosis

from fadetrack import fading
from fadetrack.fading import (
    FadingConfig,
    clarke_autocorrelation,
    correlation_factors,
    empirical_autocorrelation,
    fading_windows,
    generate_fading,
)


def bessel_j0_series(x: float) -> float:
    """Independent power-series oracle: J0(x) = sum (-1)^k (x/2)^(2k) / (k!)^2."""
    total, term, k = 0.0, 1.0, 0
    while abs(term) > 1e-18:
        total += term
        k += 1
        term *= -((x / 2.0) ** 2) / k**2
    return total


class TestClarkeAutocorrelation:
    def test_zero_lag_is_one(self):
        for rate in (0.0, 0.003, 0.01, 0.2):
            assert clarke_autocorrelation(rate, 0) == 1.0

    def test_small_rate_lag_one(self):
        expected = bessel_j0_series(2 * np.pi * 0.01)  # 0.9990133
        assert expected == pytest.approx(0.99901, abs=1e-5)
        assert clarke_autocorrelation(0.01, 1) == pytest.approx(expected, abs=1e-5)

    def test_rate_point_one_lag_four(self):
        # Oracle value of J0(0.8*pi); approximately -0.054960.
        expected = bessel_j0_series(0.8 * np.pi)
        assert expected == pytest.approx(-0.0549604, abs=1e-6)
        assert clarke_autocorrelation(0.1, 4) == pytest.approx(expected, abs=1e-4)

    def test_bounded(self):
        values = [clarke_autocorrelation(0.07, m) for m in range(0, 60)]
        assert all(-1.0 <= v <= 1.0 for v in values)

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            clarke_autocorrelation(0.01, -1)

    def test_numpy_j0_matches_scipy(self):
        x = np.linspace(0.0, 60.0, 6001)
        assert np.abs(fading._bessel_j0(x) - j0(x)).max() <= 1e-14
        for rate, lag in ((0.01, 1), (0.07, 59), (1.5, 6)):
            assert clarke_autocorrelation(rate, lag) == pytest.approx(
                j0(2.0 * np.pi * rate * lag), rel=0, abs=1e-14)


    def test_large_arguments_match_scipy(self):
        x = np.concatenate([np.linspace(0.0, 200.0, 4001), np.geomspace(200.0, 1e7, 20001)])
        assert np.abs(fading._bessel_j0(x) - j0(x)).max() <= 1e-13
        assert clarke_autocorrelation(1.5, 10**6) == pytest.approx(
            j0(2.0 * np.pi * 1.5 * 10**6), rel=0, abs=1e-13)

    def test_small_arguments_keep_the_quadrature(self):
        # Arguments within the quadrature's range keep its bits, also beside large ones.
        x = np.array([0.0, 0.3, 12.5, fading._J0_QUADRATURE_MAX])
        assert np.array_equal(fading._bessel_j0(x), fading._j0_quadrature(x))
        mixed = fading._bessel_j0(np.array([12.5, 1e6]))
        assert mixed[0] == fading._j0_quadrature(np.array([12.5]))[0]

    def test_large_argument_cost_is_bounded(self):
        # The quadrature alone would take 2*|x| nodes: 1.9e7 at this lag.
        code = "\n".join([
            "import resource, time",
            "from fadetrack.fading import clarke_autocorrelation",
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
            "start = time.perf_counter()",
            "clarke_autocorrelation(1.5, 10**6)",
            "elapsed = time.perf_counter() - start",
            "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before",
            "assert elapsed < 0.05, elapsed",
            "assert grown < 5 * 1024, grown",  # kB
        ])
        subprocess.run([sys.executable, "-c", code], check=True)


class TestGenerateFading:
    def test_zero_doppler_freezes_channel(self):
        seq = generate_fading(FadingConfig(normalized_doppler=0.0, seed=7), 100)
        assert np.allclose(seq.gains, seq.gains[:, :1], rtol=0, atol=1e-12)

    def test_deterministic_given_seed(self):
        cfg = FadingConfig(normalized_doppler=0.01, num_paths=3, seed=7)
        a = generate_fading(cfg, 400)
        b = generate_fading(cfg, 400)
        assert np.array_equal(a.gains, b.gains)

    def test_paths_differ(self):
        seq = generate_fading(FadingConfig(0.01, num_paths=2, seed=1), 50)
        assert not np.allclose(seq.gains[0], seq.gains[1])

    def test_lag_one_autocorrelation_matches_model(self):
        seq = generate_fading(FadingConfig(0.01, seed=7), 1_000_000)
        emp = empirical_autocorrelation(seq.gains[0], 1).real
        assert emp == pytest.approx(bessel_j0_series(0.02 * np.pi), abs=0.01)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            generate_fading(FadingConfig(0.01, seed=1), 0)

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            FadingConfig(0.01, num_paths=2, power_profile=())

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -0.01])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            FadingConfig(rate, seed=1)

    @pytest.mark.parametrize("profile", [(float("nan"),), (float("inf"),), (-0.5, 1.5)])
    def test_bad_path_power_rejected(self, profile):
        with pytest.raises(ValueError):
            FadingConfig(0.01, num_paths=len(profile), power_profile=profile)

    def test_profile_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FadingConfig(0.01, num_paths=2, power_profile=(0.7, 0.2))

    def test_path_power_matches_profile(self):
        profile = (0.6, 0.4)
        seq = generate_fading(
            FadingConfig(0.02, num_paths=2, power_profile=profile, seed=3), 200_000)
        for path, power in enumerate(profile):
            sample = np.mean(np.abs(seq.gains[path]) ** 2)
            # Standard error of |h|^2 under Rayleigh fading is power/sqrt(T)
            # inflated by the sample correlation; 3 SE with a generous factor.
            assert abs(sample - power) < 3 * 10 * power / np.sqrt(200_000)


@pytest.fixture(scope="module")
def long_sequence():
    return generate_fading(FadingConfig(0.01, seed=7), 1_000_000)


class TestStatisticalInvariants:
    def test_autocorrelation_lags(self, long_sequence):
        g = long_sequence.gains[0]
        for lag in (1, 2, 5):
            emp = empirical_autocorrelation(g, lag).real
            assert emp == pytest.approx(clarke_autocorrelation(0.01, lag), abs=0.01)

    def test_zero_mean(self, long_sequence):
        g = long_sequence.gains[0]
        assert abs(np.mean(g)) < 4.0 / np.sqrt(g.size)

    def test_marginal_near_gaussian(self, long_sequence):
        k = kurtosis(long_sequence.gains[0].real, fisher=False)
        assert 2.8 <= k <= 3.2


class TestFadingWindows:
    def test_power_and_correlation_match_model(self):
        # Ensemble averages over 4*10^4 independent windows: the standard
        # error of each is below 0.01 of the path power.
        profile = (0.7, 0.3)
        config = FadingConfig(0.1, num_paths=2, power_profile=profile)
        gains = fading_windows(config, 3, np.random.default_rng(5), (20_000, 2))
        assert gains.shape == (20_000, 2, 2, 3)
        for path, power in enumerate(profile):
            g = gains[:, :, path].reshape(-1, 3)
            assert np.mean(np.abs(g) ** 2) == pytest.approx(power, rel=0.03)
            for lag in (1, 2):
                corr = np.mean(g[:, lag:] * np.conj(g[:, :-lag]))
                assert corr.real / power == pytest.approx(
                    clarke_autocorrelation(0.1, lag), abs=0.03)
                assert abs(corr.imag) / power < 0.03
        # Paths are uncorrelated.
        cross = np.mean(gains[:, :, 0] * np.conj(gains[:, :, 1]))
        assert abs(cross) < 0.03 * np.sqrt(profile[0] * profile[1])

    def test_fourth_moment_is_gaussian(self):
        # A circular complex Gaussian gain has E|h|^4 = 2 p^2; |h|^2 / p is
        # exponential, so |h|^4 / p^2 has variance 24 - 4 = 20.  The config's
        # oscillator order (8) plays no part.
        profile, members = (0.7, 0.3), 100_000
        config = FadingConfig(0.1, num_paths=2, power_profile=profile, num_oscillators=8)
        gains = fading_windows(config, 1, np.random.default_rng(6), (members,))
        tol = 4.0 * np.sqrt(20.0 / members)
        for path, power in enumerate(profile):
            moment = np.mean(np.abs(gains[:, path, 0]) ** 4) / power**2
            assert moment == pytest.approx(2.0, abs=tol)
        # An 8-oscillator sum of sinusoids with uniform phases has 2 - 1/8.
        phases = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, size=(members, 8))
        sos = np.exp(1j * phases).sum(axis=-1) / np.sqrt(8)
        assert np.mean(np.abs(sos) ** 4) == pytest.approx(2.0 - 1.0 / 8, abs=tol)
        assert abs(np.mean(np.abs(sos) ** 4) - 2.0) > tol

    def test_same_seed_same_bits(self):
        config = FadingConfig(0.02, num_paths=3)
        first = fading_windows(config, 5, np.random.default_rng(9), (4, 2))
        fading._clarke_factor.cache_clear()
        # The config's own seed is not used: the bits come from the generator alone.
        again = fading_windows(replace(config, seed=1), 5, np.random.default_rng(9), (4, 2))
        assert np.array_equal(first, again)
        other = fading_windows(config, 5, np.random.default_rng(10), (4, 2))
        assert not np.any(first == other)

    @pytest.mark.parametrize("rate", [0.0, 0.001, 0.005, 0.1, 1.5])
    def test_factor_reproduces_clarke_covariance(self, rate):
        for length in (1, 2, 5, 8):
            factor = fading._clarke_factor(rate, length)
            target = toeplitz(j0(2.0 * np.pi * rate * np.arange(length)))
            assert np.abs(factor @ factor.T - target).max() <= 1e-14, length

    def test_zero_doppler_freezes_each_window(self):
        config = FadingConfig(0.0, num_paths=3)
        gains = fading_windows(config, 5, np.random.default_rng(2), (4,))
        assert np.allclose(gains, gains[..., :1], rtol=0, atol=1e-12)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            fading_windows(FadingConfig(0.01), 0, np.random.default_rng(0), (2,))


def direct_gains(omega, amplitude, t):
    """``amplitude @ exp(1j * outer(omega, t))`` with every angle formed and reduced mod
    2*pi in extended precision, so the reference carries no rounding of large angles."""
    angle = np.outer(np.asarray(omega, dtype=np.longdouble), np.asarray(t, dtype=np.longdouble))
    reduced = np.fmod(angle, 2 * np.arccos(np.longdouble(-1))).astype(np.float64)
    return amplitude @ np.exp(1j * reduced)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an extended long double")
class TestBlockSynthesis:
    """Block anchors times one phasor table against direct evaluation."""

    @pytest.mark.parametrize("rate", [0.0, 0.005, 0.1, 1.5])
    def test_matches_direct_evaluation(self, rate):
        config = FadingConfig(rate, num_paths=2, power_profile=(0.7, 0.3), seed=23)
        block = fading._BLOCK
        for length in (1, block - 1, block, block + 1, 1000, (1 << 17) + 7):
            gains = generate_fading(config, length).gains
            # Past 1000 samples, every 31st sample: all blocks, all offsets, and the last.
            t = np.arange(length) if length <= 1000 else np.r_[0:length:31, length - 1]
            rng = np.random.default_rng(config.seed)
            for path, power in enumerate(config.power_profile):
                rotation = rng.uniform()
                phases = rng.uniform(0.0, 2.0 * np.pi, size=config.num_oscillators)
                omega = fading._doppler_rates(rate, rotation, config.num_oscillators)
                amplitude = np.sqrt(power / config.num_oscillators) * np.exp(1j * phases)
                error = np.abs(gains[path, t] - direct_gains(omega, amplitude, t)).max()
                assert error <= 1e-12, (length, path, error)

    def test_oscillator_rates_match_direct_cosine(self):
        rng = np.random.default_rng(24)
        for q in (8, 64, 79):
            rotation = rng.uniform(size=(40, 3))
            omega = fading._doppler_rates(0.3, rotation, q)
            angles = 2.0 * np.pi * (np.arange(q) + rotation[..., None]) / q
            direct = 2.0 * np.pi * 0.3 * np.cos(angles)
            assert np.abs(omega - direct).max() <= 4e-15 * (2.0 * np.pi * 0.3)


class TestRealPhasors:
    """Phasors filled from real cos/sin keep the bits of ``exp(1j * x)``."""

    @staticmethod
    def both(monkeypatch, produce):
        new = produce()
        with monkeypatch.context() as patch:
            patch.setattr(fading, "_phasor", lambda angle: np.exp(1j * np.asarray(angle)))
            old = produce()
        return new, old

    def test_generate_fading_bits(self, monkeypatch):
        rng = np.random.default_rng(40)
        for trial in range(40):
            paths = int(rng.integers(1, 4))
            config = FadingConfig(float(rng.choice([0.0, rng.uniform(0, 0.1), rng.uniform(0, 2)])),
                                  num_paths=paths, num_oscillators=int(rng.integers(8, 80)),
                                  seed=int(rng.integers(2**31)))
            # Two configs span several blocks and end inside one.
            length = (7 * fading._BLOCK + 5 if trial < 2
                      else int(rng.choice([1, rng.integers(2, 400)])))
            new, old = self.both(monkeypatch, lambda: generate_fading(config, length).gains)
            assert np.array_equal(new, old)


class TestCorrelationFactors:
    def test_static_channel_fully_correlated(self):
        profile = (0.5, 0.3, 0.2)
        seq = generate_fading(
            FadingConfig(0.0, num_paths=3, power_profile=profile, seed=2), 10)
        assert correlation_factors(seq, 5) == (0.5, 0.5, 0.5)

    def test_small_rate_values(self):
        seq = generate_fading(FadingConfig(0.01, seed=4), 10)
        f1, f2, f3 = correlation_factors(seq, 4)
        assert f1 == pytest.approx(0.99901, abs=1e-4)
        assert f2 == pytest.approx(0.99606, abs=1e-4)
        assert f3 == pytest.approx(0.99901, abs=1e-4)

    def test_factors_nearly_equal_at_slow_fading(self):
        seq = generate_fading(FadingConfig(0.01, seed=4), 10)
        f1, f2, f3 = correlation_factors(seq, 3)
        assert abs(f1 - f2) < 0.005
        assert abs(f1 - f3) < 0.005

    def test_index_invariant(self):
        seq = generate_fading(FadingConfig(0.015, seed=9), 600)
        assert correlation_factors(seq, 2) == correlation_factors(seq, 599)

    def test_index_out_of_range(self):
        seq = generate_fading(FadingConfig(0.01, seed=1), 10)
        with pytest.raises(ValueError):
            correlation_factors(seq, 1)
        with pytest.raises(ValueError):
            correlation_factors(seq, 10)
