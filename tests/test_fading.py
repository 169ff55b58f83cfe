"""Fading generator and channel-correlation statistics."""

import numpy as np
import pytest
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

    def test_single_window_follows_generate_fading(self):
        # One path, no batch axes: the draws come in generate_fading's
        # order, so only the phasor stepping differs.
        config = FadingConfig(0.02, num_oscillators=16, seed=11)
        window = fading_windows(config, 6, np.random.default_rng(11), ())
        assert np.allclose(window, generate_fading(config, 6).gains, rtol=0, atol=1e-12)

    def test_zero_doppler_freezes_each_window(self):
        config = FadingConfig(0.0, num_paths=3)
        gains = fading_windows(config, 5, np.random.default_rng(2), (4,))
        assert np.allclose(gains, gains[..., :1], rtol=0, atol=1e-12)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            fading_windows(FadingConfig(0.01), 0, np.random.default_rng(0), (2,))

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an extended long double")
    @pytest.mark.parametrize("rate", [0.0, 0.005, 0.1, 1.5])
    def test_matches_direct_evaluation(self, rate):
        config = FadingConfig(rate, num_paths=2, power_profile=(0.7, 0.3), num_oscillators=24)
        batch, length, q = (3, 2), 6, config.num_oscillators
        shape = (*batch, config.num_paths)
        rng = np.random.default_rng(25)
        gains = fading_windows(config, length, rng, batch)
        # The generator ends where uniform(0, 2*pi) phase draws would leave it.
        old = np.random.default_rng(25)
        old.uniform(size=shape)
        old.uniform(0.0, 2.0 * np.pi, size=(*shape, q))
        assert rng.random() == old.random()
        # Each initial phase 2*pi*v formed in extended precision from the same draws v.
        replay = np.random.default_rng(25)
        rotation = replay.uniform(size=shape)
        phases = (2 * np.arccos(np.longdouble(-1)) * replay.random((*shape, q))).astype(float)
        for index in np.ndindex(*shape):
            omega = fading._doppler_rates(rate, rotation[index], q)
            amplitude = np.sqrt(config.power_profile[index[-1]] / q) * np.exp(1j * phases[index])
            error = np.abs(gains[index] - direct_gains(omega, amplitude, np.arange(length))).max()
            assert error <= 1e-13, (index, error)


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

    def test_fading_windows_bits(self, monkeypatch):
        rng = np.random.default_rng(41)
        for _ in range(40):
            config = FadingConfig(float(rng.uniform(0, 0.2)), num_paths=int(rng.integers(1, 4)),
                                  num_oscillators=int(rng.integers(8, 80)))
            batch = tuple(int(n) for n in rng.integers(1, 5, size=rng.integers(0, 3)))
            length = int(rng.integers(1, 8))
            seed = int(rng.integers(2**31))
            new, old = self.both(monkeypatch, lambda: fading_windows(
                config, length, np.random.default_rng(seed), batch))
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
