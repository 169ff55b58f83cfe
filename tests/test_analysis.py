"""Moment estimation and the analytical SINR recursions."""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import j0

from fadetrack import analysis
from fadetrack.analysis import (
    MomentMatrices,
    analytical_curve,
    analytical_sinr,
    estimate_moment_matrices,
    g_step,
    k_step,
    load_moments,
    load_or_estimate,
    make_analysis_state,
    mmse_bound_db,
    propagation_matrix,
    save_moments,
    simulated_sinr,
)
from fadetrack.dscdma import ChannelScenario, code_convolution_operator


def scalar_moments(r1=1.0, r2=0.0, r3=0.0, f1=0.0, f2=0.0, f3=0.0,
                   j1=0.0, j2=0.0, j3=0.0, rs=1.0, ri=1.0, ps=1.0, pi=1.0):
    """One-dimensional moment set for hand-checking the recursions."""
    arr = lambda x: np.array([[complex(x)]])
    return MomentMatrices(
        signal_corr=arr(rs), interference_corr=arr(ri),
        autocorr_terms=np.stack([arr(r1), arr(r2), arr(r3)]),
        cross_terms=np.stack([arr(f1), arr(f2), arr(f3)]),
        min_mse=np.array([j1, j2, j3]), p_s_opt=ps, p_i_opt=pi,
    )


@pytest.fixture(scope="module")
def single_user_moments():
    scenario = ChannelScenario(users=1, gain=8, paths=1, snr_db=10.0,
                               fading_rate=0.01, include_isi=False, code_seed=5)
    return scenario, estimate_moment_matrices(scenario, 4000, seed=1)


class TestEstimateMomentMatrices:
    def test_static_single_user_structure(self):
        # High SNR, frozen channel: every pair matrix collapses onto the
        # code outer product scaled by the squared amplitude.
        scenario = ChannelScenario(users=1, gain=8, paths=1, snr_db=60.0,
                                   fading_rate=0.0, include_isi=False, code_seed=5)
        m = estimate_moment_matrices(scenario, 2000, seed=1)
        code = scenario.codes()[0].chips
        target = np.outer(code, code)
        for mat in (m.cross_terms[0], m.cross_terms[1], m.cross_terms[2],
                    m.autocorr_terms[0]):
            rel = np.linalg.norm(mat - target) / np.linalg.norm(target)
            assert rel < 0.05

    def test_cross_terms_nearly_equal_at_slow_fading(self, single_user_moments):
        _, m = single_user_moments
        f1, f3 = m.cross_terms[0], m.cross_terms[2]
        assert np.linalg.norm(f1 - f3) / np.linalg.norm(f1) < 0.02

    def test_noise_only_interference(self):
        scenario = ChannelScenario(users=1, gain=8, paths=1, snr_db=10.0,
                                   fading_rate=0.0, include_isi=False)
        m = estimate_moment_matrices(scenario, 1000, seed=2)
        target = scenario.noise_variance * np.eye(8)
        assert np.linalg.norm(m.interference_corr - target) / np.linalg.norm(target) < 0.05

    def test_matrices_hermitian_and_interference_pd(self, single_user_moments):
        _, m = single_user_moments
        for mat in (m.signal_corr, m.interference_corr, *m.autocorr_terms):
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(m.interference_corr)) > 0

    def test_ensemble_floor_enforced(self):
        scenario = ChannelScenario(users=1, gain=4, paths=1, snr_db=10.0,
                                   fading_rate=0.0)
        with pytest.raises(ValueError):
            estimate_moment_matrices(scenario, 500)

    def test_diagnostics_report_residual_assumptions(self, single_user_moments):
        _, m = single_user_moments
        assert "lag1_received_crosscorr_rel" in m.diagnostics
        assert "lag1_symbol_corr" in m.diagnostics
        # Residuals should be small but are reported, not assumed zero.
        assert abs(m.diagnostics["lag1_symbol_corr"]) < 0.1


# Scenario with ISI at a fading rate where the lag-1 and lag-2
# correlations (0.904, 0.643) are far from one.
MODEL_SCENARIO = ChannelScenario(users=2, gain=4, paths=3, snr_db=10.0, fading_rate=0.1,
                                 include_isi=True, code_seed=2)


def model_moments(scenario, with_doppler=True, with_isi=True):
    """Closed-form means of the ensemble matrices.

    The ensemble draws each path's window as an exact circular complex
    Gaussian vector (:func:`fadetrack.fading.fading_windows`): every path is
    zero-mean with power ``1/L``, paths are uncorrelated and the lag-``m``
    correlation is exactly ``J0(2 pi fd m)``.  With
    ``S_k = C_k C_k^T / L`` the signature correlation of user k,
    the tail and precursor of a symbol fill the corners of the window
    they spill into.
    """
    gain, window = scenario.gain, scenario.window
    spill = window - gain
    corr = [op @ op.T / scenario.paths
            for op in (code_convolution_operator(c, scenario.paths) for c in scenario.codes())]

    def spilled(s):
        out = np.zeros_like(s)
        if not with_isi:
            return out
        out[:spill, :spill] += s[gain:, gain:]
        out[gain:, gain:] += s[:spill, :spill]
        return out

    def tail_precursor(s):
        out = np.zeros_like(s)
        if not with_isi:
            return out
        out[:spill, gain:] = s[gain:, :spill]
        return out

    lag = [j0(2 * np.pi * scenario.fading_rate * m) if with_doppler else 1.0
           for m in range(3)]
    signal = corr[0]
    interference = (scenario.noise_variance * np.eye(window) + sum(corr[1:])
                    + sum(spilled(s) for s in corr))
    cross = [lag[1] * (signal + tail_precursor(signal)), lag[2] * signal,
             lag[1] * (signal + tail_precursor(signal))]
    return signal, interference, cross


def relative_error(estimate, target):
    return float(np.linalg.norm(estimate - target) / np.linalg.norm(target))


class TestChunkedEnsemble:
    # Relative Frobenius errors of the matrices below ranged over
    # 0.005-0.024 at 2*10^4 members (seeds 0-5, typically 0.01); against
    # a target without the Doppler factor or without the ISI terms they
    # are 0.09 or more.
    TOL = 0.04

    @pytest.fixture(scope="class")
    def moments(self):
        return estimate_moment_matrices(MODEL_SCENARIO, 20_000, seed=3)

    def test_matrices_match_closed_form(self, moments):
        signal, interference, cross = model_moments(MODEL_SCENARIO)
        assert relative_error(moments.signal_corr, signal) < self.TOL
        assert relative_error(moments.interference_corr, interference) < self.TOL
        for n in range(3):
            assert relative_error(moments.cross_terms[n], cross[n]) < self.TOL
        for n in range(3):
            assert relative_error(moments.autocorr_terms[n], signal + interference) < self.TOL

    def test_closed_form_discriminates(self, moments):
        _, interference, cross = model_moments(MODEL_SCENARIO, with_isi=False)
        assert relative_error(moments.interference_corr, interference) > self.TOL
        assert relative_error(moments.cross_terms[0], cross[0]) > self.TOL
        _, _, cross = model_moments(MODEL_SCENARIO, with_doppler=False)
        assert relative_error(moments.cross_terms[0], cross[0]) > self.TOL
        assert relative_error(moments.cross_terms[1], cross[1]) > self.TOL

    def test_same_inputs_same_output(self):
        scenario = replace(MODEL_SCENARIO, users=3)
        a = estimate_moment_matrices(scenario, 1000, seed=5)
        b = estimate_moment_matrices(scenario, 1000, seed=5)
        for name in ("signal_corr", "interference_corr", "autocorr_terms",
                     "cross_terms", "min_mse"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert (a.p_s_opt, a.p_i_opt) == (b.p_s_opt, b.p_i_opt)
        assert a.diagnostics == b.diagnostics

    @pytest.mark.parametrize("size", [1008, 1000, 1001, 1017])  # each ends in a ragged chunk
    def test_every_member_drawn_once(self, size, monkeypatch):
        chunks = []
        draw = analysis.fading_windows

        def counted(config, length, rng, batch):
            chunks.append(batch[0])
            return draw(config, length, rng, batch)

        monkeypatch.setattr(analysis, "fading_windows", counted)
        m = estimate_moment_matrices(MODEL_SCENARIO, size, seed=1)
        full = analysis._CHUNK_MEMBERS
        assert sum(chunks) == size
        assert all(c == full for c in chunks[:-1]) and 1 <= chunks[-1] <= full
        # The lag-1 symbol correlation averages one +-1 product per member.
        products = round(m.diagnostics["lag1_symbol_corr"] * size)
        assert abs(products) <= size and (products - size) % 2 == 0
        assert m.diagnostics["ensemble_size"] == size

    # The version-1 estimator (one generator per member, one
    # generate_fading call per user) at seeds 0-9 on this scenario with
    # 2000 members: mean and sample standard deviation over the seeds.
    PREVIOUS = {
        "p_s_opt": (0.514143, 0.003553),
        "p_i_opt": (0.457701, 0.006188),
        "min_mse_0": (0.298740, 0.005203),
        "min_mse_1": (0.301277, 0.007515),
        "min_mse_2": (0.297614, 0.008431),
    }

    def test_agrees_with_previous_estimator(self):
        scenario = ChannelScenario(users=3, gain=8, paths=2, snr_db=10.0, fading_rate=0.01,
                                   include_isi=True, code_seed=3)
        runs = [estimate_moment_matrices(scenario, 2000, seed=s) for s in (20, 21, 22, 23)]
        values = {
            "p_s_opt": [m.p_s_opt for m in runs],
            "p_i_opt": [m.p_i_opt for m in runs],
            **{f"min_mse_{n}": [m.min_mse[n] for m in runs] for n in range(3)},
        }
        for name, (mean, spread) in self.PREVIOUS.items():
            # Difference of a 4-seed and a 10-seed mean, within 4 standard errors.
            tol = 4.0 * spread * np.sqrt(1 / 4 + 1 / 10)
            assert abs(np.mean(values[name]) - mean) < tol, name

    # One ensemble's values at estimator version 7.  Cache entries are keyed by
    # the version, so an estimator change that moves them must bump it.
    PINNED_VERSION = 7
    PINNED_VALUES = {
        "min_mse": [0.2853608561746703, 0.294136602037701, 0.2937563813303225],
        "p_s_opt": 0.5306986978231925,
        "p_i_opt": 0.46028216449993165,
    }

    def test_values_are_pinned_at_the_estimator_version(self):
        scenario = ChannelScenario(users=3, gain=8, paths=2, snr_db=10.0, fading_rate=0.01,
                                   include_isi=True, code_seed=3)
        m = estimate_moment_matrices(scenario, 1000, seed=7)
        assert analysis._ESTIMATOR_VERSION == self.PINNED_VERSION, (
            "the estimator version changed: pin this test's values at the new version")
        for name, pinned in self.PINNED_VALUES.items():
            value = np.asarray(getattr(m, name)).tolist()
            assert np.allclose(value, pinned, rtol=1e-12, atol=0.0), (
                f"{name} moved from {pinned} to {value} at estimator version "
                f"{self.PINNED_VERSION}: bump _ESTIMATOR_VERSION and pin the new values")


class TestKStep:
    def test_zero_step_freezes(self):
        m = scalar_moments(r1=0.5, f1=0.3, j1=0.2)
        state = make_analysis_state(1, step_size=0.0)
        out = k_step(state, m, (1.0, 1.0, 1.0))
        assert np.allclose(out.weight_err_corr, state.weight_err_corr)

    def test_scalar_hand_recursion(self):
        # B = 1 + mu*sum(F - R) = 0.5 with mu=1, and mu^2*sum(R J) = 0.1:
        # K' = 0.5 * 1 * 0.5 + 0.1 = 0.35.
        m = scalar_moments(r1=0.5, f1=0.25, r2=0.25, f2=0.0, r3=0.0, f3=0.0,
                           j1=0.2, j2=0.0, j3=0.0)
        state = make_analysis_state(1, step_size=1.0)
        out = k_step(state, m, (1.0, 1.0, 1.0))
        assert out.weight_err_corr[0, 0] == pytest.approx(0.35)

    def test_degenerate_collapse_to_differential(self):
        rng = np.random.default_rng(3)
        dim = 4
        r1 = np.eye(dim) + 0.1 * np.diag(rng.uniform(size=dim))
        f1 = 0.6 * np.eye(dim)
        zero = np.zeros((dim, dim))
        m = MomentMatrices(
            signal_corr=np.eye(dim), interference_corr=np.eye(dim),
            autocorr_terms=np.stack([r1, zero, zero]).astype(complex),
            cross_terms=np.stack([f1, zero, zero]).astype(complex),
            min_mse=np.array([0.3, 0.0, 0.0]), p_s_opt=1.0, p_i_opt=1.0)
        for step in (k_step, g_step):
            a = step(make_analysis_state(dim, 0.05), m, (1.0, 1.0, 1.0))
            b = step(make_analysis_state(dim, 0.05), m, (1.0,))
            assert np.allclose(a.weight_err_corr, b.weight_err_corr, atol=1e-12)
            assert np.allclose(a.cross_corr, b.cross_corr, atol=1e-12)

    def test_k_stays_hermitian_psd(self, single_user_moments):
        _, m = single_user_moments
        mu = 0.05 / float(np.real(np.trace(m.autocorr_terms[0])))
        state = make_analysis_state(m.dim, mu)
        for _ in range(200):
            state = k_step(state, m, (1.0, 1.0, 1.0))
            k = state.weight_err_corr
            assert np.max(np.abs(k - k.conj().T)) < 1e-8
            assert np.min(np.linalg.eigvalsh(k)) > -1e-8

    def test_non_contractive_configuration_warns(self):
        m = scalar_moments(r1=0.0, f1=1.0)  # B = 1 + mu > 1
        state = make_analysis_state(1, step_size=0.5)
        with pytest.warns(RuntimeWarning):
            k_step(state, m, (1.0, 1.0, 1.0))

    def test_given_propagation_is_bit_identical(self, single_user_moments):
        _, m = single_user_moments
        mu = 0.05 / float(np.real(np.trace(m.autocorr_terms[0])))
        for variant in ((1.0, 1.0, 1.0), (1.0,)):
            plain = hoisted = make_analysis_state(m.dim, mu)
            propagation = propagation_matrix(m, mu, variant)
            for _ in range(50):
                plain = g_step(k_step(plain, m, variant), m, variant)
                hoisted = g_step(k_step(hoisted, m, variant, propagation), m, variant,
                                 propagation)
            assert np.array_equal(plain.weight_err_corr, hoisted.weight_err_corr)
            assert np.array_equal(plain.cross_corr, hoisted.cross_corr)

    def test_non_contractive_warning_only_from_propagation(self):
        m = scalar_moments(r1=0.0, f1=1.0)
        state = make_analysis_state(1, step_size=0.5)
        with pytest.warns(RuntimeWarning):
            propagation = propagation_matrix(m, 0.5, (1.0, 1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(3):
                state = k_step(state, m, (1.0, 1.0, 1.0), propagation)
                state = g_step(state, m, (1.0, 1.0, 1.0), propagation)


class TestGStep:
    def test_zero_step_zeroes_cross(self):
        m = scalar_moments(r1=0.5, f1=0.3)
        state = make_analysis_state(1, step_size=0.0)
        out = g_step(state, m, (1.0, 1.0, 1.0))
        assert np.allclose(out.cross_corr, 0.0)

    def test_scalar_power(self):
        # Bracket 0.3: after three steps G = 0.027.
        m = scalar_moments(r1=0.5, f1=0.8)  # mu*(F1-R1) = 0.3 at mu=1
        state = make_analysis_state(1, step_size=1.0)
        for _ in range(3):
            state = g_step(state, m, (1.0, 1.0, 1.0))
        assert state.cross_corr[0, 0] == pytest.approx(0.027)

    def test_contractive_bracket_decays(self, single_user_moments):
        _, m = single_user_moments
        mu = 0.05 / float(np.real(np.trace(m.autocorr_terms[0])))
        state = make_analysis_state(m.dim, mu)
        norms = []
        for _ in range(400):
            state = g_step(state, m, (1.0, 1.0, 1.0))
            norms.append(np.linalg.norm(state.cross_corr))
        # Matrix-power oracle: the norm decays monotonically to zero once
        # the bracket's spectral radius is below one.
        bracket_radius = np.max(np.abs(np.linalg.eigvals(
            mu * (m.cross_terms - m.autocorr_terms).sum(axis=0))))
        assert bracket_radius < 1
        assert norms[-1] < 1e-6
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


class TestAnalyticalSinr:
    def test_converged_limit_is_power_ratio(self):
        m = scalar_moments(rs=2.0, ri=1.0, ps=4.0, pi=2.0)
        state = make_analysis_state(1, 0.1)
        state = state.__class__(weight_err_corr=np.zeros((1, 1)),
                                cross_corr=np.zeros((1, 1)), step_size=0.1)
        assert analytical_sinr(state, m) == pytest.approx(10 * np.log10(2.0))

    def test_scalar_hand_value(self):
        m = scalar_moments(rs=2.0, ri=1.0, ps=2.0, pi=1.0)
        state = state = make_analysis_state(1, 0.1, g_init="zero")
        # K = 1, G = 0: (1*2 + 2) / (1*1 + 1) = 2 -> 3.01 dB.
        assert analytical_sinr(state, m) == pytest.approx(3.0103, abs=1e-3)

    def test_matches_generalized_eigenvalue_oracle(self, single_user_moments):
        # Converged limit against a dense eigensolver bound: for a single
        # user the optimum filter is exactly code-aligned, so the mean
        # power ratio attains the top of the matrix pencil.
        _, m = single_user_moments
        state = make_analysis_state(m.dim, 0.1, g_init="zero")
        state = state.__class__(weight_err_corr=np.zeros((m.dim, m.dim)),
                                cross_corr=np.zeros((m.dim, m.dim)), step_size=0.1)
        limit = analytical_sinr(state, m)
        pencil = np.linalg.eigvals(np.linalg.solve(m.interference_corr, m.signal_corr))
        oracle = 10 * np.log10(float(np.max(pencil.real)))
        assert limit == pytest.approx(oracle, abs=1e-6)

    def test_invalid_regime_raises(self):
        m = scalar_moments(rs=1.0, ri=1.0, ps=1.0, pi=-2.0)
        state = make_analysis_state(1, 0.1, g_init="zero")
        with pytest.raises(ValueError):
            analytical_sinr(state, m)


class TestAnalyticalCurve:
    @pytest.mark.parametrize("g_init", ["identity", "zero"])
    @pytest.mark.parametrize("variant", [(1.0, 1.0, 1.0), (1.0,)],
                             ids=["bidirectional", "differential"])
    def test_equals_the_step_loop(self, single_user_moments, variant, g_init):
        _, m = single_user_moments
        mu = 0.2 / float(np.real(np.trace(m.autocorr_terms[0])))
        state = make_analysis_state(m.dim, mu, g_init)
        propagation = propagation_matrix(m, mu, variant)
        steps = []
        for _ in range(120):
            state = g_step(k_step(state, m, variant, propagation), m, variant, propagation)
            steps.append(analytical_sinr(state, m))
        assert np.array_equal(analytical_curve(m, mu, variant, 120, g_init), steps)

    def test_equal_thirds_scale_the_step(self, single_user_moments):
        # Weights of 1/3 on every pair are a third of the step on unit weights.
        _, m = single_user_moments
        mu = 0.2 / float(np.real(np.trace(m.autocorr_terms[0])))
        thirds = analytical_curve(m, mu, (1.0 / 3.0,) * 3, 300)
        units = analytical_curve(m, mu / 3.0, (1.0, 1.0, 1.0), 300)
        assert np.max(np.abs(thirds - units)) < 1e-12

    @pytest.mark.parametrize("weights", [(), (0.25,) * 4, (1.0, -0.5), (np.nan,),
                                         (1.0, np.inf, 1.0)])
    def test_bad_weights_raise(self, weights):
        m = scalar_moments(r1=0.5, f1=0.3, j1=0.2)
        state = make_analysis_state(1, 0.1)
        for call in (lambda: propagation_matrix(m, 0.1, weights),
                     lambda: k_step(state, m, weights),
                     lambda: g_step(state, m, weights),
                     lambda: analytical_curve(m, 0.1, weights, 3)):
            with pytest.raises(ValueError, match="pair weights"):
                call()

    def test_non_positive_regime_raises(self):
        m = scalar_moments(rs=1.0, ri=1.0, ps=1.0, pi=-2.0)
        with pytest.raises(ValueError):
            analytical_curve(m, 0.1, (1.0, 1.0, 1.0), 5, "zero")

    def test_non_contractive_configuration_warns(self):
        with pytest.warns(RuntimeWarning):
            analytical_curve(scalar_moments(r1=0.0, f1=1.0), 0.5, (1.0, 1.0, 1.0), 3)


class TestSimulatedSinr:
    def test_diagonal_case(self):
        m = MomentMatrices(
            signal_corr=np.diag([4.0, 0.0]).astype(complex),
            interference_corr=np.eye(2, dtype=complex),
            autocorr_terms=np.zeros((3, 2, 2)), cross_terms=np.zeros((3, 2, 2)),
            min_mse=np.zeros(3), p_s_opt=1.0, p_i_opt=1.0)
        assert simulated_sinr(np.array([1.0, 0.0]), m) == pytest.approx(6.0206, abs=1e-3)

    def test_scale_invariance(self, single_user_moments):
        _, m = single_user_moments
        rng = np.random.default_rng(7)
        w = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
        base = simulated_sinr(w, m)
        for gamma in (2.0, -0.3, 1e-6 + 2j):
            assert simulated_sinr(gamma * w, m) == pytest.approx(base, abs=1e-10)

    def test_pencil_eigenvector_beats_random_filters(self, single_user_moments):
        # Random-search oracle: no random unit filter beats the dominant
        # generalized eigenvector of the estimated pencil.
        _, m = single_user_moments
        pencil = np.linalg.solve(m.interference_corr, m.signal_corr)
        eigvals, eigvecs = np.linalg.eig(pencil)
        best = eigvecs[:, np.argmax(eigvals.real)]
        top = simulated_sinr(best, m)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            w = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
            assert simulated_sinr(w, m) <= top + 1e-9

    def test_zero_filter_rejected(self, single_user_moments):
        _, m = single_user_moments
        with pytest.raises(ValueError):
            simulated_sinr(np.zeros(m.dim), m)


class TestEquivalenceRegime:
    def test_three_pair_transition_approaches_scaled_single_pair(self):
        # At slow fading and large step-times-power, the three-pair mean
        # transition is close to three times the single-pair one because
        # the identity's contribution becomes negligible.
        scenario = ChannelScenario(users=5, gain=16, paths=1, snr_db=20.0,
                                   fading_rate=0.01, include_isi=False, code_seed=9)
        m = estimate_moment_matrices(scenario, 3000, seed=4)
        mu = 15.0
        x1 = m.cross_terms[0] - m.autocorr_terms[0]
        assert mu * np.linalg.norm(x1) > 1.0 / 3.0
        lhs = 3.0 * (np.eye(m.dim) + mu * x1)
        rhs = np.eye(m.dim) + mu * (m.cross_terms - m.autocorr_terms).sum(axis=0)
        rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
        assert rel < 0.1


class TestMomentCache:
    def test_round_trip(self, tmp_path, single_user_moments):
        scenario, _ = single_user_moments
        first = load_or_estimate(scenario, 1000, seed=9, cache_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len(files) == 2 and files[0].endswith(".json") and files[1].endswith(".npz")
        again = load_or_estimate(scenario, 1000, seed=9, cache_dir=tmp_path)
        assert np.array_equal(first.signal_corr, again.signal_corr)
        assert np.array_equal(first.cross_terms, again.cross_terms)
        assert first.p_s_opt == again.p_s_opt
        assert first.diagnostics == again.diagnostics

    def test_distinct_configs_get_distinct_entries(self, tmp_path):
        a = ChannelScenario(users=1, gain=4, paths=1, snr_db=10.0, fading_rate=0.0)
        b = ChannelScenario(users=1, gain=4, paths=1, snr_db=12.0, fading_rate=0.0)
        load_or_estimate(a, 1000, cache_dir=tmp_path)
        load_or_estimate(b, 1000, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_entry_of_another_estimator_version_not_loaded(self, tmp_path, monkeypatch):
        scenario = ChannelScenario(users=1, gain=4, paths=1, snr_db=10.0, fading_rate=0.0)
        fresh = estimate_moment_matrices(scenario, 1000, seed=3)
        monkeypatch.setattr(analysis, "_ESTIMATOR_VERSION", analysis._ESTIMATOR_VERSION + 1)
        stale_key = analysis._cache_key(scenario, 1000, 3)
        save_moments(replace(fresh, p_s_opt=fresh.p_s_opt + 1.0), tmp_path / stale_key)
        monkeypatch.undo()
        loaded = load_or_estimate(scenario, 1000, seed=3, cache_dir=tmp_path)
        assert loaded.p_s_opt == fresh.p_s_opt
        assert len(list(tmp_path.glob("*.npz"))) == 2

    # Digests of the seven-field scenario at estimator version 4: the key's format is
    # fixed, so with that version they still match.
    PINNED = [
        (dict(users=5, gain=16, paths=3, snr_db=15.0, fading_rate=0.005, code_seed=20240801),
         10000, 20240801, "446885a148f8ae25bbef1f82"),
        (dict(users=3, gain=8, paths=2, snr_db=7.5, fading_rate=0.02, include_isi=False,
              code_seed=9), 1000, 3, "55ff3d06f252f05b3400a581"),
        (dict(users=1, gain=4, paths=1, snr_db=0.0, fading_rate=0.0), 1000, 0,
         "906f7a67146c94b2ba6a5c60"),
    ]

    @pytest.mark.parametrize("scenario, ensemble, seed, digest", PINNED,
                             ids=["criterion-7", "no-isi", "defaults"])
    def test_key_is_pinned(self, scenario, ensemble, seed, digest, monkeypatch):
        monkeypatch.setattr(analysis, "_ESTIMATOR_VERSION", 4)
        assert analysis._cache_key(ChannelScenario(**scenario), ensemble, seed) == digest

    def test_every_scenario_field_changes_the_key(self):
        base = ChannelScenario(users=3, gain=8, paths=2, snr_db=7.5, fading_rate=0.02)
        key = analysis._cache_key(base, 1000, 0)
        for f in fields(ChannelScenario):
            value = getattr(base, f.name)
            other = not value if isinstance(value, bool) else value + 1
            assert analysis._cache_key(replace(base, **{f.name: other}), 1000, 0) != key, f.name

    def test_every_scenario_field_changes_the_moments(self):
        # No field is only a key: each one reaches the estimate.
        base = ChannelScenario(users=3, gain=8, paths=2, snr_db=7.5, fading_rate=0.02)
        moments = estimate_moment_matrices(base, 1000)
        for f in fields(ChannelScenario):
            value = getattr(base, f.name)
            other = estimate_moment_matrices(
                replace(base, **{f.name: not value if isinstance(value, bool) else value + 1}),
                1000)
            assert not all(np.array_equal(getattr(moments, g.name), getattr(other, g.name))
                           for g in fields(MomentMatrices)), f.name

    def test_failed_estimate_leaves_no_directory(self, tmp_path):
        scenario = ChannelScenario(users=1, gain=4, paths=1, snr_db=10.0, fading_rate=0.01)
        with pytest.raises(ValueError, match="floor"):
            load_or_estimate(scenario, 999, cache_dir=tmp_path / "cache" / "nested")
        assert list(tmp_path.iterdir()) == []

    def test_files_round_trip_every_field(self, tmp_path):
        rng = np.random.default_rng(5)
        # A complex array for every field, so a field added later is covered too.
        values = {f.name: rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
                  for f in fields(MomentMatrices)}
        values.update(min_mse=rng.random(3), p_s_opt=0.7, p_i_opt=0.1,
                      diagnostics={"ensemble_size": 1000, "lag1_symbol_corr": 0.25})
        save_moments(MomentMatrices(**values), tmp_path / "entry")
        loaded = load_moments(tmp_path / "entry")
        for f in fields(MomentMatrices):
            if isinstance(values[f.name], np.ndarray):
                assert np.array_equal(getattr(loaded, f.name), values[f.name]), f.name
            else:
                assert getattr(loaded, f.name) == values[f.name], f.name
        assert type(loaded.p_s_opt) is float and type(loaded.p_i_opt) is float
