"""Pair errors, mixing, NLMS/CG trackers and the baseline estimators.

Each receiver update is called as a one-lane run of its lane kernel.
"""

import numpy as np
import pytest

from fadetrack.harness import ExperimentConfig
from fadetrack.receivers import (
    DegenerateInputError,
    MixingState,
    cg_correlations_lanes,
    cg_solve,
    cg_step_lanes,
    lane_dot,
    make_mixing_state,
    nlms_lanes,
    pair_errors_lanes,
    pair_indices,
    pair_nlms_lanes,
    rls_lanes,
    update_mixing,
)


def window_of(vectors, symbols):
    """A one-lane ``(1, M, D)`` window and its ``(1, D)`` symbols; vectors oldest first."""
    window = np.stack([np.asarray(r, dtype=complex) for r in vectors], axis=-1)
    return window[None], np.array([symbols], dtype=float)


def filter_outputs(w, window):
    """w^H r of each lane's filter over its window's samples, in the step loop's product."""
    return np.matmul(np.conj(w)[..., None, :], window)[..., 0, :]


def pair_errors(w, vectors, symbols):
    """Pair errors and their magnitude sum for one filter and one window."""
    window, syms = window_of(vectors, symbols)
    errors, total = pair_errors_lanes(filter_outputs(np.asarray(w)[None], window), syms)
    return errors[0], float(total[0])


def pair_nlms_step(w, power, step_size, norm_forget, rho, vectors, symbols):
    """One pair-window NLMS step of one filter over the newest samples.

    Three mixing weights use the newest three samples, one weight the
    newest two; the pair errors are those of the pre-update filter.
    """
    rho = np.asarray(rho, dtype=float)
    depth = 2 if rho.size == 1 else 3
    window, syms = window_of(vectors[-depth:], symbols[-depth:])
    w = np.asarray(w, dtype=complex)[None]
    errors, _ = pair_errors_lanes(filter_outputs(w, window), syms)
    w, power = pair_nlms_lanes(w, np.array([power], dtype=float), step_size, norm_forget,
                               rho[None], errors, window, syms)
    return w[0], float(power[0])


def nlms_step(w, power, step_size, norm_forget, x, ref):
    """One conventional NLMS step of one filter."""
    w, x = np.asarray(w, dtype=complex)[None], np.asarray(x)[None]
    w, power = nlms_lanes(w, np.array([power], dtype=float), step_size, norm_forget,
                          x, np.array([float(ref)]), lane_dot(w, x))
    return w[0], float(power[0])


def rls_run(w, delta, forget, observations, refs):
    """RLS from ``I / delta`` over the observations; returns the filter and the inverse."""
    w = np.asarray(w, dtype=complex)[None]
    inv_corr = np.eye(w.shape[-1], dtype=complex)[None] / delta
    for x, ref in zip(observations, refs):
        x = np.asarray(x)[None]
        w = rls_lanes(w, inv_corr, forget, x, np.array([float(ref)]), lane_dot(w, x))
    return w[0], inv_corr[0]


def cg_statistics(window, delta):
    """Fresh one-lane CG statistics for a first step on the ``(1, M, D)`` window: the
    averages of its two newest samples, (Rbar_3, Rbar_1 = Rbar_2), at ``delta * I``,
    the outer product of the window's second-newest sample and three zero cross
    vectors."""
    dim, r = window.shape[1], window[..., -2]
    autocorr = np.zeros((2, 1, dim, dim), dtype=complex)
    autocorr[...] = delta * np.eye(dim)
    outer = r[..., :, None] * np.conj(r)[..., None, :]
    return autocorr, outer, np.zeros((1, 3, dim), dtype=complex)


def random_hermitian_pd(rng, dim, eig_low=0.1, eig_high=10.0):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    eigs = rng.uniform(eig_low, eig_high, size=dim)
    return (q * eigs) @ q.conj().T


class TestComputePairErrors:
    def test_identical_samples_cancel(self):
        r = np.array([0.4 + 0.1j, -0.2j, 1.0])
        w = np.array([1.0, 2.0, -1.0j])
        errors, total = pair_errors(w, [r, r, r], [1.0, 1.0, 1.0])
        assert np.allclose(errors, 0.0)
        assert total == 0.0

    def test_hand_evaluation(self):
        # Window oldest first: r[i-2]=0, r[i-1]=2e1, r[i]=e1.
        vectors = [np.zeros(3), np.array([2.0, 0, 0]), np.array([1.0, 0, 0])]
        w = np.array([1.0, 0.0, 0.0])
        errors, total = pair_errors(w, vectors, [1.0, 1.0, 1.0])
        assert np.allclose(errors, [1.0, -1.0, -2.0])
        assert total == pytest.approx(4.0)
        assert pair_indices(3) == ((0, 1), (0, 2), (1, 2))

    def test_static_channel_annihilates_every_filter(self):
        # r[j] = b[j] * v makes every pair error vanish identically.
        rng = np.random.default_rng(8)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        symbols = [1.0, -1.0, 1.0]
        vectors = [b * v for b in symbols]
        for _ in range(20):
            w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            errors, _ = pair_errors(w, vectors, symbols)
            assert np.max(np.abs(errors)) < 1e-14

    def test_total_bounds(self):
        rng = np.random.default_rng(3)
        vectors = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
        errors, total = pair_errors(rng.standard_normal(4), vectors, [1.0, -1.0, -1.0])
        assert total == pytest.approx(np.sum(np.abs(errors)))
        assert total >= np.max(np.abs(errors))


class TestUpdateMixing:
    def errors(self, magnitudes):
        mags = np.asarray(magnitudes, dtype=float)
        from fadetrack.receivers import PairErrors, pair_indices
        return PairErrors(errors=mags.astype(complex), total=float(mags.sum()),
                          pairs=pair_indices(3))

    def test_pure_memory(self):
        state = MixingState(np.array([0.5, 0.3, 0.2]), forget=1.0)
        out = update_mixing(state, self.errors([1.0, 2.0, 3.0]))
        assert np.allclose(out.weights, state.weights)

    def test_symmetric_errors_give_uniform(self):
        state = MixingState(np.array([0.7, 0.2, 0.1]), forget=0.0)
        out = update_mixing(state, self.errors([2.0, 2.0, 2.0]))
        assert np.allclose(out.weights, 1.0 / 3.0)

    def test_hand_evaluation(self):
        state = MixingState(np.full(3, 1.0 / 3.0), forget=0.5)
        out = update_mixing(state, self.errors([1.0, 1.0, 2.0]))
        assert np.allclose(out.weights, [0.354167, 0.354167, 0.291667], atol=1e-5)

    def test_zero_total_error_keeps_weights(self):
        state = MixingState(np.array([0.6, 0.25, 0.15]), forget=0.4)
        out = update_mixing(state, self.errors([0.0, 0.0, 0.0]))
        assert np.allclose(out.weights, state.weights)

    def test_simplex_preserved_over_random_updates(self):
        rng = np.random.default_rng(17)
        state = make_mixing_state(3, forget=0.9)
        for _ in range(20_000):
            state = MixingState(state.weights, forget=rng.uniform())
            state = update_mixing(state, self.errors(rng.uniform(0, 5, size=3)))
            assert abs(state.weights.sum() - 1.0) <= 1e-12
            assert np.all(state.weights >= 0.0) and np.all(state.weights <= 1.0)


    def test_single_pair_and_zero_error_return_copies(self):
        from fadetrack.receivers import PairErrors
        single = MixingState(np.array([1.0]), forget=0.3)
        out = update_mixing(single, PairErrors(errors=np.array([2.0 + 1.0j]),
                                               total=float(np.sqrt(5.0)), pairs=((0, 1),)))
        assert np.array_equal(out.weights, single.weights)
        assert out.weights is not single.weights and out.forget == single.forget
        state = MixingState(np.array([0.6, 0.25, 0.15]), forget=0.4)
        out = update_mixing(state, self.errors([0.0, 0.0, 0.0]))
        assert np.array_equal(out.weights, state.weights)
        assert out.weights is not state.weights

    @pytest.mark.parametrize("num", [2, 3, 4, 6])
    def test_bit_identical_to_array_formula(self, num):
        # Reference: the docstring recursion on whole arrays, clipped at 0
        # and divided by the sum.
        from fadetrack.receivers import PairErrors
        rng = np.random.default_rng(100 + num)
        pairs = tuple((0, k) for k in range(1, num + 1))
        state = make_mixing_state(num, forget=0.9)
        for it in range(2_000):
            magnitudes = rng.uniform(0.0, 5.0, size=num) * rng.uniform(0.01, 10.0)
            if it % 4 == 1:
                magnitudes[rng.integers(num)] = 0.0
            elif it % 4 == 2:
                magnitudes[:] = 0.0
                magnitudes[rng.integers(num)] = rng.uniform(0.1, 3.0)
            forget = rng.uniform() if it % 4 != 3 else float(rng.integers(0, 2))
            errors = magnitudes * np.exp(2j * np.pi * rng.uniform(size=num))
            errs = PairErrors(errors=errors, total=float(np.sum(np.abs(errors))), pairs=pairs)
            state = MixingState(state.weights, forget=forget)
            innovation = (errs.total - np.abs(errs.errors)) / ((num - 1) * errs.total)
            expected = forget * state.weights + (1.0 - forget) * innovation
            expected = np.clip(expected, 0.0, None)
            expected = expected / expected.sum()
            state = update_mixing(state, errs)
            assert np.array_equal(state.weights, expected)


class TestMixingStateValidation:
    def test_valid_weights_accepted(self):
        state = MixingState([0.5, 0.3, 0.2], forget=0.9)
        assert state.weights.dtype == np.float64

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MixingState(np.array([1.1, -0.1, 0.0]), forget=0.9)

    def test_weight_above_one_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MixingState(np.array([1.5, 0.0]), forget=0.9)

    def test_sum_off_simplex_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixingState(np.array([0.5, 0.3, 0.2 + 1e-11]), forget=0.9)
        MixingState(np.array([0.5, 0.3, 0.2 + 1e-13]), forget=0.9)

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MixingState(np.array([np.nan, 0.5, 0.5]), forget=0.9)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MixingState(np.array([0.5, 0.5, np.nan]), forget=0.9)

    @pytest.mark.parametrize("forget", [-0.1, 1.1, np.nan])
    def test_forget_outside_unit_interval_rejected(self, forget):
        with pytest.raises(ValueError, match="forget"):
            MixingState(np.array([0.5, 0.5]), forget=forget)

    def test_non_vector_weights_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            MixingState(np.array([[0.5, 0.5]]), forget=0.9)


class TestBidirNlmsStep:
    def test_zero_errors_leave_weights(self):
        r = np.array([0.5, -1.0 + 0.2j])
        w0 = np.array([1.0, 2.0j])
        w, power = pair_nlms_step(w0, 2.0, 0.5, 0.5, make_mixing_state(3).weights,
                                  [r, r, r], [1.0, 1.0, 1.0])
        assert np.array_equal(w, w0)
        expected_power = 0.5 * 2.0 + 0.5 * float(np.vdot(r, r).real)
        assert power == pytest.approx(expected_power)

    def test_zero_step_size(self):
        rng = np.random.default_rng(2)
        vectors = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        w0 = rng.standard_normal(3)
        w, _ = pair_nlms_step(w0, 1.0, 0.0, 0.9, make_mixing_state(3).weights,
                              vectors, [1.0, -1.0, 1.0])
        assert np.array_equal(w, w0)

    def test_scalar_hand_case(self):
        # w=1, r[i]=2, r[i-1]=r[i-2]=1, all b=+1 gives errors (-1,-1,0)
        # and, at unit step and unit normalization, w' = -1/3.
        vectors, symbols = [[1.0], [1.0], [2.0]], [1.0, 1.0, 1.0]
        errors, _ = pair_errors(np.array([1.0 + 0j]), vectors, symbols)
        assert np.allclose(errors, [-1.0, -1.0, 0.0])
        w, _ = pair_nlms_step(np.array([1.0]), 1.0, 1.0, 1.0, make_mixing_state(3).weights,
                              vectors, symbols)
        assert w[0] == pytest.approx(-1.0 / 3.0)

    def test_degenerate_equivalence_with_differential(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            vectors = [rng.standard_normal(4) + 1j * rng.standard_normal(4)
                       for _ in range(3)]
            symbols = list(2.0 * rng.integers(0, 2, size=3) - 1.0)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            step_size, norm_forget = rng.uniform(0.01, 1.0), rng.uniform()
            state = (w, rng.uniform(0.5, 2.0), step_size, norm_forget)
            bidir, _ = pair_nlms_step(*state, [1.0, 0.0, 0.0], vectors, symbols)
            diff, _ = pair_nlms_step(*state, [1.0], vectors, symbols)
            assert np.allclose(bidir, diff, atol=1e-12, rtol=0)

    def test_all_zero_history_degenerates(self):
        window, symbols = window_of([np.zeros(3)] * 3, [1.0, 1.0, 1.0])
        w = np.ones((1, 3), dtype=complex)
        errors, _ = pair_errors_lanes(filter_outputs(w, window), symbols)
        with pytest.raises(DegenerateInputError):
            pair_nlms_lanes(w, np.ones(1), 0.1, 0.0, make_mixing_state(3).weights[None],
                            errors, window, symbols)


class TestDifferentialNlmsStep:
    """The two-sample restriction: the pair-window step with one weight."""

    def test_zero_error_no_update(self):
        r = np.array([1.0, 1.0j])
        w0 = np.array([0.3, -0.4j])
        w, _ = pair_nlms_step(w0, 1.0, 0.7, 1.0, [1.0], [r, r], [1.0, 1.0])
        assert np.array_equal(w, w0)

    def test_scalar_hand_case(self):
        w, _ = pair_nlms_step(np.array([1.0]), 1.0, 1.0, 1.0, [1.0], [[1.0], [2.0]], [1.0, 1.0])
        # e1 = 1*1 - 1*2 = -1, so w' = 1 + 2*(-1) = -1.
        assert w[0] == pytest.approx(-1.0)


class TestConventionalNlms:
    def test_exact_output_no_update(self):
        w0 = np.array([0.5, -0.5j])
        r = np.array([1.0, 1.0j])
        b = complex(np.vdot(w0, r)).real  # already matched
        w, _ = nlms_step(w0, 1.0, 0.5, 1.0, r, b)
        assert np.allclose(w, w0)

    def test_hand_lms_step(self):
        w, _ = nlms_step(np.zeros(2), 1.0, 1.0, 1.0, np.array([1.0, 0.0]), 1.0)
        assert np.allclose(w, [1.0, 0.0])

    def test_zero_step(self):
        w0 = np.array([1.0, 1.0])
        w, _ = nlms_step(w0, 1.0, 0.0, 0.9, np.array([2.0, -1.0]), -1.0)
        assert np.array_equal(w, w0)


class TestConventionalRls:
    def test_static_noiseless_convergence(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        symbols = 2.0 * rng.integers(0, 2, size=100) - 1.0
        w, _ = rls_run(np.zeros(4), 1e-8, 1.0, [b * v for b in symbols], symbols)
        final = complex(np.vdot(w, symbols[-1] * v))
        assert abs(final - symbols[-1]) < 1e-6

    def test_min_norm_ls_limit(self):
        # lambda = 1, delta -> 0, two orthogonal samples: pseudo-inverse oracle.
        x1 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        x2 = np.array([0.0, 1.0 + 1.0j, 0.0, 0.0]) / np.sqrt(2.0)
        targets = [1.0, -1.0]
        w, _ = rls_run(np.zeros(4), 1e-10, 1.0, (x1, x2), targets)
        rows = np.vstack([x1.conj(), x2.conj()])
        oracle = np.linalg.pinv(rows) @ np.asarray(targets, dtype=complex)
        assert np.allclose(w, oracle, atol=1e-6)

    def test_zero_input_no_update(self):
        w0 = np.array([1.0, 2.0])
        w, inv_corr = rls_run(w0, 0.1, 0.9, [np.zeros(2)], [1.0])
        assert np.array_equal(w, w0)
        assert np.array_equal(inv_corr, np.eye(2) / 0.1)

    def test_inverse_correlation_stays_hermitian(self):
        rng = np.random.default_rng(12)
        observations = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(300)]
        _, inv_corr = rls_run(np.zeros(5), 0.01, 0.95, observations, [1.0] * 300)
        drift = np.max(np.abs(inv_corr - inv_corr.conj().T))
        assert drift <= 1e-6


class TestCgSolve:
    def test_identity_system_one_iteration(self):
        out = cg_solve(np.eye(2, dtype=complex), np.array([3.0, 4.0]),
                       np.zeros(2), j_max=1)
        assert np.allclose(out, [3.0, 4.0])

    def test_diagonal_two_iterations(self):
        corr = np.diag([1.0, 2.0]).astype(complex)
        out = cg_solve(corr, np.array([1.0, 2.0]), np.zeros(2), j_max=2)
        assert np.allclose(out, [1.0, 1.0], atol=1e-12)

    def test_random_hermitian_pd_matches_direct_solve(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            dim = int(rng.integers(2, 17))
            corr = random_hermitian_pd(rng, dim)
            target = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            direct = np.linalg.solve(corr, target)
            out = cg_solve(corr, target, np.zeros(dim), j_max=dim)
            assert np.linalg.norm(out - direct) / np.linalg.norm(direct) <= 1e-8

    def test_quadratic_cost_monotone(self):
        rng = np.random.default_rng(9)
        corr = random_hermitian_pd(rng, 8)
        target = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        iterates = []
        cg_solve(corr, target, np.zeros(8), j_max=8, history=iterates)

        def cost(w):
            return float(np.real(np.vdot(w, corr @ w)) - 2.0 * np.real(np.vdot(target, w)))

        costs = [cost(np.zeros(8))] + [cost(w) for w in iterates]
        assert all(b <= a + 1e-10 for a, b in zip(costs, costs[1:]))

    def test_zero_curvature_safeguard(self):
        # Rank-one system with the cross vector outside the range: the
        # first direction has positive curvature, later ones may hit zero.
        v = np.array([1.0, 0.0], dtype=complex)
        corr = np.outer(v, v.conj())
        target = np.array([1.0, 1.0], dtype=complex)
        out = cg_solve(corr, target, np.zeros(2), j_max=5)
        assert np.all(np.isfinite(out))

    def test_jmax_zero_keeps_initial(self):
        w0 = np.array([0.3, -0.1j])
        out = cg_solve(np.eye(2, dtype=complex), np.ones(2), w0, j_max=0)
        assert np.array_equal(out, w0)


class TestUpdateCgCorrelations:
    def test_single_outer_product_at_zero_forgetting(self):
        window, symbols = window_of([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]], [1.0, 1.0, 1.0])
        autocorr, outer, crosscorr = cg_statistics(window, 0.5)
        cg_correlations_lanes(autocorr, outer, crosscorr, filter_outputs(np.zeros((1, 2)), window),
                              0.0, make_mixing_state(3).weights[None], window, symbols)
        assert np.allclose(autocorr[1, 0], [[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(autocorr[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_degenerate_mixing_selects_first_pair(self):
        rng = np.random.default_rng(31)
        vectors = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        w = rng.standard_normal(3).astype(complex)[None]
        window = window_of(vectors, [1.0, -1.0, 1.0])
        auto, outer, cross = cg_statistics(window[0], 0.01)
        mixed_auto, mixed_cross = cg_correlations_lanes(
            auto, outer, cross, filter_outputs(w, window[0]), 0.9, np.array([[1.0, 0.0, 0.0]]),
            *window)
        assert np.array_equal(mixed_auto[0], auto[1, 0])
        assert np.array_equal(mixed_cross[0], cross[0, 0])

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(14)
        lam = 0.93
        dim = 3
        w = rng.standard_normal(dim).astype(complex)[None]
        auto, outer, cross = cg_statistics(np.zeros((1, dim, 3), complex), 0.0)
        rho = make_mixing_state(3).weights[None]
        increments_r, increments_t1 = [], []
        for _ in range(100):
            vectors = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                       for _ in range(3)]
            symbols = list(2.0 * rng.integers(0, 2, size=3) - 1.0)
            w_before = w.copy()
            # Each window is drawn afresh: its second-newest sample's outer product
            # stands in for the one the previous step kept.
            outer[0] = np.outer(vectors[1], vectors[1].conj())
            window = window_of(vectors, symbols)
            mixed_auto, _ = cg_correlations_lanes(auto, outer, cross,
                                                  filter_outputs(w, window[0]), lam, rho, *window)
            r0 = vectors[2]
            r1v = vectors[1]
            b0, b1, b2 = symbols[2], symbols[1], symbols[0]
            increments_r.append([b1 * b1 * np.outer(r0, r0.conj()),
                                 b2 * b2 * np.outer(r0, r0.conj()),
                                 b2 * b2 * np.outer(r1v, r1v.conj())])
            increments_t1.append(b1 * np.vdot(r1v, w_before[0]) * b0 * r0)
            # the filter is left alone by the correlation update itself
            assert np.array_equal(w, w_before)
        steps = len(increments_r)
        oracle_r = [sum(lam ** (steps - 1 - j) * increments_r[j][n] for j in range(steps))
                    for n in range(3)]
        oracle_t1 = sum(lam ** (steps - 1 - j) * increments_t1[j] for j in range(steps))
        # +-1 symbols: Rbar_1 = Rbar_2, stored once as the newest sample's average.
        assert np.array_equal(oracle_r[0], oracle_r[1])
        assert np.allclose(auto[1, 0], oracle_r[0], atol=1e-9)
        assert np.allclose(auto[0, 0], oracle_r[2], atol=1e-9)
        assert np.allclose(mixed_auto[0], sum(p * r for p, r in zip(rho[0], oracle_r)), atol=1e-9)
        assert np.allclose(cross[0, 0], oracle_t1, atol=1e-9)

    def test_mixed_matrix_hermitian(self):
        rng = np.random.default_rng(41)
        w = rng.standard_normal(4).astype(complex)[None]
        auto, outer, cross = cg_statistics(np.zeros((1, 4, 3), complex), 0.01)
        rho = make_mixing_state(3).weights[None]
        for _ in range(100):
            vectors = [rng.standard_normal(4) + 1j * rng.standard_normal(4)
                       for _ in range(3)]
            window = window_of(vectors, list(2.0 * rng.integers(0, 2, size=3) - 1.0))
            mixed_auto, _ = cg_correlations_lanes(auto, outer, cross, filter_outputs(w, window[0]),
                                                  0.97, rho, *window)
            assert np.max(np.abs(mixed_auto[0] - mixed_auto[0].conj().T)) < 1e-10

    def test_literal_t1_chaining_differs(self):
        rng = np.random.default_rng(55)
        vectors1 = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        vectors2 = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        rho = make_mixing_state(3).weights[None]
        results = {}
        for literal in (False, True):
            auto, outer, cross = cg_statistics(np.zeros((1, 2, 3), complex), 0.0)
            for vectors in (vectors1, vectors2):
                window = window_of(vectors, [1.0, 1.0, 1.0])
                cg_correlations_lanes(
                    auto, outer, cross, filter_outputs(np.ones((1, 2), dtype=complex), window[0]),
                    0.9, rho, *window, paper_literal_t1=literal)
            results[literal] = cross[0, 0]
        assert not np.allclose(results[False], results[True])


def cg_track(w0, forget, max_iters, delta, rho, received, symbols):
    """The CG tracker over a one-lane stream, one step per full three-sample window."""
    w = np.asarray(w0, dtype=complex)[None]
    auto, outer, cross = cg_statistics(received[None, :, :3], delta)
    rho = np.asarray(rho, dtype=float)[None]
    for i in range(2, len(symbols)):
        window = received[None, :, i - 2:i + 1]
        w = cg_step_lanes(auto, outer, cross, w, forget, max_iters, 0.0, rho, window,
                          np.asarray(symbols[i - 2:i + 1], dtype=float)[None],
                          filter_outputs(w, window))
    return auto[:, 0], cross[0], w[0]


class TestBidirCgStep:
    def test_jmax_zero_keeps_weights(self):
        rng = np.random.default_rng(62)
        vectors = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        w0 = rng.standard_normal(3).astype(complex)[None]
        window = window_of(vectors, [1.0, 1.0, -1.0])
        w = cg_step_lanes(*cg_statistics(window[0], 0.01), w0, 0.998, 0, 0.0,
                          make_mixing_state(3).weights[None], *window,
                          filter_outputs(w0, window[0]))
        assert np.array_equal(w, w0)

    def test_static_channel_fixed_point_with_first_pair(self):
        # Unregularized statistics on a static channel satisfy the normal
        # equations at the initial filter, so the iterate never moves.
        rng = np.random.default_rng(77)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        symbols = 2.0 * rng.integers(0, 2, size=60) - 1.0
        received = np.stack([b * v for b in symbols], axis=-1)
        _, _, w = cg_track(w0, 1.0, 4, 0.0, [1.0, 0.0, 0.0], received, symbols)
        assert np.allclose(w, w0, atol=1e-10)

    def test_converges_to_accumulated_normal_equations(self):
        # With forgetting 1 and the first pair only, the iterate settles
        # into the direct solution of the accumulated system.  The filter
        # must start nonzero: the cross vector is built from the current
        # filter, so the zero correlator is a (degenerate) fixed point.
        rng = np.random.default_rng(13)
        dim = 4
        base = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vectors, symbols = [], []
        for step in range(300):
            b = float(2 * rng.integers(0, 2) - 1)
            vectors.append(b * base + 0.05 * (rng.standard_normal(dim)
                                              + 1j * rng.standard_normal(dim)))
            symbols.append(b)
        auto, cross, w = cg_track(base / np.linalg.norm(base), 1.0, dim + 2, 1e-6,
                                  [1.0, 0.0, 0.0], np.stack(vectors, axis=-1), symbols)
        direct = np.linalg.solve(auto[1], cross[0])
        assert np.linalg.norm(w) > 0.1  # did not collapse to zero
        assert np.allclose(w, direct, atol=1e-8)

    def test_single_update_from_zero_state(self):
        # One update from zeroed statistics is a rank-one system; the
        # safeguard returns a finite iterate consistent with cg_solve.
        rng = np.random.default_rng(19)
        vectors = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        window = window_of(vectors, [1.0, -1.0, 1.0])
        w0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rho = make_mixing_state(3).weights[None]
        outputs = filter_outputs(w0[None], window[0])
        mixed_auto, mixed_cross = cg_correlations_lanes(
            *cg_statistics(window[0], 0.0), outputs, 0.5, rho, *window)
        expected = cg_solve(mixed_auto[0], mixed_cross[0], w0, 3)
        w = cg_step_lanes(*cg_statistics(window[0], 0.0), w0[None], 0.5, 3, 0.0, rho, *window,
                          outputs)
        assert np.allclose(w[0], expected)
        assert np.all(np.isfinite(w))

    def _loaded_case(self):
        rng = np.random.default_rng(31)
        dim = 4
        vectors = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                   for _ in range(3)]
        window = window_of(vectors, [1.0, -1.0, 1.0])
        w0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        rho = np.array([[0.5, 0.3, 0.2]])
        return (*cg_statistics(window[0], 0.05), w0[None], 0.9), rho, window

    def test_loading_solves_the_loaded_mixed_system(self):
        loading = 0.1
        (advanced, outer, cross, w0, forget), rho, window = self._loaded_case()
        mixed_auto, mixed_cross = cg_correlations_lanes(
            advanced, outer, cross, filter_outputs(w0, window[0]), forget, rho, *window)
        mixed_auto, mixed_cross = mixed_auto[0], mixed_cross[0]
        dim = w0.shape[-1]
        loaded = mixed_auto + loading * np.real(np.trace(mixed_auto)) / dim * np.eye(dim)
        expected = cg_solve(loaded, mixed_cross, w0[0], 3)
        (stored, outer, cross, _, _), _, _ = self._loaded_case()
        w = cg_step_lanes(stored, outer, cross, w0, forget, 3, loading, rho, *window,
                          filter_outputs(w0, window[0]))
        assert np.allclose(w[0], expected, atol=1e-12, rtol=0)
        unloaded = cg_solve(mixed_auto, mixed_cross, w0[0], 3)
        assert not np.allclose(w[0], unloaded)
        # Only the solve is loaded: the stored statistics are not.
        assert np.array_equal(stored, advanced)

    def test_zero_loading_is_the_plain_solve(self):
        (auto, outer, cross, w0, forget), rho, window = self._loaded_case()
        mixed_auto, mixed_cross = cg_correlations_lanes(
            auto, outer, cross, filter_outputs(w0, window[0]), forget, rho, *window)
        expected = cg_solve(mixed_auto[0], mixed_cross[0], w0[0], 3)
        statistics, _, _ = self._loaded_case()
        w = cg_step_lanes(*statistics[:3], w0, forget, 3, 0.0, rho, *window,
                          filter_outputs(w0, window[0]))
        assert np.array_equal(w[0], expected)

    @pytest.mark.parametrize("loading", [-0.1, float("nan")])
    def test_negative_loading_rejected(self, loading):
        # The kernel applies only a positive loading; the configuration,
        # which is where the engine takes it from, rejects the rest.
        with pytest.raises(ValueError, match="loading"):
            ExperimentConfig(cg_loading=loading)
