"""Pair errors, mixing, NLMS/CG trackers and the baseline estimators."""

import numpy as np
import pytest

from fadetrack.receivers import (
    CgState,
    DegenerateInputError,
    History,
    MixingState,
    bidir_cg_step,
    bidir_nlms_step,
    cg_solve,
    compute_pair_errors,
    conventional_nlms_step,
    conventional_rls_step,
    make_cg_state,
    make_filter_state,
    make_mixing_state,
    make_rls_state,
    update_cg_correlations,
    update_mixing,
)


def history_of(vectors, symbols, depth=None):
    hist = History(depth=depth or len(vectors))
    for r, b in zip(vectors, symbols):
        hist.push(np.asarray(r, dtype=complex), b)
    return hist


def random_hermitian_pd(rng, dim, eig_low=0.1, eig_high=10.0):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    eigs = rng.uniform(eig_low, eig_high, size=dim)
    return (q * eigs) @ q.conj().T


class TestComputePairErrors:
    def test_identical_samples_cancel(self):
        r = np.array([0.4 + 0.1j, -0.2j, 1.0])
        hist = history_of([r, r, r], [1.0, 1.0, 1.0])
        w = np.array([1.0, 2.0, -1.0j])
        errs = compute_pair_errors(w, hist, 3)
        assert np.allclose(errs.errors, 0.0)
        assert errs.total == 0.0

    def test_hand_evaluation(self):
        # Window pushed oldest-first: r[i-2]=0, r[i-1]=2e1, r[i]=e1.
        vectors = [np.zeros(3), np.array([2.0, 0, 0]), np.array([1.0, 0, 0])]
        hist = history_of(vectors, [1.0, 1.0, 1.0])
        w = np.array([1.0, 0.0, 0.0])
        errs = compute_pair_errors(w, hist, 3)
        assert np.allclose(errs.errors, [1.0, -1.0, -2.0])
        assert errs.total == pytest.approx(4.0)
        assert errs.pairs == ((0, 1), (0, 2), (1, 2))

    def test_static_channel_annihilates_every_filter(self):
        # r[j] = b[j] * v makes every pair error vanish identically.
        rng = np.random.default_rng(8)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        symbols = [1.0, -1.0, 1.0]
        hist = history_of([b * v for b in symbols], symbols)
        for _ in range(20):
            w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            errs = compute_pair_errors(w, hist, 3)
            assert np.max(np.abs(errs.errors)) < 1e-14

    def test_total_bounds(self):
        rng = np.random.default_rng(3)
        vectors = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
        hist = history_of(vectors, [1.0, -1.0, -1.0])
        errs = compute_pair_errors(rng.standard_normal(4), hist, 3)
        assert errs.total == pytest.approx(np.sum(np.abs(errs.errors)))
        assert errs.total >= np.max(np.abs(errs.errors))

    def test_depth_exceeding_history(self):
        hist = history_of([np.ones(2), np.ones(2)], [1.0, 1.0])
        with pytest.raises(ValueError):
            compute_pair_errors(np.ones(2), hist, 3)


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
        hist = history_of([r, r, r], [1.0, 1.0, 1.0])
        fs = make_filter_state(np.array([1.0, 2.0j]), step_size=0.5,
                               norm_forget=0.5, power_norm=2.0)
        out = bidir_nlms_step(fs, make_mixing_state(3), hist)
        assert np.array_equal(out.weights, fs.weights)
        expected_power = 0.5 * 2.0 + 0.5 * float(np.vdot(r, r).real)
        assert out.power_norm == pytest.approx(expected_power)

    def test_zero_step_size(self):
        rng = np.random.default_rng(2)
        vectors = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        hist = history_of(vectors, [1.0, -1.0, 1.0])
        fs = make_filter_state(rng.standard_normal(3), step_size=0.0)
        out = bidir_nlms_step(fs, make_mixing_state(3), hist)
        assert np.array_equal(out.weights, fs.weights)

    def test_scalar_hand_case(self):
        # w=1, r[i]=2, r[i-1]=r[i-2]=1, all b=+1 gives errors (-1,-1,0)
        # and, at unit step and unit normalization, w' = -1/3.
        hist = history_of([[1.0], [1.0], [2.0]], [1.0, 1.0, 1.0])
        fs = make_filter_state(np.array([1.0]), step_size=1.0,
                               norm_forget=1.0, power_norm=1.0)
        errs = compute_pair_errors(fs.weights, hist, 3)
        assert np.allclose(errs.errors, [-1.0, -1.0, 0.0])
        out = bidir_nlms_step(fs, make_mixing_state(3), hist)
        assert out.weights[0] == pytest.approx(-1.0 / 3.0)

    def test_degenerate_equivalence_with_differential(self):
        rng = np.random.default_rng(23)
        mix = MixingState(np.array([1.0, 0.0, 0.0]), forget=0.9)
        for _ in range(200):
            vectors = [rng.standard_normal(4) + 1j * rng.standard_normal(4)
                       for _ in range(3)]
            symbols = list(2.0 * rng.integers(0, 2, size=3) - 1.0)
            hist = history_of(vectors, symbols)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            fs = make_filter_state(w, step_size=rng.uniform(0.01, 1.0),
                                   norm_forget=rng.uniform(), power_norm=rng.uniform(0.5, 2.0))
            bidir = bidir_nlms_step(fs, mix, hist)
            diff = bidir_nlms_step(fs, MixingState(np.array([1.0]), forget=0.9), hist)
            assert np.allclose(bidir.weights, diff.weights, atol=1e-12, rtol=0)

    def test_all_zero_history_degenerates(self):
        zeros = np.zeros(3)
        hist = history_of([zeros, zeros, zeros], [1.0, 1.0, 1.0])
        fs = make_filter_state(np.ones(3), step_size=0.1, norm_forget=0.0,
                               power_norm=1.0)
        with pytest.raises(DegenerateInputError):
            bidir_nlms_step(fs, make_mixing_state(3), hist)

    def test_two_mixing_weights_rejected(self):
        hist = history_of([[1.0], [1.0], [2.0]], [1.0, 1.0, 1.0])
        fs = make_filter_state(np.array([1.0]), step_size=1.0)
        with pytest.raises(ValueError, match="one or three"):
            bidir_nlms_step(fs, make_mixing_state(2), hist)

    @pytest.mark.parametrize("num_weights, stored", [(3, 2), (1, 1)])
    def test_history_shorter_than_window_rejected(self, num_weights, stored):
        hist = history_of([[1.0]] * stored, [1.0] * stored, depth=3)
        fs = make_filter_state(np.array([1.0]), step_size=1.0)
        with pytest.raises(ValueError, match="history"):
            bidir_nlms_step(fs, make_mixing_state(num_weights), hist)


class TestDifferentialNlmsStep:
    """The two-sample restriction: ``bidir_nlms_step`` with one weight."""

    ONE_PAIR = MixingState(np.array([1.0]), forget=0.9)

    def test_zero_error_no_update(self):
        r = np.array([1.0, 1.0j])
        hist = history_of([r, r], [1.0, 1.0])
        fs = make_filter_state(np.array([0.3, -0.4j]), step_size=0.7,
                               norm_forget=1.0, power_norm=1.0)
        out = bidir_nlms_step(fs, self.ONE_PAIR, hist)
        assert np.array_equal(out.weights, fs.weights)

    def test_scalar_hand_case(self):
        hist = history_of([[1.0], [2.0]], [1.0, 1.0])
        fs = make_filter_state(np.array([1.0]), step_size=1.0,
                               norm_forget=1.0, power_norm=1.0)
        out = bidir_nlms_step(fs, self.ONE_PAIR, hist)
        # e1 = 1*1 - 1*2 = -1, so w' = 1 + 2*(-1) = -1.
        assert out.weights[0] == pytest.approx(-1.0)


class TestConventionalNlms:
    def test_exact_output_no_update(self):
        w = np.array([0.5, -0.5j])
        r = np.array([1.0, 1.0j])
        fs = make_filter_state(w, step_size=0.5, norm_forget=1.0, power_norm=1.0)
        b = complex(np.vdot(w, r)).real  # already matched
        out = conventional_nlms_step(fs, r, b)
        assert np.allclose(out.weights, w)

    def test_hand_lms_step(self):
        fs = make_filter_state(np.zeros(2), step_size=1.0, norm_forget=1.0,
                               power_norm=1.0)
        out = conventional_nlms_step(fs, np.array([1.0, 0.0]), 1.0)
        assert np.allclose(out.weights, [1.0, 0.0])

    def test_zero_step(self):
        fs = make_filter_state(np.array([1.0, 1.0]), step_size=0.0)
        out = conventional_nlms_step(fs, np.array([2.0, -1.0]), -1.0)
        assert np.array_equal(out.weights, fs.weights)


class TestConventionalRls:
    def test_static_noiseless_convergence(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = make_rls_state(np.zeros(4), delta=1e-8, forget=1.0)
        symbols = 2.0 * rng.integers(0, 2, size=100) - 1.0
        for b in symbols:
            state = conventional_rls_step(state, b * v, b)
        final = complex(np.vdot(state.weights, symbols[-1] * v))
        assert abs(final - symbols[-1]) < 1e-6

    def test_min_norm_ls_limit(self):
        # lambda = 1, delta -> 0, two orthogonal samples: pseudo-inverse oracle.
        x1 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        x2 = np.array([0.0, 1.0 + 1.0j, 0.0, 0.0]) / np.sqrt(2.0)
        targets = [1.0, -1.0]
        state = make_rls_state(np.zeros(4), delta=1e-10, forget=1.0)
        for x, b in zip((x1, x2), targets):
            state = conventional_rls_step(state, x, b)
        rows = np.vstack([x1.conj(), x2.conj()])
        oracle = np.linalg.pinv(rows) @ np.asarray(targets, dtype=complex)
        assert np.allclose(state.weights, oracle, atol=1e-6)

    def test_zero_input_no_update(self):
        state = make_rls_state(np.array([1.0, 2.0]), delta=0.1, forget=0.9)
        out = conventional_rls_step(state, np.zeros(2), 1.0)
        assert np.array_equal(out.weights, state.weights)
        assert np.array_equal(out.inv_corr, state.inv_corr)

    def test_inverse_correlation_stays_hermitian(self):
        rng = np.random.default_rng(12)
        state = make_rls_state(np.zeros(5), delta=0.01, forget=0.95)
        for _ in range(300):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            state = conventional_rls_step(state, x, 1.0)
        drift = np.max(np.abs(state.inv_corr - state.inv_corr.conj().T))
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
        hist = history_of([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]], [1.0, 1.0, 1.0])
        cs = make_cg_state(np.zeros(2), forget=0.0, delta=0.5)
        mixed_auto, _, advanced = update_cg_correlations(cs, make_mixing_state(3), hist)
        assert np.allclose(advanced.autocorr[0], [[1.0, 0.0], [0.0, 0.0]])

    def test_degenerate_mixing_selects_first_pair(self):
        rng = np.random.default_rng(31)
        vectors = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        hist = history_of(vectors, [1.0, -1.0, 1.0])
        cs = make_cg_state(rng.standard_normal(3), forget=0.9, delta=0.01)
        mix = MixingState(np.array([1.0, 0.0, 0.0]), forget=0.9)
        mixed_auto, mixed_cross, advanced = update_cg_correlations(cs, mix, hist)
        assert np.array_equal(mixed_auto, advanced.autocorr[0])
        assert np.array_equal(mixed_cross, advanced.crosscorr[0])

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(14)
        lam = 0.93
        dim = 3
        cs = make_cg_state(rng.standard_normal(dim), forget=lam, delta=0.0)
        mix = make_mixing_state(3)
        increments_r1, increments_t1 = [], []
        windows = []
        for _ in range(100):
            vectors = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                       for _ in range(3)]
            symbols = list(2.0 * rng.integers(0, 2, size=3) - 1.0)
            windows.append((vectors, symbols))
            hist = history_of(vectors, symbols)
            w_before = cs.weights
            _, _, cs = update_cg_correlations(cs, mix, hist)
            r0 = vectors[2]
            r1v = vectors[1]
            b0, b1 = symbols[2], symbols[1]
            increments_r1.append(b1 * b1 * np.outer(r0, r0.conj()))
            increments_t1.append(b1 * np.vdot(r1v, w_before) * b0 * r0)
            # weights unchanged by the correlation update itself
            assert np.array_equal(cs.weights, w_before)
        steps = len(increments_r1)
        oracle_r1 = sum(lam ** (steps - 1 - j) * increments_r1[j] for j in range(steps))
        oracle_t1 = sum(lam ** (steps - 1 - j) * increments_t1[j] for j in range(steps))
        assert np.allclose(cs.autocorr[0], oracle_r1, atol=1e-9)
        assert np.allclose(cs.crosscorr[0], oracle_t1, atol=1e-9)

    def test_mixed_matrix_hermitian(self):
        rng = np.random.default_rng(41)
        cs = make_cg_state(rng.standard_normal(4), forget=0.97, delta=0.01)
        mix = make_mixing_state(3)
        for _ in range(100):
            vectors = [rng.standard_normal(4) + 1j * rng.standard_normal(4)
                       for _ in range(3)]
            hist = history_of(vectors, list(2.0 * rng.integers(0, 2, size=3) - 1.0))
            mixed_auto, _, cs = update_cg_correlations(cs, mix, hist)
            assert np.max(np.abs(mixed_auto - mixed_auto.conj().T)) < 1e-10

    def test_literal_t1_chaining_differs(self):
        rng = np.random.default_rng(55)
        vectors1 = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        vectors2 = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        mix = make_mixing_state(3)
        results = {}
        for literal in (False, True):
            cs = make_cg_state(np.ones(2), forget=0.9, delta=0.0,
                               paper_literal_t1=literal)
            for vectors in (vectors1, vectors2):
                hist = history_of(vectors, [1.0, 1.0, 1.0])
                _, _, cs = update_cg_correlations(cs, mix, hist)
            results[literal] = cs.crosscorr[0]
        assert not np.allclose(results[False], results[True])


class TestBidirCgStep:
    def test_jmax_zero_keeps_weights(self):
        rng = np.random.default_rng(62)
        vectors = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        hist = history_of(vectors, [1.0, 1.0, -1.0])
        cs = make_cg_state(rng.standard_normal(3), max_iters=0)
        out = bidir_cg_step(cs, make_mixing_state(3), hist)
        assert np.array_equal(out.weights, cs.weights)

    def test_static_channel_fixed_point_with_first_pair(self):
        # Unregularized statistics on a static channel satisfy the normal
        # equations at the initial filter, so the iterate never moves.
        rng = np.random.default_rng(77)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cs = make_cg_state(w0, forget=1.0, max_iters=4, delta=0.0)
        mix = MixingState(np.array([1.0, 0.0, 0.0]), forget=0.9)
        symbols = 2.0 * rng.integers(0, 2, size=60) - 1.0
        hist = History(depth=3)
        for b in symbols:
            hist.push(b * v, b)
            if hist.full:
                cs = bidir_cg_step(cs, mix, hist)
        assert np.allclose(cs.weights, w0, atol=1e-10)

    def test_converges_to_accumulated_normal_equations(self):
        # With forgetting 1 and the first pair only, the iterate settles
        # into the direct solution of the accumulated system.  The filter
        # must start nonzero: the cross vector is built from the current
        # filter, so the zero correlator is a (degenerate) fixed point.
        rng = np.random.default_rng(13)
        dim = 4
        base = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        cs = make_cg_state(base / np.linalg.norm(base), forget=1.0,
                           max_iters=dim + 2, delta=1e-6)
        mix = MixingState(np.array([1.0, 0.0, 0.0]), forget=0.9)
        hist = History(depth=3)
        for step in range(300):
            b = float(2 * rng.integers(0, 2) - 1)
            r = b * base + 0.05 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            hist.push(r, b)
            if hist.full:
                cs = bidir_cg_step(cs, mix, hist)
        direct = np.linalg.solve(cs.autocorr[0], cs.crosscorr[0])
        assert np.linalg.norm(cs.weights) > 0.1  # did not collapse to zero
        assert np.allclose(cs.weights, direct, atol=1e-8)

    def test_single_update_from_zero_state(self):
        # One update from zeroed statistics is a rank-one system; the
        # safeguard returns a finite iterate consistent with cg_solve.
        rng = np.random.default_rng(19)
        vectors = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        hist = history_of(vectors, [1.0, -1.0, 1.0])
        w0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        cs = make_cg_state(w0, forget=0.5, max_iters=3, delta=0.0)
        mix = make_mixing_state(3)
        mixed_auto, mixed_cross, _ = update_cg_correlations(cs, mix, hist)
        expected = cg_solve(mixed_auto, mixed_cross, w0, 3)
        out = bidir_cg_step(cs, mix, hist)
        assert np.allclose(out.weights, expected)
        assert np.all(np.isfinite(out.weights))

    def _loaded_case(self, loading):
        rng = np.random.default_rng(31)
        dim = 4
        vectors = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                   for _ in range(3)]
        hist = history_of(vectors, [1.0, -1.0, 1.0])
        w0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        cs = make_cg_state(w0, forget=0.9, max_iters=3, delta=0.05, loading=loading)
        mix = MixingState(np.array([0.5, 0.3, 0.2]), forget=0.9)
        return cs, mix, hist

    def test_loading_solves_the_loaded_mixed_system(self):
        loading = 0.1
        cs, mix, hist = self._loaded_case(loading)
        mixed_auto, mixed_cross, advanced = update_cg_correlations(cs, mix, hist)
        dim = cs.weights.size
        loaded = mixed_auto + loading * np.real(np.trace(mixed_auto)) / dim * np.eye(dim)
        expected = cg_solve(loaded, mixed_cross, cs.weights, cs.max_iters)
        out = bidir_cg_step(cs, mix, hist)
        assert np.allclose(out.weights, expected, atol=1e-12, rtol=0)
        unloaded = cg_solve(mixed_auto, mixed_cross, cs.weights, cs.max_iters)
        assert not np.allclose(out.weights, unloaded)
        # Only the solve is loaded: the stored statistics are not.
        for stored, plain in zip(out.autocorr, advanced.autocorr):
            assert np.array_equal(stored, plain)

    def test_zero_loading_is_the_plain_solve(self):
        cs, mix, hist = self._loaded_case(0.0)
        mixed_auto, mixed_cross, _ = update_cg_correlations(cs, mix, hist)
        expected = cg_solve(mixed_auto, mixed_cross, cs.weights, cs.max_iters)
        out = bidir_cg_step(cs, mix, hist)
        assert np.array_equal(out.weights, expected)

    @pytest.mark.parametrize("loading", [-0.1, float("nan")])
    def test_negative_loading_rejected(self, loading):
        cs, _, _ = self._loaded_case(0.0)
        with pytest.raises(ValueError, match="loading"):
            CgState(autocorr=cs.autocorr, crosscorr=cs.crosscorr, forget=0.9,
                     max_iters=3, weights=cs.weights, loading=loading)
        with pytest.raises(ValueError, match="loading"):
            make_cg_state(cs.weights, loading=loading)
