"""The lane engine: kernels against their docstring recursions, and batch invariance."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fadetrack import harness
from fadetrack.harness import (
    _SINR_FLOOR,
    ALGORITHMS,
    ExperimentConfig,
    _Chunk,
    _mode_of,
    _PacketDraws,
    _simulate,
    _step_lanes,
)
from fadetrack.receivers import (
    DegenerateInputError,
    MixingState,
    PairErrors,
    cg_correlations_lanes,
    cg_solve,
    cg_solve_lanes,
    cg_step_lanes,
    lane_dot,
    mixing_lanes,
    nlms_lanes,
    pair_errors_lanes,
    pair_indices,
    pair_nlms_lanes,
    rls_lanes,
    update_mixing,
)

from test_receivers import filter_outputs

LANES, DIM, STEPS = 4, 6, 300


def cnormal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def close(actual, expected, rel=1e-10):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.linalg.norm(actual - expected) <= rel * np.linalg.norm(expected)


def stream(seed):
    """Random (L, M, T) observations and (L, T) +-1 symbols."""
    rng = np.random.default_rng(seed)
    return rng, cnormal(rng, LANES, DIM, STEPS), 2.0 * rng.integers(0, 2, (LANES, STEPS)) - 1.0


def cg_statistics(received, i):
    """Fresh CG statistics before the step at symbol ``i + 1``: the ``(2, L, M, M)``
    averages of samples ``i`` and ``i + 1`` at ``0.01 I`` and the outer product of
    sample ``i``."""
    auto = np.zeros((2, *received.shape[:2], received.shape[1]), dtype=complex)
    auto[...] = 0.01 * np.eye(received.shape[1])
    r = received[..., i]
    return auto, r[..., :, None] * np.conj(r)[..., None, :]


# ----------------------------------------------------------------------
# The kernels' former array forms, kept as bit-equality references.
# ----------------------------------------------------------------------

def three_average_cg_step(auto, cross, w, forget, iters, loading, rho, window, symbols,
                          outputs, literal=False):
    """:func:`cg_step_lanes` on per-lane ``(L, 3, M, M)`` per-pair averages R1, R2, R3,
    mixed with one BLAS call per lane and solved by :func:`full_iteration_cg_solve`: the
    kernel's form before the autocorrelations were kept per window sample and updated
    in place.  With +-1 symbols R1 = R2, so the autocorrelations mix as (R3, R1) by the
    summed weights of each pair's newer sample, (rho_3, rho_1 + rho_2); the cross
    vectors mix by pair.  ``outputs`` are ``w``'s over the window."""
    r0, r1 = window[..., -1], window[..., -2]
    b0, b1, b2 = symbols[:, -1], symbols[:, -2], symbols[:, -3]
    outer0, outer1 = (r[..., :, None] * np.conj(r)[..., None, :] for r in (r0, r1))
    gains = np.stack([b1 * b1, b2 * b2, b2 * b2], axis=1)[..., None, None]
    auto = forget * auto + gains * np.stack([outer0, outer0, outer1], axis=1)
    h1, h2 = np.conj(outputs[:, -2]), np.conj(outputs[:, -3])
    cross = forget * cross
    if literal:
        cross[:, 0] = cross[:, 2]
    cross[:, 0] += (b1 * h1 * b0)[:, None] * r0
    cross[:, 1] += (b2 * h2 * b0)[:, None] * r0
    cross[:, 2] += (b2 * h2 * b1)[:, None] * r1

    def mix(weights, terms):
        flat = terms.reshape(*terms.shape[:2], -1).view(np.float64)
        return np.matmul(weights[:, None, :], flat).view(complex).reshape(terms[:, 0].shape)

    assert np.array_equal(auto[:, 0], auto[:, 1])
    samples = np.stack([rho[:, 2], rho[:, 0] + rho[:, 1]], axis=1)
    mixed_auto = mix(samples, auto[:, [2, 0]])
    if loading > 0:
        load = loading * np.trace(mixed_auto, axis1=-2, axis2=-1).real / w.shape[-1]
        mixed_auto = mixed_auto + load[:, None, None] * np.eye(w.shape[-1])
    return auto, cross, full_iteration_cg_solve(mixed_auto, mix(rho, cross), w, iters)


def full_iteration_cg_solve(corr, cross, w_init, j_max, tol=1e-12, history=None):
    """:func:`cg_solve_lanes` before it stopped at its last iterate: every iteration
    also forms the next gradient and direction."""
    w = np.array(w_init, dtype=np.complex128)
    grad = np.matmul(corr, w[..., None])[..., 0] - cross
    direction = -grad
    scale = np.trace(corr, axis1=-2, axis2=-1).real / max(w.shape[-1], 1)
    grad_exit = tol * np.maximum(1.0, np.sqrt(lane_dot(cross, cross).real))
    active = np.ones(w.shape[0], dtype=bool)
    for _ in range(j_max):
        active &= ~(np.sqrt(lane_dot(grad, grad).real) < grad_exit)
        if not active.any():
            break
        corr_dir = np.matmul(corr, direction[..., None])[..., 0]
        curvature = lane_dot(direction, corr_dir).real
        active &= ~(curvature <= 1e-13 * scale * lane_dot(direction, direction).real)
        if not active.any():
            break
        curvature = np.where(active, curvature, 1.0)
        alpha = -lane_dot(direction, grad) / curvature
        w = np.where(active[:, None], w + alpha[:, None] * direction, w)
        grad = np.matmul(corr, w[..., None])[..., 0] - cross
        beta = lane_dot(grad, corr_dir) / curvature
        direction = -grad + beta[:, None] * direction
        if history is not None:
            history.append(w.copy())
    return w


def unconditional_rls(w, inv_corr, forget, x, ref, output):
    """:func:`rls_lanes` with its symmetrization and zero-observation selects always run."""
    px = np.matmul(inv_corr, x[..., None])[..., 0]
    k = px / (forget + lane_dot(x, px).real)[:, None]
    weights = w + k * np.conj(ref - output)[:, None]
    inv = (inv_corr - k[:, :, None] * np.conj(px)[:, None, :]) / forget
    adjoint = np.conj(np.swapaxes(inv, -1, -2))
    drift = np.max(np.abs(inv - adjoint), axis=(-2, -1))
    inv = np.where((drift > 1e-6)[:, None, None], 0.5 * (inv + adjoint), inv)
    seen = np.any(x != 0, axis=-1)
    return (np.where(seen[:, None], weights, w),
            np.where(seen[:, None, None], inv, inv_corr))


# ----------------------------------------------------------------------
# Docstring recursions, one lane at a time, written with np.vdot.
# ----------------------------------------------------------------------

def ref_pair_errors(w, window, symbols):
    """e_n = b[i-d] w^H r[i-l] - b[i-l] w^H r[i-d] for the lexicographic pairs (d, l)."""
    depth = window.shape[-1]
    out = [np.vdot(w, window[:, -1 - d]) for d in range(depth)]
    b = [symbols[-1 - d] for d in range(depth)]
    return np.array([b[d] * out[l] - b[l] * out[d] for d, l in pair_indices(depth)])


def ref_power(power, forget, newest):
    return forget * power + (1.0 - forget) * np.vdot(newest, newest).real


def ref_pair_nlms(w, power, mu, forget, rho, errors, window, symbols):
    power = ref_power(power, forget, window[:, -1])
    r0, r1 = window[:, -1], window[:, -2]
    b1 = symbols[-2]
    step = rho[0] * b1 * np.conj(errors[0]) * r0
    if rho.size == 3:
        b2 = symbols[-3]
        step = step + rho[1] * b2 * np.conj(errors[1]) * r0 + rho[2] * b2 * np.conj(errors[2]) * r1
    return w + mu / power * step, power


def ref_cg_solve(corr, cross, w, j_max, tol=1e-12):
    grad = corr @ w - cross
    direction = -grad
    scale = np.trace(corr).real / w.size
    for _ in range(j_max):
        if np.linalg.norm(grad) < tol * max(1.0, np.linalg.norm(cross)):
            break
        corr_dir = corr @ direction
        curvature = np.vdot(direction, corr_dir).real
        if curvature <= 1e-13 * scale * np.vdot(direction, direction).real:
            break
        w = w - np.vdot(direction, grad) / curvature * direction
        grad = corr @ w - cross
        direction = -grad + np.vdot(grad, corr_dir) / curvature * direction
    return w


class TestKernelsFollowTheirRecursions:
    """Every lane of a kernel tracks its docstring recursion over 300 symbols."""

    @pytest.mark.parametrize("num_pairs, adapt", [(1, False), (3, False), (3, True)])
    def test_pair_nlms(self, num_pairs, adapt):
        rng, received, symbols = stream(1)
        depth = 2 if num_pairs == 1 else 3
        w = cnormal(rng, LANES, DIM)
        power = np.full(LANES, 2.0)
        rho = np.full((LANES, num_pairs), 1.0 / num_pairs)
        refs = [(w[l].copy(), 2.0, rho[l].copy()) for l in range(LANES)]
        for i in range(depth - 1, STEPS):
            window, syms = received[:, :, i + 1 - depth:i + 1], symbols[:, i + 1 - depth:i + 1]
            errors, total = pair_errors_lanes(filter_outputs(w, window), syms)
            if adapt:
                rho = mixing_lanes(rho, errors, total, 0.9)
            w, power = pair_nlms_lanes(w, power, 0.05, 0.9, rho, errors, window, syms)
            for l, (w_ref, p_ref, rho_ref) in enumerate(refs):
                e_ref = ref_pair_errors(w_ref, window[l], syms[l])
                close(errors[l], e_ref)
                if adapt:
                    mix = update_mixing(MixingState(rho_ref, 0.9), PairErrors(
                        e_ref, float(np.sum(np.abs(e_ref))), pair_indices(depth)))
                    rho_ref = mix.weights
                w_ref, p_ref = ref_pair_nlms(w_ref, p_ref, 0.05, 0.9, rho_ref, e_ref,
                                             window[l], syms[l])
                refs[l] = (w_ref, p_ref, rho_ref)
                close(w[l], w_ref)
                close(power[l], p_ref)
                close(rho[l], rho_ref)

    def test_conventional_nlms(self):
        rng, received, symbols = stream(2)
        w, power = cnormal(rng, LANES, DIM), np.ones(LANES)
        refs = [(w[l].copy(), 1.0) for l in range(LANES)]
        for i in range(STEPS):
            x = received[:, :, i]
            w, power = nlms_lanes(w, power, 0.3, 0.9, x, symbols[:, i],
                                  np.einsum("lm,lm->l", np.conj(w), x))
            for l, (w_ref, p_ref) in enumerate(refs):
                p_ref = ref_power(p_ref, 0.9, x[l])
                error = symbols[l, i] - np.vdot(w_ref, x[l])
                w_ref = w_ref + 0.3 / p_ref * x[l] * np.conj(error)
                refs[l] = (w_ref, p_ref)
                close(w[l], w_ref)
                close(power[l], p_ref)

    def test_rls(self):
        rng, received, symbols = stream(3)
        received[1, :, 5] = 0.0  # a zero observation leaves its lane's state alone
        w = cnormal(rng, LANES, DIM)
        inv = np.repeat(np.eye(DIM, dtype=complex)[None] / 0.01, LANES, axis=0)
        refs = [(w[l].copy(), inv[l].copy()) for l in range(LANES)]
        for i in range(STEPS):
            x = received[:, :, i]
            w = rls_lanes(w, inv, 0.98, x, symbols[:, i], np.einsum("lm,lm->l", np.conj(w), x))
            for l, (w_ref, p_ref) in enumerate(refs):
                if np.any(x[l]):
                    px = p_ref @ x[l]
                    k = px / (0.98 + np.vdot(x[l], px).real)
                    w_ref = w_ref + k * np.conj(symbols[l, i] - np.vdot(w_ref, x[l]))
                    p_ref = (p_ref - np.outer(k, np.conj(px))) / 0.98
                    if np.max(np.abs(p_ref - p_ref.conj().T)) > 1e-6:
                        p_ref = 0.5 * (p_ref + p_ref.conj().T)
                refs[l] = (w_ref, p_ref)
                close(w[l], w_ref)
                close(inv[l], p_ref)

    @pytest.mark.parametrize("literal, loading", [(False, 0.0), (True, 0.0), (False, 0.1)])
    def test_cg(self, literal, loading):
        rng, received, symbols = stream(4)
        w = cnormal(rng, LANES, DIM)
        auto, outer = cg_statistics(received, 1)
        cross = np.zeros((LANES, 3, DIM), dtype=complex)
        rho = rng.dirichlet(np.ones(3), size=LANES)
        refs = [(w[l].copy(), list(auto[[1, 1, 0], l].copy()), list(cross[l].copy()))
                for l in range(LANES)]
        for i in range(2, STEPS):
            window, syms = received[:, :, i - 2:i + 1], symbols[:, i - 2:i + 1]
            w = cg_step_lanes(auto, outer, cross, w, 0.97, 3, loading, rho, window, syms,
                              filter_outputs(w, window), literal)
            for l, (w_ref, a_ref, t_ref) in enumerate(refs):
                r0, r1, r2 = window[l, :, 2], window[l, :, 1], window[l, :, 0]
                b0, b1, b2 = syms[l, 2], syms[l, 1], syms[l, 0]
                a_ref = [0.97 * a_ref[0] + b1 * b1 * np.outer(r0, r0.conj()),
                         0.97 * a_ref[1] + b2 * b2 * np.outer(r0, r0.conj()),
                         0.97 * a_ref[2] + b2 * b2 * np.outer(r1, r1.conj())]
                t_ref = [0.97 * t_ref[2 if literal else 0] + b1 * np.vdot(r1, w_ref) * b0 * r0,
                         0.97 * t_ref[1] + b2 * np.vdot(r2, w_ref) * b0 * r0,
                         0.97 * t_ref[2] + b2 * np.vdot(r2, w_ref) * b1 * r1]
                mixed = sum(p * a for p, a in zip(rho[l], a_ref))
                mixed = mixed + loading * np.trace(mixed).real / DIM * np.eye(DIM)
                w_ref = ref_cg_solve(mixed, sum(p * t for p, t in zip(rho[l], t_ref)), w_ref, 3)
                refs[l] = (w_ref, a_ref, t_ref)
                # +-1 symbols: the first two averages coincide, stored once.
                assert np.array_equal(a_ref[0], a_ref[1])
                close(w[l], w_ref)
                close(auto[:, l], [a_ref[2], a_ref[0]])
                close(outer[l], np.outer(r0, r0.conj()))
                close(cross[l], t_ref)

    def test_cg_correlations_return_the_mixed_system(self):
        rng, received, symbols = stream(5)
        auto = cnormal(rng, 2, LANES, DIM, DIM)
        cross = cnormal(rng, LANES, 3, DIM)
        rho = rng.dirichlet(np.ones(3), size=LANES)
        outer = cnormal(rng, LANES, DIM, DIM)
        outputs = filter_outputs(cnormal(rng, LANES, DIM), received[:, :, :3])
        mixed_auto, mixed_cross = cg_correlations_lanes(
            auto, outer, cross, outputs, 0.9, rho, received[:, :, :3], symbols[:, :3])
        # The two averages, advanced in place, each with its sample's summed
        # pair weights: the per-pair sum over (Rbar_1, Rbar_2, Rbar_3) =
        # (auto[1], auto[1], auto[0]).
        per_pair = np.stack([auto[1], auto[1], auto[0]])
        close(mixed_auto, np.einsum("lp,plij->lij", rho, per_pair), rel=1e-12)
        close(mixed_cross, np.einsum("lp,lpi->li", rho, cross))

    def test_cg_autocorrelations_are_one_average_per_window_sample(self):
        # The engine's seeding, then symbol 1's two-sample step and three-sample
        # steps: after n steps slot 1 averages r_1 .. r_n and slot 0 r_0 .. r_(n-1).
        rng, received, symbols = stream(15)
        cfg = ExperimentConfig()
        specs = [harness._RECEIVERS[name] for name in ("diff-cg", "bidir-cg-equal")]
        w = cnormal(rng, len(specs), LANES, DIM)
        tracker = harness._CgLanes(specs, cfg, w, received)
        auto, outer, cross = tracker.autocorr, tracker.outer, tracker.crosscorr
        assert auto.shape == (2, LANES, DIM, DIM)
        rho = tracker.mixing  # (1, 0, 0) and thirds
        lam, outers = 0.9, np.einsum("lmt,lnt->tlmn", received, np.conj(received))
        for n in range(1, 40):
            past = max(n - 2, 0)
            window, syms = received[..., past:n + 1], symbols[:, past:n + 1]
            mixed_auto, _ = cg_correlations_lanes(
                auto, outer, cross, filter_outputs(w, window), lam,
                np.ones((*w.shape[:-1], 1)) if n == 1 else rho, window,
                np.broadcast_to(syms, (*w.shape[:-1], syms.shape[-1])))
            seed = lam ** n * cfg.delta * np.eye(DIM)
            close(auto[1], seed + sum(lam ** (n - k) * outers[k] for k in range(1, n + 1)))
            close(auto[0], seed + sum(lam ** (n - 1 - k) * outers[k] for k in range(n)))
            assert np.array_equal(mixed_auto[0], auto[1])

    @pytest.mark.parametrize("loading", [0.0, 0.05])
    def test_cg_shared_autocorrelations_serve_every_receiver_block(self, loading):
        # Three receivers with their own weights, filters and symbols read
        # one unstacked (S, M, D) window and share one (2, S, M, M) pair of
        # autocorrelations; each follows its own three-average form bit for bit.
        rng, received, _ = stream(9)
        rho = np.stack([np.tile([1.0, 0.0, 0.0], (LANES, 1)), np.full((LANES, 3), 1.0 / 3.0),
                        rng.dirichlet(np.ones(3), size=LANES)])
        num = len(rho)
        symbols = 2.0 * rng.integers(0, 2, (num, LANES, STEPS)) - 1.0
        w = cnormal(rng, num, LANES, DIM)
        auto, outer = cg_statistics(received, 1)
        cross = np.zeros((num, LANES, 3, DIM), dtype=complex)
        refs = [(np.moveaxis(auto[[1, 1, 0]], 0, 1).copy(), cross[k].copy(), w[k])
                for k in range(num)]
        for i in range(2, STEPS):
            window, syms = received[:, :, i - 2:i + 1], symbols[..., i - 2:i + 1]
            w = cg_step_lanes(auto, outer, cross, w, 0.97, 3, loading, rho, window, syms,
                              filter_outputs(w, window))
            for k, (a_ref, t_ref, w_ref) in enumerate(refs):
                a_ref, t_ref, w_ref = three_average_cg_step(
                    a_ref, t_ref, w_ref, 0.97, 3, loading, rho[k], window, syms[k],
                    filter_outputs(w_ref, window))
                refs[k] = (a_ref, t_ref, w_ref)
                assert np.array_equal(a_ref[:, 0], a_ref[:, 1])
                assert np.array_equal(auto, np.moveaxis(a_ref[:, [2, 0]], 1, 0))
                assert np.array_equal(cross[k], t_ref)
                assert np.array_equal(w[k], w_ref)


class TestTwoSampleRestriction:
    """One weight on pair (0, 1) of the three-sample window is the two-sample tracker."""

    @pytest.mark.parametrize("loading", [0.0, 0.05])
    def test_cg(self, loading):
        rng, received, symbols = stream(13)
        w = cnormal(rng, LANES, DIM)
        auto, outer = cg_statistics(received, 0)
        cross = np.zeros((LANES, 3, DIM), dtype=complex)
        # Symbol 1: the two-sample step, shared by both forms.
        w = cg_step_lanes(auto, outer, cross, w, 0.97, 3, loading, np.ones((LANES, 1)),
                          received[..., :2], symbols[:, :2], filter_outputs(w, received[..., :2]))
        # The kernel updates the statistics in place: each form steps its own copies.
        three, two = ([a.copy() for a in (auto, outer, cross, w)] for _ in range(2))
        for i in range(2, STEPS):
            window = received[..., i - 2:i + 1]
            three[3] = cg_step_lanes(*three, 0.97, 3, loading,
                                     np.tile([1.0, 0.0, 0.0], (LANES, 1)), window,
                                     symbols[:, i - 2:i + 1], filter_outputs(three[3], window))
            two[3] = cg_step_lanes(*two, 0.97, 3, loading, np.ones((LANES, 1)), window[..., 1:],
                                   symbols[:, i - 1:i + 1], filter_outputs(two[3], window[..., 1:]))
            assert np.array_equal(three[3], two[3])
            assert np.array_equal(three[2][:, 0], two[2][:, 0])
            assert np.array_equal(three[1], two[1])
            assert np.array_equal(three[0], two[0])

    def test_pair_nlms(self):
        rng, received, symbols = stream(14)
        w = cnormal(rng, LANES, DIM)
        power = np.full(LANES, 2.0)

        def step(w, power, rho, window, syms):
            errors, _ = pair_errors_lanes(filter_outputs(w, window), syms)
            return pair_nlms_lanes(w, power, 0.05, 0.9, rho, errors, window, syms)

        three = two = step(w, power, np.ones((LANES, 1)), received[..., :2], symbols[:, :2])
        for i in range(2, STEPS):
            three = step(*three, np.tile([1.0, 0.0, 0.0], (LANES, 1)),
                         received[..., i - 2:i + 1], symbols[:, i - 2:i + 1])
            two = step(*two, np.ones((LANES, 1)), received[..., i - 1:i + 1],
                       symbols[:, i - 1:i + 1])
            assert np.array_equal(three[0], two[0])
            assert np.array_equal(three[1], two[1])


class TestLaneRules:
    def test_mixing_is_bit_equal_to_update_mixing(self):
        rng = np.random.default_rng(6)
        rho = np.full((8, 3), 1.0 / 3.0)
        for it in range(2_000):
            errors = cnormal(rng, 8, 3) * rng.uniform(0.01, 10.0, (8, 1))
            if it % 2:
                errors[it % 8] = 0.0  # a silent lane keeps its weights
            errors[(it + 3) % 8, rng.integers(3)] = 0.0
            total = np.sum(np.abs(errors), axis=-1)
            forget = float(rng.uniform()) if it % 5 else float(rng.integers(0, 2))
            new = mixing_lanes(rho, errors, total, forget)
            for l in range(8):
                expected = update_mixing(MixingState(rho[l], forget),
                                         PairErrors(errors[l], float(total[l]), pair_indices(3)))
                assert np.array_equal(new[l], expected.weights)
            rho = new

    def test_mixed_system_bits_do_not_depend_on_the_weights_layout(self):
        # The same weights stored contiguous, with a strided last axis and
        # transposed (Fortran order) mix every lane's system to the same bits.
        rng, received, symbols = stream(12)
        num = 3
        for draw in range(20):
            auto = cnormal(rng, 2, LANES, DIM, DIM)
            outer = cnormal(rng, LANES, DIM, DIM)
            cross = cnormal(rng, num, LANES, 3, DIM)
            w = cnormal(rng, num, LANES, DIM)
            syms = np.broadcast_to(symbols[:, draw:draw + 3], (num, LANES, 3))
            contiguous = rng.dirichlet(np.ones(3), size=(num, LANES))
            strided = np.repeat(contiguous, 2, axis=-1)[..., ::2]
            transposed = np.asfortranarray(contiguous)
            window = received[..., draw:draw + 3]
            mixed = [cg_correlations_lanes(auto.copy(), outer.copy(), cross.copy(),
                                           filter_outputs(w, window), 0.9, rho, window, syms)
                     for rho in (contiguous, strided, transposed)]
            for other in mixed[1:]:
                assert np.array_equal(other[0], mixed[0][0])
                assert np.array_equal(other[1], mixed[0][1])

    def test_one_underflowing_lane_raises(self):
        rng = np.random.default_rng(7)
        window = cnormal(rng, 3, DIM, 3)
        window[1] = 0.0
        symbols = np.ones((3, 3))
        w = cnormal(rng, 3, DIM)
        errors, _ = pair_errors_lanes(filter_outputs(w, window), symbols)
        with pytest.raises(DegenerateInputError):
            pair_nlms_lanes(w, np.ones(3), 0.1, 0.0, np.full((3, 3), 1 / 3), errors,
                            window, symbols)

    @pytest.mark.parametrize("name", ["nlms", "bidir-nlms", "rls"])
    def test_non_finite_filter_raises(self, name):
        # An overflowing step size or forgetting factor: the engine raises
        # rather than return non-finite filters and decisions made from them.
        cfg = ExperimentConfig(**{**small_config(isi=True).__dict__,
                                  "mu": 1e300, "lambda_rls": 1e-300, "packets": 1})
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            next(_simulate(cfg, POINTS[:1], (name,)))

    @pytest.mark.parametrize("group", [("bidir-cg", "bidir-cg-equal"),
                                       ("bidir-cg-equal", "bidir-cg")])
    def test_non_finite_filter_names_its_receiver(self, group, monkeypatch):
        # Two receivers share one step loop; only the second one's lanes
        # (index 1 of the receiver axis) overflow, and the error names it.
        import fadetrack.harness as harness

        def overflowing(*args):
            w = cg_step_lanes(*args)
            w[w.shape[0] // 2:] = np.inf
            return w

        monkeypatch.setattr(harness, "cg_step_lanes", overflowing)
        cfg = ExperimentConfig(**{**small_config(isi=False).__dict__, "packets": 1})
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=f"^{group[1]} filter"):
            next(_simulate(cfg, POINTS[:2], group))

    def test_cg_exits_lane_by_lane(self):
        # Lane 0 starts at its solution (gradient exit), lane 1 on a
        # rank-one system (curvature floor after one step), lane 2 runs
        # every iteration: each equals its own one-lane solve.
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(cnormal(rng, DIM, DIM))
        spd = (q * rng.uniform(0.5, 5.0, DIM)) @ q.conj().T
        v = cnormal(rng, DIM)
        corr = np.stack([np.eye(DIM), np.outer(v, v.conj()), spd]).astype(complex)
        cross = np.stack([np.ones(DIM), cnormal(rng, DIM), cnormal(rng, DIM)])
        w0 = np.stack([np.ones(DIM), np.zeros(DIM), np.zeros(DIM)]).astype(complex)
        history = []
        out = cg_solve_lanes(corr, cross, w0, DIM, history=history)
        assert len(history) == DIM
        for l in range(3):
            assert np.array_equal(out[l], cg_solve(corr[l], cross[l], w0[l], DIM))
        assert np.array_equal(out[0], w0[0])

    @pytest.mark.parametrize("j_max", [0, 1, 2, DIM])
    @pytest.mark.parametrize("lanes", [[0, 1, 2], [0, 1], [2]], ids=["all", "exits", "full"])
    def test_cg_stops_at_its_last_iterate_bit_for_bit(self, j_max, lanes):
        # Gradient exit (lane 0), curvature floor (lane 1) and every
        # iteration (lane 2), against the loop that also formed the next
        # gradient and direction after its last iterate.
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(cnormal(rng, DIM, DIM))
        spd = (q * rng.uniform(0.5, 5.0, DIM)) @ q.conj().T
        v = cnormal(rng, DIM)
        corr = np.stack([np.eye(DIM), np.outer(v, v.conj()), spd]).astype(complex)[lanes]
        cross = np.stack([np.ones(DIM), cnormal(rng, DIM), cnormal(rng, DIM)])[lanes]
        w0 = np.stack([np.ones(DIM), np.zeros(DIM), cnormal(rng, DIM)]).astype(complex)[lanes]
        history, expected_history = [], []
        out = cg_solve_lanes(corr, cross, w0, j_max, history=history)
        expected = full_iteration_cg_solve(corr, cross, w0, j_max, history=expected_history)
        assert np.array_equal(out, expected)
        assert len(history) == len(expected_history)
        assert all(np.array_equal(a, b) for a, b in zip(history, expected_history))

    def test_rls_runs_its_selects_only_when_needed_bit_for_bit(self):
        # Clean lanes skip both selects; from symbol 30 on, a skewed inverse
        # (lane 1) and zero observations (lane 2) beside them take each one.
        rng, received, symbols = stream(11)
        received[2, :, 30::5] = 0.0
        w = cnormal(rng, LANES, DIM)
        inv = np.repeat(np.eye(DIM, dtype=complex)[None] / 0.01, LANES, axis=0)
        for i in range(60):
            if i == 30:
                inv[1] += 1e-3 * cnormal(rng, DIM, DIM)
            x = received[:, :, i]
            args = (w, inv, 0.98, x, symbols[:, i], lane_dot(w, x))
            expected = unconditional_rls(*args)
            w = rls_lanes(*args)
            assert np.array_equal(w, expected[0])
            assert np.array_equal(inv, expected[1])
            if i == 30:
                assert np.array_equal(inv[1], inv[1].conj().T)  # re-symmetrized
                assert np.array_equal(w[2], args[0][2])  # zero observation: kept


# ----------------------------------------------------------------------
# Batch invariance: a lane's bits do not depend on its chunk.
# ----------------------------------------------------------------------

POINTS = ((0.005, 5.0), (0.02, 12.0), (0.0, 8.0))  # (fading rate, SNR dB) grid points
ADAPTIVE = tuple(name for name in ALGORITHMS if name != "mmse")


def small_config(isi):
    return ExperimentConfig(users=2, gain=4, paths=2, packet_len=30, train_len=9, packets=3,
                            mu=0.3, jmax=2, lambda_cg=0.9, lambda_rls=0.95, cg_loading=0.05,
                            isi=isi, seed=5)


def lane_inputs(cfg, lanes, mode):
    """Each ``(packet, point index)`` lane with its config, and the inputs of a step call."""
    chunk = _Chunk(cfg, len(lanes), [mode])
    for j, (packet, g) in enumerate(lanes):
        chunk.fill(j, _PacketDraws(cfg, packet), *POINTS[g])
    envs = [(cfg, lane) for lane in lanes]
    return envs, [chunk.received[mode], chunk.refs[mode], chunk.data, chunk.w_init]


def _sinr_terms(env, marks):
    """One lane's scoring terms at ``marks``: its row of a one-lane chunk."""
    cfg, (packet, g) = env
    chunk = _Chunk(cfg, 1, [], marks)
    chunk.fill(0, _PacketDraws(cfg, packet), *POINTS[g])
    return chunk.cov[0], chunk.target[0], chunk.snr[0]


def _score(filters, terms):
    """:func:`harness._score` against per-lane terms, stacked as a chunk's."""
    return harness._score(filters, *(np.stack(arrays) for arrays in zip(*terms)))


def normalized_sinr_db(w, terms):
    """The former scalar score that :func:`harness._score` batches: one filter, one mark."""
    cov, signature, snr_inst = terms
    num = float(np.abs(np.vdot(w, signature)) ** 2)
    den = float(np.real(np.vdot(w, cov @ w))) - num
    ratio = max(num / den / snr_inst, _SINR_FLOOR)
    return 10.0 * np.log10(ratio)


def test_batched_score_matches_the_scalar_form():
    rng = np.random.default_rng(8)
    lanes, marks = 7, 3
    target = cnormal(rng, lanes, marks, DIM)
    spread = cnormal(rng, lanes, marks, DIM, DIM)
    # Covariances of a realized channel: user 0, interference and noise.
    cov = (target[..., :, None] * np.conj(target)[..., None, :]
           + spread @ np.conj(np.swapaxes(spread, -1, -2)) + 0.1 * np.eye(DIM))
    snr = rng.uniform(0.5, 50.0, (lanes, marks))
    filters = cnormal(rng, lanes, marks, DIM)
    # Lane 3's filters are orthogonal to user 0: the SINR floor.
    s, w = target[3], filters[3]
    filters[3] = w - s * (lane_dot(s, w) / lane_dot(s, s))[:, None]
    batched = harness._score(filters, cov, target, snr)
    scalar = [[normalized_sinr_db(filters[j, k], (cov[j, k], target[j, k], snr[j, k]))
               for k in range(marks)] for j in range(lanes)]
    assert np.all(batched[3] == 10.0 * np.log10(_SINR_FLOOR))
    assert np.max(np.abs(batched - scalar)) <= 1e-12
    for j in range(lanes):
        alone = harness._score(*(a[j:j + 1] for a in (filters, cov, target, snr)))
        assert alone.tobytes() == batched[j:j + 1].tobytes()


LANE_LISTS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, len(POINTS) - 1)),
                      min_size=2, max_size=6)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(ADAPTIVE), isi=st.booleans(), lanes=LANE_LISTS,
       chunk=st.integers(1, 4))
def test_lane_bits_do_not_depend_on_the_chunk(name, isi, lanes, chunk):
    cfg = small_config(isi)
    marks = (cfg.train_len - 1, cfg.packet_len - 1)
    envs, stacked = lane_inputs(cfg, lanes, _mode_of(name))
    (whole,) = _step_lanes((name,), cfg, *stacked, marks, record_weights=True)
    parts = [_step_lanes((name,), cfg, *(a[start:start + chunk] for a in stacked), marks,
                         record_weights=True)[0] for start in range(0, len(lanes), chunk)]
    for k, out in enumerate(whole):
        assert np.array_equal(out, np.concatenate([part[k] for part in parts]), equal_nan=True)
    sinr = _score(whole[1], [_sinr_terms(env, marks) for env in envs])
    for j, env in enumerate(envs):
        (alone,) = _step_lanes((name,), cfg, *(a[j:j + 1] for a in stacked), marks,
                               record_weights=True)
        for k, out in enumerate(alone):
            assert np.array_equal(out[0], whole[k][j], equal_nan=True)
        assert _score(alone[1], [_sinr_terms(env, marks)]).tolist() == sinr[j:j + 1].tolist()


# Receivers that share one step loop (harness._groups), in any order.
GROUPS = st.sampled_from([
    ("diff-cg", "bidir-cg", "bidir-cg-equal"),
    ("bidir-nlms", "bidir-nlms-equal"),
    ("diff-nlms", "bidir-nlms", "bidir-nlms-equal"),
]).flatmap(st.permutations)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(group=GROUPS, isi=st.booleans(), lanes=LANE_LISTS, chunk=st.integers(1, 4))
def test_fused_receivers_match_each_stepped_alone(group, isi, lanes, chunk):
    cfg = small_config(isi)
    marks = (cfg.train_len - 1, cfg.packet_len - 1)
    _, stacked = lane_inputs(cfg, lanes, "differential")
    fused = [_step_lanes(group, cfg, *(a[start:start + chunk] for a in stacked), marks,
                         record_weights=True) for start in range(0, len(lanes), chunk)]
    for r, name in enumerate(group):
        (alone,) = _step_lanes((name,), cfg, *stacked, marks, record_weights=True)
        for k, out in enumerate(alone):
            assert np.array_equal(out, np.concatenate([part[r][k] for part in fused]),
                                  equal_nan=True)


@pytest.mark.parametrize("group", [("diff-nlms", "bidir-nlms", "bidir-nlms-equal"),
                                   ("diff-cg", "bidir-cg", "bidir-cg-equal")])
@pytest.mark.parametrize("isi", [False, True])
def test_every_pair_receiver_of_a_group_takes_the_same_symbol_1_step(group, isi):
    # At symbol 1 the window holds pair (0, 1) alone, which every pair
    # receiver takes with weight one: their filters agree bit for bit.
    cfg = small_config(isi)
    _, stacked = lane_inputs(cfg, [(0, 0), (1, 1), (2, 2), (0, 1)], "differential")
    runs = _step_lanes(group, cfg, *stacked, record_weights=True)
    first = [trajectory[..., 1] for _, _, trajectory in runs]
    assert not np.array_equal(first[0], stacked[3])  # the step moved the filters
    for other in first[1:]:
        assert np.array_equal(other, first[0])


# ----------------------------------------------------------------------
# The engine against the reference steps, bit for bit.
# ----------------------------------------------------------------------

def reference_step_lanes(names, cfg, received, refs, data, w_init):
    """:func:`_step_lanes` of one group, one receiver at a time.  Each symbol forms the
    filter's outputs over its window once, as the engine does, and steps with the
    references above: :func:`three_average_cg_step` (symbol 1's two-sample step as
    pair (0, 1) of a window padded with a zero sample), :func:`pair_nlms_lanes` (symbol
    1 on the two-sample window), mixing by :func:`update_mixing` lane by lane from the
    pre-update filter's errors, :func:`unconditional_rls` and :func:`nlms_lanes`.
    Returns each receiver's ``(L, T)`` data errors and ``(L, M, T)`` filter trajectory."""
    lanes, dim, length = received.shape
    errors = np.full((len(names), lanes, length), np.nan)
    trajectory = np.empty((len(names), lanes, dim, length), dtype=complex)
    for k, name in enumerate(names):
        spec = harness._RECEIVERS[name]
        differential = spec.pair_weights is not None
        w, used, z_prev = w_init.copy(), np.empty((lanes, length)), None
        power = harness._initial_power(received)
        auto = np.zeros((lanes, 3, dim, dim), dtype=complex)
        auto[...] = cfg.delta * np.eye(dim)
        cross = np.zeros((lanes, 3, dim), dtype=complex)
        inv = np.repeat(np.eye(dim, dtype=complex)[None] / cfg.delta, lanes, axis=0)
        if differential:
            rho = np.tile(spec.pair_weights + (0.0,) * (3 - len(spec.pair_weights)), (lanes, 1))
        for i in range(length):
            past = max(i - 2, 0) if differential else i
            window = received[..., past:i + 1]
            outputs = filter_outputs(w, window)
            z = outputs[:, -1]
            if differential and i == 0:
                used[:, 0] = refs[:, 0]
            else:
                decided = np.where((z * np.conj(z_prev) if differential else z).real >= 0,
                                   1.0, -1.0)
                errors[k, :, i] = decided != data[:, i]
                if i < cfg.train_len:
                    used[:, i] = refs[:, i]
                else:
                    used[:, i] = decided * used[:, i - 1] if differential else decided
            syms = used[:, past:i + 1]
            if name == "rls":
                w, inv = unconditional_rls(w, inv, cfg.lambda_rls, window[..., -1], syms[:, -1], z)
            elif name == "nlms":
                w, power = nlms_lanes(w, power, cfg.mu, cfg.lambda_m, window[..., -1],
                                      syms[:, -1], z)
            elif i:
                e, total = pair_errors_lanes(outputs, syms)
                step_rho = np.ones((lanes, 1)) if i == 1 else rho
                if i > 1 and spec.adapt:
                    rho = step_rho = np.array([
                        update_mixing(MixingState(rho[l], cfg.lambda_e),
                                      PairErrors(e[l], float(total[l]), pair_indices(3))).weights
                        for l in range(lanes)])
                if spec.lanes is not harness._CgLanes:
                    w, power = pair_nlms_lanes(w, power, cfg.mu, cfg.lambda_m, step_rho, e,
                                               window, syms)
                else:
                    if i == 1:
                        window, syms, outputs = (np.concatenate([pad(a[..., :1]), a], axis=-1)
                                                 for a, pad in ((window, np.zeros_like),
                                                                (syms, np.ones_like),
                                                                (outputs, np.zeros_like)))
                        step_rho = np.tile([1.0, 0.0, 0.0], (lanes, 1))
                    auto, cross, w = three_average_cg_step(
                        auto, cross, w, cfg.lambda_cg, cfg.jmax, cfg.cg_loading, step_rho,
                        window, syms, outputs, cfg.paper_literal_t1)
            if differential:
                gamma = harness._unit_power_gain(z, cfg.lambda_m)
                w, cross = gamma[:, None] * w, gamma[:, None, None] * cross
            trajectory[k, ..., i] = w
            z_prev = z
    return errors, trajectory


@pytest.mark.parametrize("changes, isi", [
    ({"jmax": 0, "cg_loading": 0.0}, False),
    ({"jmax": 1, "cg_loading": 0.0}, False),
    ({"jmax": 5, "cg_loading": 0.0}, True),
    ({"paper_literal_t1": True, "cg_loading": 0.0}, False),
    ({"cg_loading": 0.05}, True),
], ids=["jmax-0", "jmax-1", "jmax-5", "literal", "loading"])
def test_engine_steps_bit_equal_to_the_reference_steps(changes, isi):
    # Two chunks with different data and lane counts step back to back, so
    # state kept across receivers or chunks would show.  In the first, pair
    # lane 1 reads all-zero windows (a silent lane for the mixing), pair lane
    # 2 windows scaled by 1e-9 (its CG solve exits at a small but nonzero
    # gradient while the other lanes iterate), and coherent lane 2 zero
    # observations mid-packet.
    cfg = ExperimentConfig(**{**small_config(isi).__dict__, **changes})
    for lanes in ([(0, 0), (1, 1), (2, 2)], [(1, 0), (0, 2), (2, 1), (0, 0)]):
        for group in (("diff-cg", "bidir-cg", "bidir-cg-equal"),
                      ("diff-nlms", "bidir-nlms", "bidir-nlms-equal"), ("rls",), ("nlms",)):
            mode = _mode_of(group[0])
            _, stacked = lane_inputs(cfg, lanes, mode)
            if len(lanes) == 3 and mode == "differential":
                stacked[0][1] = 0.0
                stacked[0][2] *= 1e-9
            elif len(lanes) == 3:
                stacked[0][2, :, 12:15] = 0.0
            runs = _step_lanes(group, cfg, *stacked, record_weights=True)
            errors, trajectory = reference_step_lanes(group, cfg, *stacked)
            for k, (run_errors, _, run_trajectory) in enumerate(runs):
                assert np.array_equal(run_errors, errors[k], equal_nan=True)
                assert np.array_equal(run_trajectory, trajectory[k])
