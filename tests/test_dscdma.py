"""DS-CDMA observation model, modulation and detection."""

import math

import numpy as np
import pytest

from fadetrack.dscdma import (
    ChannelScenario,
    ReceivedVector,
    SpreadingCode,
    SymbolStream,
    UserParams,
    build_channel_matrix,
    code_convolution_operator,
    conditional_covariance,
    detect_coherent,
    detect_differential,
    filter_output,
    mmse_filters,
    modulate_coherent,
    modulate_differential,
    random_code,
    received_block,
    signature_rows,
    synthesize_received,
)
from fadetrack.fading import FadingConfig, FadingSequence, generate_fading


def convolution_matrix_oracle(taps, code_length):
    """Direct double-loop construction of the banded convolution matrix."""
    taps = np.asarray(taps, dtype=complex)
    num_taps = taps.size
    out = np.zeros((code_length + num_taps - 1, code_length), dtype=complex)
    for m in range(out.shape[0]):
        for n in range(code_length):
            if 0 <= m - n < num_taps:
                out[m, n] = taps[m - n]
    return out


def differential_oracle(data, reference):
    """Step-by-step differential encoding."""
    out = [reference]
    for symbol in data:
        out.append(symbol * out[-1])
    return np.array(out, dtype=float)


def static_fading(value: complex, length: int) -> FadingSequence:
    cfg = FadingConfig(normalized_doppler=0.0, num_paths=1, seed=0)
    gains = np.full((1, length), value, dtype=complex)
    return FadingSequence(gains=gains, config=cfg)


class TestChannelScenario:
    @pytest.mark.parametrize("field, value", [
        ("fading_rate", float("nan")), ("fading_rate", float("inf")), ("fading_rate", -0.1),
        ("snr_db", float("nan")), ("snr_db", float("inf")), ("snr_db", -float("inf")),
        ("code_seed", -1),
    ])
    def test_bad_value_rejected(self, field, value):
        fields = dict(users=2, gain=4, paths=1, snr_db=10.0, fading_rate=0.01)
        with pytest.raises(ValueError):
            ChannelScenario(**{**fields, field: value})


class TestBuildChannelMatrix:
    def test_single_tap_is_identity(self):
        assert np.array_equal(build_channel_matrix([1.0], 2), np.eye(2))

    def test_two_taps(self):
        expected = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 0.5]])
        assert np.allclose(build_channel_matrix([1.0, 0.5], 2), expected)

    def test_pure_delay(self):
        expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(build_channel_matrix([0.0, 1.0], 2), expected)

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        taps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.allclose(build_channel_matrix(taps, 7),
                           convolution_matrix_oracle(taps, 7))

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            build_channel_matrix([], 4)


class TestModulation:
    def test_all_ones_fixed_point(self):
        stream = modulate_differential([1, 1], reference=1)
        assert np.array_equal(stream.transmitted, [1, 1, 1])

    def test_hand_recursion(self):
        stream = modulate_differential([-1, 1], reference=1)
        assert np.array_equal(stream.transmitted, [1, -1, -1])

    def test_matches_recursion_oracle(self):
        data = [-1, -1, -1]
        stream = modulate_differential(data, reference=-1)
        assert np.array_equal(stream.transmitted, [-1, 1, -1, 1])
        assert np.array_equal(stream.transmitted, differential_oracle(data, -1))

    def test_detection_inverts_encoding(self):
        rng = np.random.default_rng(11)
        data = 2.0 * rng.integers(0, 2, size=64) - 1.0
        stream = modulate_differential(data, reference=1)
        gain = 0.8 - 1.3j  # any fixed nonzero complex channel
        z = gain * stream.transmitted
        decided = [detect_differential(z[i], z[i - 1]) for i in range(1, z.size)]
        assert np.array_equal(decided, data)

    def test_coherent_passthrough(self):
        stream = modulate_coherent([1, -1, 1])
        assert np.array_equal(stream.data, stream.transmitted)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            modulate_differential([], reference=1)

    def test_stacked_streams_equal_the_row_streams(self):
        rng = np.random.default_rng(13)
        data = 2.0 * rng.integers(0, 2, size=(5, 40)) - 1.0
        for reference in (1.0, -1.0):
            stacked = modulate_differential(data, reference=reference).transmitted
            rows = [modulate_differential(row, reference=reference).transmitted for row in data]
            assert stacked.shape == (5, 41)
            assert np.array_equal(stacked, np.stack(rows))

    def test_stacked_stream_with_one_broken_row_rejected(self):
        data = np.ones((3, 6))
        transmitted = modulate_differential(data).transmitted.copy()
        transmitted[1, 4] = -transmitted[1, 4]
        with pytest.raises(ValueError, match="recursion"):
            SymbolStream(data=data, transmitted=transmitted, mode="differential")
        with pytest.raises(ValueError, match="reference"):
            SymbolStream(data=data, transmitted=transmitted[:, 1:], mode="differential")


class TestDetectors:
    def test_coherent_signs(self):
        assert detect_coherent(0.3 - 2j) == 1
        assert detect_coherent(-5.0 + 0j) == -1
        assert detect_coherent(0.0 + 1j) == 1  # documented tie-break

    def test_differential_cases(self):
        assert detect_differential(1.0 + 0j, 1.0 + 0j) == 1
        assert detect_differential(-2.0 + 0j, 1.0 + 0j) == -1
        z_now = np.exp(1j * np.pi / 4)
        z_prev = np.exp(1j * np.pi / 3)
        assert detect_differential(z_now, z_prev) == 1


class TestFilterOutput:
    def test_coordinate_projection(self):
        r = ReceivedVector(np.array([3 + 4j, 1.0, -2.0]), 0)
        w = np.array([1.0, 0.0, 0.0])
        assert filter_output(w, r) == 3 + 4j

    def test_self_inner_product(self):
        samples = np.array([1 + 1j, 2.0, -1j])
        r = ReceivedVector(samples, 0)
        out = filter_output(samples, r)
        assert out == pytest.approx(np.sum(np.abs(samples) ** 2))
        assert out.imag == pytest.approx(0.0)

    def test_hand_conjugate_inner_product(self):
        r = ReceivedVector(np.array([1.0, 1.0]), 0)
        w = np.array([1.0, 1.0j])
        assert filter_output(w, r) == pytest.approx(1.0 - 1.0j)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            filter_output(np.ones(3), ReceivedVector(np.ones(2), 0))


def single_user(code_chips, h=1.0, amplitude=1.0, length=8):
    code = SpreadingCode(np.asarray(code_chips))
    return UserParams(amplitude=amplitude, code=code,
                      fading=static_fading(h, length))


class TestSynthesizeReceived:
    def test_noiseless_single_user_is_code(self):
        chips = np.ones(4) / 2.0
        user = single_user(chips)
        stream = modulate_coherent(np.ones(8))
        r = synthesize_received([user], [stream], 3, 0.0)
        assert np.allclose(r.samples, chips)

    def test_orthogonal_superposition(self):
        c1 = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        c2 = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        users = [single_user(c1), single_user(c2)]
        streams = [modulate_coherent(np.ones(8)) for _ in users]
        r = synthesize_received(users, streams, 2, 0.0)
        assert np.allclose(r.samples, c1 + c2)
        assert np.sum(np.abs(r.samples) ** 2) == pytest.approx(2.0)

    def test_noise_covariance(self):
        chips = np.ones(2) / np.sqrt(2.0)
        user = single_user(chips, length=4)
        stream = modulate_coherent(np.ones(4))
        rng = np.random.default_rng(3)
        sigma2 = 0.5
        draws = np.empty((100_000, 2), dtype=complex)
        clean = synthesize_received([user], [stream], 1, 0.0).samples
        for j in range(draws.shape[0]):
            draws[j] = synthesize_received([user], [stream], 1, sigma2, rng).samples - clean
        cov = draws.conj().T @ draws / draws.shape[0]
        target = sigma2 * np.eye(2)
        rel = np.linalg.norm(cov - target) / np.linalg.norm(target)
        assert rel < 0.05
        assert np.mean(np.sum(np.abs(draws) ** 2, axis=1)) == pytest.approx(
            2 * sigma2, rel=0.05)

    def test_linear_in_amplitude(self):
        chips = np.ones(4) / 2.0
        h = 0.7 + 0.2j
        weak = single_user(chips, h=h, amplitude=1.0)
        strong = single_user(chips, h=h, amplitude=2.5)
        stream = modulate_coherent(np.ones(8))
        r1 = synthesize_received([weak], [stream], 2, 0.0)
        r2 = synthesize_received([strong], [stream], 2, 0.0)
        assert np.allclose(r2.samples, 2.5 * r1.samples)

    def test_single_path_has_no_isi(self):
        chips = np.array([1.0, -1.0, 1.0, 1.0]) / 2.0
        user = single_user(chips, h=0.3 - 1j)
        stream = modulate_coherent(2.0 * np.random.default_rng(0).integers(0, 2, 8) - 1.0)
        with_isi = synthesize_received([user], [stream], 4, 0.0, include_isi=True)
        without = synthesize_received([user], [stream], 4, 0.0, include_isi=False)
        assert with_isi.samples.size == 4
        assert np.array_equal(with_isi.samples, without.samples)

    def test_negative_noise_rejected(self):
        user = single_user(np.ones(2) / np.sqrt(2.0))
        stream = modulate_coherent(np.ones(8))
        with pytest.raises(ValueError):
            synthesize_received([user], [stream], 0, -1.0)

    def test_mismatched_gains_rejected(self):
        u1 = single_user(np.ones(2) / np.sqrt(2.0))
        u2 = single_user(np.ones(4) / 2.0)
        streams = [modulate_coherent(np.ones(8)) for _ in range(2)]
        with pytest.raises(ValueError):
            synthesize_received([u1, u2], streams, 0, 0.0)


class TestReceivedBlock:
    def test_matches_per_symbol_synthesis_with_isi(self):
        rng = np.random.default_rng(21)
        gain, paths, length, users = 4, 3, 12, 2
        codes = [random_code(gain, rng) for _ in range(users)]
        fadings = [generate_fading(
            FadingConfig(0.02, num_paths=paths, seed=100 + k), length)
            for k in range(users)]
        amplitudes = [1.0, 1.4]
        params = [UserParams(amplitudes[k], codes[k], fadings[k]) for k in range(users)]
        data = 2.0 * rng.integers(0, 2, size=(users, length)) - 1.0
        streams = [modulate_coherent(data[k]) for k in range(users)]

        signatures = [amplitudes[k] * code_convolution_operator(codes[k], paths)
                      @ fadings[k].gains for k in range(users)]
        block = received_block(signatures, [data[k] for k in range(users)],
                               gain, noise=None, include_isi=True)
        for i in range(length):
            direct = synthesize_received(params, streams, i, 0.0, include_isi=True)
            assert np.allclose(block[:, i], direct.samples, atol=1e-12)


def batched_signatures(rng, batch, users, gain, paths, length):
    """Random complex signatures, ``users`` arrays of shape ``batch + (M, T)``."""
    ops = [code_convolution_operator(random_code(gain, rng), paths) for _ in range(users)]
    shape = (*batch, paths, length)
    return [op @ (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for op in ops]


class TestBatchedHelpers:
    @pytest.mark.parametrize("include_isi", [True, False])
    def test_received_block_equals_loop(self, include_isi):
        rng = np.random.default_rng(31)
        batch, users, gain, paths, length = (3, 2), 3, 4, 3, 7
        signatures = batched_signatures(rng, batch, users, gain, paths, length)
        symbols = 2.0 * rng.integers(0, 2, size=(users, *batch, length)) - 1.0
        window = gain + paths - 1
        noise = rng.standard_normal((*batch, window, length)) + 0j
        block = received_block(signatures, symbols, gain, noise=noise, include_isi=include_isi)
        assert block.shape == (*batch, window, length)
        for idx in np.ndindex(*batch):
            single = received_block([sig[idx] for sig in signatures],
                                    [b[idx] for b in symbols], gain, noise=noise[idx],
                                    include_isi=include_isi)
            assert np.array_equal(block[idx], single)

    @pytest.mark.parametrize("include_isi", [True, False])
    def test_conditional_covariance_equals_loop(self, include_isi):
        rng = np.random.default_rng(32)
        batch, users, gain, paths, length = (4,), 3, 4, 3, 6
        signatures = batched_signatures(rng, batch, users, gain, paths, length)
        columns = (5, 0, 2)
        cov = conditional_covariance(signature_rows(signatures), gain, 0.4, columns,
                                     include_isi=include_isi)
        assert cov.shape == (*batch, len(columns), gain + paths - 1, gain + paths - 1)
        for idx in np.ndindex(*batch):
            single = conditional_covariance(signature_rows([sig[idx] for sig in signatures]),
                                            gain, 0.4, columns, include_isi=include_isi)
            assert np.array_equal(cov[idx], single)

    def test_inconsistent_symbol_shape_rejected(self):
        rng = np.random.default_rng(33)
        signatures = batched_signatures(rng, (2,), 2, 4, 2, 5)
        with pytest.raises(ValueError):
            received_block(signatures, np.ones((2, 5)), 4)


class TestConditionalCovariance:
    @pytest.mark.parametrize("include_isi", [True, False])
    def test_equals_symbol_average_at_every_column(self, include_isi):
        # Noiseless, so the covariance minus sigma^2 I is the average of
        # r r^H over all 2^(K*T) equally likely symbol patterns.
        rng = np.random.default_rng(8)
        gain, paths, length, users = 4, 3, 4, 2
        signatures = [code_convolution_operator(random_code(gain, rng), paths)
                      @ (rng.standard_normal((paths, length))
                         + 1j * rng.standard_normal((paths, length)))
                      for _ in range(users)]
        window = gain + paths - 1
        average = np.zeros((length, window, window), dtype=complex)
        patterns = 2 ** (users * length)
        for code in range(patterns):
            bits = (code >> np.arange(users * length)) & 1
            symbols = (2.0 * bits - 1.0).reshape(users, length)
            r = received_block(signatures, list(symbols), gain, include_isi=include_isi)
            average += np.einsum("mi,ni->imn", r, np.conj(r)) / patterns
        sigma2 = 0.3
        cov = conditional_covariance(signature_rows(signatures), gain, sigma2,
                                     np.arange(length), include_isi=include_isi)
        assert cov.shape == (length, window, window)
        assert np.allclose(cov - sigma2 * np.eye(window), average, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("include_isi", [True, False])
    def test_equals_per_user_outer_products(self, include_isi):
        # Batched signatures, with the edge columns 0 and T-1 among those asked for.
        rng = np.random.default_rng(34)
        batch, users, gain, paths, length = (3, 2), 4, 5, 3, 7
        signatures = batched_signatures(rng, batch, users, gain, paths, length)
        columns = (0, length - 1, 3, 1, length - 2)
        cov = conditional_covariance(signature_rows(signatures), gain, 0.25, columns,
                                     include_isi=include_isi)
        expected = outer_product_covariance(signatures, gain, 0.25, columns, include_isi)
        assert np.abs(cov - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("include_isi", [True, False])
    @pytest.mark.parametrize("members", [128, 16])  # a full chunk and 10^4's last, 78 * 128 + 16
    def test_folded_members_sum_the_covariances(self, include_isi, members):
        # The members folded into the users axis, with the noise scaled by their
        # number: one covariance that is the sum of the members' covariances.
        rng = np.random.default_rng(35)
        users, gain, paths, length = 5, 16, 3, 5
        signatures = batched_signatures(rng, (members,), users, gain, paths, length)
        window = gain + paths - 1
        folded = signature_rows(np.stack(signatures, axis=1).reshape(members * users,
                                                                     window, length))
        columns = (3, 2, 0, length - 1)
        total = conditional_covariance(folded, gain, members * 0.04, columns,
                                       include_isi=include_isi)
        expected = conditional_covariance(signature_rows(signatures), gain, 0.04, columns,
                                          include_isi=include_isi).sum(axis=0)
        assert total.shape == expected.shape == (len(columns), window, window)
        assert np.abs(total - expected).max() <= 1e-13 * np.abs(expected).max()


def unit_power_signatures(rng, batch, users, gain, paths, length):
    """Signatures of ``users`` random codes through paths of mean power ``1 / paths``,
    as in the simulated packets: ``users`` arrays of shape ``batch + (M, T)``."""
    ops = [code_convolution_operator(random_code(gain, rng), paths) for _ in range(users)]
    shape = (*batch, paths, length)
    scale = np.sqrt(0.5 / paths)
    return [op @ (scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
            for op in ops]


class TestMmseFilters:
    # (users, gain, paths): the desk scenario's K, N, L; the two ISI corners
    # overlapping (M - N >= N); more basis columns than dimensions (J >= M).
    SHAPES = [(5, 16, 3), (2, 2, 4), (20, 16, 3)]

    @pytest.mark.parametrize("include_isi", [True, False])
    @pytest.mark.parametrize("users, gain, paths", SHAPES, ids=["desk", "spill>=gain", "J>=M"])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 30.0])
    def test_solves_the_covariance(self, users, gain, paths, include_isi, snr_db):
        rng = np.random.default_rng(36)
        length = 6
        rows = signature_rows(unit_power_signatures(rng, (3,), users, gain, paths, length))
        sigma2 = 10.0 ** (-snr_db / 10.0)
        columns = (0, length - 1, 2, 3)  # the packet edges among them
        filters = mmse_filters(rows, gain, sigma2, columns, include_isi=include_isi)
        cov = conditional_covariance(rows, gain, sigma2, columns, include_isi=include_isi)
        target = rows[:, columns][..., 0]  # user 0's signatures
        direct = np.linalg.solve(cov, target[..., None])[..., 0]
        assert filters.shape == direct.shape == (3, len(columns), gain + paths - 1)
        residual = np.linalg.norm(np.matmul(cov, filters[..., None])[..., 0] - target, axis=-1)
        norm = np.linalg.norm(cov, ord=2, axis=(-2, -1))
        relative = residual / (norm * np.linalg.norm(filters, axis=-1))
        # With more basis columns than dimensions the small system has the
        # eigenvalue sigma^2 along their dependence, and the rounding carried
        # through it grows like eps * |R| / sigma^2.
        spill = paths - 1 if include_isi else 0
        dependent = users + 2 * spill >= gain + paths - 1
        slack = np.finfo(float).eps * norm / sigma2 if dependent else 0.0
        assert np.all(relative <= 1e-13 + slack), relative.max()
        assert np.allclose(filters, direct, rtol=0, atol=1e-11 * np.abs(direct).max())

    @pytest.mark.parametrize("include_isi", [True, False])
    def test_blocked_call_equals_single_columns(self, include_isi):
        rng = np.random.default_rng(37)
        users, gain, paths, length = 4, 8, 3, 9
        rows = signature_rows(unit_power_signatures(rng, (2,), users, gain, paths, length))
        columns = np.arange(length)
        filters = mmse_filters(rows, gain, 0.1, columns, include_isi=include_isi)
        for k, i in enumerate(columns):
            single = mmse_filters(rows, gain, 0.1, [i], include_isi=include_isi)[:, 0]
            assert np.array_equal(filters[:, k], single), i


def outer_product_covariance(signatures, gain, noise_variance, columns, include_isi):
    """Reference for :func:`conditional_covariance`: ``noise_variance * I`` plus, user by
    user, the outer products of the signature and of the neighbours' spilled parts."""
    columns = np.asarray(columns, dtype=np.intp)
    *batch, window, length = np.shape(signatures[0])
    n = columns.size
    total = np.empty((*batch, n, window, window), dtype=np.complex128)
    total[...] = noise_variance * np.eye(window, dtype=np.complex128)
    spill = window - gain if include_isi else 0
    index = np.concatenate([columns, columns - 1, columns + 1]) if spill > 0 else columns
    inside = (index >= 0) & (index < length)
    index = np.where(inside, index, 0)

    def add_outer(part, rows):
        part += rows[..., :, None] * np.conj(rows)[..., None, :]

    for sig in signatures:
        rows = np.swapaxes(sig[..., index] * inside, -1, -2)
        add_outer(total, rows[..., :n, :])
        if spill > 0:
            add_outer(total[..., :spill, :spill], rows[..., n:2 * n, gain:])
            add_outer(total[..., gain:, gain:], rows[..., 2 * n:, :spill])
    return total


@pytest.fixture(scope="module")
def awgn_outputs():
    rng = np.random.default_rng(99)
    snr_db = 7.0
    gamma = 10.0 ** (snr_db / 10.0)
    sigma2 = 1.0 / gamma
    bits = 1_000_000
    data = 2.0 * rng.integers(0, 2, size=bits) - 1.0
    b = np.empty(bits + 1)
    b[0] = 1.0
    b[1:] = np.cumprod(data)
    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal(bits + 1) + 1j * rng.standard_normal(bits + 1))
    z = b + noise
    return data, b, z, gamma


class TestDifferentialPenalty:
    """Encoding penalty on AWGN: differential decoding of coherent
    decisions doubles the error rate, and the two-symbol product detector
    matches its own noncoherent closed form."""

    def test_double_error_rate_of_coherent(self, awgn_outputs):
        data, b, z, gamma = awgn_outputs
        coherent_errors = np.mean((z.real >= 0) != (b >= 0))
        hard = np.where(z.real >= 0, 1.0, -1.0)
        diff_decode_errors = np.mean(hard[1:] * hard[:-1] != data)
        ratio = diff_decode_errors / coherent_errors
        assert 1.7 <= ratio <= 2.3

    def test_product_detector_matches_noncoherent_form(self, awgn_outputs):
        data, _, z, gamma = awgn_outputs
        decided = np.where((z[1:] * np.conj(z[:-1])).real >= 0, 1.0, -1.0)
        ber = np.mean(decided != data)
        assert ber == pytest.approx(0.5 * math.exp(-gamma), rel=0.05)
