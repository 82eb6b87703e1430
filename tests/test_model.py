"""Signal model: convolution matrices, the frame synthesizer, ISI, noise, QPSK."""

import itertools

import numpy as np
import pytest

from conftest import make_link_pieces
from coopcdma.harness import (_add_destination_frames, _noise_matrix,
                              draw_scenario)
from coopcdma.model import (SystemDims, add_hop_frames,
                            build_convolution_matrix, demodulate_qpsk,
                            draw_spreading_codes, generate_multipath_channel,
                            hard_decision, modulate_qpsk)


def scenario(dims, rng, isi=True):
    """A noise-free, shadowed scenario drawn by the harness."""
    codes = draw_spreading_codes(dims.K, dims.N, rng)
    return draw_scenario(dims, codes, 0.0, 3.0, rng, isi_enabled=isi)


def hop_symbols(dims, cols, rng):
    """hops x K x (cols + 2) QPSK symbols, zero neighbours at the edges."""
    S = np.zeros((dims.hops, dims.K, cols + 2), dtype=complex)
    S[:, :, 1:-1] = modulate_qpsk(rng.integers(0, 2, size=(dims.hops, dims.K,
                                                           cols, 2)))
    return S


def destination_frames(scn, S, amps):
    """Noise-free stacked destination windows of S's inner columns."""
    out = np.zeros((scn.dims.stack, S.shape[-1] - 2), dtype=complex)
    _add_destination_frames(out, scn, S, amps)
    return out


class TestConvolutionMatrix:
    def test_shape_desk_scale(self, rng):
        code = draw_spreading_codes(1, 16, rng)[0]
        assert build_convolution_matrix(code, 3).shape == (18, 3)

    def test_single_tap_is_the_code(self, rng):
        code = draw_spreading_codes(1, 8, rng)[0]
        D = build_convolution_matrix(code, 1)
        assert D.shape == (8, 1)
        np.testing.assert_allclose(D[:, 0], code)

    def test_three_chip_two_tap_rows(self):
        d1, d2, d3 = 0.3, -0.5, 0.9
        D = build_convolution_matrix(np.array([d1, d2, d3]), 2)
        expected = np.array([[d1, 0.0], [d2, d1], [d3, d2], [0.0, d3]])
        np.testing.assert_allclose(D, expected)

    def test_entry_formula(self, rng):
        code = draw_spreading_codes(1, 6, rng)[0]
        L = 3
        D = build_convolution_matrix(code, L)
        for r in range(D.shape[0]):
            for c in range(L):
                want = code[r - c] if 0 <= r - c < 6 else 0.0
                assert D[r, c] == want


class TestBlockSignature:
    """The per-user column blocks of a scenario's stacked signature C_all."""

    def test_single_block_identity(self, rng):
        dims = SystemDims(K=1, N=8, L=2, n_r=0)
        scn = scenario(dims, rng)
        np.testing.assert_array_equal(scn.C_all, scn.conv[0])

    def test_three_identical_diagonal_blocks(self, rng):
        dims = SystemDims(K=2, N=16, L=3, n_r=2)
        scn = scenario(dims, rng)
        C = scn.C_all[:, 9:18]  # user 1
        assert C.shape == (54, 9)
        for j in range(3):
            np.testing.assert_array_equal(C[18 * j:18 * (j + 1), 3 * j:3 * (j + 1)],
                                          scn.conv[1])
        # off-diagonal blocks exactly zero
        C_zeroed = C.copy()
        for j in range(3):
            C_zeroed[18 * j:18 * (j + 1), 3 * j:3 * (j + 1)] = 0
        assert np.all(C_zeroed == 0)

    def test_nonzero_count_scales_with_blocks(self, rng):
        dims = SystemDims(K=1, N=5, L=2, n_r=2)
        scn = scenario(dims, rng)
        assert np.count_nonzero(scn.C_all) == 3 * np.count_nonzero(scn.conv[0])


class TestMultipathChannel:
    def test_unit_norm(self, rng):
        for L in (1, 2, 3, 5):
            h = generate_multipath_channel(L, rng)
            assert abs(np.linalg.norm(h) ** 2 - 1.0) < 1e-12

    def test_single_tap_magnitude_one(self, rng):
        assert abs(abs(generate_multipath_channel(1, rng)[0]) - 1.0) < 1e-12

    def test_tap_statistics(self, rng):
        draws = np.stack([generate_multipath_channel(3, rng) for _ in range(20000)])
        # zero-mean taps and exchangeable tap-energy distribution
        assert np.abs(draws.mean(axis=0)).max() < 0.02
        energies = (np.abs(draws) ** 2).mean(axis=0)
        np.testing.assert_allclose(energies, 1.0 / 3.0, atol=0.02)


class TestQpsk:
    def test_gray_round_trip(self):
        for bits in itertools.product((0, 1), repeat=2):
            sym = modulate_qpsk(np.array(bits))
            np.testing.assert_array_equal(demodulate_qpsk(sym), np.array(bits))
        np.testing.assert_allclose(modulate_qpsk(np.array([0, 0])),
                                   (1 + 1j) / np.sqrt(2))

    def test_unit_energy(self):
        for bits in itertools.product((0, 1), repeat=2):
            assert abs(abs(modulate_qpsk(np.array(bits))) - 1.0) < 1e-12

    def test_demodulation_tolerates_small_perturbations(self):
        grid = np.linspace(-0.3, 0.3, 7)
        for bits in itertools.product((0, 1), repeat=2):
            sym = modulate_qpsk(np.array(bits))
            for er, ei in itertools.product(grid, grid):
                eps = er + 1j * ei
                if abs(eps) >= 0.5:
                    continue
                np.testing.assert_array_equal(demodulate_qpsk(sym + eps),
                                              np.array(bits))

    def test_hard_decision_matches_demodulation(self, rng):
        soft = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        np.testing.assert_array_equal(demodulate_qpsk(hard_decision(soft)),
                                      demodulate_qpsk(soft))


class TestReceivedFrame:
    """The stacked destination windows as the packet simulators build them."""

    def test_single_user_direct_only(self, rng):
        code = draw_spreading_codes(1, 8, rng)[0]
        D = build_convolution_matrix(code, 2)
        h = generate_multipath_channel(2, rng)
        out = np.zeros((9, 1), dtype=complex)
        add_hop_frames(out, (D @ h)[:, None], np.array([[0.0, 1.0, 0.0]]),
                       np.ones((1, 1)), 1)
        np.testing.assert_allclose(out[:, 0], D @ h, atol=1e-14)

    def test_energy_identity(self, rng):
        dims = SystemDims(K=1, N=8, L=1, n_r=0)
        _, _, X = make_link_pieces(dims, rng)
        out = np.zeros((dims.M, 1), dtype=complex)
        add_hop_frames(out, X[0], np.array([[0.0, 1.0, 0.0]]), np.ones((1, 1)), 0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_superposition_in_users(self, rng):
        dims = SystemDims(K=2, N=8, L=3, n_r=1)
        scn = scenario(dims, rng)
        S = hop_symbols(dims, 6, rng)
        amps = np.array([[0.8, 0.6], [0.5, 0.9]])
        both = destination_frames(scn, S, amps)
        parts = []
        for k in range(2):
            alone = np.zeros_like(amps)
            alone[k] = amps[k]
            parts.append(destination_frames(scn, S, alone))
        np.testing.assert_allclose(both, parts[0] + parts[1], atol=1e-12)

    def test_homogeneity_in_amplitudes(self, rng):
        dims = SystemDims(K=1, N=8, L=2, n_r=1)
        scn = scenario(dims, rng)
        S = hop_symbols(dims, 4, rng)
        base = destination_frames(scn, S, np.array([[1.0, 1.0]]))
        scaled = destination_frames(scn, S, np.array([[2.0, 1.0]]))
        M = dims.M
        np.testing.assert_allclose(scaled[:M], 2.0 * base[:M], atol=1e-12)
        np.testing.assert_allclose(scaled[M:], base[M:], atol=1e-12)

    def test_per_hop_stacking_oracle(self, rng):
        """Each hop's block equals independently built per-link receptions."""
        dims = SystemDims(K=2, N=8, L=3, n_r=1)
        scn = scenario(dims, rng, isi=False)
        S = hop_symbols(dims, 3, rng)
        amps = np.array([[0.9, 0.4], [0.3, 0.95]])
        frames = destination_frames(scn, S, amps)
        M, L, hops = dims.M, dims.L, dims.hops
        for hop in range(hops):
            expected = np.zeros((M, 3), dtype=complex)
            for k in range(2):
                link = k * hops + hop
                h = scn.h_true[link * L:(link + 1) * L]
                expected += amps[k, hop] * np.outer(scn.conv[k] @ h,
                                                    S[hop, k, 1:-1])
            np.testing.assert_allclose(frames[hop * M:(hop + 1) * M],
                                       expected, atol=1e-12)

    def test_component_identity(self, rng):
        """Windows = noise + the symbols' own frames + the neighbours' ISI."""
        dims = SystemDims(K=2, N=8, L=2, n_r=1)
        scn = scenario(dims, rng)
        S = hop_symbols(dims, 1, rng)
        S[:, :, [0, 2]] = modulate_qpsk(rng.integers(0, 2, size=(2, 2, 2, 2)))
        amps = np.array([[0.8, 0.6], [0.5, 0.9]])
        noise = _noise_matrix((dims.stack, 1), 0.5, rng)
        total = noise.copy()
        _add_destination_frames(total, scn, S, amps)
        own, neighbours = S.copy(), S.copy()
        own[:, :, [0, 2]] = 0
        neighbours[:, :, 1] = 0
        np.testing.assert_allclose(
            total,
            noise + destination_frames(scn, own, amps)
            + destination_frames(scn, neighbours, amps), atol=1e-12)


class TestIsi:
    def test_single_tap_no_isi(self, rng):
        dims = SystemDims(K=1, N=8, L=1, n_r=0)
        scn = scenario(dims, rng)
        S = hop_symbols(dims, 1, rng)
        isolated = S.copy()
        S[:, :, [0, 2]] = 1.0
        np.testing.assert_array_equal(destination_frames(scn, S, np.ones((1, 1))),
                                      destination_frames(scn, isolated,
                                                         np.ones((1, 1))))

    def test_zero_neighbors_no_isi(self, rng):
        dims = SystemDims(K=2, N=8, L=3, n_r=1)
        S = hop_symbols(dims, 1, rng)
        amps = np.ones((2, dims.hops))
        with_isi = destination_frames(scenario(dims, np.random.default_rng(5)),
                                      S, amps)
        without = destination_frames(
            scenario(dims, np.random.default_rng(5), isi=False), S, amps)
        np.testing.assert_array_equal(with_isi, without)

    def test_chip_convolution_oracle(self, rng):
        """Every window matches a full chip-rate convolution of the packet."""
        dims = SystemDims(K=1, N=4, L=2, n_r=0)
        codes, h, X = make_link_pieces(dims, rng)
        P = 5
        S = hop_symbols(dims, P, rng)[0]
        a = 0.85

        # oracle: convolve the packet's whole chip sequence with the channel,
        # then cut out each symbol's observation window
        chips = np.tile(codes[0], P + 2)
        seq = np.repeat(S[0], dims.N) * chips * a
        full = np.convolve(seq, h[0, 0])

        out = np.zeros((dims.M, P), dtype=complex)
        add_hop_frames(out, X[0], S, np.array([[a]]), dims.L - 1)
        for i in range(P):
            window = full[(i + 1) * dims.N:(i + 1) * dims.N + dims.M]
            np.testing.assert_allclose(out[:, i], window, atol=1e-12)


class TestNoise:
    def test_noise_calibration(self, rng):
        sigma2 = 0.7
        noise = _noise_matrix((8, 1000), sigma2, rng)
        var = np.mean(np.abs(noise) ** 2)
        assert abs(var - sigma2) / sigma2 < 0.03

    def test_zero_noise_for_zero_sigma(self, rng):
        assert np.all(_noise_matrix((8, 4), 0.0, rng) == 0)


class TestSystemDims:
    def test_derived_quantities(self):
        dims = SystemDims(K=4, N=16, L=3, n_r=2, P=1500)
        assert dims.M == 18 and dims.hops == 3 and dims.stack == 54

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SystemDims(K=0, N=16, L=3, n_r=0)
        with pytest.raises(ValueError):
            SystemDims(K=1, N=16, L=3, n_r=-1)


class TestEffectiveWaveforms:
    def test_columns_are_per_hop_products(self, rng):
        """Column k*hops + j of U is user k's code convolved with link j."""
        dims = SystemDims(K=2, N=8, L=2, n_r=1)
        scn = scenario(dims, rng)
        M, L, hops = dims.M, dims.L, dims.hops
        for k in range(2):
            for j in range(hops):
                link = k * hops + j
                h = scn.h_true[link * L:(link + 1) * L]
                col = scn.U[:, link]
                np.testing.assert_allclose(col[j * M:(j + 1) * M],
                                           scn.conv[k] @ h, atol=1e-14)
                assert np.all(np.delete(col, np.s_[j * M:(j + 1) * M]) == 0)
                np.testing.assert_allclose(
                    col, scn.C_all[:, link * L:(link + 1) * L] @ h, atol=1e-14)
