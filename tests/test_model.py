"""Signal model: convolution matrices, the frame synthesizer, ISI, noise, QPSK."""

import itertools

import numpy as np
import pytest

from conftest import (add_destination_frames, make_link_pieces,
                      stacked_signature)
from coopcdma import harness
from coopcdma.gpc import waveforms_from_channel
from coopcdma.harness import (_FRAME_CHUNK, _destination_link_frames,
                              _noise_matrix, draw_scenario)
from coopcdma.model import (SystemDims, add_hop_frames,
                            build_convolution_matrix, demodulate_qpsk,
                            draw_spreading_codes, generate_multipath_channel,
                            hard_decision, modulate_qpsk)


def scenario(dims, rng, isi=True):
    """A noise-free, shadowed scenario drawn by the harness."""
    codes = draw_spreading_codes(dims.K, dims.N, rng)
    return draw_scenario(dims, codes, 0.0, 3.0, rng, isi_enabled=isi)


def conv_mats(scn):
    """Per-user M x L convolution matrices of the scenario's codes."""
    return [build_convolution_matrix(code, scn.dims.L) for code in scn.codes]


def block_signature(scn):
    """The kron-built stacked block signature of the scenario's codes."""
    return stacked_signature(scn.codes, scn.dims.L, scn.dims.hops)


def hop_symbols(dims, cols, rng):
    """hops x K x (cols + 2) QPSK symbols, zero neighbours at the edges."""
    S = np.zeros((dims.hops, dims.K, cols + 2), dtype=complex)
    S[:, :, 1:-1] = modulate_qpsk(rng.integers(0, 2, size=(dims.hops, dims.K,
                                                           cols, 2)))
    return S


def destination_frames(scn, S, amps):
    """Noise-free stacked destination windows of S's inner columns."""
    out = np.zeros((scn.dims.stack, S.shape[-1] - 2), dtype=complex)
    add_destination_frames(out, scn, S, amps)
    return out


def per_hop_link_frames(scn, S, t0, t1):
    """_destination_link_frames link by link: user k's frames on hop j from
    column k of x_dest's hop j, one 2-D call each, stored at [:, j, :, k].
    The oracle for the bytes and the per-hop layout of its one call."""
    M, hops, K = scn.dims.M, scn.dims.hops, scn.dims.K
    F = np.zeros((t1 - t0, hops, M, K), dtype=complex)
    for j in range(hops):
        for k in range(K):
            one = np.zeros((M, t1 - t0), dtype=complex)
            add_hop_frames(one, scn.x_dest[j, :, k:k + 1],
                           S[j, k:k + 1, t0:t1 + 2], 1.0, scn.spill)
            F[:, j, :, k] = one.T
    return F


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
    """The per-user column blocks of the stacked block signature, the
    oracle of the per-hop waveform map."""

    def test_single_block_identity(self, rng):
        dims = SystemDims(K=1, N=8, L=2, n_r=0)
        scn = scenario(dims, rng)
        np.testing.assert_array_equal(block_signature(scn), conv_mats(scn)[0])

    def test_three_identical_diagonal_blocks(self, rng):
        dims = SystemDims(K=2, N=16, L=3, n_r=2)
        scn = scenario(dims, rng)
        C = block_signature(scn)[:, 9:18]  # user 1
        assert C.shape == (54, 9)
        for j in range(3):
            np.testing.assert_array_equal(C[18 * j:18 * (j + 1), 3 * j:3 * (j + 1)],
                                          conv_mats(scn)[1])
        # off-diagonal blocks exactly zero
        C_zeroed = C.copy()
        for j in range(3):
            C_zeroed[18 * j:18 * (j + 1), 3 * j:3 * (j + 1)] = 0
        assert np.all(C_zeroed == 0)

    def test_nonzero_count_scales_with_blocks(self, rng):
        dims = SystemDims(K=1, N=5, L=2, n_r=2)
        scn = scenario(dims, rng)
        assert (np.count_nonzero(block_signature(scn))
                == 3 * np.count_nonzero(conv_mats(scn)[0]))


class TestMultipathChannel:
    def test_unit_norm(self, rng):
        for L in (1, 2, 3, 5):
            h = generate_multipath_channel(L, rng)
            assert abs(np.linalg.norm(h) ** 2 - 1.0) < 1e-12

    def test_single_tap_magnitude_one(self, rng):
        assert abs(abs(generate_multipath_channel(1, rng)[0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("L", [1, 2, 3, 5])
    def test_stacked_draw_is_the_per_link_stream(self, L):
        """One call for a (5, 4) stack of channels has the bytes of 20
        per-link draws from the same seed, each normalized by
        np.linalg.norm, and leaves the generator where they leave it."""
        rng_a, rng_b = np.random.default_rng(L), np.random.default_rng(L)
        oracle = []
        for _ in range(20):
            h = (rng_a.standard_normal(L)
                 + 1j * rng_a.standard_normal(L)) / np.sqrt(2.0)
            oracle.append(h / np.linalg.norm(h))
        stacked = generate_multipath_channel(L, rng_b, (5, 4))
        assert stacked.shape == (5, 4, L)
        assert stacked.tobytes() == np.array(oracle).tobytes()
        assert rng_a.random() == rng_b.random()

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

    def test_lookup_has_the_bytes_of_the_formula(self, rng):
        """The table lookup gives the bytes of ((1-2*b0)+j(1-2*b1))/sqrt(2)
        on every bit pair and on random bit arrays."""
        def formula(bits):
            return ((1 - 2 * bits[..., 0]) + 1j * (1 - 2 * bits[..., 1])) \
                * (1.0 / np.sqrt(2.0))
        for bits in itertools.product((0, 1), repeat=2):
            bits = np.array(bits)
            assert modulate_qpsk(bits).tobytes() == formula(bits).tobytes()
        for shape in [(7, 2), (3, 50, 2), (4, 1500, 2)]:
            bits = rng.integers(0, 2, size=shape)
            got = modulate_qpsk(bits)
            assert got.dtype == np.complex128 and got.shape == shape[:-1]
            assert got.tobytes() == formula(bits).tobytes()

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

    def test_zero_parts_decide_positive(self):
        soft = np.array([complex(0.0, -0.0), complex(-0.0, 0.0),
                         complex(-0.0, -0.0), complex(-1e-300, 1e-300)])
        expected = np.array([1 + 1j, 1 + 1j, 1 + 1j, -1 + 1j]) / np.sqrt(2)
        assert hard_decision(soft).tobytes() == expected.tobytes()

    @staticmethod
    def lut_decision(soft):
        """The point table indexed by the two comparisons: the decision's
        formula before it became one pass over the parts."""
        points = np.array([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j]) / np.sqrt(2)
        return points[(soft.real >= 0) + 2 * (soft.imag >= 0)]

    def test_one_pass_decision_has_the_bytes_of_the_table(self, rng):
        """(n_r, K) stacks, non-contiguous views, a scalar and +-0.0 and nan
        parts decide as the table does, byte for byte."""
        stack = (rng.standard_normal((2, 4, 6))
                 + 1j * rng.standard_normal((2, 4, 6)))
        edges = np.array([complex(re, im) for re in (0.0, -0.0, np.nan, 1.0)
                          for im in (0.0, -0.0, np.nan, -1.0)])
        for soft in (stack[0, :, 0], stack[:, :, 0], stack[..., ::2],
                     stack.swapaxes(0, 1), stack.real, edges,
                     edges.reshape(4, 4), stack[0, 0, 0], np.asarray(-0.0)):
            got = hard_decision(soft)
            want = self.lut_decision(np.asarray(soft))
            assert got.shape == want.shape and got.dtype == complex
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def two_part_demodulation(soft):
        """Each part's comparison cast and stacked: the demodulation's
        formula before it became one pass over the parts."""
        return np.stack([(soft.real < 0).astype(np.int8),
                         (soft.imag < 0).astype(np.int8)], axis=-1)

    def test_one_pass_demodulation_has_the_bytes_of_two_parts(self, rng):
        """(K, P) blocks, their column slices as a diverged packet passes
        them, non-contiguous views, real soft outputs, an empty block, a
        scalar and +-0.0 and nan parts demodulate as the two-part formula
        does, byte for byte."""
        stack = (rng.standard_normal((2, 4, 6))
                 + 1j * rng.standard_normal((2, 4, 6)))
        edges = np.array([complex(re, im) for re in (0.0, -0.0, np.nan, 1.0)
                          for im in (0.0, -0.0, np.nan, -1.0)])
        for soft in (stack[0], stack[0, :, :3], stack[:, :, 0],
                     stack[..., ::2], stack.swapaxes(0, 1), stack.real,
                     np.empty((4, 0)), edges, edges.reshape(4, 4),
                     stack[0, 0, 0], np.asarray(-0.0)):
            got = demodulate_qpsk(soft)
            want = self.two_part_demodulation(np.asarray(soft))
            assert got.shape == want.shape and got.dtype == np.int8
            assert got.tobytes() == want.tobytes()

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
        conv = conv_mats(scn)
        for hop in range(hops):
            expected = np.zeros((M, 3), dtype=complex)
            for k in range(2):
                link = k * hops + hop
                h = scn.h_true[link * L:(link + 1) * L]
                expected += amps[k, hop] * np.outer(conv[k] @ h,
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
        noise = _noise_matrix(rng.standard_normal((2, dims.stack, 1)), 0.5)
        total = noise.copy()
        add_destination_frames(total, scn, S, amps)
        own, neighbours = S.copy(), S.copy()
        own[:, :, [0, 2]] = 0
        neighbours[:, :, 1] = 0
        np.testing.assert_allclose(
            total,
            noise + destination_frames(scn, own, amps)
            + destination_frames(scn, neighbours, amps), atol=1e-12)


class TestAmplitudeProduct:
    """add_hop_frames forms S * a once and slices it for the three shifts."""

    @staticmethod
    def three_products(out, X, S, a, spill, left=None):
        """The frame synthesizer with one amplitude product per shift."""
        N = X.shape[-2] - spill
        if left is None:
            out += X @ (S[..., 1:-1] * a)
            if spill:
                out[..., :spill, :] += X[..., N:, :] @ (S[..., :-2] * a)
                out[..., N:, :] += X[..., :spill, :] @ (S[..., 2:] * a)
            return
        out += (left @ X) @ (S[:, 1:-1] * a)
        if spill:
            out += (left[:, :spill] @ X[N:]) @ (S[:, :-2] * a)
            out += (left[:, N:] @ X[:spill]) @ (S[:, 2:] * a)

    @pytest.mark.parametrize("spill", [0, 2])
    @pytest.mark.parametrize("amps", ["scalar", "column"])
    @pytest.mark.parametrize("with_left", [False, True])
    def test_bytes_of_three_products(self, rng, spill, amps, with_left):
        K, M, cols, J = 4, 18, 40, 4
        X = rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))
        S = np.zeros((K, cols + 2), dtype=complex)
        S[:, 1:-1] = modulate_qpsk(rng.integers(0, 2, size=(K, cols, 2)))
        a = 1.0 if amps == "scalar" else 0.2 + rng.random((K, 1))
        left = (rng.standard_normal((J, M)) + 1j * rng.standard_normal((J, M))
                if with_left else None)
        rows = J if with_left else M
        start = rng.standard_normal((rows, cols)) + 0j
        got, want = start.copy(), start.copy()
        add_hop_frames(got, X, S, a, spill, left)
        self.three_products(want, X, S, a, spill, left)
        assert got.tobytes() == want.tobytes()

    def test_bytes_of_three_products_on_a_stack(self, rng):
        """The stack of one-user hops the adaptive destination builds."""
        K, M, cols = 4, 18, 25
        X = rng.standard_normal((K, M, 1)) + 1j * rng.standard_normal((K, M, 1))
        S = modulate_qpsk(rng.integers(0, 2, size=(K, 1, cols + 2, 2)))
        got = np.zeros((K, M, cols), dtype=complex)
        want = got.copy()
        add_hop_frames(got, X, S, 1.0, 2)
        self.three_products(want, X, S, 1.0, 2)
        assert got.tobytes() == want.tobytes()


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


class TestLinkFrames:
    """The adaptive destination's windows, noise-free: each chunk of
    unit-amplitude per-hop link frames times the amplitudes equals the
    per-symbol windows of add_destination_frames, the chip-window oracle."""

    def test_stacked_hops_equal_one_call_per_hop(self, rng):
        """add_hop_frames on a (K, M, 1) stack of one-user hops gives each
        user's frames as its own 2-D call does, bit for bit."""
        dims = SystemDims(K=3, N=8, L=3, n_r=0)
        _, _, X = make_link_pieces(dims, rng)
        S = hop_symbols(dims, 7, rng)[0]
        for spill in (0, dims.L - 1):
            out = np.zeros((dims.K, dims.M, 7), dtype=complex)
            add_hop_frames(out, X[0].T[:, :, None], S[:, None, :], 1.0, spill)
            for k in range(dims.K):
                one = np.zeros((dims.M, 7), dtype=complex)
                add_hop_frames(one, X[0][:, k:k + 1], S[k:k + 1], 1.0, spill)
                assert np.array_equal(out[k], one)

    @pytest.mark.parametrize("isi", [True, False])
    @pytest.mark.parametrize("n_r", [0, 2])
    @pytest.mark.parametrize("K", [1, 4])
    def test_one_call_has_the_bytes_of_the_per_hop_loop(self, K, n_r, isi,
                                                        rng):
        dims = SystemDims(K=K, N=8, L=3, n_r=n_r)
        scn = scenario(dims, rng, isi=isi)
        P = _FRAME_CHUNK + 7
        S = hop_symbols(dims, P, rng)
        for t0 in range(0, P, _FRAME_CHUNK):
            t1 = min(t0 + _FRAME_CHUNK, P)
            F = _destination_link_frames(scn, S, t0, t1)
            assert F.shape == (t1 - t0, dims.hops, dims.M, K)
            assert F.flags.c_contiguous
            assert F.tobytes() == per_hop_link_frames(scn, S, t0, t1).tobytes()

    @pytest.mark.parametrize("isi", [True, False])
    @pytest.mark.parametrize("n_r", [0, 2])
    @pytest.mark.parametrize("K", [1, 4])
    def test_chunks_times_amplitudes_equal_destination_windows(self, K, n_r,
                                                               isi, rng):
        dims = SystemDims(K=K, N=8, L=3, n_r=n_r)
        scn = scenario(dims, rng, isi=isi)
        P = 2 * _FRAME_CHUNK + 7  # the last chunk is a short one
        S = hop_symbols(dims, P, rng)
        amps = 0.2 + rng.random((K, dims.hops))
        windows = []
        for t0 in range(0, P, _FRAME_CHUNK):
            F = _destination_link_frames(scn, S, t0, min(t0 + _FRAME_CHUNK, P))
            assert F.shape[1:] == (dims.hops, dims.M, K)
            # as the adaptive destination forms them: hop by hop
            windows.extend((Ft @ amps.T[..., None]).reshape(-1) for Ft in F)
        assert len(windows) == P
        # every symbol, the first and last (zero neighbours) and those on
        # either side of a chunk boundary included
        for t in range(P):
            oracle = np.zeros((dims.stack, 1), dtype=complex)
            add_destination_frames(oracle, scn, S[:, :, t:t + 3], amps)
            np.testing.assert_allclose(windows[t], oracle[:, 0], rtol=0,
                                       atol=1e-13 * np.abs(oracle).max())


class TestLeftFactor:
    """add_hop_frames with a left factor equals that factor times the chip
    windows, for every symbol including the packet's first and last."""

    @pytest.mark.parametrize("L", [1, 3])
    @pytest.mark.parametrize("edges", ["zero", "nonzero"])
    def test_matches_left_times_chip_frames(self, L, edges, rng):
        dims = SystemDims(K=3, N=8, L=L, n_r=0)
        _, _, X = make_link_pieces(dims, rng)
        S = hop_symbols(dims, 6, rng)[0]
        if edges == "nonzero":
            S[:, [0, -1]] = modulate_qpsk(rng.integers(0, 2, size=(3, 2, 2)))
        a = np.array([[0.4], [0.9], [1.2]])
        left = (rng.standard_normal((2, dims.M))
                + 1j * rng.standard_normal((2, dims.M)))
        for spill in {0, L - 1}:
            chip = np.zeros((dims.M, 6), dtype=complex)
            add_hop_frames(chip, X[0], S, a, spill)
            out = np.zeros((2, 6), dtype=complex)
            add_hop_frames(out, X[0], S, a, spill, left)
            np.testing.assert_allclose(out, left @ chip, rtol=0,
                                       atol=1e-12 * np.abs(left @ chip).max())

    def test_destination_frames_with_left_factor(self, rng, monkeypatch):
        """The exact packet's noise-free outputs, its frames built through
        the filters as a left factor, are the filters times the chip
        windows of the symbols its relays forwarded."""
        dims = SystemDims(K=2, N=8, L=3, n_r=2, P=5)
        scn = scenario(dims, rng)
        S = hop_symbols(dims, 5, rng)
        amps = np.array([[0.8, 0.6, 0.3], [0.5, 0.9, 0.7]])
        left = (rng.standard_normal((2, dims.stack))
                + 1j * rng.standard_normal((2, dims.stack)))
        monkeypatch.setattr(harness, "_filtered_noise",
                            lambda R, sigma2, normals: np.zeros(
                                (R.shape[1], normals.shape[-1]),
                                dtype=complex))
        normals = harness.exact_draws(dims, rng, rng).normals
        with pytest.warns(RuntimeWarning, match="pseudoinverse"):
            harness._relay_chains([scn])
        W = left.conj().T
        out = harness.exact_soft_outputs(scn, W, amps, S, normals,
                                         np.linalg.qr(W, mode="r"))
        ref = left @ destination_frames(scn, S, amps)
        np.testing.assert_allclose(out, ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())


class TestNoise:
    def test_noise_calibration(self, rng):
        sigma2 = 0.7
        noise = _noise_matrix(rng.standard_normal((2, 8, 1000)), sigma2)
        var = np.mean(np.abs(noise) ** 2)
        assert abs(var - sigma2) / sigma2 < 0.03

    def test_zero_noise_for_zero_sigma(self, rng):
        assert np.all(_noise_matrix(rng.standard_normal((2, 8, 4)), 0.0) == 0)


class TestSystemDims:
    def test_derived_quantities(self):
        dims = SystemDims(K=4, N=16, L=3, n_r=2, P=1500)
        assert dims.M == 18 and dims.hops == 3 and dims.stack == 54

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SystemDims(K=0, N=16, L=3, n_r=0)
        with pytest.raises(ValueError):
            SystemDims(K=1, N=16, L=3, n_r=-1)

    @pytest.mark.parametrize("name", ["K", "N", "L", "n_r", "P"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_rejects_non_integer_dims(self, name, value):
        given = {**dict(K=2, N=16, L=3, n_r=1, P=10), name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SystemDims(**given)

    def test_numpy_integer_dims_pass(self):
        dims = SystemDims(K=np.int64(2), N=np.int32(16), L=np.int64(3),
                          n_r=np.int64(1), P=np.int64(10))
        assert dims.M == 18 and dims.hops == 2


class TestEffectiveWaveforms:
    def test_columns_are_per_hop_products(self, rng):
        """Column k of x_dest's hop j is user k's code convolved with link
        k*hops + j, and that link's block of the stacked signature maps the
        link's taps to it, zero outside hop j's rows."""
        dims = SystemDims(K=2, N=8, L=2, n_r=1)
        scn = scenario(dims, rng)
        M, L, hops = dims.M, dims.L, dims.hops
        conv, C_all = conv_mats(scn), block_signature(scn)
        for k in range(2):
            for j in range(hops):
                link = k * hops + j
                h = scn.h_true[link * L:(link + 1) * L]
                col = C_all[:, link * L:(link + 1) * L] @ h
                np.testing.assert_allclose(scn.x_dest[j, :, k], conv[k] @ h,
                                           atol=1e-14)
                np.testing.assert_allclose(scn.x_dest[j, :, k],
                                           col[j * M:(j + 1) * M], atol=1e-14)
                assert np.all(np.delete(col, np.s_[j * M:(j + 1) * M]) == 0)

    @pytest.mark.parametrize("K,n_r", [(1, 0), (2, 1), (4, 2)])
    def test_map_equals_per_link_products(self, K, n_r):
        """The waveform map reproduces the per-link conv_k @ h_link loop
        bit for bit, for the true channels and for arbitrary estimates."""
        rng = np.random.default_rng(10 * K + n_r)
        dims = SystemDims(K=K, N=16, L=3, n_r=n_r)
        scn = scenario(dims, rng)
        M, L, hops = dims.M, dims.L, dims.hops
        conv, C_all = conv_mats(scn), block_signature(scn)
        n = scn.h_true.size
        estimate = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for taps in (scn.h_true, estimate):
            U = np.zeros((dims.stack, K * hops), dtype=complex)
            for k in range(K):
                for j in range(hops):
                    link = k * hops + j
                    U[j * M:(j + 1) * M, link] = conv[k] @ taps[link * L:(link + 1) * L]
            assert np.array_equal(waveforms_from_channel(C_all, taps, L), U)

    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("blocks", [(), (3,)])
    def test_map_equals_the_reshape_sum(self, L, blocks):
        """The tap loop gives the bytes of summing the reshaped taps, signed
        zeros included, unstacked and on (B, ...) stacks."""
        rng = np.random.default_rng(L)
        dims = SystemDims(K=4, N=16, L=L, n_r=2)
        C = block_signature(scenario(dims, rng))
        C = np.broadcast_to(C, (*blocks, *C.shape))
        for h in (rng.standard_normal((*blocks, C.shape[-1]))
                  + 1j * rng.standard_normal((*blocks, C.shape[-1])),
                  -np.ones((*blocks, C.shape[-1]), dtype=complex)):
            old = (C * h[..., None, :]).reshape(*C.shape[:-1], -1, L).sum(-1)
            new = waveforms_from_channel(C, h, L)
            assert np.array_equal(new, old)
            assert new.tobytes() == old.tobytes()
