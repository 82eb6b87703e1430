"""Stacked-receiver, power, and channel recursions under the global budget."""

import numpy as np
import pytest

from conftest import poisoned, stacked_signature
from coopcdma import gpc, rlscore
from coopcdma.errors import DegenerateStateError, NumericalDivergenceError
from coopcdma.mmse import nonnegative_amplitudes
from coopcdma.model import (build_convolution_matrix, draw_spreading_codes,
                            modulate_qpsk)


def random_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def receiver(stack, K, blocks=(), alpha=0.998, delta=0.01):
    """Receivers from zero filters, a stack of them for non-empty blocks."""
    return gpc.init_receiver(np.zeros((*blocks, stack, K)), alpha, delta)


def receiver_step(state, r, b):
    """One receiver_update on the filter output W^H r of the state's W."""
    y = (state.W.conj().swapaxes(-1, -2) @ r[..., None])[..., 0]
    return gpc.receiver_update(state, r, b, y)


class TestReceiverRecursion:
    @pytest.mark.parametrize("blocks", [(), (2,)])
    def test_dense_weighted_oracle(self, blocks, rng):
        """200 steps match the dense exponentially weighted normal equations,
        for one receiver and for each receiver of a stack."""
        stack, K, alpha, delta = 12, 2, 0.998, 0.01
        state = receiver(stack, K, blocks, alpha, delta)
        N = np.tile(delta * np.eye(stack, dtype=complex), (*blocks, 1, 1))
        Z = np.zeros((*blocks, stack, K), dtype=complex)
        for _ in range(200):
            r = random_vec(rng, stack * int(np.prod(blocks))).reshape(
                *blocks, stack)
            b = modulate_qpsk(rng.integers(0, 2, size=(*blocks, K, 2)))
            receiver_step(state, r, b)
            N = alpha * N + r[..., :, None] * r.conj()[..., None, :]
            Z = alpha * Z + r[..., :, None] * b.conj()[..., None, :]
            np.testing.assert_allclose(state.W, np.linalg.solve(N, Z),
                                       atol=1e-8)
            np.testing.assert_allclose(state.Phi, np.linalg.inv(N), atol=1e-8)

    def test_initial_filters_are_kept_and_copied(self, rng):
        """init_receiver starts from W0, as complex, in a copy of its own, and
        from Phi = I/delta for every receiver of the stack."""
        W0 = rng.standard_normal((3, 5, 2))
        state = gpc.init_receiver(W0, 0.998, 0.01)
        assert state.W.dtype == complex and np.array_equal(state.W, W0)
        assert not np.shares_memory(state.W, W0)
        assert state.Phi.shape == (3, 5, 5)
        assert np.array_equal(state.Phi,
                              np.broadcast_to(np.eye(5) / 0.01, (3, 5, 5)))

    def test_zero_observation_is_a_noop_for_the_filters(self, rng):
        state = receiver(8, 2)
        for _ in range(10):
            receiver_step(state, random_vec(rng, 8),
                          modulate_qpsk(rng.integers(0, 2, size=(2, 2))))
        W_before = state.W.copy()
        xi = receiver_step(state, np.zeros(8, dtype=complex),
                           np.ones(2, dtype=complex))
        np.testing.assert_allclose(state.W, W_before, atol=0)
        np.testing.assert_allclose(xi, np.ones(2), atol=0)

    def test_inverse_stays_hermitian(self, rng):
        state = receiver(10, 2)
        for _ in range(300):
            receiver_step(state, random_vec(rng, 10),
                          modulate_qpsk(rng.integers(0, 2, size=(2, 2))))
        assert np.abs(state.Phi - state.Phi.conj().T).max() < 1e-9

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_observation_raises(self, rng):
        state = receiver(6, 1)
        r = random_vec(rng, 6)
        r[0] = np.nan
        with pytest.raises(NumericalDivergenceError):
            receiver_step(state, r, np.ones(1, dtype=complex))


class TestCorrelationGain:
    @pytest.mark.parametrize("blocks", [(), (2,)])
    def test_in_place_update_matches_the_formula_bit_for_bit(self, blocks,
                                                              rng):
        """k = Phi r / (alpha + r^H Phi r), Phi' = 0.5 (A + A^H) with
        A = (Phi - k r^H Phi) / alpha, the inverse-correlation update written
        out of place, over 100 steps, single and stacked."""
        M, alpha = 9, 0.998
        Phi = np.tile(np.eye(M, dtype=complex) * 100.0, (*blocks, 1, 1))
        ref = Phi.copy()
        for _ in range(100):
            r = random_vec(rng, M * int(np.prod(blocks))).reshape(*blocks, M)
            rH = r.conj()[..., None, :]
            Pr = ref @ r[..., None]
            k_ref = Pr / (alpha + np.real(rH @ Pr))
            A = (ref - k_ref * (rH @ ref)) / alpha
            ref = 0.5 * (A + A.conj().swapaxes(-1, -2))
            k, Phi = rlscore.correlation_gain(Phi, r, alpha)
            assert k.tobytes() == k_ref[..., 0].tobytes()
            assert Phi.tobytes() == ref.tobytes()


def _poisoned(shape, value, rng):
    """A random complex array of this shape with one entry set to value."""
    return poisoned(random_vec(rng, int(np.prod(shape))).reshape(shape),
                    value, rng)


def _receiver_error(value, rng):
    receiver_step(receiver(6, 2), random_vec(rng, 6),
                  _poisoned((2,), value, rng))


def _channel_normal_matrix(value, rng):
    state = gpc.init_channel(np.zeros((2, 6)), 0.998, 0.01)
    gpc.channel_update(state, random_vec(rng, 10),
                       _poisoned((2, 5, 6), value, rng),
                       np.ones(6, dtype=complex), np.ones(6), 2)


def _channel_estimate(value, rng):
    state = gpc.init_channel(np.zeros((2, 6)), 0.998, 0.01)
    state.p = _poisoned((2, 6), value, rng)
    gpc.channel_update(state, random_vec(rng, 10),
                       random_vec(rng, 60).reshape(2, 5, 6),
                       np.ones(6, dtype=complex), np.ones(6), 2)


def _power_normal_matrix(value, rng):
    state = gpc.init_power(np.ones((2, 2)), 1.0, 0.998, 0.01)
    state.N[1] = _poisoned((2, 2), value, rng)
    gpc.power_update(state, random_vec(rng, 8).reshape(2, 4, 1),
                     random_vec(rng, 16).reshape(2, 4, 2),
                     np.ones((2, 2), dtype=complex),
                     np.ones((2, 1), dtype=complex))


def _power_estimate(value, rng):
    state = gpc.init_power(np.ones(2), 1.0, 0.998, 0.01)
    state.z = _poisoned((2,), value, rng)
    gpc.power_update(state, random_vec(rng, 4).reshape(4, 1),
                     random_vec(rng, 8).reshape(4, 2),
                     np.ones(2, dtype=complex), np.ones(1, dtype=complex))


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("site,what", [
    (_receiver_error, "receiver a-priori error"),
    (_channel_normal_matrix, "weighted normal matrix"),
    (_channel_estimate, "channel estimate"),
    (_power_normal_matrix, "power normal matrix"),
    (_power_estimate, "power estimate"),
])
def test_one_nonfinite_entry_in_a_checked_array_raises(site, what, value, rng):
    """Every rlscore.check_finite site raises on one nan or infinite entry,
    naming its array."""
    with pytest.raises(NumericalDivergenceError,
                       match=f"non-finite entries in {what}"):
        site(value, rng)


class TestPowerRecursion:
    def run_with_oracle(self, rng, dim, K, lam, steps, alpha=0.998, delta=0.01):
        a0 = np.full(dim, 1.0 / np.sqrt(dim))
        P_T = float(K)
        state = gpc.init_power(a0, P_T, alpha, delta, lam=lam, start=0)
        N = delta * np.eye(dim, dtype=complex)
        z = delta * a0.astype(complex)
        stack = dim + 3
        W = random_vec(rng, stack * K).reshape(stack, K)
        U_hat = random_vec(rng, stack * dim).reshape(stack, dim)
        G = (U_hat.conj().T @ W).conj()
        for t in range(steps):
            s = modulate_qpsk(rng.integers(0, 2, size=(dim, 2)))
            b = modulate_qpsk(rng.integers(0, 2, size=(K, 2)))
            gpc.power_update(state, W, U_hat, s, b)
            N *= alpha
            z *= alpha
            for k in range(K):
                v = s * G[:, k]
                N += np.outer(v, v.conj())
                z += v * np.conj(b[k])
            if lam > 0.0:
                e = np.zeros(dim)
                e[t % dim] = 1.0
                N += gpc._loading_weight(lam, alpha, dim) * np.outer(e, e)
            np.testing.assert_allclose(state.N, N, atol=1e-8)
            np.testing.assert_allclose(state.z, z, atol=1e-8)
            np.testing.assert_allclose(
                state.a, nonnegative_amplitudes(np.linalg.solve(N, z), P_T),
                atol=1e-8)
        return state

    def test_dense_weighted_oracle_without_loading(self, rng):
        self.run_with_oracle(rng, dim=4, K=2, lam=0.0, steps=150)

    def test_dense_weighted_oracle_with_cycled_loading(self, rng):
        self.run_with_oracle(rng, dim=4, K=2, lam=0.025, steps=150)

    def test_budget_met_every_update(self, rng):
        state = self.run_with_oracle(rng, dim=6, K=3, lam=0.025, steps=100)
        # repeat a few extra updates checking the emitted norm directly
        stack = 9
        W = random_vec(rng, stack * 3).reshape(stack, 3)
        U_hat = random_vec(rng, stack * 6).reshape(stack, 6)
        for _ in range(50):
            s = modulate_qpsk(rng.integers(0, 2, size=(6, 2)))
            b = modulate_qpsk(rng.integers(0, 2, size=(3, 2)))
            a = gpc.power_update(state, W, U_hat, s, b)
            assert abs(np.linalg.norm(a) ** 2 - state.P_T) < 1e-10
            assert np.all(np.real(a) >= 0) and np.all(np.imag(a) == 0)

    def test_training_hold_emits_initial_allocation(self, rng):
        dim = 4
        a0 = np.array([0.5, 0.5, 0.5, 0.5])
        state = gpc.init_power(a0, 1.0, 0.998, 0.01, lam=0.025, start=20)
        stack = 7
        W = random_vec(rng, stack * 2).reshape(stack, 2)
        U_hat = random_vec(rng, stack * dim).reshape(stack, dim)
        for t in range(40):
            s = modulate_qpsk(rng.integers(0, 2, size=(dim, 2)))
            b = modulate_qpsk(rng.integers(0, 2, size=(2, 2)))
            a = gpc.power_update(state, W, U_hat, s, b)
            if t < 20:
                np.testing.assert_allclose(a, a0, atol=0)
            else:
                assert np.abs(a - a0).max() > 0  # allocation has been released

    def test_single_link_is_pinned_to_the_budget(self, rng):
        """K=1 with no relays: the sphere leaves a single amplitude value."""
        state = gpc.init_power(np.ones(1), 1.0, 0.998, 0.01, lam=0.025)
        W = random_vec(rng, 4).reshape(4, 1)
        U_hat = random_vec(rng, 4).reshape(4, 1)
        for _ in range(30):
            s = modulate_qpsk(rng.integers(0, 2, size=(1, 2)))
            b = modulate_qpsk(rng.integers(0, 2, size=(1, 2)))
            a = gpc.power_update(state, W, U_hat, s, b)
            assert abs(a[0] - 1.0) < 1e-12

    def test_nonfinite_state_raises(self, rng):
        state = gpc.init_power(np.ones(2), 1.0, 0.998, 0.01)
        state.N[0, 0] = np.nan
        W = random_vec(rng, 4).reshape(4, 1)
        U_hat = random_vec(rng, 8).reshape(4, 2)
        with pytest.raises((DegenerateStateError, NumericalDivergenceError)):
            gpc.power_update(state, W, U_hat, np.ones(2, dtype=complex),
                             np.ones(1, dtype=complex))

    def test_singular_normal_matrix_raises(self, rng):
        state = gpc.init_power(np.ones(2), 1.0, 0.998, 0.01)
        state.N[:] = 0.0
        W = np.zeros((4, 1), dtype=complex)
        U_hat = random_vec(rng, 8).reshape(4, 2)
        with pytest.raises(NumericalDivergenceError):
            gpc.power_update(state, W, U_hat, np.ones(2, dtype=complex),
                             np.ones(1, dtype=complex))

    def test_power_inverse_stays_hermitian(self, rng):
        state = self.run_with_oracle(rng, dim=4, K=2, lam=0.025, steps=200)
        assert np.abs(state.N - state.N.conj().T).max() < 1e-9


def hop_regressors(C, s, amps, L):
    """Each hop's regressor: hop j's signatures C[j] (M x users*L), user k's
    L columns scaled by the symbol times the amplitude of link k*hops + j."""
    hops, _, d = C.shape
    V = np.array(C, dtype=complex)
    for j in range(hops):
        for k in range(d // L):
            V[j, :, k * L:(k + 1) * L] *= s[k * hops + j] * amps[k * hops + j]
    return V


def hop_major(h, users, hops, L):
    """Taps stored hop by hop (hops x users*L), user-major as h_true."""
    return h.reshape(hops, users, L).transpose(1, 0, 2).reshape(-1)


class TestChannelRecursion:
    def test_dense_weighted_oracle(self, rng):
        """200 block updates match each hop's dense weighted normal
        equations: the normal matrix N_j, the right-hand side p_j and the
        estimate h_j."""
        hops, M, users, L = 3, 5, 2, 2
        d = users * L
        alpha, delta = 0.998, 0.01
        state = gpc.init_channel(np.zeros((hops, d)), alpha, delta)
        C = random_vec(rng, hops * M * d).reshape(hops, M, d)
        N = np.array([delta * np.eye(d, dtype=complex)] * hops)
        p = np.zeros((hops, d), dtype=complex)
        for _ in range(200):
            s = modulate_qpsk(rng.integers(0, 2, size=(users * hops, 2)))
            amps = 0.3 + rng.random(users * hops)
            r = random_vec(rng, hops * M)
            gpc.channel_update(state, r, C, s, amps, L)
            V = hop_regressors(C, s, amps, L)
            for j in range(hops):
                N[j] = alpha * N[j] + V[j].conj().T @ V[j]
                p[j] = alpha * p[j] + V[j].conj().T @ r[j * M:(j + 1) * M]
            np.testing.assert_allclose(state.normal.N, N, atol=1e-8)
            np.testing.assert_allclose(state.p, p, atol=1e-8)
            np.testing.assert_allclose(
                state.h, [np.linalg.solve(N[j], p[j]) for j in range(hops)],
                atol=1e-8)

    def test_joint_normal_matrix_is_zero_across_hops(self, rng):
        """The joint estimator over all links (one normal matrix over the
        stacked block signatures) is exactly zero between links on different
        hops, its hop blocks are the per-hop normal matrices and its solution
        is the per-hop estimate."""
        N_chips, L, hops, K = 8, 2, 3, 2
        codes = draw_spreading_codes(K, N_chips, rng)
        conv = [build_convolution_matrix(c, L) for c in codes]
        M, dim = N_chips + L - 1, K * hops * L
        C_all = stacked_signature(codes, L, hops)
        alpha, delta = 0.998, 0.01
        state = gpc.init_channel(np.zeros((hops, K * L)), alpha, delta)
        N = delta * np.eye(dim, dtype=complex)
        p = np.zeros(dim, dtype=complex)
        for _ in range(100):
            s = modulate_qpsk(rng.integers(0, 2, size=(K * hops, 2)))
            amps = 0.3 + rng.random(K * hops)
            r = random_vec(rng, hops * M)
            gpc.channel_update(state, r, np.hstack(conv)[None], s, amps, L)
            V = C_all * np.repeat(s * amps, L)[None, :]
            N = alpha * N + V.conj().T @ V
            p = alpha * p + V.conj().T @ r
        hop_of_column = np.tile(np.repeat(np.arange(hops), L), K)
        cross = hop_of_column[:, None] != hop_of_column[None, :]
        assert np.count_nonzero(cross) == dim * dim * (hops - 1) // hops
        assert np.all(N[cross] == 0)
        for j in range(hops):
            on_hop = np.flatnonzero(hop_of_column == j)
            np.testing.assert_allclose(state.normal.N[j],
                                       N[np.ix_(on_hop, on_hop)],
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose(state.p[j], p[on_hop], rtol=1e-13,
                                       atol=0)
        np.testing.assert_allclose(hop_major(state.h, K, hops, L),
                                   np.linalg.solve(N, p), rtol=1e-10)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_regressor_raises(self, rng):
        hops, M, d, L = 2, 5, 6, 2
        state = gpc.init_channel(np.zeros((hops, d)), 0.998, 0.01)
        C = random_vec(rng, hops * M * d).reshape(hops, M, d)
        C[1, 3, 1] = np.inf
        s = modulate_qpsk(rng.integers(0, 2, size=(hops * d // L, 2)))
        with pytest.raises(NumericalDivergenceError):
            gpc.channel_update(state, random_vec(rng, hops * M), C, s,
                               np.ones(hops * d // L), L)

    def test_recovers_true_channel_noise_free(self, rng):
        """Persistently excited noise-free data drives the estimate to truth."""
        N_chips, L, hops, K = 8, 2, 2, 2
        codes = draw_spreading_codes(K, N_chips, rng)
        conv = [build_convolution_matrix(c, L) for c in codes]
        h_true = random_vec(rng, K * hops * L)
        C = stacked_signature(codes, L, hops)
        amps = 0.5 + rng.random(K * hops)
        state = gpc.init_channel(np.zeros((hops, K * L)), 0.998, 0.01)
        for _ in range(300):
            s = modulate_qpsk(rng.integers(0, 2, size=(K * hops, 2)))
            scale = np.repeat(s * amps, L)
            r = (C * scale[None, :]) @ h_true
            gpc.channel_update(state, r, np.hstack(conv)[None], s, amps, L)
        assert np.linalg.norm(hop_major(state.h, K, hops, L) - h_true) < 1e-3

    def test_waveform_reconstruction(self, rng):
        K, hops, L, N_chips = 2, 2, 2, 8
        codes = draw_spreading_codes(K, N_chips, rng)
        conv = [build_convolution_matrix(c, L) for c in codes]
        M = N_chips + L - 1
        h = random_vec(rng, K * hops * L)
        U = gpc.waveforms_from_channel(stacked_signature(codes, L, hops), h, L)
        assert U.shape == (hops * M, K * hops)
        for k in range(K):
            for j in range(hops):
                col = U[:, k * hops + j]
                blk = (k * hops + j) * L
                expected = np.zeros(hops * M, dtype=complex)
                expected[j * M:(j + 1) * M] = conv[k] @ h[blk:blk + L]
                np.testing.assert_allclose(col, expected, atol=1e-14)
