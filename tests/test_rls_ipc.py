"""JPAIS-IPC as the per-user block case of the JPAIS-GPC recursions.

The power tests run gpc.power_update on a one-user block under that user's
own budget, the block the adaptive packet simulator steps for every user.
"""

import dataclasses

import numpy as np
import pytest

from conftest import dense_link_waveforms
from coopcdma import gpc, harness
from coopcdma.errors import DegenerateStateError, NumericalDivergenceError
from coopcdma.mmse import nonnegative_amplitudes
from coopcdma.model import modulate_qpsk


def random_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def user_block(hops, lam=0.0, start=0, alpha=0.998, delta=0.01):
    """A one-user power block at equal power under budget 1."""
    return gpc.init_power(np.full(hops, 1.0 / np.sqrt(hops)), 1.0, alpha, delta,
                          lam=lam, start=start)


def user_step(state, w, X, s, b):
    """One power step of a one-user block: filter w (hops x M) and link
    waveforms X (hops x M), one per hop, symbol b."""
    return gpc.power_update(state, w[..., None], X[..., None], s,
                            np.atleast_1d(b))


def user_pieces(rng, hops, M):
    """A random filter and link waveforms of one user, each split per hop."""
    return (random_vec(rng, hops * M).reshape(hops, M),
            random_vec(rng, hops * M).reshape(hops, M))


class TestSingleUserEquivalence:
    """With one user, jpais-ipc's per-user block is jpais-gpc's joint one.

    Each scheme reads its own loading (lam_t for gpc, lam for ipc), so the two
    packets swap the values of the loading the other scheme ignores.
    """

    @pytest.fixture(scope="class")
    def packets(self):
        cfg = harness.ExperimentConfig(users=1, relays=2, packet_len=120,
                                       training_len=40, variant="adaptive",
                                       seed=4)
        dims = cfg.dims()
        out = {}
        for scheme, lam, lam_t in (("jpais-gpc", 0.5, 0.025),
                                   ("jpais-ipc", 0.025, 0.5)):
            run = dataclasses.replace(cfg, scheme=scheme, lam=lam, lam_t=lam_t)
            rngs = harness.trial_rngs(run.seed, 0)
            scn = harness.draw_scenario(dims, harness.codes_for(run, dims.K),
                                        harness.snr_db_to_sigma2(9.0),
                                        run.shadowing_std_db, rngs[0])
            out[scheme] = harness.simulate_packet_adaptive(
                scn, scheme, run, rngs[1], rngs[2], rngs[3],
                collect=("a_norm", "channel_error"))
        return out

    def test_filters_match_stacked_recursion(self, packets):
        gpc_res, ipc_res = packets["jpais-gpc"], packets["jpais-ipc"]
        assert not gpc_res.diverged and not ipc_res.diverged
        np.testing.assert_array_equal(ipc_res.per_symbol_errors,
                                      gpc_res.per_symbol_errors)

    def test_power_matches_stacked_recursion(self, packets):
        gpc_norms = packets["jpais-gpc"].extras["a_sq_norms"]
        assert gpc_norms.size == 120
        np.testing.assert_array_equal(packets["jpais-ipc"].extras["a_sq_norms"],
                                      gpc_norms)

    def test_channel_matches_stacked_recursion(self, packets):
        np.testing.assert_array_equal(packets["jpais-ipc"].extras["channel_error"],
                                      packets["jpais-gpc"].extras["channel_error"])


class TestUserPowerRecursion:
    def test_dense_weighted_oracle(self, rng):
        hops, alpha, delta, lam = 3, 0.998, 0.01, 0.025
        a0 = np.full(hops, 1.0 / np.sqrt(hops))
        state = user_block(hops, lam=lam, alpha=alpha, delta=delta)
        w, X = user_pieces(rng, hops, 4)
        # the dense oracle: the user's links in one stack x hops matrix
        U_hat = dense_link_waveforms(X[..., None])
        phi = np.conj(U_hat.conj().T @ w.reshape(-1))
        N = delta * np.eye(hops, dtype=complex)
        z = delta * a0.astype(complex)
        for t in range(150):
            s = modulate_qpsk(rng.integers(0, 2, size=(hops, 2)))
            b = modulate_qpsk(rng.integers(0, 2, size=(1, 2)))[0]
            user_step(state, w, X, s, b)
            v = s * phi
            N = alpha * N + np.outer(v, v.conj())
            z = alpha * z + v * np.conj(b)
            e = np.zeros(hops)
            e[t % hops] = 1.0
            N += gpc._loading_weight(lam, alpha, hops) * np.outer(e, e)
            np.testing.assert_allclose(state.N, N, atol=1e-8)
            np.testing.assert_allclose(state.z, z, atol=1e-8)
            np.testing.assert_allclose(
                state.a, nonnegative_amplitudes(np.linalg.solve(N, z), 1.0),
                atol=1e-8)

    def test_budget_met_every_update(self, rng):
        hops = 3
        state = user_block(hops, lam=0.025)
        w, X = user_pieces(rng, hops, 4)
        for _ in range(100):
            s = modulate_qpsk(rng.integers(0, 2, size=(hops, 2)))
            b = modulate_qpsk(rng.integers(0, 2, size=(1, 2)))[0]
            a = user_step(state, w, X, s, b)
            assert abs(np.linalg.norm(a) ** 2 - 1.0) < 1e-10
            assert np.all(np.real(a) >= 0) and np.all(np.imag(a) == 0)

    def test_direct_only_is_pinned_to_the_budget(self, rng):
        """No relays: a single per-user amplitude fixed by its own budget."""
        state = user_block(1, lam=0.025)
        w, X = user_pieces(rng, 1, 5)
        for _ in range(30):
            s = modulate_qpsk(rng.integers(0, 2, size=(1, 2)))
            b = modulate_qpsk(rng.integers(0, 2, size=(1, 2)))[0]
            a = user_step(state, w, X, s, b)
            assert abs(a[0] - 1.0) < 1e-12

    def test_nonfinite_state_raises(self, rng):
        state = user_block(2)
        state.z[:] = np.nan
        w, X = user_pieces(rng, 2, 2)
        with pytest.raises(NumericalDivergenceError):
            user_step(state, w, X, np.ones(2, dtype=complex), 1.0 + 0j)

    def test_zeroed_right_hand_side_raises_degenerate(self, rng):
        """A zero LS estimate is a degenerate allocation, not a nan one."""
        state = user_block(2)
        state.z[:] = 0.0
        w, X = user_pieces(rng, 2, 2)
        with pytest.raises(DegenerateStateError):
            user_step(state, w, X, np.ones(2, dtype=complex), 0j)


class TestStackedBlocks:
    """A stack of B blocks steps as B independent single-block recursions."""

    B, USERS, HOPS, L, STACK, STEPS = 3, 2, 3, 2, 11, 60

    @staticmethod
    def random_array(rng, *shape):
        return random_vec(rng, int(np.prod(shape))).reshape(shape)

    @staticmethod
    def symbols(rng, *shape):
        return modulate_qpsk(rng.integers(0, 2, size=(*shape, 2)))

    def test_waveforms_from_channel(self, rng):
        d = self.USERS * self.HOPS * self.L
        C = self.random_array(rng, self.B, self.STACK, d)
        h = self.random_array(rng, self.B, d)
        stacked = gpc.waveforms_from_channel(C, h, self.L)
        assert stacked.shape == (self.B, self.STACK, self.USERS * self.HOPS)
        for b in range(self.B):
            np.testing.assert_allclose(
                stacked[b], gpc.waveforms_from_channel(C[b], h[b], self.L),
                rtol=0, atol=1e-12)

    def test_channel_update(self, rng):
        n = self.USERS * self.HOPS
        d = self.USERS * self.L
        M = 4  # chips per hop: r stacks HOPS windows of M
        C = self.random_array(rng, self.B, self.HOPS, M, d)
        h0 = 0.01 * self.random_array(rng, self.B, self.HOPS, d)
        stacked = gpc.init_channel(h0, 0.998, 0.01)
        singles = [gpc.init_channel(h0_b, 0.998, 0.01) for h0_b in h0]
        for _ in range(self.STEPS):
            r = random_vec(rng, self.HOPS * M)
            s = self.symbols(rng, self.B, n)
            amps = 0.3 + rng.random((self.B, n))
            h = gpc.channel_update(stacked, r, C, s, amps, self.L)
            for b, single in enumerate(singles):
                gpc.channel_update(single, r, C[b], s[b], amps[b], self.L)
                np.testing.assert_allclose(h[b], single.h, rtol=0, atol=1e-12)
                np.testing.assert_allclose(stacked.normal.N[b],
                                           single.normal.N, rtol=0, atol=1e-12)
                np.testing.assert_allclose(stacked.p[b], single.p, rtol=0,
                                           atol=1e-12)

    def test_power_update_with_loading_and_hold(self, rng):
        n = self.USERS * self.HOPS
        start = 20
        a0 = np.full((self.B, n), 1.0 / np.sqrt(self.HOPS))
        stacked = gpc.init_power(a0, float(self.USERS), 0.998, 0.01,
                                 lam=0.025, start=start)
        singles = [gpc.init_power(a0[b], float(self.USERS), 0.998, 0.01,
                                  lam=0.025, start=start)
                   for b in range(self.B)]
        M = 4  # chips per hop
        for t in range(self.STEPS):
            W = self.random_array(rng, self.B, self.HOPS, M, self.USERS)
            X = self.random_array(rng, self.B, self.HOPS, M, self.USERS)
            s = self.symbols(rng, self.B, n)
            ref = self.symbols(rng, self.B, self.USERS)
            a = gpc.power_update(stacked, W, X, s, ref)
            if t < start:
                np.testing.assert_array_equal(a, a0)
            for b, single in enumerate(singles):
                a_b = gpc.power_update(single, W[b], X[b], s[b], ref[b])
                np.testing.assert_allclose(a[b], a_b, rtol=0, atol=1e-12)
                np.testing.assert_allclose(stacked.z[b], single.z, rtol=0,
                                           atol=1e-12)
                np.testing.assert_allclose(stacked.N[b], single.N, rtol=0,
                                           atol=1e-12)
        assert np.abs(a - a0).max() > 0  # the hold has been released
        np.testing.assert_allclose(np.sum(np.abs(a) ** 2, axis=-1),
                                   float(self.USERS), rtol=1e-12)
