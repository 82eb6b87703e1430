"""Exact relay filtering and adaptive relay behavior."""

import numpy as np
import pytest

from coopcdma.errors import DegenerateStateError, NumericalDivergenceError
from coopcdma.model import (SystemDims, build_convolution_matrix,
                            draw_spreading_codes, generate_multipath_channel,
                            modulate_qpsk)
from coopcdma.relays import AdaptiveRelay, mmse_relay_bank, relay_statistics


def source_relay_waveforms(dims, rng, amps=None):
    """Amplitude-scaled source-to-relay chip waveforms, one column per user."""
    codes = draw_spreading_codes(dims.K, dims.N, rng)
    if amps is None:
        amps = np.ones(dims.K)
    cols = []
    for k in range(dims.K):
        D = build_convolution_matrix(codes[k], dims.L)
        h = generate_multipath_channel(dims.L, rng)
        cols.append(amps[k] * (D @ h))
    return np.stack(cols, axis=1)


class TestMmseRelayBank:
    def test_noiseless_filters_invert_the_mixture(self, rng):
        dims = SystemDims(K=2, N=16, L=3, n_r=0)
        X = source_relay_waveforms(dims, rng)
        W, gains = mmse_relay_bank(X, 0.0)
        G = gains[:, None] * (W.conj().T @ X)
        np.testing.assert_allclose(G, np.eye(2), atol=1e-8)

    def test_wiener_optimality(self, rng):
        """Perturbing any filter can only increase its per-user MSE."""
        dims = SystemDims(K=3, N=8, L=2, n_r=0)
        X = source_relay_waveforms(dims, rng)
        sigma2 = 0.2
        R = X @ X.conj().T + sigma2 * np.eye(dims.M)
        W, _ = mmse_relay_bank(X, sigma2)

        def mse(w, k):
            return np.real(np.vdot(w, R @ w) - 2 * np.real(np.vdot(w, X[:, k])) + 1)

        base = [mse(W[:, k], k) for k in range(3)]
        for k in range(3):
            for _ in range(5):
                pert = 0.01 * (rng.standard_normal(dims.M)
                               + 1j * rng.standard_normal(dims.M))
                assert mse(W[:, k] + pert, k) >= base[k] - 1e-12

    def test_unit_output_energy_monte_carlo(self, rng):
        """Normalized forwarded symbols have unit average energy (MC, 2%)."""
        dims = SystemDims(K=2, N=8, L=2, n_r=0)
        X = source_relay_waveforms(dims, rng, amps=np.array([0.9, 1.3]))
        sigma2 = 0.3
        W, gains = mmse_relay_bank(X, sigma2)
        n_mc = 40000
        b = modulate_qpsk(rng.integers(0, 2, size=(n_mc, 2, 2))
                          ).reshape(n_mc, 2).T
        noise = np.sqrt(sigma2 / 2) * (rng.standard_normal((dims.M, n_mc))
                                       + 1j * rng.standard_normal((dims.M, n_mc)))
        r = X @ b + noise
        btilde = gains[:, None] * (W.conj().T @ r)
        energy = np.mean(np.abs(btilde) ** 2, axis=1)
        np.testing.assert_allclose(energy, 1.0, rtol=0.02)

    def test_degenerate_input_raises(self):
        with pytest.raises(DegenerateStateError):
            mmse_relay_bank(np.zeros((6, 2), dtype=complex), 0.0)


class TestRelayStatistics:
    def test_monte_carlo_oracle(self, rng):
        """(G, S) reproduce the sample mean/covariance of forwarded symbols."""
        dims = SystemDims(K=2, N=8, L=2, n_r=0)
        X = source_relay_waveforms(dims, rng)
        sigma2 = 0.25
        W, gains = mmse_relay_bank(X, sigma2)
        G, S = relay_statistics(X, sigma2, (W, gains))

        n_mc = 60000
        b = modulate_qpsk(rng.integers(0, 2, size=(n_mc, 2, 2))
                          ).reshape(n_mc, 2).T
        noise = np.sqrt(sigma2 / 2) * (rng.standard_normal((dims.M, n_mc))
                                       + 1j * rng.standard_normal((dims.M, n_mc)))
        btilde = gains[:, None] * (W.conj().T @ (X @ b + noise))
        nu = btilde - G @ b
        S_hat = (nu @ nu.conj().T) / n_mc
        np.testing.assert_allclose(S_hat, S, atol=0.02 * np.abs(S).max())
        # and the signal coupling matches the deterministic formula
        np.testing.assert_allclose(G, gains[:, None] * (W.conj().T @ X),
                                   atol=1e-14)

    def test_noiseless_perfect_relay(self, rng):
        dims = SystemDims(K=2, N=16, L=3, n_r=0)
        X = source_relay_waveforms(dims, rng)
        G, S = relay_statistics(X, 0.0, mmse_relay_bank(X, 0.0))
        np.testing.assert_allclose(G, np.eye(2), atol=1e-8)
        np.testing.assert_allclose(S, 0.0, atol=1e-12)


class TestAdaptiveRelay:
    def test_converges_to_exact_filters(self, rng):
        """Trained adaptive relay output approaches the exact MMSE output."""
        dims = SystemDims(K=2, N=16, L=3, n_r=0)
        X = source_relay_waveforms(dims, rng)
        sigma2 = 0.01
        W_exact, gains = mmse_relay_bank(X, sigma2)
        relay = AdaptiveRelay(1, dims.M, dims.K, alpha=0.998, delta=0.01)
        errs = []
        for _ in range(600):
            b = modulate_qpsk(rng.integers(0, 2, size=(2, 2)))
            noise = np.sqrt(sigma2 / 2) * (rng.standard_normal(dims.M)
                                           + 1j * rng.standard_normal(dims.M))
            r = X @ b + noise
            y = relay.step(r, training=b)
            exact = gains * (W_exact.conj().T @ r)
            errs.append(np.linalg.norm(y - exact))
        assert np.mean(errs[-100:]) < 0.2
        assert np.mean(errs[-100:]) < 0.3 * np.mean(errs[:20])

    def test_unit_energy_tracking(self, rng):
        dims = SystemDims(K=2, N=8, L=2, n_r=0)
        X = source_relay_waveforms(dims, rng, amps=np.array([2.0, 0.5]))
        relay = AdaptiveRelay(1, dims.M, dims.K, alpha=0.998, delta=0.01)
        outputs = []
        for _ in range(800):
            b = modulate_qpsk(rng.integers(0, 2, size=(2, 2)))
            outputs.append(relay.step(X @ b, training=b))
        tail = np.stack(outputs[-300:])
        np.testing.assert_allclose(np.mean(np.abs(tail) ** 2, axis=0), 1.0,
                                   rtol=0.15)

    def test_decision_directed_fallback(self, rng):
        dims = SystemDims(K=1, N=8, L=1, n_r=0)
        X = source_relay_waveforms(dims, rng)
        relay = AdaptiveRelay(1, dims.M, 1, alpha=0.998, delta=0.01)
        for _ in range(100):
            b = modulate_qpsk(rng.integers(0, 2, size=(1, 2)))
            relay.step(X @ b, training=b)
        b = modulate_qpsk(rng.integers(0, 2, size=(1, 2)))
        y = relay.step(X @ b, training=None)
        assert np.isfinite(y).all()

    def test_stacked_relays_match_single_relays(self, rng):
        """Two relays stepped as one stack match two single relays, through
        training and then on their own decisions."""
        dims = SystemDims(K=2, N=8, L=2, n_r=2)
        X = np.stack([source_relay_waveforms(dims, rng) for _ in range(2)])
        stacked = AdaptiveRelay(2, dims.M, dims.K, alpha=0.998, delta=0.01)
        singles = [AdaptiveRelay(1, dims.M, dims.K, alpha=0.998, delta=0.01)
                   for _ in range(2)]
        for i in range(80):
            b = modulate_qpsk(rng.integers(0, 2, size=(2, 2)))
            noise = 0.1 * (rng.standard_normal((2, dims.M))
                           + 1j * rng.standard_normal((2, dims.M)))
            r = X @ b + noise
            training = b if i < 40 else None
            y = stacked.step(r, training)
            assert y.shape == (2, dims.K)
            for j, single in enumerate(singles):
                y_j = single.step(r[j], training)[0]
                np.testing.assert_allclose(y[j], y_j, rtol=0, atol=1e-12)
                np.testing.assert_allclose(stacked.rx.W[j], single.rx.W[0],
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    def test_nonfinite_observation_raises(self, rng, training):
        """A relay of a stack fed a nan observation raises at once, in
        training and on its own decisions, instead of forwarding nan."""
        dims = SystemDims(K=2, N=8, L=2, n_r=2)
        X = np.stack([source_relay_waveforms(dims, rng) for _ in range(2)])
        relay = AdaptiveRelay(2, dims.M, dims.K, alpha=0.998, delta=0.01)
        for _ in range(5):
            b = modulate_qpsk(rng.integers(0, 2, size=(2, 2)))
            relay.step(X @ b, b)
        b = modulate_qpsk(rng.integers(0, 2, size=(2, 2)))
        r = X @ b
        r[1, 3] = np.nan
        with pytest.raises(NumericalDivergenceError, match="a-priori error"):
            relay.step(r, b if training else None)
