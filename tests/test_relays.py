"""Exact relay filtering and adaptive relay behavior."""

import contextlib
import re
import warnings

import numpy as np
import pytest

from coopcdma.errors import DegenerateStateError, NumericalDivergenceError
from coopcdma.gpc import receiver_update
from coopcdma.model import (SystemDims, build_convolution_matrix,
                            draw_spreading_codes, generate_multipath_channel,
                            hard_decision, modulate_qpsk)
from coopcdma.relays import (_POWER_FLOOR, AdaptiveRelay, mmse_relay_bank,
                             relay_statistics)


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


def relay_stack(dims, rng):
    """Source-to-relay waveforms of dims.n_r relays, (n_r, M, K)."""
    X = np.empty((dims.n_r, dims.M, dims.K), dtype=complex)
    for j in range(dims.n_r):
        X[j] = source_relay_waveforms(dims, rng)
    return X


def relay_filters_oracle(X, sigma2):
    """The relay filters by the bank's formulas before its covariances went
    through mmse._checked_solve: an unchecked LU solve for sigma2 > 0, else
    the pseudoinverse."""
    R = X @ X.conj().swapaxes(-1, -2) + sigma2 * np.eye(X.shape[-2])
    return np.linalg.solve(R, X) if sigma2 > 0.0 else np.linalg.pinv(R) @ X


class TestRelayBankOracle:
    @pytest.mark.parametrize("n_r", [0, 1, 3])
    def test_noisy_bank_has_the_bytes_of_lu(self, n_r, rng):
        """At sigma2 > 0 every relay covariance is certified, and the
        checked solve is the one LU call of the unchecked formula."""
        X = relay_stack(SystemDims(K=3, N=8, L=2, n_r=n_r), rng)
        W, gains = mmse_relay_bank(X, 0.3)
        assert W.shape == X.shape and gains.shape == (n_r, 3)
        assert W.tobytes() == relay_filters_oracle(X, 0.3).tobytes()

    def test_noise_free_bank_warns_once_per_relay(self, rng):
        """At sigma2 = 0 each singular relay covariance falls back to the
        pseudoinverse, with one warning that names it."""
        X = relay_stack(SystemDims(K=3, N=8, L=2, n_r=3), rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            W, _ = mmse_relay_bank(X, 0.0)
        assert len(caught) == 3
        for w in caught:
            assert w.category is RuntimeWarning
            assert re.match(r"relay covariance: .* pseudoinverse$",
                            str(w.message))
        assert W.tobytes() == relay_filters_oracle(X, 0.0).tobytes()


class TestMmseRelayBank:
    def test_noiseless_filters_invert_the_mixture(self, rng):
        dims = SystemDims(K=2, N=16, L=3, n_r=0)
        X = source_relay_waveforms(dims, rng)
        with pytest.warns(RuntimeWarning, match="pseudoinverse"):
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
        with (pytest.warns(RuntimeWarning, match="pseudoinverse"),
              pytest.raises(DegenerateStateError)):
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
        with pytest.warns(RuntimeWarning, match="pseudoinverse"):
            bank = mmse_relay_bank(X, 0.0)
        G, S = relay_statistics(X, 0.0, bank)
        np.testing.assert_allclose(G, np.eye(2), atol=1e-8)
        np.testing.assert_allclose(S, 0.0, atol=1e-12)


class TestRelayStack:
    """The exact bank and statistics of a stack of relays, against one call
    per relay, byte for byte."""

    @pytest.mark.parametrize("sigma2", [0.3, 0.0])  # 0: the pinv path
    @pytest.mark.parametrize("n_r", [0, 1, 3])
    def test_stack_has_the_bytes_of_the_per_relay_loop(self, n_r, sigma2,
                                                       rng):
        dims = SystemDims(K=3, N=8, L=2, n_r=n_r)
        X = relay_stack(dims, rng)
        with (pytest.warns(RuntimeWarning, match="pseudoinverse")
              if sigma2 == 0.0 and n_r else contextlib.nullcontext()):
            W, gains = mmse_relay_bank(X, sigma2)
            G, S = relay_statistics(X, sigma2, (W, gains))
            assert W.shape == (n_r, dims.M, dims.K)
            assert gains.shape == (n_r, dims.K)
            assert G.shape == S.shape == (n_r, dims.K, dims.K)
            for j in range(n_r):
                bank = mmse_relay_bank(X[j], sigma2)
                for got, want in zip((W[j], gains[j], G[j], S[j]),
                                     (*bank, *relay_statistics(X[j], sigma2,
                                                               bank))):
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_r", [0, 1, 3])
    def test_per_trial_noise_has_the_bytes_of_scalar_calls(self, n_r, rng):
        """A (T, n_r) stack of relays with one noise level per trial, (T, 1)
        broadcast over the relays, gives each trial the bank and statistics
        of a call at its scalar noise level, byte for byte."""
        dims = SystemDims(K=3, N=8, L=2, n_r=n_r)
        X = np.stack([relay_stack(dims, rng) for _ in range(3)])
        sigma2 = np.array([0.3, 0.02, 1.7])
        W, gains = mmse_relay_bank(X, sigma2[:, None])
        G, S = relay_statistics(X, sigma2[:, None], (W, gains))
        assert W.shape == X.shape and S.shape == (3, n_r, dims.K, dims.K)
        for t, level in enumerate(sigma2.tolist()):
            bank = mmse_relay_bank(X[t], level)
            for got, want in zip((W[t], gains[t], G[t], S[t]),
                                 (*bank, *relay_statistics(X[t], level,
                                                           bank))):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_one_degenerate_relay_fails_the_stack(self, rng):
        dims = SystemDims(K=2, N=8, L=2, n_r=2)
        X = np.stack([source_relay_waveforms(dims, rng) for _ in range(2)])
        X[1, :, 0] = 0.0
        with pytest.raises(DegenerateStateError):
            mmse_relay_bank(X, 0.1)


def forwarded_oracle(relay, obs, training):
    """The relays' forwarded symbols as one step per symbol formed them
    before the normalization moved after the loop: filter, decide, update,
    then the running mean of the output power and the normalized output, all
    inside the loop. Steps relay in place; returns (n, n_r, K)."""
    out, power = [], np.zeros(relay.rx.W.shape[::2])
    for i in range(obs.shape[-1]):
        r = obs[:, :, i]
        y = (relay.rx.W.conj().swapaxes(-1, -2) @ r[..., None])[..., 0]
        ref = training[:, i] if i < training.shape[-1] else hard_decision(y)
        receiver_update(relay.rx, r, ref, y)
        relay.count += 1
        power += (np.abs(y) ** 2 - power) / relay.count
        out.append(y / np.sqrt(np.maximum(power, _POWER_FLOOR)))
    return np.stack(out)


def relay_observations(dims, n, rng, sigma2=0.05):
    """Source symbols b (K x n), each relay's noisy observations of them
    (n_r x M x n, the layout the harness gives the relays) and the relays'
    source-to-relay waveforms X (n_r x M x K)."""
    X = np.stack([source_relay_waveforms(dims, rng) for _ in range(dims.n_r)])
    b = modulate_qpsk(rng.integers(0, 2, size=(dims.K, n, 2)))
    noise = np.sqrt(sigma2 / 2) * (
        rng.standard_normal((dims.n_r, dims.M, n))
        + 1j * rng.standard_normal((dims.n_r, dims.M, n)))
    return b, X @ b + noise, X


class TestAdaptiveRelay:
    @pytest.mark.parametrize("n_r", [1, 2])
    def test_forward_has_the_bytes_of_the_per_symbol_loop(self, n_r, rng):
        """Forwarded symbols, filters, inverse correlations and counts
        equal the per-symbol loop's byte for byte, through training,
        across the training boundary, on the relays' own decisions and over
        Hermitian passes (every 13 updates at alpha = 0.95)."""
        dims = SystemDims(K=3, N=8, L=2, n_r=n_r)
        b, obs, _ = relay_observations(dims, 120, rng)
        training = b[:, :40]
        fast, slow = (AdaptiveRelay(n_r, dims.M, dims.K, alpha=0.95,
                                    delta=0.01) for _ in range(2))
        got = fast.forward(obs, training)
        want = forwarded_oracle(slow, obs, training)
        assert got.shape == (120, n_r, dims.K)
        assert got.tobytes() == want.tobytes()
        for a, c in ((fast.rx.W, slow.rx.W), (fast.rx.Phi, slow.rx.Phi)):
            assert a.tobytes() == c.tobytes()
        assert fast.count == slow.count == fast.rx.t == 120

    def test_converges_to_exact_filters(self, rng):
        """Trained adaptive relay output approaches the exact MMSE output."""
        dims = SystemDims(K=2, N=16, L=3, n_r=1)
        b, obs, X = relay_observations(dims, 600, rng, sigma2=0.01)
        W_exact, gains = mmse_relay_bank(X[0], 0.01)
        relay = AdaptiveRelay(1, dims.M, dims.K, alpha=0.998, delta=0.01)
        y = relay.forward(obs, b)[:, 0]
        exact = (gains[:, None] * (W_exact.conj().T @ obs[0])).T
        errs = np.linalg.norm(y - exact, axis=-1)
        assert np.mean(errs[-100:]) < 0.2
        assert np.mean(errs[-100:]) < 0.3 * np.mean(errs[:20])

    def test_unit_energy_tracking(self, rng):
        dims = SystemDims(K=2, N=8, L=2, n_r=0)
        X = source_relay_waveforms(dims, rng, amps=np.array([2.0, 0.5]))
        b = modulate_qpsk(rng.integers(0, 2, size=(2, 800, 2)))
        relay = AdaptiveRelay(1, dims.M, dims.K, alpha=0.998, delta=0.01)
        tail = relay.forward((X @ b)[None], b)[-300:, 0]
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

    @pytest.mark.parametrize("symbol", [0, 17, 45])  # 17: in training
    def test_nan_observation_stops_forward_at_its_symbol(self, symbol, rng):
        """forward raises on the symbol whose observation is nan, with the
        steps before it counted, in training and on decisions."""
        dims = SystemDims(K=2, N=8, L=2, n_r=2)
        b, obs, _ = relay_observations(dims, 60, rng)
        obs[1, 3, symbol] = np.nan
        relay = AdaptiveRelay(2, dims.M, dims.K, alpha=0.998, delta=0.01)
        with pytest.raises(NumericalDivergenceError, match="a-priori error"):
            relay.forward(obs, b[:, :20])
        assert relay.count == relay.rx.t == symbol
