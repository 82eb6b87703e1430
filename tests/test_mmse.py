"""Exact ensemble statistics, constrained power steps, and alternation."""

import warnings

import numpy as np
import pytest

from conftest import dense_link_waveforms, make_link_pieces, poisoned
from coopcdma import harness, mmse
from coopcdma.errors import DegenerateStateError, IllConditionedError
from coopcdma.mmse import (AlternationResult, MmseConfig, _checked_solve,
                           _real_power_solve, alternate, build_statistics,
                           equal_power_amps, filter_step, link_factors,
                           nonnegative_amplitudes, power_terms, relay_omega,
                           total_mse)
from coopcdma.model import SystemDims, modulate_qpsk


def make_stack(dims, rng):
    """Random per-hop waveforms X (hops x M x K), the design's input, and
    their stacked per-link waveform matrix U (stack x K*hops), the chip-space
    oracles' input."""
    X = make_link_pieces(dims, rng)[2]
    return X, dense_link_waveforms(X)


def random_amps(dims, rng):
    return 0.3 + rng.random((dims.K, dims.hops))


DESK_K = harness.ExperimentConfig().users


def receiver_global(stats, floor=0.0):
    """Joint MMSE filters W = R^-1 P_ch solved in the stacked chip space: the
    oracle for the link-coordinate receiver."""
    return _checked_solve(stats.R, stats.P_ch, "receiver covariance", floor)


def receiver(X, sigma2, amps, omega):
    """Joint MMSE filter matrix W = R^-1 P_ch at fixed amplitudes amps (K x
    hops), solved in link coordinates: filter_step on a stack of one, its
    Y mapped to the chip stack through the oracle U."""
    gram, F = link_factors(X[None], omega[None])
    return dense_link_waveforms(X) @ filter_step(gram, F, sigma2,
                                                 amps[None])[0][0]


def relative_error(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def perfect_relay_omega(K, hops):
    """Link-symbol correlation when every relayed symbol is an exact copy of
    its source symbol: each user's links carry one unit-energy symbol and
    users are independent. The perfect-relay oracle for relay_omega and the
    statistics of hand-built waveform stacks."""
    return np.kron(np.eye(K), np.ones((hops, hops)))


def perfect_statistics(U, hops, sigma2, amps):
    """build_statistics under perfect relays."""
    return build_statistics(U, hops, sigma2, amps,
                            perfect_relay_omega(U.shape[1] // hops, hops))


def perfect_mse(U, hops, sigma2, amps, W):
    """total_mse under perfect relays."""
    return total_mse(U, hops, sigma2, amps, W,
                     perfect_relay_omega(U.shape[1] // hops, hops))


def loop_relay_omega(G, S):
    """Entry-by-entry link-symbol correlation from the (n_r, K, K) relay
    stacks G and S, relay by relay: the oracle for relay_omega."""
    n_r, K = G.shape[0], G.shape[-1]
    hops = n_r + 1
    omega = np.zeros((K * hops, K * hops), dtype=complex)

    def idx(q, p):
        return q * hops + p

    for q in range(K):
        for qq in range(K):
            omega[idx(q, 0), idx(qq, 0)] = 1.0 if q == qq else 0.0
            for j in range(n_r):
                omega[idx(q, 0), idx(qq, j + 1)] = np.conj(G[j, qq, q])
                omega[idx(q, j + 1), idx(qq, 0)] = G[j, q, qq]
                for jj in range(n_r):
                    val = G[j, q] @ G[jj, qq].conj()
                    if j == jj:
                        val += S[j, q, qq]
                    omega[idx(q, j + 1), idx(qq, jj + 1)] = val
    return omega


def listed_relay_omega(relay_stats):
    """The link-symbol correlation assembled from a list of per-relay
    (G_j, S_j) pairs: the oracle for the bytes of relay_omega on stacks."""
    K = relay_stats[0][0].shape[0]
    n_r, hops = len(relay_stats), len(relay_stats) + 1
    maps = np.array([np.eye(K)] + [G for G, _ in relay_stats], dtype=complex)
    A = maps.transpose(1, 0, 2).reshape(K * hops, K)
    omega = A @ A.conj().T
    relay_hops = np.arange(1, hops)
    omega.reshape(K, hops, K, hops)[:, relay_hops, :, relay_hops] += np.reshape(
        [S for _, S in relay_stats], (n_r, K, K))
    return omega


def global_power_terms(U, hops, W, omega):
    """One block of all links, assembled term by term: the global-constraint
    oracle for power_terms."""
    K = U.shape[1] // hops
    G = U.conj().T @ W
    R_a = (G @ G.conj().T) * omega.T
    p_a = np.zeros(U.shape[1], dtype=complex)
    for k in range(K):
        p_a += G[:, k] * omega[k * hops, :]
    return R_a[None], p_a[None]


def individual_power_terms(U, hops, amps, W, omega):
    """One block per user, the other users' amplitudes held fixed: the
    individual-constraint oracle for power_terms."""
    cols = U.shape[1]
    K = cols // hops
    a_vec = np.asarray(amps, dtype=complex).reshape(cols)
    G = U.conj().T @ W
    R_a = np.empty((K, hops, hops), dtype=complex)
    p_a = np.empty((K, hops), dtype=complex)
    for k in range(K):
        blk = slice(k * hops, (k + 1) * hops)
        phi = G[:, k]
        u_other = phi.conj() * a_vec
        u_other[blk] = 0.0
        d = omega[:, k * hops] - omega @ u_other.conj()
        R_a[k] = np.outer(phi[blk], phi[blk].conj()) * omega[blk, blk].T
        p_a[k] = phi[blk] * d[blk].conj()
    return R_a, p_a


def random_relay_stats(K, n_r, rng):
    """(n_r, K, K) stacks of random complex G_j and Hermitian positive
    semidefinite S_j."""
    G = (rng.standard_normal((n_r, K, K))
         + 1j * rng.standard_normal((n_r, K, K)))
    F = (rng.standard_normal((n_r, K, K))
         + 1j * rng.standard_normal((n_r, K, K)))
    return G, F @ F.conj().swapaxes(-1, -2)


def desk_design_inputs(snr_db, seed=1):
    """The per-hop waveforms X, their oracle U, hops, sigma^2 and omega of
    trial 0 at the desk configuration."""
    cfg = harness.ExperimentConfig(seed=seed)
    dims = cfg.dims()
    scn = harness.draw_scenario(dims, harness.codes_for(cfg, dims.K),
                                harness.snr_db_to_sigma2(snr_db),
                                cfg.shadowing_std_db,
                                harness.trial_rngs(seed, 0)[0])
    return (scn.x_dest, dense_link_waveforms(scn.x_dest), dims.hops,
            scn.sigma2, harness.scenario_omega(scn))


def one_trial_power_terms(links, amps, omega, blocks):
    """power_terms of a stack of one trial, without the trial axis."""
    R_a, p_a = power_terms(links[None], amps[None], omega[None], blocks)
    return R_a[0], p_a[0]


def desk_power_terms(snr_db, blocks):
    """Power terms (R_a, p_a) of the desk scenario's equal-power filters for
    the given number of user blocks."""
    _, U, hops, sigma2, omega = desk_design_inputs(snr_db)
    K = U.shape[1] // hops
    amps = equal_power_amps(K, hops)
    W = receiver_global(build_statistics(U, hops, sigma2, amps, omega), sigma2)
    return one_trial_power_terms(U.conj().T @ W, amps, omega, blocks)


class TestOmega:
    def test_perfect_structure(self):
        om = perfect_relay_omega(2, 3)
        assert om.shape == (6, 6)
        np.testing.assert_allclose(om[:3, :3], 1.0)
        np.testing.assert_allclose(om[3:, 3:], 1.0)
        np.testing.assert_allclose(om[:3, 3:], 0.0)

    def test_relay_omega_reduces_to_perfect(self):
        """Ideal relays (G = I, S = 0) reproduce the perfect-copy model."""
        K, hops = 2, 3
        G = np.array([np.eye(K, dtype=complex)] * (hops - 1))
        np.testing.assert_allclose(relay_omega(G, np.zeros_like(G)),
                                   perfect_relay_omega(K, hops), atol=1e-14)

    def test_relay_omega_monte_carlo(self, rng):
        """Omega equals the sample correlation of simulated link symbols."""
        K, hops = 2, 2
        G = np.array([[0.95, 0.1 + 0.05j], [0.02j, 0.9]])
        S = 0.05 * np.eye(K) + 0.01 * np.ones((K, K))
        om = relay_omega(G[None], S[None])

        n_mc = 200000
        b = modulate_qpsk(rng.integers(0, 2, size=(n_mc, K, 2))
                          ).reshape(n_mc, K).T
        chol = np.linalg.cholesky(S)
        nu = chol @ ((rng.standard_normal((K, n_mc))
                      + 1j * rng.standard_normal((K, n_mc))) / np.sqrt(2))
        btilde = G @ b + nu
        # link order: user-major, direct hop first
        s = np.stack([b[0], btilde[0], b[1], btilde[1]])
        om_hat = (s @ s.conj().T) / n_mc
        np.testing.assert_allclose(om_hat, om, atol=0.02)

    @pytest.mark.parametrize("K", [1, 3, 4])
    @pytest.mark.parametrize("n_r", [0, 1, 3])
    def test_closed_form_matches_loop(self, K, n_r, rng):
        G, S = random_relay_stats(K, n_r, rng)
        om = relay_omega(G, S)
        ref = loop_relay_omega(G, S)
        # the loop sums each entry's dot product in its own order
        assert np.abs(om - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("K", [1, 3, 4])
    @pytest.mark.parametrize("n_r", [1, 3])
    def test_stacks_have_the_bytes_of_per_relay_pairs(self, K, n_r, rng):
        G, S = random_relay_stats(K, n_r, rng)
        om = relay_omega(G, S)
        assert om.tobytes() == listed_relay_omega(list(zip(G, S))).tobytes()

    @pytest.mark.parametrize("K", [1, 2, 4])
    def test_no_relays_is_perfect(self, K):
        """Without relays the closed form is exactly the perfect-copy model."""
        none = np.zeros((0, K, K), dtype=complex)
        assert np.array_equal(relay_omega(none, none),
                              perfect_relay_omega(K, 1))


class TestStatistics:
    def test_covariance_monte_carlo(self, rng):
        """Closed-form R and P_ch match sample statistics of the frame."""
        dims = SystemDims(K=2, N=8, L=2, n_r=1)
        _, U = make_stack(dims, rng)
        amps = random_amps(dims, rng)
        sigma2 = 0.2
        stats = perfect_statistics(U, dims.hops, sigma2, amps)

        n_mc = 100000
        a_vec = amps.reshape(-1)
        b = modulate_qpsk(rng.integers(0, 2, size=(n_mc, dims.K, 2))
                          ).reshape(n_mc, dims.K).T
        s = np.repeat(b, dims.hops, axis=0)  # perfect relays: copies per link
        noise = np.sqrt(sigma2 / 2) * (
            rng.standard_normal((dims.stack, n_mc))
            + 1j * rng.standard_normal((dims.stack, n_mc)))
        r = (U * a_vec[:, None].T) @ s + noise
        R_hat = (r @ r.conj().T) / n_mc
        scale = np.abs(stats.R).max()
        np.testing.assert_allclose(R_hat, stats.R, atol=0.02 * scale)
        P_hat = (r @ b.conj().T) / n_mc
        np.testing.assert_allclose(P_hat, stats.P_ch, atol=0.02 * scale)

    def test_noise_floor_on_diagonal(self, rng):
        dims = SystemDims(K=1, N=8, L=2, n_r=1)
        _, U = make_stack(dims, rng)
        sigma2 = 0.37
        stats0 = perfect_statistics(U, dims.hops, 0.0, np.ones((1, 2)))
        stats = perfect_statistics(U, dims.hops, sigma2, np.ones((1, 2)))
        np.testing.assert_allclose(stats.R - stats0.R,
                                   sigma2 * np.eye(dims.stack), atol=1e-14)


class TestPowerQuadratics:
    def test_global_quadratic_is_exact(self, rng):
        """For real amplitudes the MSE equals the (R_a, p_a) quadratic form."""
        dims = SystemDims(K=2, N=8, L=2, n_r=2)
        _, U = make_stack(dims, rng)
        sigma2 = 0.15
        amps0 = random_amps(dims, rng)
        omega = perfect_relay_omega(dims.K, dims.hops)
        stats = build_statistics(U, dims.hops, sigma2, amps0, omega)
        W = receiver_global(stats)
        R_a, p_a = one_trial_power_terms(U.conj().T @ W, amps0, omega, 1)
        const = dims.K + sigma2 * np.linalg.norm(W) ** 2
        assert R_a.shape == (1, dims.K * dims.hops, dims.K * dims.hops)
        for _ in range(5):
            a = random_amps(dims, rng).reshape(-1)
            quad = (const + a @ np.real(R_a[0]) @ a
                    - 2.0 * a @ np.real(p_a[0]))
            direct = total_mse(U, dims.hops, sigma2,
                               a.reshape(dims.K, dims.hops), W, omega)
            assert abs(quad - direct) < 1e-10

    def test_individual_quadratic_is_exact(self, rng):
        """Per-user quadratic tracks that user's own MSE as its block moves."""
        dims = SystemDims(K=3, N=8, L=2, n_r=1)
        _, U = make_stack(dims, rng)
        sigma2 = 0.15
        amps0 = random_amps(dims, rng)
        omega = perfect_relay_omega(dims.K, dims.hops)
        stats = build_statistics(U, dims.hops, sigma2, amps0, omega)
        W = receiver_global(stats)
        R_a, p_a = one_trial_power_terms(U.conj().T @ W, amps0, omega, dims.K)
        assert R_a.shape == (dims.K, dims.hops, dims.hops)
        for k in range(dims.K):
            Rk = np.real(R_a[k])
            pk = np.real(p_a[k])

            def quad(ak):
                return ak @ Rk @ ak - 2.0 * ak @ pk

            def user_mse(ak):
                amps = amps0.copy()
                amps[k] = ak
                full = build_statistics(U, dims.hops, sigma2, amps, omega)
                w = W[:, k]
                return float(1.0
                             - 2.0 * np.real(np.vdot(w, full.P_ch[:, k]))
                             + np.real(np.vdot(w, full.R @ w)))

            a1 = 0.3 + rng.random(dims.hops)
            a2 = 0.3 + rng.random(dims.hops)
            assert abs((quad(a1) - quad(a2))
                       - (user_mse(a1) - user_mse(a2))) < 1e-10

    def test_unconstrained_global_step_is_regularized_minimum(self, rng):
        """The λ-regularized power solve beats nearby real vectors."""
        dims = SystemDims(K=2, N=8, L=2, n_r=1)
        _, U = make_stack(dims, rng)
        sigma2 = 0.15
        amps0 = random_amps(dims, rng)
        omega = perfect_relay_omega(dims.K, dims.hops)
        stats = build_statistics(U, dims.hops, sigma2, amps0, omega)
        W = receiver_global(stats)
        R_a, p_a = one_trial_power_terms(U.conj().T @ W, amps0, omega, 1)
        lam = 0.025
        Rr = np.real(R_a[0]) + lam * np.eye(dims.K * dims.hops)
        pr = np.real(p_a[0])
        a_star = np.linalg.solve(Rr, pr)
        # stationarity residual of the regularized normal equations
        assert np.linalg.norm(Rr @ a_star - pr) < 1e-10

        def cost(a):
            return a @ Rr @ a - 2.0 * a @ pr

        for _ in range(10):
            pert = 0.05 * rng.standard_normal(a_star.shape)
            assert cost(a_star + pert) >= cost(a_star) - 1e-12


    @pytest.mark.parametrize("snr_db", [0.0, 18.0])
    def test_block_terms_match_oracles(self, snr_db):
        """One block reproduces the global assembly and K blocks the
        per-user one, away from equal power so the fixed other-block
        amplitudes matter."""
        _, U, hops, sigma2, omega = desk_design_inputs(snr_db)
        K = U.shape[1] // hops
        amps = 0.3 + np.random.default_rng(5).random((K, hops))
        W = receiver_global(build_statistics(U, hops, sigma2, amps,
                                             omega=omega), sigma2)
        for blocks, (R_ref, p_ref) in (
                (1, global_power_terms(U, hops, W, omega)),
                (K, individual_power_terms(U, hops, amps, W, omega))):
            R_a, p_a = one_trial_power_terms(U.conj().T @ W, amps, omega, blocks)
            assert R_a.shape == R_ref.shape
            assert p_a.shape == p_ref.shape
            assert np.abs(R_a - R_ref).max() <= 1e-14 * np.abs(R_ref).max()
            assert np.abs(p_a - p_ref).max() <= 1e-14 * np.abs(p_ref).max()


class TestProjections:
    def test_sphere_zero_raises(self):
        with pytest.raises(DegenerateStateError):
            nonnegative_amplitudes(np.zeros(3), 1.0)

    def test_nonnegative_real_output(self, rng):
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        proj = nonnegative_amplitudes(a, 2.0)
        assert np.isrealobj(proj) or np.all(np.imag(proj) == 0)
        assert np.all(proj >= 0)
        assert abs(np.linalg.norm(proj) ** 2 - 2.0) < 1e-12

    def test_all_negative_falls_back_to_magnitudes(self):
        a = np.array([-0.6, -0.8])
        proj = nonnegative_amplitudes(a, 1.0)
        np.testing.assert_allclose(proj, [0.6, 0.8], atol=1e-12)

    @staticmethod
    def per_block_projection(a, budget):
        """The block-by-block projection, with np.linalg.norm per block."""
        out = []
        for a_b in a:
            a_r = np.clip(np.real(a_b), 0.0, None)
            if np.linalg.norm(a_r) == 0.0:
                a_r = np.abs(a_b)
            out.append(a_r * (np.sqrt(budget) / np.linalg.norm(a_r)))
        return np.array(out)

    def test_stacked_projection_matches_per_block_loop(self, rng):
        """Only the all-negative block falls back to its magnitudes; the
        others clip their negative entries."""
        a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        a.real[1] = -np.abs(a.real[1]) - 0.1  # all negative
        a.real[:, 0] = np.where(np.arange(5) == 1, a.real[:, 0],
                                -np.abs(a.real[:, 0]))  # clipped entries
        a.real[:, 1] = np.where(np.arange(5) == 1, a.real[:, 1],
                                np.abs(a.real[:, 1]) + 0.1)
        stacked = nonnegative_amplitudes(a, 3.0)
        expected = self.per_block_projection(a, 3.0)
        np.testing.assert_allclose(stacked, expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(stacked[1], np.abs(a[1]) * np.sqrt(3.0)
                                   / np.linalg.norm(a[1]), atol=1e-15)
        assert np.all(stacked[[0, 2, 3, 4], 0] == 0.0)
        np.testing.assert_allclose(np.sum(stacked ** 2, axis=-1), 3.0,
                                   rtol=1e-14)

    def test_zero_block_in_a_stack_raises(self, rng):
        a = rng.standard_normal((3, 4))
        a[2] = 0.0
        with pytest.raises(DegenerateStateError):
            nonnegative_amplitudes(a, 1.0)

    def test_identity_covariance_follows_cross_correlation(self):
        """With R_a = I and λ = 0 the power step is the projected p_a."""
        p = np.array([0.9, 0.1, 0.4, 0.2])
        a = nonnegative_amplitudes(
            _real_power_solve(np.eye(4)[None], p.astype(complex)[None], 0.0),
            2.0)
        np.testing.assert_allclose(a, [p * np.sqrt(2.0) / np.linalg.norm(p)],
                                   atol=1e-12)


class TestAlternation:
    def test_single_user_matches_grid_search(self, rng):
        """K=1 two-hop allocation matches a dense search over the sphere."""
        dims = SystemDims(K=1, N=8, L=2, n_r=1)
        X, U = make_stack(dims, rng)
        sigma2 = 0.3
        cfg = MmseConfig(lam=1e-6, max_iters=200, tol=1e-10)
        res = alternate(X, sigma2, 1, cfg,
                        perfect_relay_omega(1, dims.hops))

        best = np.inf
        for theta in np.linspace(0.0, np.pi / 2, 4001):
            amps = np.array([[np.cos(theta), np.sin(theta)]])
            stats = perfect_statistics(U, dims.hops, sigma2, amps)
            W = receiver_global(stats)
            best = min(best, perfect_mse(U, dims.hops, sigma2, amps, W))
        assert res.mse_trace[-1] <= best + 1e-6

    def test_trace_starts_at_equal_power(self, rng):
        dims = SystemDims(K=2, N=8, L=2, n_r=1)
        X, U = make_stack(dims, rng)
        sigma2 = 0.2
        cfg = MmseConfig()
        res = alternate(X, sigma2, 1, cfg,
                        perfect_relay_omega(2, dims.hops))
        amps_eq = equal_power_amps(2, dims.hops)
        stats = perfect_statistics(U, dims.hops, sigma2, amps_eq)
        W_eq = receiver_global(stats)
        mse_eq = perfect_mse(U, dims.hops, sigma2, amps_eq, W_eq)
        assert abs(res.mse_trace[0] - mse_eq) < 1e-12

    def test_trace_does_not_end_above_start(self, rng):
        for blocks in (1, 3):
            for trial in range(5):
                local = np.random.default_rng(100 + trial)
                dims = SystemDims(K=3, N=8, L=2, n_r=1)
                X, _ = make_stack(dims, local)
                res = alternate(X, 0.2, blocks, MmseConfig(),
                                perfect_relay_omega(3, dims.hops))
                assert res.mse_trace[-1] <= res.mse_trace[0] + 1e-9

    def test_budgets_respected(self, rng):
        """Every user's budget is 1: each user's power is 1 under individual
        constraints, and the total is K under the global one."""
        dims = SystemDims(K=2, N=8, L=2, n_r=2)
        X, _ = make_stack(dims, rng)
        omega = perfect_relay_omega(dims.K, dims.hops)
        res = alternate(X, 0.2, dims.K, MmseConfig(), omega)
        np.testing.assert_allclose(np.sum(res.amps ** 2, axis=1), 1.0,
                                   atol=1e-10)
        res = alternate(X, 0.2, 1, MmseConfig(), omega)
        assert abs(np.sum(res.amps ** 2) - dims.K) < 1e-10

    @pytest.mark.parametrize("blocks", [0, 2])
    def test_blocks_must_split_users_evenly(self, blocks, rng):
        dims = SystemDims(K=3, N=8, L=2, n_r=1)
        X, _ = make_stack(dims, rng)
        with pytest.raises(ValueError, match="split"):
            alternate(X, 0.2, blocks, MmseConfig(),
                      perfect_relay_omega(3, dims.hops))

    def test_result_shape_and_flags(self, rng):
        dims = SystemDims(K=2, N=8, L=2, n_r=1)
        X, _ = make_stack(dims, rng)
        res = alternate(X, 0.2, 1, MmseConfig(),
                        perfect_relay_omega(2, dims.hops))
        assert isinstance(res, AlternationResult)
        assert res.W.shape == (dims.stack, 2)
        assert res.amps.shape == (2, dims.hops)
        assert res.iterations >= 1


class TestReceivers:
    def test_wiener_normal_equations(self, rng):
        dims = SystemDims(K=2, N=8, L=2, n_r=1)
        X, U = make_stack(dims, rng)
        amps = random_amps(dims, rng)
        stats = perfect_statistics(U, dims.hops, 0.2, amps)
        W = receiver(X, 0.2, amps,
                     perfect_relay_omega(dims.K, dims.hops))
        np.testing.assert_allclose(stats.R @ W, stats.P_ch, atol=1e-10)


class TestLinkCoordinates:
    """The link-coordinate design against the stacked chip-space solve."""

    @pytest.mark.parametrize("snr_db", [0.0, 18.0])
    def test_receiver_matches_stacked_solve(self, snr_db):
        X, U, hops, sigma2, omega = desk_design_inputs(snr_db)
        K = U.shape[1] // hops
        amps = 0.3 + np.random.default_rng(7).random((K, hops))
        ref = receiver_global(build_statistics(U, hops, sigma2, amps, omega),
                              sigma2)
        assert relative_error(receiver(X, sigma2, amps, omega),
                              ref) <= 1e-12

    def test_singular_omega_receiver_matches_stacked_solve(self, rng):
        """Perfect relays make omega singular: its factor has zero columns."""
        dims = SystemDims(K=3, N=8, L=2, n_r=2)
        X, U = make_stack(dims, rng)
        amps = random_amps(dims, rng)
        omega = perfect_relay_omega(dims.K, dims.hops)
        assert np.linalg.matrix_rank(omega) == dims.K
        ref = receiver_global(perfect_statistics(U, dims.hops, 0.2, amps))
        assert relative_error(receiver(X, 0.2, amps, omega),
                              ref) <= 1e-12

    @pytest.mark.parametrize("mode", ["gpc", "ipc"])
    @pytest.mark.parametrize("snr_db", [0.0, 18.0])
    def test_alternation_filters_match_stacked_solve(self, mode, snr_db):
        """The designed W is the stacked MMSE solve at the designed
        amplitudes, for one global block and for K individual ones."""
        X, U, hops, sigma2, omega = desk_design_inputs(snr_db)
        K = U.shape[1] // hops
        res = alternate(X, sigma2, 1 if mode == "gpc" else K,
                        MmseConfig(), omega)
        ref = receiver_global(build_statistics(U, hops, sigma2, res.amps,
                                               omega), sigma2)
        assert relative_error(res.W, ref) <= 1e-12

    @pytest.mark.parametrize("scheme", ["ncis", "cis"])
    def test_equal_power_design_matches_stacked_solve(self, scheme):
        cfg = harness.ExperimentConfig(scheme=scheme)
        dims = cfg.dims()
        scn = harness.draw_scenario(dims, harness.codes_for(cfg, dims.K),
                                    harness.snr_db_to_sigma2(6.0),
                                    cfg.shadowing_std_db,
                                    harness.trial_rngs(1, 0)[0])
        W, amps = harness.design_exact(scn, scheme, cfg)
        stats = build_statistics(dense_link_waveforms(scn.x_dest), dims.hops,
                                 scn.sigma2, amps,
                                 harness.scenario_omega(scn))
        assert relative_error(W, receiver_global(stats, scn.sigma2)) <= 1e-12

    @pytest.mark.parametrize("mode", ["gpc", "ipc"])
    def test_traced_mse_is_the_stacked_mse(self, mode):
        """Every traced entry is the MSE of that iteration's filters: the
        alternation cut after n iterations ends at the nth entry's design."""
        X, _, _, sigma2, omega = desk_design_inputs(6.0)
        K = X.shape[-1]
        blocks = 1 if mode == "gpc" else K
        full = alternate(X, sigma2, blocks, MmseConfig(), omega)
        for n in (1, 3):
            cut = alternate(X, sigma2, blocks, MmseConfig(max_iters=n), omega)
            assert abs(full.mse_trace[n] - cut.mse_trace[-1]) <= 1e-12


class TestCertifiedSolve:
    """The eigenvalue-floor shortcut returns the bits of the cond path."""

    @pytest.mark.parametrize("snr_db", [0.0, 18.0])
    def test_receiver_solve_matches_cond_path(self, snr_db, monkeypatch):
        _, U, hops, sigma2, omega = desk_design_inputs(snr_db)
        K = U.shape[1] // hops
        stats = build_statistics(U, hops, sigma2,
                                 equal_power_amps(K, hops),
                                 omega=omega)
        slow = _checked_solve(stats.R, stats.P_ch, "receiver covariance")

        def no_svd(*args, **kwargs):
            raise AssertionError("certified solve ran the SVD")

        monkeypatch.setattr(mmse.np.linalg, "cond", no_svd)
        fast = _checked_solve(stats.R, stats.P_ch, "receiver covariance", sigma2)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("snr_db", [0.0, 18.0])
    def test_power_solve_matches_cond_path(self, snr_db):
        R_a, p_a = desk_power_terms(snr_db, 1)
        lam = 0.025
        Rr = np.real(R_a[0]) + lam * np.eye(R_a.shape[1])
        slow = _checked_solve(Rr, np.real(p_a[0]), "power covariance")
        assert np.array_equal(_real_power_solve(R_a[0], p_a[0], lam), slow)
        assert np.array_equal(_real_power_solve(R_a, p_a, lam), slow[None])

    @pytest.mark.parametrize("snr_db", [0.0, 18.0])
    def test_stacked_ipc_solve_matches_per_block(self, snr_db):
        R_a, p_a = desk_power_terms(snr_db, DESK_K)
        lam = 0.025
        stacked = _real_power_solve(R_a, p_a, lam)
        per_block = np.stack([_real_power_solve(R_k, p_k, lam) for R_k, p_k
                              in zip(R_a, p_a)])
        assert np.array_equal(stacked, per_block)
        assert np.array_equal(nonnegative_amplitudes(stacked, 1.0), np.stack(
            [nonnegative_amplitudes(a_k, 1.0) for a_k in per_block]))

    def test_floor_too_small_to_certify_takes_cond_path(self, rng):
        A = rng.standard_normal((6, 6))
        R = A @ A.T + np.eye(6)
        rhs = rng.standard_normal(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _checked_solve(R, rhs, "test", floor=1e-300)
        assert np.array_equal(x, np.linalg.solve(R, rhs))

    def test_singular_block_falls_back_alone(self):
        """Only the singular block of a stack is solved by pseudoinverse."""
        R = np.stack([np.diag([2.0, 4.0]), np.zeros((2, 2)), np.eye(2)])
        rhs = np.array([[2.0, 4.0], [1.0, 1.0], [3.0, 5.0]])
        with pytest.warns(RuntimeWarning, match="pseudoinverse") as caught:
            x = _checked_solve(R, rhs, "stacked")
        assert len(caught) == 1
        assert np.array_equal(x, [[1.0, 1.0], [0.0, 0.0], [3.0, 5.0]])

    @pytest.mark.parametrize("singular", ["certified", "uncertified"])
    def test_one_singular_matrix_of_a_stack_falls_back_alone(
            self, singular, rng, monkeypatch):
        """With matrix right-hand sides, a singular matrix of a stack goes to
        the SVD path and the pseudoinverse alone, with one warning, whether
        its bound certified it (LU then fails) or not; the others keep their
        LU solutions byte for byte."""
        A = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
        R = A @ A.conj().swapaxes(-1, -2) + np.eye(5)
        R[2] = 0.0 if singular == "certified" else 1e13 * np.ones((5, 5))
        rhs = rng.standard_normal((4, 5, 3)) + 0j
        real, svd_path = mmse._cond_solve, []

        def counted(R_i, rhs_i, what):
            svd_path.append(R_i)
            return real(R_i, rhs_i, what)

        monkeypatch.setattr(mmse, "_cond_solve", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = _checked_solve(R, rhs, "stacked", 1.0)
        assert [str(w.message).split(":")[0] for w in caught] == ["stacked"]
        assert len(svd_path) == 1 and np.array_equal(svd_path[0], R[2])
        for i in (0, 1, 3):
            assert np.array_equal(x[i], np.linalg.solve(R[i], rhs[i]))
        np.testing.assert_allclose(x[2], np.linalg.pinv(R[2]) @ rhs[2])

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_certified_solve_has_the_bytes_of_numpy_solve(self, dtype,
                                                          columns, rng):
        """A certified stack goes to np.linalg.solve's LAPACK gufunc
        directly, with its bytes and dtype, for real and complex stacks and
        for vector and matrix right-hand sides; the real stack keeps the
        real loop."""
        A = rng.standard_normal((4, 6, 6)).astype(dtype)
        if dtype is np.complex128:
            A += 1j * rng.standard_normal((4, 6, 6))
        R = A @ A.conj().swapaxes(-1, -2) + np.eye(6)
        rhs = rng.standard_normal((4, 6) if columns is None
                                  else (4, 6, columns)).astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _checked_solve(R, rhs, "test", floor=1.0)
        want = (np.linalg.solve(R, rhs[..., None])[..., 0] if columns is None
                else np.linalg.solve(R, rhs))
        assert x.shape == rhs.shape and x.dtype == want.dtype == dtype
        assert x.tobytes() == want.tobytes()

    def test_a_zero_floor_takes_only_its_matrix_to_the_svd_path(
            self, monkeypatch, rng):
        """With one floor per matrix, the matrix whose floor is 0 alone goes
        down the SVD path; the others are certified by their own floors, and
        every matrix's solution has the bytes of a call with its floor
        alone."""
        A = (rng.standard_normal((3, 5, 5))
             + 1j * rng.standard_normal((3, 5, 5)))
        R = A @ A.conj().swapaxes(-1, -2) + np.eye(5)
        rhs = rng.standard_normal((3, 5, 2)) + 0j
        floors = np.array([1.0, 0.0, 1.0])
        real, svd_path = mmse._cond_solve, []

        def counted(R_i, rhs_i, what):
            svd_path.append(R_i)
            return real(R_i, rhs_i, what)

        monkeypatch.setattr(mmse, "_cond_solve", counted)
        x = _checked_solve(R, rhs, "test", floors)
        assert len(svd_path) == 1 and np.array_equal(svd_path[0], R[1])
        for i, floor in enumerate(floors.tolist()):
            assert x[i].tobytes() == _checked_solve(R[i], rhs[i], "test",
                                                    floor).tobytes()
        assert len(svd_path) == 2

    def test_certified_singular_matrix_takes_the_svd_path(self, monkeypatch):
        """Zeros pass the floor's bound, so LU runs and fails on them; the
        matrix then goes to the SVD path once, and to the pseudoinverse with
        exactly one warning."""
        real, svd_path = mmse._cond_solve, []

        def counted(R_i, rhs_i, what):
            svd_path.append(R_i)
            return real(R_i, rhs_i, what)

        monkeypatch.setattr(mmse, "_cond_solve", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = _checked_solve(np.zeros((3, 3)), np.ones(3), "singular", 1.0)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "pseudoinverse" in str(caught[0].message)
        assert len(svd_path) == 1
        assert np.array_equal(x, np.zeros(3))

    def test_singular_matrix_with_floor_still_falls_back(self):
        """A floor the matrix breaks cannot hide it: LU fails, pinv runs."""
        with pytest.warns(RuntimeWarning, match="pseudoinverse"):
            x = _checked_solve(np.zeros((3, 3)), np.ones(3), "singular", 1.0)
        assert np.array_equal(x, np.zeros(3))

    @pytest.mark.parametrize("rhs_shape", [(0, 4), (0, 4, 2)])
    def test_empty_stack_solves_to_nothing(self, rhs_shape):
        """A stack of no matrices, as the relay bank of no relays passes,
        solves to an empty x of the right-hand sides' shape."""
        x = _checked_solve(np.zeros((0, 4, 4)),
                           np.zeros(rhs_shape, dtype=complex), "empty", 1.0)
        assert x.shape == rhs_shape and x.dtype == complex

    def test_noise_free_alternation_still_warns(self, rng):
        dims = SystemDims(K=2, N=8, L=2, n_r=1)
        X, _ = make_stack(dims, rng)
        with pytest.warns(RuntimeWarning, match="pseudoinverse"):
            alternate(X, 0.0, 1, MmseConfig(max_iters=2),
                      perfect_relay_omega(2, dims.hops))

    @pytest.mark.parametrize("mode", ["gpc", "ipc"])
    @pytest.mark.parametrize("snr_db", [0.0, 18.0])
    def test_trace_ends_at_the_design_mse(self, mode, snr_db):
        """The trace ends at the closed-form MSE of the design's final
        filter step, bit for bit, which is the chip-space total_mse of the
        returned design to rounding."""
        X, U, hops, sigma2, omega = desk_design_inputs(snr_db)
        K = U.shape[1] // hops
        blocks = 1 if mode == "gpc" else K
        res = alternate(X, sigma2, blocks, MmseConfig(), omega=omega)
        lone = mmse.design(X[None], sigma2, blocks, MmseConfig(), omega[None])
        assert res.mse_trace[-1] == lone.mse[0]
        direct = total_mse(U, hops, sigma2, res.amps, res.W, omega=omega)
        assert abs(res.mse_trace[-1] - direct) <= 1e-12 * abs(direct)


def point_scenarios(seed, snr_db, trials=8, **config):
    """The desk scenarios of trials 0, ..., trials - 1 of one SNR point,
    with config's fields changed from the desk configuration's."""
    cfg = harness.ExperimentConfig(seed=seed, **config)
    dims = cfg.dims()
    return [harness.draw_scenario(dims, harness.codes_for(cfg, dims.K),
                                  harness.snr_db_to_sigma2(snr_db),
                                  cfg.shadowing_std_db,
                                  harness.trial_rngs(seed, t)[0])
            for t in range(trials)]


class TestHopStack:
    """The design works on each trial's per-hop waveforms X; the chip-stack
    matrix U of the same links (dense_link_waveforms) is its oracle."""

    @pytest.mark.parametrize("relays", [0, 2])
    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_gram_and_filters_have_the_bytes_of_the_stack(self, seed, scheme,
                                                          relays):
        """link_factors' Gram matrices are U^H U and design's filters are U Y
        of its final filter step, byte for byte, with that step's MSE."""
        cfg = harness.ExperimentConfig(scheme=scheme, seed=seed, relays=relays)
        scns = point_scenarios(seed, 6.0, trials=4, scheme=scheme,
                               relays=relays)
        X = np.stack([scn.x_dest for scn in scns])
        U = np.stack([dense_link_waveforms(x) for x in X])
        omega = np.stack([harness.scenario_omega(scn) for scn in scns])
        gram, F = link_factors(X, omega)
        assert gram.tobytes() == (U.conj().swapaxes(-1, -2) @ U).tobytes()
        K, sigma2 = X.shape[-1], scns[0].sigma2
        plan = harness.power_blocks(scheme, cfg, K)
        blocks, config = ((None, None) if plan is None else
                          (K // plan[0], cfg.mmse_config(plan[1])))
        res = mmse.design(X, sigma2, blocks, config, omega)
        Y, mse = filter_step(gram, F, sigma2, res.amps)
        assert res.W.shape == (len(scns), scns[0].dims.stack, K)
        assert res.W.tobytes() == (U @ Y).tobytes()
        assert res.mse.tobytes() == mse.tobytes()


class TestStackedDesign:
    @pytest.mark.parametrize("scheme", ["cis", "jpais-gpc", "jpais-ipc"])
    @pytest.mark.parametrize("snr_db", [0.0, 18.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stack_matches_each_trial_alone(self, seed, snr_db, scheme):
        """Designing a point's 8 trials as one stack gives each trial the
        design it gets alone: the same filters and amplitudes, byte for byte,
        and the same iterations, convergence flag, traced MSEs and final MSE
        as the stack of one, mmse.alternate, and mmse.design on the trial
        alone."""
        cfg = harness.ExperimentConfig(scheme=scheme, seed=seed)
        scns = point_scenarios(seed, snr_db)
        dims, sigma2 = scns[0].dims, scns[0].sigma2
        point = harness.PointDesigns(scns)
        omegas = [harness.scenario_omega(scn) for scn in scns]
        plan = harness.power_blocks(scheme, cfg, dims.K)
        blocks, config = ((None, None) if plan is None else
                          (dims.K // plan[0], cfg.mmse_config(plan[1])))
        stacked = mmse.design(np.stack([scn.x_dest for scn in scns]), sigma2,
                              blocks, config, np.stack(omegas))
        for t, (scn, omega) in enumerate(zip(scns, omegas)):
            W, amps = point.design(scn, scheme, cfg)
            W_alone, amps_alone = harness.design_exact(scn, scheme, cfg)
            assert W.tobytes() == W_alone.tobytes()
            assert amps.dtype == amps_alone.dtype
            assert amps.tobytes() == amps_alone.tobytes()
            lone = mmse.design(scn.x_dest[None], sigma2, blocks, config,
                               omega[None])
            assert stacked.mse[t].tobytes() == lone.mse[0].tobytes()
            if plan is None:
                assert stacked.iterations[t] == 0
                continue
            alone = alternate(scn.x_dest, sigma2, blocks, config, omega)
            assert stacked.W[t].tobytes() == alone.W.tobytes()
            assert stacked.amps[t].tobytes() == alone.amps.tobytes()
            assert ((stacked.iterations[t], stacked.converged[t])
                    == (alone.iterations, alone.converged))
            n = alone.iterations
            assert np.array_equal(stacked.mse_trace[t, :n],
                                  alone.mse_trace[:-1])
            assert np.isnan(stacked.mse_trace[t, n:]).all()
            assert stacked.mse[t] == alone.mse_trace[-1]

    @pytest.mark.parametrize("scheme", ["cis", "jpais-gpc", "jpais-ipc"])
    def test_per_trial_noise_levels_have_the_bytes_of_scalar_calls(
            self, scheme):
        """A stack of trials at four noise levels, sigma2 of shape (T,),
        gives each trial the design of mmse.design on it alone at its scalar
        noise level: filters, amplitudes, MSE, traced MSEs, iterations and
        convergence, byte for byte."""
        cfg = harness.ExperimentConfig(scheme=scheme, seed=2)
        scns = [scn for snr_db in (0.0, 18.0, 6.0, 12.0)
                for scn in point_scenarios(2, snr_db, trials=2)]
        X = np.stack([scn.x_dest for scn in scns])
        omega = np.stack([harness.scenario_omega(scn) for scn in scns])
        sigma2 = np.array([scn.sigma2 for scn in scns])
        plan = harness.power_blocks(scheme, cfg, DESK_K)
        blocks, config = ((None, None) if plan is None else
                          (DESK_K // plan[0], cfg.mmse_config(plan[1])))
        res = mmse.design(X, sigma2, blocks, config, omega)
        assert len(set(sigma2.tolist())) == 4
        for t, scn in enumerate(scns):
            lone = mmse.design(X[t:t + 1], scn.sigma2, blocks, config,
                               omega[t:t + 1])
            for got, want in ((res.W[t], lone.W[0]),
                              (res.amps[t], lone.amps[0]),
                              (res.mse[t], lone.mse[0])):
                assert got.tobytes() == want.tobytes()
            n = lone.iterations[0]
            assert ((res.iterations[t], res.converged[t])
                    == (n, lone.converged[0]))
            assert (res.mse_trace[t, :n].tobytes()
                    == lone.mse_trace[0, :n].tobytes())
            assert np.isnan(res.mse_trace[t, n:]).all()

    @pytest.mark.parametrize("poison", ["nan X", "zero X"])
    @pytest.mark.parametrize("blocks", [1, DESK_K])
    def test_failed_trial_raises_for_the_stack(self, poison, blocks):
        """A trial whose design raises (non-finite waveforms at the link
        factors, a zero-norm power solution at the projection) raises its
        error for the whole stack's mmse.design call, and alone through
        alternate; harness._design_stack keeps the other trials
        (test_harness.py::TestDesignStackBisection)."""
        scns = point_scenarios(1, 6.0, trials=4)
        X = np.stack([scn.x_dest for scn in scns])
        omega = np.stack([harness.scenario_omega(scn) for scn in scns])
        sigma2 = scns[0].sigma2
        X[2] = (poisoned(X[2], np.nan, np.random.default_rng(0))
                if poison == "nan X" else 0.0)
        error, match = ((IllConditionedError, "non-finite entries")
                        if poison == "nan X" else
                        (DegenerateStateError, "zero-norm amplitude"))
        with pytest.raises(error, match=match):
            mmse.design(X, sigma2, blocks, MmseConfig(), omega)
        with pytest.raises(error, match=match):
            alternate(X[2], sigma2, blocks, MmseConfig(), omega[2])


class TestStackedDesignSteps:
    @pytest.mark.parametrize("trials", [0, 1, 8])
    def test_stopping_test_has_the_bytes_of_per_trial_norms(self, rng,
                                                            trials):
        """The batched relative amplitude change of the stopping test is,
        byte for byte, each trial's np.linalg.norm ratio, on an empty stack
        too; a zero previous allocation divides by the 1e-30 floor."""
        a_old = rng.random((trials, 4, 3))
        a_new = a_old + 1e-7 * rng.standard_normal((trials, 4, 3))
        if trials:
            a_old[-1] = 0.0
        want = np.array([np.linalg.norm(a_new[t] - a_old[t])
                         / max(np.linalg.norm(a_old[t]), 1e-30)
                         for t in range(trials)], dtype=float)
        got = mmse._relative_change(a_new, a_old)
        assert got.shape == (trials,)
        assert got.tobytes() == want.tobytes()

    def test_trace_holds_the_iterations_run(self):
        """The MSE trace has one column per iteration run, however large
        max_iters is."""
        scns = point_scenarios(1, 6.0, trials=2)
        res = mmse.design(np.stack([scn.x_dest for scn in scns]),
                          scns[0].sigma2, 1, MmseConfig(max_iters=10**6),
                          np.stack([harness.scenario_omega(scn)
                                    for scn in scns]))
        assert res.converged.all()
        assert res.mse_trace.shape == (2, res.iterations.max())
        for t in range(2):
            n = res.iterations[t]
            assert np.isfinite(res.mse_trace[t, :n]).all()
            assert np.isnan(res.mse_trace[t, n:]).all()


class TestConfigValidation:
    def test_rejects_negative_regularization(self):
        with pytest.raises(ValueError):
            MmseConfig(lam=-0.1)

    def test_rejects_bad_iteration_controls(self):
        with pytest.raises(ValueError):
            MmseConfig(max_iters=0)
        with pytest.raises(ValueError):
            MmseConfig(tol=0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("array", ["solve R", "solve rhs", "stacked solve R",
                                   "X", "omega", "statistics U"])
def test_one_nonfinite_entry_in_a_checked_array_raises(array, value, rng):
    """Each mmse finite check (_checked_solve, link_factors,
    build_statistics) raises IllConditionedError on one nan or infinite
    entry of each array it checks."""
    dims = SystemDims(K=2, N=4, L=2, n_r=1)
    X, U = make_stack(dims, rng)
    omega = perfect_relay_omega(dims.K, dims.hops)
    R = np.eye(3) + 0.1 * np.ones((3, 3))
    calls = {
        "solve R": lambda: _checked_solve(poisoned(R, value, rng),
                                          np.ones(3), "x", 0.5),
        "solve rhs": lambda: _checked_solve(
            R, poisoned(np.ones(3), value, rng), "x", 0.5),
        "stacked solve R": lambda: _checked_solve(
            poisoned(np.stack([R, R]), value, rng), np.ones((2, 3)), "x", 0.5),
        "X": lambda: link_factors(poisoned(X, value, rng)[None], omega[None]),
        "omega": lambda: link_factors(X[None],
                                      poisoned(omega, value, rng)[None]),
        "statistics U": lambda: build_statistics(
            poisoned(U, value, rng), dims.hops, 0.1, random_amps(dims, rng),
            omega),
    }
    with pytest.raises(IllConditionedError, match="non-finite entries"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            calls[array]()
