"""Acceptance suite: one test per headline behavior of the simulator.

Each test prints a single PASS/FAIL line summarizing the measured quantity
against its threshold, then asserts it, so a bare run of this module doubles
as a readable scorecard.
"""

import numpy as np

from conftest import dense_link_waveforms, scenario_omega
from coopcdma import cli, gpc, mmse
from coopcdma.harness import (ExperimentConfig, capacity_at_target, codes_for,
                              design_exact, draw_scenario, exact_draws,
                              power_blocks,
                              run_experiment, run_user_sweep,
                              simulate_packet_adaptive, simulate_packet_exact,
                              snr_db_to_sigma2, trial_rngs)
from coopcdma.model import modulate_qpsk


def _report(num, name, ok, detail):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _qpsk(rng, *shape):
    return modulate_qpsk(rng.integers(0, 2, size=shape + (2,)))


def _cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestAcceptance:
    def test_1_recursions_match_dense_regularized_solves(self):
        """All three adaptive recursions track their dense normal equations."""
        rng = np.random.default_rng(11)
        K, N, n_r, L = 2, 8, 1, 3
        M, hops = N + L - 1, n_r + 1
        stack = hops * M
        alpha, delta, lam = 0.998, 0.01, 0.025
        worst = 0.0

        # receiver matrix recursion
        rx = gpc.init_receiver(np.zeros((stack, K)), alpha, delta)
        Nm = delta * np.eye(stack, dtype=complex)
        Z = np.zeros((stack, K), dtype=complex)
        for _ in range(200):
            r = _cvec(rng, stack)
            b = _qpsk(rng, K)
            gpc.receiver_update(rx, r, b, rx.W.conj().T @ r)
            Nm = alpha * Nm + np.outer(r, r.conj())
            Z = alpha * Z + np.outer(r, b.conj())
            worst = max(worst, np.abs(rx.W - np.linalg.solve(Nm, Z)).max())

        # constrained power recursion (normal equations, cycled loading,
        # emitted allocation)
        dim = K * hops
        a0 = np.full(dim, 1.0 / np.sqrt(hops))
        pw = gpc.init_power(a0, float(K), alpha, delta, lam=lam, start=0)
        # per-hop filters and link waveforms, and the dense oracle's
        # stack x dim matrix of every link's waveform
        W = _cvec(rng, stack * K).reshape(hops, M, K)
        X = _cvec(rng, stack * K).reshape(hops, M, K)
        U_hat = dense_link_waveforms(X)
        G = (U_hat.conj().T @ W.reshape(stack, K)).conj()
        Na = delta * np.eye(dim, dtype=complex)
        za = delta * a0.astype(complex)
        for t in range(200):
            s = _qpsk(rng, dim)
            b = _qpsk(rng, K)
            gpc.power_update(pw, W, X, s, b)
            Na *= alpha
            za *= alpha
            for k in range(K):
                v = s * G[:, k]
                Na += np.outer(v, v.conj())
                za += v * np.conj(b[k])
            e = np.zeros(dim)
            e[t % dim] = 1.0
            Na += gpc._loading_weight(lam, alpha, dim) * np.outer(e, e)
            worst = max(worst, np.abs(pw.N - Na).max(),
                        np.abs(pw.z - za).max(),
                        np.abs(pw.a - mmse.nonnegative_amplitudes(
                            np.linalg.solve(Na, za), float(K))).max())

        # channel estimator recursion, hop by hop: hop j's rows of r and the
        # K links on hop j, user k's L columns scaled by link k*hops + j
        cdim = K * L
        ch = gpc.init_channel(np.zeros((hops, cdim)), alpha, delta)
        C = _cvec(rng, stack * cdim).reshape(hops, M, cdim)
        Nc = np.array([delta * np.eye(cdim, dtype=complex)] * hops)
        zc = np.zeros((hops, cdim), dtype=complex)
        for _ in range(200):
            s = _qpsk(rng, K * hops)
            amps = 0.4 + rng.random(K * hops)
            r = _cvec(rng, stack)
            gpc.channel_update(ch, r, C, s, amps, L)
            for j in range(hops):
                V = C[j] * np.repeat(s[j::hops] * amps[j::hops], L)[None, :]
                Nc[j] = alpha * Nc[j] + V.conj().T @ V
                zc[j] = alpha * zc[j] + V.conj().T @ r[j * M:(j + 1) * M]
                worst = max(worst, np.abs(ch.normal.N[j] - Nc[j]).max(),
                            np.abs(ch.p[j] - zc[j]).max(),
                            np.abs(ch.h[j] - np.linalg.solve(Nc[j], zc[j])).max())

        _report(1, "recursions vs dense solves", worst <= 1e-8,
                f"max deviation {worst:.3e} <= 1e-8 over 200 steps")

    def test_2_power_budgets_hold_every_update(self):
        """Emitted amplitudes meet their sphere budget at every symbol."""
        cfg = ExperimentConfig(users=2, relays=2, variant="adaptive", seed=1)
        dims = cfg.dims()
        codes = codes_for(cfg, dims.K)
        worst = 0.0
        for scheme, budget in (("jpais-ipc", 1.0), ("jpais-gpc", float(dims.K))):
            rngs = trial_rngs(cfg.seed, 0)
            scn = draw_scenario(dims, codes, snr_db_to_sigma2(12.0),
                                cfg.shadowing_std_db, rngs[0],
                                isi_enabled=cfg.isi)
            res = simulate_packet_adaptive(scn, scheme, cfg, rngs[1], rngs[2],
                                           rngs[3], collect=("a_norm",))
            assert not res.diverged
            norms = res.extras["a_sq_norms"]
            assert norms.size > 0
            worst = max(worst, float(np.abs(norms - budget).max()))
        _report(2, "per-update power budget", worst <= 1e-10,
                f"max |squared norm - budget| {worst:.3e} <= 1e-10 "
                "over full packets, both constraint types")

    def test_3_alternation_beats_equal_power_mse(self):
        """Alternating design never ends above the equal-power MSE."""
        cfg = ExperimentConfig(users=4, relays=2, seed=1)
        dims = cfg.dims()
        codes = codes_for(cfg, dims.K)
        sigma2 = snr_db_to_sigma2(12.0)
        wins, total = 0, 0
        for trial in range(50):
            rngs = trial_rngs(cfg.seed, trial)
            scn = draw_scenario(dims, codes, sigma2, cfg.shadowing_std_db,
                                rngs[0])
            om = scenario_omega(scn)
            for scheme in ("jpais-gpc", "jpais-ipc"):
                users_per_block, lam = power_blocks(scheme, cfg, dims.K)
                res = mmse.alternate(scn.x_dest, sigma2,
                                     dims.K // users_per_block,
                                     cfg.mmse_config(lam), omega=om)
                total += 1
                if res.mse_trace[-1] <= res.mse_trace[0] + 1e-12:
                    wins += 1
        frac = wins / total
        _report(3, "alternation MSE vs equal power", frac >= 0.95,
                f"improved in {wins}/{total} = {frac:.0%} of draws (>= 95%)")

    def test_4_scheme_ordering_at_fixed_snr(self):
        """BER improves NCIS -> CIS -> IPC -> GPC with significant gaps."""
        base = dict(users=4, relays=2, trials=100, snr_grid=(12.0,),
                    variant="exact", seed=1)
        results = {}
        for scheme in ("ncis", "cis", "jpais-ipc", "jpais-gpc"):
            curve = run_experiment(ExperimentConfig(scheme=scheme, **base))
            _, mean, stderr, _ = curve.rows[0]
            results[scheme] = (mean, stderr)
        order = ("jpais-gpc", "jpais-ipc", "cis", "ncis")
        ok = True
        gaps = []
        for better, worse in zip(order, order[1:]):
            mb, sb = results[better]
            mw, sw = results[worse]
            pooled = np.hypot(sb, sw)
            gaps.append((mw - mb) / pooled if pooled > 0 else np.inf)
            ok = ok and mb <= mw and (mw - mb) > pooled
        detail = ", ".join(f"{s}={results[s][0]:.2e}" for s in order)
        _report(4, "scheme BER ordering", ok,
                f"{detail}; gaps {['%.1f' % g for g in gaps]} pooled stderr")

    def test_5_more_relays_reduce_ber(self):
        """Two relays beat one relay at high SNR with a significant gap."""
        base = dict(users=4, trials=100, snr_grid=(15.0,), variant="exact",
                    scheme="jpais-ipc", seed=1)
        rows = {}
        for n_r in (1, 2):
            curve = run_experiment(ExperimentConfig(relays=n_r, **base))
            rows[n_r] = curve.rows[0]
        m1, s1 = rows[1][1], rows[1][2]
        m2, s2 = rows[2][1], rows[2][2]
        pooled = np.hypot(s1, s2)
        ok = m2 < m1 and (m1 - m2) > pooled
        _report(5, "relay-diversity gain", ok,
                f"two relays {m2:.2e} vs one relay {m1:.2e}, "
                f"gap {(m1 - m2) / pooled:.1f} pooled stderr")

    def test_6_adaptive_tracks_exact_steady_state(self):
        """Converged adaptive BER stays within 1.5x of the exact design."""
        cfg = ExperimentConfig(users=2, relays=1, scheme="jpais-ipc", seed=1)
        dims = cfg.dims()
        codes = codes_for(cfg, dims.K)
        sigma2 = snr_db_to_sigma2(0.0)
        tail = slice(1200, 1500)
        errs_exact = errs_adaptive = 0
        for trial in range(25):
            rngs = trial_rngs(cfg.seed, trial)
            scn = draw_scenario(dims, codes, sigma2, cfg.shadowing_std_db,
                                rngs[0])
            design_exact(scn, cfg.scheme, cfg)
            (res,) = simulate_packet_exact([scn], cfg,
                                           exact_draws(dims, rngs[1], rngs[2]))
            errs_exact += int(res.per_symbol_errors[tail].sum())
            rngs = trial_rngs(cfg.seed, trial)
            scn = draw_scenario(dims, codes, sigma2, cfg.shadowing_std_db,
                                rngs[0])
            res = simulate_packet_adaptive(scn, cfg.scheme, cfg, rngs[1],
                                           rngs[2], rngs[3])
            assert not res.diverged
            errs_adaptive += int(res.per_symbol_errors[tail].sum())
        ratio = errs_adaptive / errs_exact
        _report(6, "adaptive vs exact steady-state BER", ratio <= 1.5,
                f"tail-window error ratio {ratio:.3f} <= 1.5 "
                f"({errs_adaptive} vs {errs_exact} bit errors, 25 packets)")

    def test_7_channel_estimation_accuracy(self):
        """The channel estimator converges: exact in the noise-free case,
        and to within 10% relative error under noise and interference."""
        cfg = ExperimentConfig(users=2, relays=1, scheme="jpais-gpc",
                               variant="adaptive", isi=False, seed=1)
        dims = cfg.dims()
        rngs = trial_rngs(cfg.seed, 0)
        scn = draw_scenario(dims, codes_for(cfg, dims.K), 0.0,
                            cfg.shadowing_std_db, rngs[0], isi_enabled=False)
        res = simulate_packet_adaptive(scn, "jpais-gpc", cfg, rngs[1], rngs[2],
                                       rngs[3], collect=("channel_error",))
        err_clean = float(res.extras["channel_error"][199])

        cfg2 = ExperimentConfig(users=4, relays=2, variant="adaptive", seed=1)
        dims2 = cfg2.dims()
        codes2 = codes_for(cfg2, dims2.K)
        sigma2 = snr_db_to_sigma2(15.0)
        errs_noisy = {}
        for scheme in ("jpais-gpc", "jpais-ipc"):
            rngs = trial_rngs(cfg2.seed, 0)
            scn2 = draw_scenario(dims2, codes2, sigma2, cfg2.shadowing_std_db,
                                 rngs[0], isi_enabled=True)
            res2 = simulate_packet_adaptive(scn2, scheme, cfg2, rngs[1],
                                            rngs[2], rngs[3],
                                            collect=("channel_error",))
            errs_noisy[scheme] = float(res2.extras["channel_error"][-1])
        ok = err_clean < 1e-3 and all(e < 0.1 for e in errs_noisy.values())
        _report(7, "channel estimation accuracy", ok,
                f"noise-free error {err_clean:.2e} < 1e-3 after 200 symbols; "
                + ", ".join(f"{s} {e:.3f} < 0.1"
                            for s, e in errs_noisy.items()))

    def test_8_user_capacity_ordering(self):
        """Supported user count at 1% BER grows with smarter allocation."""
        base = dict(relays=2, trials=100, snr_grid=(12.0,), variant="exact",
                    seed=1)
        caps = {}
        bers = {}
        for scheme in ("ncis", "cis", "jpais-ipc"):
            cfg = ExperimentConfig(scheme=scheme, **base)
            curve = run_user_sweep(cfg, [2, 4, 6, 8])
            caps[scheme] = capacity_at_target(curve, 1e-2)
            bers[scheme] = [row[1] for row in curve.rows]

        def rank(c):
            return -1 if c is None else c

        ok = (rank(caps["jpais-ipc"]) >= rank(caps["cis"])
              >= rank(caps["ncis"]))
        _report(8, "user capacity ordering", ok,
                f"capacity at 1e-2: jpais-ipc={caps['jpais-ipc']}, "
                f"cis={caps['cis']}, ncis={caps['ncis']}")

    def test_9_result_files_are_byte_identical(self, tmp_path):
        """Repeated seeded CLI runs write byte-identical CSV files."""
        config = tmp_path / "tiny.cfg"
        config.write_text("users = 2\nchips = 8\npaths = 2\nrelays = 1\n"
                          "packet_len = 300\ntraining_len = 60\ntrials = 2\n"
                          "seed = 3\n")
        blobs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            rc = cli.main(["sweep-snr", "--config", str(config), "--snr", "9",
                           "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
        _report(9, "deterministic result files", ok,
                f"two runs, {len(blobs[0])} bytes each, byte-identical")
