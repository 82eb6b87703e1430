"""Fast self-checks behind the `validate` CLI subcommand.

A trimmed-down version of the property suite: algebraic identities, RLS
recursion-versus-dense-solution equivalence, constraint exactness, and
determinism, each sized to run in seconds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import gpc, harness, model


def _check_convolution():
    rng = np.random.default_rng(7)
    code = model.draw_spreading_codes(1, 8, rng)[0]
    D = model.build_convolution_matrix(code, 3)
    ok = D.shape == (10, 3)
    for r in range(10):
        for c in range(3):
            want = code[r - c] if 0 <= r - c < 8 else 0.0
            ok = ok and abs(D[r, c] - want) < 1e-15
    return ok, "entry (r,c) = d(r-c) on the band, 0 elsewhere"


def _check_qpsk():
    bits = np.array([[i, j] for i in (0, 1) for j in (0, 1)])
    sym = model.modulate_qpsk(bits)
    back = model.demodulate_qpsk(sym)
    ok = np.array_equal(back, bits) and np.allclose(np.abs(sym), 1.0)
    return ok, "Gray round-trip, unit energy"


def _check_superposition():
    rng = np.random.default_rng(11)
    N, L, K, cols = 8, 2, 2, 5
    codes = model.draw_spreading_codes(K, N, rng)
    X = np.stack([model.build_convolution_matrix(codes[k], L)
                  @ model.generate_multipath_channel(L, rng) for k in range(K)],
                 axis=1)
    S = np.zeros((K, cols + 2), dtype=complex)
    S[:, 1:-1] = model.modulate_qpsk(rng.integers(0, 2, (K, cols, 2)))
    a = np.array([[0.8], [0.6]])
    both = np.zeros((N + L - 1, cols), dtype=complex)
    model.add_hop_frames(both, X, S, a, L - 1)
    single = np.zeros_like(both)
    for k in range(K):
        model.add_hop_frames(single, X[:, k:k + 1], S[k:k + 1], a[k:k + 1], L - 1)
    ok = np.allclose(both, single, atol=1e-12)
    return ok, "frame is additive in users"


def _check_rls_oracle():
    rng = np.random.default_rng(3)
    dim, alpha, delta = 6, 0.99, 0.01
    Phi = np.eye(dim, dtype=complex) / delta
    A = delta * np.eye(dim, dtype=complex)
    from .rlscore import correlation_gain
    for _ in range(50):
        r = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        _, Phi = correlation_gain(Phi, r, alpha)
        A = alpha * A + np.outer(r, r.conj())
    err = np.linalg.norm(Phi - np.linalg.inv(A)) / np.linalg.norm(np.linalg.inv(A))
    return err < 1e-8, f"relative error {err:.2e}"


def _check_channel_normal_equations_oracle():
    rng = np.random.default_rng(5)
    hops, dim, alpha, delta = 2, 4, 0.995, 0.01
    state = gpc.init_channel(np.zeros((hops, dim)), alpha, delta)
    A = np.array([delta * np.eye(dim, dtype=complex)] * hops)
    z = np.zeros((hops, dim), dtype=complex)
    for _ in range(40):
        C = (rng.standard_normal((hops, 6, dim))
             + 1j * rng.standard_normal((hops, 6, dim)))
        r = rng.standard_normal(hops * 6) + 1j * rng.standard_normal(hops * 6)
        gpc.channel_update(state, r, C, np.ones(hops * dim),
                           np.ones(hops * dim), 1)
        for j in range(hops):
            A[j] = alpha * A[j] + sum(np.outer(row.conj(), row) for row in C[j])
            z[j] = alpha * z[j] + C[j].conj().T @ r[6 * j:6 * (j + 1)]
    h = np.array([np.linalg.inv(A[j]) @ z[j] for j in range(hops)])
    err = np.linalg.norm(state.h - h) / np.linalg.norm(h)
    return err < 1e-8, f"relative error {err:.2e}"


def _check_constraint_and_determinism():
    cfg = harness.ExperimentConfig(users=2, chips=8, paths=2, relays=1,
                                   packet_len=80, training_len=40, trials=2,
                                   snr_grid=(10.0,), scheme="jpais-ipc",
                                   variant="adaptive", seed=99,
                                   shadowing_std_db=0.0)
    dims = cfg.dims()
    codes = harness.codes_for(cfg, dims.K)
    rngs = harness.trial_rngs(cfg.seed, 0)
    scn = harness.draw_scenario(dims, codes, harness.snr_db_to_sigma2(10.0),
                                0.0, rngs[0], isi_enabled=True)
    res = harness.simulate_packet_adaptive(scn, "jpais-ipc", cfg, rngs[1],
                                           rngs[2], rngs[3], collect=("a_norm",))
    norms = res.extras["a_sq_norms"]
    ok = bool(np.all(np.abs(norms - 1.0) < 1e-10))
    c1 = harness.run_experiment(cfg)
    c2 = harness.run_experiment(dataclasses.replace(cfg))
    ok = ok and c1.rows == c2.rows
    return ok, "per-step power budget exact, repeated run identical"


CHECKS = [
    ("convolution-matrix entries", _check_convolution),
    ("qpsk mapping", _check_qpsk),
    ("frame superposition", _check_superposition),
    ("receiver RLS inverse oracle", _check_rls_oracle),
    ("channel normal-equation oracle", _check_channel_normal_equations_oracle),
    ("constraint + determinism", _check_constraint_and_determinism),
]


def run_all() -> bool:
    """Run every check, printing one PASS/FAIL line each; True if all pass."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
