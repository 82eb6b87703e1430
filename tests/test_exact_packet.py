"""The exact packet in symbol coordinates against the chip-domain oracle, and
the filtered noise it draws."""

import warnings

import numpy as np
import pytest

from conftest import add_destination_frames
from coopcdma import harness


def chip_soft_outputs(scn, W, amps, S, rng_noise):
    """The exact packet in the chip domain: every relay's and the
    destination's whole-packet chip windows, noise included, then the filters.
    Draws the chip noise for relay 1, ..., n_r, then the destination."""
    dims = scn.dims
    relay_obs = harness._relay_frames(scn, S[0], rng_noise)
    Wr, g, _ = scn.relay_banks
    S[1:, :, 1:-1] = (Wr.conj().swapaxes(-1, -2) @ relay_obs) * g[..., None]
    frames = harness._noise_matrix(
        rng_noise.standard_normal((2, dims.stack, dims.P)), scn.sigma2)
    add_destination_frames(frames, scn, S, amps)
    return W.conj().T @ frames


def chip_normals(dims, rng):
    """Each filter bank's (2, chip rows, P) unit normals, drawn as the
    oracle draws its chip noise."""
    return [rng.standard_normal((2, rows, dims.P))
            for rows in [dims.M] * dims.n_r + [dims.stack]]


def chip_filtered_noise(banks):
    """A _filtered_noise for the filter banks banks, in the order the
    packet colours their noise: W^H n of the chip noise n of each bank's
    chip normals, after checking that the factor it is given is the R factor
    of the bank's filters W."""
    banks = iter(banks)

    def filtered(R, sigma2, normals):
        W = next(banks)
        assert R.tobytes() == np.linalg.qr(W, mode="r").tobytes()
        return W.conj().T @ harness._noise_matrix(normals, sigma2)

    return filtered


def packet_inputs(scheme, relays, isi):
    cfg = harness.ExperimentConfig(scheme=scheme, relays=relays, isi=isi,
                                   packet_len=60, training_len=10)
    dims = cfg.dims()
    rng_ch = harness.trial_rngs(cfg.seed, 0)[0]
    scn = harness.draw_scenario(dims, harness.codes_for(cfg, dims.K),
                                harness.snr_db_to_sigma2(6.0),
                                cfg.shadowing_std_db, rng_ch, isi_enabled=isi)
    W, amps = harness.design_exact(scn, scheme, cfg)
    return cfg, scn, W, amps, scn.designs[scheme, cfg][2]


@pytest.mark.parametrize("isi", [True, False])
@pytest.mark.parametrize("relays", [0, 2])
@pytest.mark.parametrize("scheme", harness.SCHEMES)
def test_symbol_domain_matches_chip_oracle(scheme, relays, isi, monkeypatch):
    """With the same chip noise injected, the symbol-domain relay symbols and
    destination soft outputs are the chip-domain ones."""
    cfg, scn, W, amps, R = packet_inputs(scheme, relays, isi)
    _, S_ref = harness._packet_symbols(scn.dims,
                                       harness.trial_rngs(cfg.seed, 0)[1])
    S = S_ref.copy()
    ref = chip_soft_outputs(scn, W, amps, S_ref, np.random.default_rng(11))
    monkeypatch.setattr(harness, "_filtered_noise",
                        chip_filtered_noise([*scn.relay_banks[0], W]))
    got = harness.exact_soft_outputs(
        scn, W, amps, S, chip_normals(scn.dims, np.random.default_rng(11)), R)
    assert got.shape == (scn.dims.K, scn.dims.P)
    assert np.abs(S - S_ref).max() <= 1e-12 * np.abs(S_ref).max()
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def random_filters(rows, cols, rng):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols)))


def test_filtered_noise_covariance():
    """The sample covariance of the K x P filtered noise is sigma^2 W^H W:
    each entry within 5 standard errors, sqrt(Sigma_ii Sigma_jj / P) for
    circular complex Gaussian noise."""
    rng = np.random.default_rng(3)
    W = random_filters(18, 4, rng)
    sigma2, P = 0.3, 200_000
    z = harness._filtered_noise(np.linalg.qr(W, mode="r"), sigma2,
                                rng.standard_normal((2, 4, P)))
    assert z.shape == (4, P)
    cov = sigma2 * (W.conj().T @ W)
    sample = z @ z.conj().T / P
    var = np.real(np.diag(cov))
    stderr = np.sqrt(np.outer(var, var) / P)
    assert np.all(np.abs(sample - cov) <= 5.0 * stderr)


def test_repeated_filter_gives_finite_noise():
    """A rank-deficient W (two equal filters) colours without failing, and
    the equal filters see the same noise."""
    rng = np.random.default_rng(4)
    W = random_filters(18, 3, rng)
    W = np.hstack([W, W[:, :1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = harness._filtered_noise(np.linalg.qr(W, mode="r"), 0.5,
                                    rng.standard_normal((2, 4, 1000)))
    assert z.shape == (4, 1000)
    assert np.all(np.isfinite(z))
    assert np.abs(z[3] - z[0]).max() <= 1e-12 * np.abs(z[0]).max()


def test_noise_draw_order_is_relays_then_destination(monkeypatch):
    """One K x P draw of real, then imaginary parts per filter bank, relay 1
    first and the destination last, each bank colouring its own with the R
    factor of its filters."""
    cfg, scn, W, amps, R = packet_inputs("cis", 2, True)
    dims = scn.dims
    banks = []

    def record(R_bank, sigma2, normals):
        banks.append((R_bank, normals))
        return np.zeros((R_bank.shape[1], dims.P), dtype=complex)

    monkeypatch.setattr(harness, "_filtered_noise", record)
    _, rng_data, rng_noise, _ = harness.trial_rngs(cfg.seed, 0)
    draws = harness.exact_draws(dims, rng_data, rng_noise)
    harness.exact_soft_outputs(scn, W, amps, draws.symbols, draws.normals, R)
    expected = [np.linalg.qr(bank, mode="r")
                for bank in (*scn.relay_banks[0], W)]
    assert len(banks) == len(expected) == len(draws.normals)
    for (got, normals), want, drawn in zip(banks, expected, draws.normals):
        assert np.array_equal(got, want) and normals is drawn
    rng = harness.trial_rngs(cfg.seed, 0)[2]
    for normals in draws.normals:
        for part in normals:
            assert part.tobytes() == rng.standard_normal(
                (dims.K, dims.P)).tobytes()


@pytest.mark.parametrize("users,chips,relays", [(4, 16, 2), (9, 4, 2),
                                                (30, 4, 1), (2, 8, 0)])
def test_normals_have_each_banks_qr_rows(users, chips, relays):
    """A bank's unit normals have the rows of its filters' R factor:
    min(M, K) for a relay, min(hops*M, K) for the destination, also with
    more users than chips per window."""
    cfg = harness.ExperimentConfig(users=users, chips=chips, relays=relays,
                                   packet_len=12, training_len=4,
                                   scheme="cis", seed=2)
    dims = cfg.dims()
    scn = harness.draw_scenario(dims, harness.codes_for(cfg, dims.K),
                                harness.snr_db_to_sigma2(6.0),
                                cfg.shadowing_std_db,
                                harness.trial_rngs(cfg.seed, 0)[0])
    W, amps = harness.design_exact(scn, "cis", cfg)
    draws = harness.exact_draws(dims, *harness.trial_rngs(cfg.seed, 0)[1:3])
    banks = [*scn.relay_banks[0], W]
    assert len(draws.normals) == len(banks)
    for normals, bank in zip(draws.normals, banks):
        rows = np.linalg.qr(bank, mode="r").shape[0]
        assert normals.shape == (2, rows, dims.P)
    soft = harness.exact_soft_outputs(scn, W, amps, draws.symbols,
                                      draws.normals,
                                      scn.designs["cis", cfg][2])
    assert soft.shape == (dims.K, dims.P) and np.all(np.isfinite(soft))


@pytest.mark.parametrize("scheme", ["cis", "jpais-gpc", "jpais-ipc"])
def test_relay_schemes_stay_accurate_at_high_snr(scheme):
    """Far above 160 dB a relay covariance X X^H + sigma^2 I is too
    ill-conditioned for an unchecked LU solve, whose relay filters then put
    the BER near 0.25. Solved as the destination's covariances are, with the
    pseudoinverse once the condition number passes the limit, the exact
    design keeps its low-noise BER at every SNR (desk config, seed 1)."""
    cfg = harness.ExperimentConfig(scheme=scheme, variant="exact", trials=8,
                                   seed=1, snr_grid=(100.0, 160.0, 200.0,
                                                     250.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = harness.run_experiment(cfg)
    assert caught and all(w.category is RuntimeWarning
                          and "pseudoinverse" in str(w.message)
                          for w in caught)
    assert any(str(w.message).startswith("relay covariance") for w in caught)
    assert curve.divergences == 0
    assert all(ber <= 0.01 for _, ber, _, _ in curve.rows)
