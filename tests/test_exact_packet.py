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
    for j, (R, (Wr, g)) in enumerate(zip(relay_obs, scn.relay_banks)):
        S[j + 1, :, 1:-1] = (Wr.conj().T @ R) * g[:, None]
    frames = harness._noise_matrix((dims.stack, dims.P), scn.sigma2, rng_noise)
    add_destination_frames(frames, scn, S, amps)
    return W.conj().T @ frames


def chip_filtered_noise(W, sigma2, P, rng):
    """W^H n of chip noise n drawn as the oracle draws it."""
    return W.conj().T @ harness._noise_matrix((W.shape[0], P), sigma2, rng)


def packet_inputs(scheme, relays, isi):
    cfg = harness.ExperimentConfig(scheme=scheme, relays=relays, isi=isi,
                                   packet_len=60, training_len=10)
    dims = cfg.dims()
    rng_ch = harness.trial_rngs(cfg.seed, 0)[0]
    scn = harness.draw_scenario(dims, harness.codes_for(cfg, dims.K),
                                harness.snr_db_to_sigma2(6.0),
                                cfg.shadowing_std_db, rng_ch, isi_enabled=isi)
    W, amps = harness.design_exact(scn, scheme, cfg)
    return cfg, scn, W, amps


@pytest.mark.parametrize("isi", [True, False])
@pytest.mark.parametrize("relays", [0, 2])
@pytest.mark.parametrize("scheme", harness.SCHEMES)
def test_symbol_domain_matches_chip_oracle(scheme, relays, isi, monkeypatch):
    """With the same chip noise injected, the symbol-domain relay symbols and
    destination soft outputs are the chip-domain ones."""
    cfg, scn, W, amps = packet_inputs(scheme, relays, isi)
    _, S_ref = harness._packet_symbols(scn, harness.trial_rngs(cfg.seed, 0)[1])
    S = S_ref.copy()
    ref = chip_soft_outputs(scn, W, amps, S_ref, np.random.default_rng(11))
    monkeypatch.setattr(harness, "_filtered_noise", chip_filtered_noise)
    got = harness.exact_soft_outputs(scn, W, amps, S,
                                     np.random.default_rng(11))
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
    z = harness._filtered_noise(W, sigma2, P, rng)
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
        z = harness._filtered_noise(W, 0.5, 1000, rng)
    assert z.shape == (4, 1000)
    assert np.all(np.isfinite(z))
    assert np.abs(z[3] - z[0]).max() <= 1e-12 * np.abs(z[0]).max()


def test_noise_draw_order_is_relays_then_destination(monkeypatch):
    """One K x P draw per filter bank, relay 1 first and the destination
    last."""
    cfg, scn, W, amps = packet_inputs("cis", 2, True)
    banks = []

    def record(W_bank, sigma2, P, rng):
        banks.append(W_bank)
        return np.zeros((W_bank.shape[1], P), dtype=complex)

    monkeypatch.setattr(harness, "_filtered_noise", record)
    _, S = harness._packet_symbols(scn, harness.trial_rngs(cfg.seed, 0)[1])
    harness.exact_soft_outputs(scn, W, amps, S, np.random.default_rng(0))
    expected = [Wr for Wr, _ in scn.relay_banks] + [W]
    assert len(banks) == len(expected)
    assert all(got is want for got, want in zip(banks, expected))
