"""The exact packet's linear map against the chip-domain oracle, the sources
it reads and the noise it colours."""

import warnings

import numpy as np
import pytest

from conftest import (chip_soft_outputs, destination_noise_columns,
                      trial_soft_outputs)
from coopcdma import harness
from coopcdma.model import modulate_qpsk


def packet_inputs(scheme, relays, isi, **fields):
    cfg = harness.ExperimentConfig(scheme=scheme, relays=relays, isi=isi,
                                   packet_len=60, training_len=10, **fields)
    dims = cfg.dims()
    rng_ch = harness.trial_rngs(cfg.seed, 0)[0]
    scn = harness.draw_scenario(dims, harness.codes_for(cfg, dims.K),
                                harness.snr_db_to_sigma2(6.0),
                                cfg.shadowing_std_db, rng_ch, isi_enabled=isi)
    W, amps = harness.design_exact(scn, scheme, cfg)
    return cfg, scn, W, amps


def assert_matches_oracle(cfg, scn, W, amps):
    """The packet's soft outputs from its map equal the chip-domain
    packet's on the same draws: every output, and the first and last
    symbols' (whose relay neighbours are the packet's zero edges) each on
    their own scale."""
    draws = harness.exact_draws(scn.dims,
                                *harness.trial_rngs(cfg.seed, 0)[1:3])
    ref = chip_soft_outputs(scn, W, amps, draws)
    (got,) = trial_soft_outputs([scn], cfg, draws)
    assert got.shape == ref.shape == (scn.dims.K, scn.dims.P)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    for t in (0, -1):
        assert (np.abs(got[:, t] - ref[:, t]).max()
                <= 1e-12 * np.abs(ref[:, t]).max())


@pytest.mark.parametrize("isi", [True, False])
@pytest.mark.parametrize("relays", [0, 1, 2, 3])
@pytest.mark.parametrize("scheme", harness.SCHEMES)
def test_symbol_domain_matches_chip_oracle(scheme, relays, isi):
    """With the same noise injected, the packet map's soft outputs are the
    chip-domain ones."""
    assert_matches_oracle(*packet_inputs(scheme, relays, isi))


@pytest.mark.parametrize("scheme", harness.SCHEMES)
@pytest.mark.parametrize("fields", [
    {"paths": 1},  # ISI on, but no chip spills: one lag
    {"users": 9, "chips": 4},  # K > M: min(M, K) rows of relay noise
    {"users": 30, "chips": 4, "relays": 1},  # K > hops*M at the destination
], ids=["one-path", "users-over-window", "users-over-stack"])
def test_chip_oracle_at_edge_dimensions(scheme, fields):
    fields = {"relays": 2, **fields}
    assert_matches_oracle(*packet_inputs(scheme, isi=True, **fields))


def random_filters(rows, cols, rng):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols)))


def map_of(scn, W, amps):
    """The packet map (theta, edges) of scn under the filters W and
    amplitudes amps, on its own relay chain."""
    _, bank = harness._relay_chains([scn])
    theta, edges = harness._packet_maps([scn], bank, W[None], amps[None])
    return theta[0], edges[0]


def test_destination_noise_has_the_filtered_noise_covariance():
    """The map colours the destination's unit-variance noise so that its
    covariance is sigma^2 W^H W, that of the filtered chip noise: sigma R^H,
    R the R factor of W, byte for byte."""
    cfg, scn, _, amps = packet_inputs("cis", 2, True)
    W = random_filters(scn.dims.stack, scn.dims.K, np.random.default_rng(3))
    theta, _ = map_of(scn, W, amps)
    noise = destination_noise_columns(theta, scn.dims)
    want = np.sqrt(scn.sigma2) * np.linalg.qr(W, mode="r").conj().T
    assert noise.tobytes() == want.tobytes()
    cov = scn.sigma2 * (W.conj().T @ W)
    assert np.abs(noise @ noise.conj().T - cov).max() <= 1e-12 * np.abs(
        cov).max()


def test_repeated_filter_gives_finite_map():
    """A rank-deficient W (two equal filters) maps without failing, and
    the equal filters have equal rows of the map."""
    cfg, scn, _, amps = packet_inputs("cis", 2, True)
    rng = np.random.default_rng(4)
    W = random_filters(scn.dims.stack, scn.dims.K - 1, rng)
    W = np.hstack([W, W[:, :1]])
    amps = np.ones_like(amps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta, edges = map_of(scn, W, amps)
    assert np.all(np.isfinite(theta)) and np.all(np.isfinite(edges))
    assert np.abs(theta[-1] - theta[0]).max() <= 1e-12 * np.abs(
        theta[0]).max()


def test_sources_are_the_symbols_then_each_banks_noise():
    """An exact trial's sources hold its K source symbols, then one (rows,
    P) draw of real parts and one of imaginary parts per filter bank, relay
    1 first and the destination last, over sqrt(2); every row has _REACH
    zero columns on either side. The bits are the data stream's, as
    decision bytes."""
    cfg = harness.ExperimentConfig(scheme="cis", relays=2, packet_len=60,
                                   training_len=10)
    dims = cfg.dims()
    _, rng_data, rng_noise, _ = harness.trial_rngs(cfg.seed, 0)
    draws = harness.exact_draws(dims, rng_data, rng_noise)
    _, rng_data, rng_noise, _ = harness.trial_rngs(cfg.seed, 0)
    bits = rng_data.integers(0, 2, size=(dims.K, dims.P, 2))
    assert draws.bits.dtype == np.int8 and np.array_equal(draws.bits, bits)
    reach = harness._REACH
    Z = draws.sources
    assert not Z[:, :reach].any() and not Z[:, -reach:].any()
    inner = Z[:, reach:-reach]
    assert np.array_equal(inner[:dims.K], modulate_qpsk(bits))
    row = dims.K
    for _ in range(dims.n_r + 1):
        for part in (inner.real, inner.imag):
            want = rng_noise.standard_normal((dims.K, dims.P)) * np.sqrt(0.5)
            assert part[row:row + dims.K].tobytes() == want.tobytes()
        row += dims.K
    assert row == len(Z)


@pytest.mark.parametrize("users,chips,relays", [(4, 16, 2), (9, 4, 2),
                                                (30, 4, 1), (2, 8, 0)])
def test_sources_have_each_banks_qr_rows(users, chips, relays):
    """A bank's noise has the rows of its filters' R factor: min(M, K) for
    a relay, min(hops*M, K) for the destination, also with more users than
    chips per window; the map has one column per source at each of its
    lags, and the packet's outputs are finite."""
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
    banks = [*harness._relay_chains([scn])[1][0][0], W]
    rows = [np.linalg.qr(bank, mode="r").shape[0] for bank in banks]
    assert len(draws.sources) == dims.K + sum(rows)
    theta = scn.designs["cis", cfg][2]
    groups = harness._source_lags(dims, scn.spill)
    assert theta.shape == (dims.K, sum(r for _, r in groups))
    assert groups[0] == (0, len(draws.sources))
    soft = trial_soft_outputs([scn], cfg, draws)
    assert soft.shape == (1, dims.K, dims.P) and np.all(np.isfinite(soft))


@pytest.mark.parametrize("relays", [0, 2])
@pytest.mark.parametrize("scheme", harness.SCHEMES)
@pytest.mark.parametrize("snr_db", [0.0, 12.0])
def test_map_mse_is_the_design_mse_without_isi(scheme, relays, snr_db):
    """Without ISI the MSE that a packet's map implies over its
    unit-variance sources, sum_k ||theta_k - e_k||^2 with e_k user k's own
    symbol at lag 0, is the design's closed-form MSE: the packet is the
    model the design solves."""
    cfg = harness.ExperimentConfig(scheme=scheme, relays=relays, isi=False,
                                   trials=3)
    dims = cfg.dims()
    codes = harness.codes_for(cfg, dims.K)
    scns = [harness.draw_scenario(dims, codes, harness.snr_db_to_sigma2(
        snr_db), cfg.shadowing_std_db, harness.trial_rngs(cfg.seed, t)[0],
        isi_enabled=False) for t in range(cfg.trials)]
    omega, bank = harness._relay_chains(scns)
    blocks = harness.power_blocks(scheme, cfg, dims.K)
    res = harness.mmse.design(
        np.stack([scn.x_dest for scn in scns]),
        np.array([scn.sigma2 for scn in scns]),
        None if blocks is None else dims.K // blocks[0],
        None if blocks is None else cfg.mmse_config(blocks[1]), omega)
    theta, _ = harness._packet_maps(scns, bank, res.W, res.amps)
    own = np.zeros_like(theta)
    own[:, :, :dims.K] = np.eye(dims.K)
    implied = np.sum(np.abs(theta - own) ** 2, axis=(1, 2))
    assert np.abs(implied - res.mse).max() <= 1e-12


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
