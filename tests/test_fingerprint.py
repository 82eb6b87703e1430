"""Pinned bit-error counts of single desk-configuration packets, and the
exact alternation behind the designed ones.

Each count is the integer bit_errors of harness.run_packet on trial 0 of the
desk configuration (K=4, N=16, L=3, n_r=2, P=1500, 200 training symbols); each
alternation pin is the iteration count, convergence flag and final MSE of
mmse.alternate on the same scenario. The rows hash pins whole exact sweeps of
the same configuration; their rows are built from integer bit-error counts. A
refactor that claims to keep results bit-identical must leave every pin here
unchanged; a deliberate change of results must update them and say why.
"""

import hashlib

import numpy as np
import pytest

from coopcdma import harness, mmse

PAYLOAD_BITS = 2 * (1500 - 200) * 4

# scheme -> bit errors of seeds 1, 2, 3 at 6 dB, exact design
EXACT_6DB = {
    "ncis": (617, 524, 456),
    "cis": (486, 361, 336),
    "jpais-ipc": (329, 332, 327),
    "jpais-gpc": (269, 238, 195),
}

# scheme -> bit errors of seed 1 at 9 dB, adaptive recursions
ADAPTIVE_9DB = {"jpais-gpc": 66, "jpais-ipc": 143}

# (seed, scheme) -> bit errors at 9 dB, adaptive: the relay-only schemes and
# the other seeds of the power-allocating ones
ADAPTIVE_9DB_MORE = {
    (1, "ncis"): 354, (1, "cis"): 136,
    (2, "jpais-gpc"): 64, (3, "jpais-gpc"): 72,
    (2, "jpais-ipc"): 125, (3, "jpais-ipc"): 246,
}


# (seed, snr_db, mode) -> (iterations, converged, final traced MSE) of the
# exact alternation on trial 0
ALTERNATION = {
    (1, 0.0, "gpc"): (49, True, 2.080131366987869),
    (1, 0.0, "ipc"): (27, True, 2.030250125882571),
    (1, 18.0, "gpc"): (50, False, 0.05821768211965472),
    (1, 18.0, "ipc"): (50, False, 0.05858401623367748),
    (2, 0.0, "gpc"): (23, True, 1.9319262151803145),
    (2, 0.0, "ipc"): (50, False, 1.8361901146812007),
    (2, 18.0, "gpc"): (50, False, 0.05364332984317455),
    (2, 18.0, "ipc"): (50, False, 0.05530846594484096),
    (3, 0.0, "gpc"): (20, True, 1.8613321230582445),
    (3, 0.0, "ipc"): (18, True, 1.7364892467444335),
    (3, 18.0, "gpc"): (50, False, 0.04931081436843621),
    (3, 18.0, "ipc"): (50, False, 0.0500047057711992),
}


# SHA-256 over repr(run_experiment(cfg).rows) of the exact sweeps at 0, 6, 12
# and 18 dB with 4 trials, seeds 1-3 in the outer loop, SCHEMES in the inner
EXACT_ROWS_SHA256 = (
    "92210d5ebe6457013fab4e980c2ef6e26b816a2fcd9844c30baa5d2ca56dcc3e")


def desk_scenario(cfg, snr_db, rng_ch):
    dims = cfg.dims()
    return harness.draw_scenario(dims, harness.codes_for(cfg, dims.K),
                                 harness.snr_db_to_sigma2(snr_db),
                                 cfg.shadowing_std_db, rng_ch,
                                 isi_enabled=cfg.isi)


def packet_bit_errors(scheme, variant, seed, snr_db):
    cfg = harness.ExperimentConfig(scheme=scheme, variant=variant, seed=seed,
                                   trials=1, snr_grid=(snr_db,))
    rng_ch, rng_data, rng_noise, rng_init = harness.trial_rngs(seed, 0)
    scn = desk_scenario(cfg, snr_db, rng_ch)
    res = harness.run_packet(cfg, scn, rng_data, rng_noise, rng_init)
    assert not res.diverged
    assert res.payload_bits == PAYLOAD_BITS
    return res.bit_errors


@pytest.mark.parametrize("scheme", sorted(EXACT_6DB))
def test_exact_packets(scheme):
    got = tuple(packet_bit_errors(scheme, "exact", seed, 6.0) for seed in (1, 2, 3))
    assert got == EXACT_6DB[scheme]


@pytest.mark.parametrize("scheme", sorted(ADAPTIVE_9DB))
def test_adaptive_packet(scheme):
    assert packet_bit_errors(scheme, "adaptive", 1, 9.0) == ADAPTIVE_9DB[scheme]


@pytest.mark.parametrize("seed,scheme", sorted(ADAPTIVE_9DB_MORE))
def test_more_adaptive_packets(seed, scheme):
    assert (packet_bit_errors(scheme, "adaptive", seed, 9.0)
            == ADAPTIVE_9DB_MORE[seed, scheme])


@pytest.mark.parametrize("seed,snr_db,mode", sorted(ALTERNATION))
def test_exact_alternation(seed, snr_db, mode):
    cfg = harness.ExperimentConfig(seed=seed)
    scn = desk_scenario(cfg, snr_db, harness.trial_rngs(seed, 0)[0])
    users_per_block, lam = harness.power_blocks("jpais-" + mode, cfg,
                                                scn.dims.K)
    res = mmse.alternate(scn.U, scn.dims.hops, scn.sigma2,
                         scn.dims.K // users_per_block, cfg.mmse_config(lam),
                         omega=harness.scenario_omega(scn))
    iterations, converged, final_mse = ALTERNATION[seed, snr_db, mode]
    assert (res.iterations, res.converged) == (iterations, converged)
    np.testing.assert_allclose(res.mse_trace[-1], final_mse, rtol=1e-9, atol=0)


def test_exact_rows_hash():
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for scheme in harness.SCHEMES:
            cfg = harness.ExperimentConfig(scheme=scheme, variant="exact",
                                           seed=seed, trials=4,
                                           snr_grid=(0.0, 6.0, 12.0, 18.0))
            digest.update(repr(harness.run_experiment(cfg).rows).encode())
    assert digest.hexdigest() == EXACT_ROWS_SHA256
