"""Pinned bit-error counts of single desk-configuration packets.

Each count is the integer bit_errors of harness.run_packet on trial 0 of the
desk configuration (K=4, N=16, L=3, n_r=2, P=1500, 200 training symbols). A
refactor that claims to keep results bit-identical must leave every count
here unchanged; a deliberate change of results must update them and say why.
"""

import pytest

from coopcdma import harness

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


def packet_bit_errors(scheme, variant, seed, snr_db):
    cfg = harness.ExperimentConfig(scheme=scheme, variant=variant, seed=seed,
                                   trials=1, snr_grid=(snr_db,))
    dims = cfg.dims()
    rng_ch, rng_data, rng_noise, rng_init = harness.trial_rngs(seed, 0)
    scn = harness.draw_scenario(dims, harness.codes_for(cfg, dims.K),
                                harness.snr_db_to_sigma2(snr_db),
                                cfg.shadowing_std_db, rng_ch,
                                isi_enabled=cfg.isi)
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
