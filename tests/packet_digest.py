"""SHA-256 over the floating-point bytes of exact packets.

A rewrite that claims to keep the exact path bit-identical must leave this
digest unchanged on one host; the pinned integer results of
test_fingerprint.py cannot see a change in the last bit of a soft output.
For every seed, scheme, SNR and trial below, the digest takes the bytes of the
scenario (the per-link waveform matrix U that the tests' oracle
dense_link_waveforms forms from x_dest, h_true, the source-to-relay
waveforms), of the design (W, amps), of the packet's bits, of its per-hop
symbols S (relay hops filled in), of its soft outputs and of its per-symbol
error counts. The designs of a point's
trials are solved as one stack, as a sweep solves them. The bytes depend on
the BLAS, so compare digests taken on one host.

adaptive_packet_digest does the same for adaptive packets at 9 dB: the
per-symbol error counts, the squared amplitude norms and the relative
channel-estimate errors of each symbol. By default it covers jpais-gpc and
jpais-ipc. Given every scheme and soft=True it also takes the bytes of each
packet's soft outputs: ncis and cis packets record no amplitudes or channel
estimates, so their receivers' bits show only there.

    PYTHONPATH=src python tests/packet_digest.py
"""

import hashlib

from conftest import dense_link_waveforms
from coopcdma import harness

SEEDS = (1, 2, 3)
SNRS_DB = (0.0, 18.0)
TRIALS = 4


def exact_packet_digest(seeds=SEEDS, snrs_db=SNRS_DB, trials=TRIALS) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        for scheme in harness.SCHEMES:
            for snr_db in snrs_db:
                cfg = harness.ExperimentConfig(scheme=scheme, variant="exact",
                                               seed=seed, trials=trials,
                                               snr_grid=(snr_db,))
                dims = cfg.dims()
                codes = harness.codes_for(cfg, dims.K)
                sigma2 = harness.snr_db_to_sigma2(snr_db)
                rngs = [harness.trial_rngs(seed, t) for t in range(trials)]
                scenarios = [harness.draw_scenario(
                    dims, codes, sigma2, cfg.shadowing_std_db, rng_ch,
                    isi_enabled=cfg.isi) for rng_ch, *_ in rngs]
                point = harness.PointDesigns(scenarios)
                for scn, (_, rng_data, rng_noise, _) in zip(scenarios, rngs):
                    W, amps = harness.design_exact(scn, scheme, cfg, point)
                    bits, S = harness._packet_symbols(scn, rng_data)
                    soft = harness.exact_soft_outputs(scn, W, amps, S,
                                                      rng_noise)
                    res = harness._packet_result(soft, bits, cfg.training_len)
                    U = dense_link_waveforms(scn.x_dest)
                    for array in (U, scn.h_true, *scn.x_sr, W, amps, bits,
                                  S, soft, res.per_symbol_errors):
                        digest.update(array.tobytes())
    return digest.hexdigest()


def adaptive_packet_digest(seeds=SEEDS, snr_db=9.0,
                           schemes=("jpais-gpc", "jpais-ipc"),
                           soft=False) -> str:
    digest = hashlib.sha256()
    outputs = []
    real_result = harness._packet_result

    def keep_soft(soft_outputs, *args, **kwargs):
        outputs.append(soft_outputs)
        return real_result(soft_outputs, *args, **kwargs)

    harness._packet_result = keep_soft
    try:
        for seed in seeds:
            for scheme in schemes:
                cfg = harness.ExperimentConfig(scheme=scheme,
                                               variant="adaptive", seed=seed,
                                               trials=1, snr_grid=(snr_db,))
                dims = cfg.dims()
                rng_ch, rng_data, rng_noise, rng_init = harness.trial_rngs(
                    seed, 0)
                scn = harness.draw_scenario(
                    dims, harness.codes_for(cfg, dims.K),
                    harness.snr_db_to_sigma2(snr_db), cfg.shadowing_std_db,
                    rng_ch, isi_enabled=cfg.isi)
                res = harness.simulate_packet_adaptive(
                    scn, scheme, cfg, rng_data, rng_noise, rng_init,
                    collect=("a_norm", "channel_error"))
                arrays = [res.per_symbol_errors, res.extras["a_sq_norms"],
                          res.extras["channel_error"]]
                if soft:
                    arrays.append(outputs[-1])
                for array in arrays:
                    digest.update(array.tobytes())
    finally:
        harness._packet_result = real_result
    return digest.hexdigest()


if __name__ == "__main__":
    print("exact       ", exact_packet_digest())
    print("adaptive    ", adaptive_packet_digest())
    print("adaptive-all", adaptive_packet_digest(schemes=harness.SCHEMES,
                                                 soft=True))
