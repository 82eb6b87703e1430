"""SHA-256 over the floating-point bytes of exact and adaptive packets.

A rewrite that claims to keep the packets bit-identical must leave these
digests unchanged on one host; the pinned integer results of
test_fingerprint.py cannot see a change in the last bit of a soft output.

exact_packet_digest builds each packet from its parts. For every seed,
scheme, SNR and trial below, it takes the bytes of the scenario (the
per-link waveform matrix U that the tests' oracle dense_link_waveforms forms
from x_dest, h_true, the source-to-relay waveforms), of the design (W, amps)
and its packet map (theta, edges), of the packet's bits, of its soft outputs
and of its per-symbol error counts. The designs of a point's trials are
solved as one stack: the list of the point's scenarios, passed to
harness.design_exact as its stack.

sweep_packet_digest takes the packets that harness.run_experiment runs:
every scheme over 4 SNR points and 3 trials, the soft outputs and per-symbol
error counts of each packet, in (point, trial) order. A sweep runs its
trials in chunks of whole trials, each trial at every point
(harness._run_points), and each trial's channel, bits and noise serve all
of its points. The soft outputs are formed again from each trial's call of
harness.simulate_packet_exact, the seam the sweep reaches through the
module, by harness.exact_soft_blocks on the same arguments. These 12
packets per run are one chunk; the sweep-chunks
digest runs every scheme over the 7-point desk grid with 15 trials at seed
1, more trials than one chunk holds, so it is the digest that sees a chunk
boundary on the sweep's own path.

adaptive_packet_digest does the same for adaptive packets at 9 dB: the
per-symbol error counts, the squared amplitude norms and the relative
channel-estimate errors of each symbol. By default it covers jpais-gpc and
jpais-ipc. Given every scheme and soft=True it also takes the bytes of each
packet's soft outputs: ncis and cis packets record no amplitudes or channel
estimates, so their receivers' bits show only there.

The bytes depend on numpy, the BLAS and the machine, so digests are pinned
in packet_digests.json per host key (host_key). The script prints every
digest and exits 1 when the host's key is pinned and a digest differs from
its pin, else 0; --record writes the host's digests into the file.
test_packet_digests.py asserts the same pins under pytest.

    PYTHONPATH=src python tests/packet_digest.py [--record]
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from conftest import dense_link_waveforms, trial_soft_outputs
from coopcdma import harness

SEEDS = (1, 2, 3)
SNRS_DB = (0.0, 18.0)
TRIALS = 4
SWEEP_SNRS_DB = (0.0, 6.0, 12.0, 18.0)
SWEEP_TRIALS = 3
CHUNK_SNRS_DB = harness.ExperimentConfig().snr_grid
CHUNK_TRIALS = 15
PINS = Path(__file__).resolve().with_name("packet_digests.json")


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
                for scn, (_, rng_data, rng_noise, _) in zip(scenarios, rngs):
                    W, amps = harness.design_exact(scn, scheme, cfg,
                                                   scenarios)
                    draws = harness.exact_draws(dims, rng_data, rng_noise)
                    (soft,) = trial_soft_outputs([scn], cfg, draws)
                    (res,) = harness.simulate_packet_exact([scn], cfg, draws)
                    U = dense_link_waveforms(scn.x_dest)
                    for array in (U, scn.h_true, *scn.x_sr, W, amps,
                                  *scn.designs[scheme, cfg][2:], draws.bits,
                                  soft, res.per_symbol_errors):
                        digest.update(array.tobytes())
    return digest.hexdigest()


def sweep_packet_digest(seeds=SEEDS, snrs_db=SWEEP_SNRS_DB,
                        trials=SWEEP_TRIALS) -> str:
    digest = hashlib.sha256()
    real_simulate = harness.simulate_packet_exact
    by_noise = {}

    def simulate(scns, cfg, draws):
        # a point's packets come in trial order, whatever the chunk order
        results = real_simulate(scns, cfg, draws)
        for scn, soft, res in zip(scns, trial_soft_outputs(scns, cfg, draws),
                                  results):
            by_noise.setdefault(scn.sigma2, []).append(
                (soft, res.per_symbol_errors))
        return results

    harness.simulate_packet_exact = simulate
    try:
        for seed in seeds:
            for scheme in harness.SCHEMES:
                cfg = harness.ExperimentConfig(scheme=scheme, variant="exact",
                                               seed=seed, trials=trials,
                                               snr_grid=snrs_db)
                by_noise.clear()
                harness.run_experiment(cfg)
                for snr_db in snrs_db:
                    for packet in by_noise[harness.snr_db_to_sigma2(snr_db)]:
                        for array in packet:
                            digest.update(array.tobytes())
    finally:
        harness.simulate_packet_exact = real_simulate
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


# name -> the digest's function, in the order the script prints them
DIGESTS = {
    "exact": exact_packet_digest,
    "sweep": sweep_packet_digest,
    "sweep-chunks": lambda: sweep_packet_digest(
        seeds=(1,), snrs_db=CHUNK_SNRS_DB, trials=CHUNK_TRIALS),
    "adaptive": adaptive_packet_digest,
    "adaptive-all": lambda: adaptive_packet_digest(schemes=harness.SCHEMES,
                                                   soft=True),
}


def host_key() -> str:
    """What the digests' bytes depend on: numpy's version, its BLAS's name
    and version, and the machine architecture."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__} | {blas.get('name')} "
            f"{blas.get('version')} | {platform.machine()}")


def pinned() -> dict | None:
    """The digests pinned for this host's key, None when none are."""
    return json.loads(PINS.read_text()).get(host_key())


def main(argv) -> int:
    got = {}
    for name, digest in DIGESTS.items():
        got[name] = digest()
        print(f"{name:13}{got[name]}")
    key = host_key()
    if "--record" in argv:
        pins = json.loads(PINS.read_text()) if PINS.exists() else {}
        pins[key] = got
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"recorded for {key}")
        return 0
    want = pinned()
    if want is None:
        print(f"no digests pinned for {key}")
        return 0
    moved = [name for name in got if got[name] != want.get(name)]
    for name in moved:
        print(f"{name}: differs from its pin {want.get(name)} for {key}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
