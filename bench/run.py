"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout: the library is imported from ./src.
The run sets up (timed as setup_s, here and in fresh child interpreters
started between rounds), runs an untimed warm-up that checks the outputs,
then repeats whole rounds of the workload through harness.run_experiment
until the rounds have taken --seconds. With
--trace 1 untraced and traced rounds alternate and the per-layer metrics are
reported instead of the end-to-end ones. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported: threaded BLAS
# on the small matrices here costs more CPU than it saves and adds noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# Set-ups timed in fresh interpreters, spread evenly over the timed rounds so
# that their median sees the host's speed over the whole run.
CHILD_SETUPS = 6
CHILD_TIMEOUT_S = 60
# The statistical checks (scheme order, adaptive channel error and BER
# ceiling) run on fixed inputs: config seed 1, where the project makes these
# claims (acceptance tests 4 and 7). On the run's own seed a channel draw
# alone can break them on a correct program; see bench/README.md. The exact
# properties (bit counts, BER range, designed budgets, repeatability) are
# checked on the run's own outputs.
CHECK_SEED = 1
ORDER_CHECK_SNR_DB = 12.0
ADAPTIVE_CHECK_SNR_DB = 15.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up and one reference pass in this interpreter
    # and print both
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_in_child(args) -> list:
    """(set-up seconds, reference seconds) measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return json.loads(out.stdout.strip().splitlines()[-1])


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "git": git_revision()}


@contextmanager
def recorded_designs(harness):
    """Record (scheme, amplitudes) of every harness.design_exact call."""
    original = harness.design_exact
    designs = []

    def record(scn, scheme, cfg, *args, **kwargs):
        W, amps = original(scn, scheme, cfg, *args, **kwargs)
        designs.append((scheme, amps))
        return W, amps

    harness.design_exact = record
    try:
        yield designs
    finally:
        harness.design_exact = original


def adaptive_check_packet(harness, cfg):
    """Trial 0 of CHECK_SEED at the check SNR, collecting amplitude norms and
    channel error."""
    cfg = dataclasses.replace(cfg, seed=CHECK_SEED)
    dims = cfg.dims()
    rng_ch, rng_data, rng_noise, rng_init = harness.trial_rngs(cfg.seed, 0)
    scn = harness.draw_scenario(dims, harness.codes_for(cfg, dims.K),
                                harness.snr_db_to_sigma2(ADAPTIVE_CHECK_SNR_DB),
                                cfg.shadowing_std_db, rng_ch, isi_enabled=cfg.isi)
    return harness.simulate_packet_adaptive(scn, cfg.scheme, cfg, rng_data, rng_noise,
                                            rng_init, collect=("a_norm", "channel_error"))


def warm_up(harness, checks, workload, configs) -> tuple:
    """Untimed first pass that checks outputs; returns (reference rows, failures).

    The exact path runs one whole round, whose rows every timed round must
    repeat, and the scheme-order check on fixed inputs. The adaptive path
    runs one check packet per scheme only, to keep the run short; its first
    timed round then supplies the reference rows.
    """
    failures = []
    if workload.variant == "adaptive":
        for cfg in configs:
            packet = adaptive_check_packet(harness, cfg)
            failures += checks.check_adaptive_packet(cfg.scheme, packet, cfg.users)
        return None, failures
    with recorded_designs(harness) as designs:
        curves = [harness.run_experiment(cfg) for cfg in configs]
    for scheme, amps in designs:
        failures += checks.check_amplitudes(scheme, amps)
    for curve in curves:
        failures += checks.check_snr_trend(curve)
    failures += checks.check_scheme_order(fixed_input_bers(harness, configs))
    failures += check_rows(checks, configs, curves)
    return [curve.rows for curve in curves], failures


def fixed_input_bers(harness, configs) -> dict:
    """Per scheme, BER at the order-check SNR over the workload's trials of
    CHECK_SEED."""
    ber = {}
    for cfg in configs:
        fixed = dataclasses.replace(cfg, seed=CHECK_SEED, snr_grid=(ORDER_CHECK_SNR_DB,))
        ber[cfg.scheme] = harness.run_experiment(fixed).ber_at(ORDER_CHECK_SNR_DB)
    return ber


def check_rows(checks, configs, curves) -> list:
    """Checks every round's rows must pass: no divergence, counts, BER range."""
    failures = []
    for cfg, curve in zip(configs, curves):
        failures += checks.check_curve(curve, cfg.users, cfg.packet_len,
                                       cfg.training_len, cfg.trials)
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coopcdma" / "__init__.py").is_file():
        print(f"no library source at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    workload, configs = workloads.setup(args.workload, args.seed)
    setup_seconds = time.perf_counter() - start

    import coopcdma
    if Path(coopcdma.__file__).resolve().parent != (SRC / "coopcdma").resolve():
        print(f"coopcdma imported from {coopcdma.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import calibrate
    setup_samples = [[setup_seconds, calibrate.seconds()]]
    if args.setup_probe:
        print(json.dumps(setup_samples[0]))
        return 0

    import checks
    import tracer
    from coopcdma import harness

    reference, failures = warm_up(harness, checks, workload, configs)
    tr = tracer.Tracer() if args.trace else None
    times = {False: [], True: []}
    attempted = failed = 0
    child_due = [args.seconds * k / CHILD_SETUPS for k in range(CHILD_SETUPS)]
    rounds = 0
    timed = 0.0  # summed time of the rounds so far
    # a reference pass before the first round and after every round; each
    # untraced round is scaled by the mean of the two passes around it
    reference_seconds = [calibrate.seconds()]
    scaled_untraced = []
    while True:
        while child_due and timed >= child_due[0]:
            child_due.pop(0)
            setup_samples.append(setup_in_child(args))
        traced = bool(args.trace) and rounds % 2 == 1
        t0 = time.perf_counter()
        if traced:
            with tr.installed():
                curves = [harness.run_experiment(cfg) for cfg in configs]
        else:
            curves = [harness.run_experiment(cfg) for cfg in configs]
        times[traced].append(time.perf_counter() - t0)
        timed += times[traced][-1]
        reference_seconds.append(calibrate.seconds())
        if not traced:
            scaled_untraced.append(calibrate.scaled(
                times[False][-1], (reference_seconds[-2] + reference_seconds[-1]) / 2))
        rounds += 1
        attempted += workload.packets_per_round
        failed += sum(curve.divergences for curve in curves)
        rows = [curve.rows for curve in curves]
        if reference is None:
            reference = rows
            failures += check_rows(checks, configs, curves)
        elif rows != reference:
            failures.append(f"round {rounds}: rows differ from an earlier round's")
        if timed >= args.seconds and (not args.trace or rounds >= 2):
            break
    setup_samples += [setup_in_child(args) for _ in child_due]

    per_round = workload.packets_per_round
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment(), "rounds": rounds,
            "packets_per_round": per_round,
            "round_seconds": {"untraced": times[False], "traced": times[True]},
            "reference_seconds": reference_seconds,
            "setup_and_reference_seconds": setup_samples,
            "unscaled": {"packets_per_s": attempted / sum(times[False]) if not args.trace
                         else None,
                         "setup_s": statistics.median(s for s, _ in setup_samples)},
            "failures": failures}
    if args.trace:
        traced_rounds = len(times[True])
        packets = traced_rounds * per_round
        symbols = packets * configs[0].packet_len if workload.variant == "adaptive" else 0
        metrics = tracer.layer_metrics(tr, traced_rounds, packets, symbols)
        untraced_ms = 1e3 * sum(times[False]) / (len(times[False]) * per_round)
        traced_ms = 1e3 * sum(times[True]) / packets
        metrics["trace.untraced_ms_per_packet"] = {"value": untraced_ms, "unit": "ms"}
        metrics["trace.traced_ms_per_packet"] = {"value": traced_ms, "unit": "ms"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_ms / untraced_ms - 1.0),
                                         "unit": "%"}
        accounted = tracer.self_seconds(tr)
        metrics["trace.accounted_ms_per_packet"] = {"value": 1e3 * accounted / packets,
                                                    "unit": "ms"}
        metrics["trace.accounted_share"] = {"value": accounted / sum(times[True]),
                                            "unit": "ratio"}
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tr.write(trace_file)
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        # Packets over the summed scaled time of the rounds, not a median of
        # round rates: the host switches between a fast and a slow state for
        # tens of seconds at a time, and a median would snap to one of them.
        metrics = {
            "packets_per_s": {"value": attempted / sum(scaled_untraced), "unit": "1/s"},
            "setup_s": {"value": statistics.median(calibrate.scaled(s, r)
                                                   for s, r in setup_samples),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
