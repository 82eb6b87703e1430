"""The benchmark's workloads and their set-up.

A workload is a fixed list of experiment configurations, one per scheme, all
at the desk configuration (K=4, N=16, L=3, n_r=2, P=1500, 200 training
symbols). One round runs every configuration once through
harness.run_experiment, the call the command line makes, so a round is a
fixed set of packets that depends only on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    schemes: tuple
    snr_grid: tuple
    trials: int  # packets per scheme and SNR point in one round

    @property
    def packets_per_round(self) -> int:
        return len(self.schemes) * len(self.snr_grid) * self.trials


WORKLOADS = {
    # No RLS code runs; mmse alternation dominates the jpais packets, frame
    # synthesis and relay filtering the ncis/cis packets.
    "exact-sweep": Workload("exact-sweep", "exact",
                            ("ncis", "cis", "jpais-ipc", "jpais-gpc"),
                            (0.0, 6.0, 12.0, 18.0), 8),
    # One jpais-gpc packet (the joint 36-dimensional channel estimator
    # dominates) and one jpais-ipc packet (the same recursions as K per-user
    # blocks of dimension 9); mmse is idle. The two schemes share one
    # workload so that runs can be long enough to be steady.
    "adaptive": Workload("adaptive", "adaptive", ("jpais-gpc", "jpais-ipc"),
                         (9.0,), 1),
}


def setup(name: str, seed: int):
    """Import the library, build the workload's configurations, draw codes.

    This is the work timed as setup_s; it imports coopcdma itself so that the
    import is part of it.
    """
    from coopcdma import harness

    workload = WORKLOADS[name]
    configs = [harness.ExperimentConfig(scheme=scheme, variant=workload.variant,
                                        trials=workload.trials,
                                        snr_grid=workload.snr_grid, seed=seed)
               for scheme in workload.schemes]
    for cfg in configs:
        harness.codes_for(cfg, cfg.users)
    return workload, configs
