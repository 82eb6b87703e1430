"""A fixed reference computation that gauges the host's current speed.

The 2-vCPU guest the benchmark was built on drifts in speed by up to half
for minutes at a time, for every process alike (CPU time tracks wall time,
steal time is nil). The benchmark times this computation, which does not
touch coopcdma, next to every timed piece of work, and scales that work's
time by REFERENCE_S over the computation's time. A run made while the host
is slow then reads about as it would at the reference speed, while a change
to the library still moves the work's time and not the reference's.

The mix follows the packet path: a pure-Python loop, RLS-style rank-one
updates of a small complex inverse, and dense complex solves.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds the computation takes at the reference speed, about the fast state
# of the host above (Xeon at 2.0 GHz). Any constant would do; it fixes the
# unit of the scaled times.
REFERENCE_S = 0.05

_rng = np.random.default_rng(20130409)
_ROWS = _rng.standard_normal((54, 36)) + 1j * _rng.standard_normal((54, 36))
_M = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64)) + 8.0 * np.eye(64)
_B = _rng.standard_normal(64) + 1j * _rng.standard_normal(64)


def _python_loop(n: int = 150_000) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def _rank_one_updates(n: int = 1200) -> np.ndarray:
    inv = np.eye(36, dtype=complex)
    for i in range(n):
        g = _ROWS[i % len(_ROWS)]
        u = inv @ g
        inv -= np.outer(u, u.conj()) / (1.0 + float(np.real(np.vdot(g, u))))
    return inv


def _solves(n: int = 200) -> np.ndarray:
    for _ in range(n):
        x = np.linalg.solve(_M, _B)
    return x


def seconds() -> float:
    """Wall time of one pass of the reference computation."""
    start = time.perf_counter()
    _python_loop()
    _rank_one_updates()
    _solves()
    return time.perf_counter() - start


def scaled(work_s: float, reference_s: float) -> float:
    """work_s as it would read at the reference speed."""
    return work_s * REFERENCE_S / reference_s
