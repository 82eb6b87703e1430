"""Output checks against properties the method must have.

Every check returns a list of failure messages; an empty list means the
output passed. None of them compares against stored copies of earlier output.
"""

from __future__ import annotations

import numpy as np

# Relative power-budget error allowed on designed and emitted amplitudes.
BUDGET_TOL = 1e-10

# Final relative channel-estimation error an adaptive check packet must reach.
CHANNEL_ERROR_CEILING = 0.1

# BER ceiling for an adaptive check packet, a third of the ~0.3 of a
# receiver that fails to converge.
ADAPTIVE_BER_CEILING = 0.1


def check_curve(curve, users: int, packet_len: int, training_len: int,
                trials: int) -> list[str]:
    """Every packet completed and counted, every BER a probability <= 1/2."""
    failures = []
    if curve.divergences:
        failures.append(f"{curve.scheme}: {curve.divergences} packets diverged")
    expected_bits = 2 * users * (packet_len - training_len) * trials
    for x, ber, _, bits in curve.rows:
        if bits != expected_bits:
            failures.append(f"{curve.scheme} at {x}: bit_count {bits}, "
                            f"expected {expected_bits}")
        if not 0.0 <= ber <= 0.5:
            failures.append(f"{curve.scheme} at {x}: BER {ber} outside [0, 0.5]")
    return failures


def check_amplitudes(scheme: str, amps: np.ndarray) -> list[str]:
    """Designed amplitudes (K x hops) are real, nonnegative and on their sphere.

    The sphere is sum |a|^2 = K for jpais-gpc (one global budget of K unit
    user budgets), 1 per user for jpais-ipc, and 1/hops per link for cis.
    """
    amps = np.asarray(amps)
    K, hops = amps.shape
    failures = []
    if np.any(np.imag(amps) != 0.0):
        failures.append(f"{scheme}: complex amplitudes")
    real = np.real(amps)
    if np.any(real < 0.0):
        failures.append(f"{scheme}: negative amplitudes")
    power = np.abs(amps) ** 2
    if scheme == "jpais-gpc":
        got, want = power.sum(), float(K)
    elif scheme == "jpais-ipc":
        got, want = power.sum(axis=1), np.ones(K)
    elif scheme == "cis":
        got, want = power, np.full((K, hops), 1.0 / hops)
    else:
        return failures
    if not np.allclose(got, want, rtol=BUDGET_TOL, atol=0.0):
        failures.append(f"{scheme}: amplitude power {got} off its budget {want}")
    return failures


def check_snr_trend(curve) -> list[str]:
    """BER does not rise from the lowest to the highest SNR point."""
    rows = sorted(curve.rows)
    if rows[-1][1] > rows[0][1]:
        return [f"{curve.scheme}: BER {rows[-1][1]} at {rows[-1][0]} dB exceeds "
                f"{rows[0][1]} at {rows[0][0]} dB"]
    return []


def check_scheme_order(ber: dict) -> list[str]:
    """BER(jpais-gpc) <= BER(cis) < BER(ncis), the ordering the paper claims."""
    if ber["jpais-gpc"] <= ber["cis"] < ber["ncis"]:
        return []
    return [f"scheme order violated: jpais-gpc {ber['jpais-gpc']}, "
            f"cis {ber['cis']}, ncis {ber['ncis']}"]


def check_adaptive_packet(scheme: str, result, users: int) -> list[str]:
    """An adaptive packet kept its power budget, learned its channel and
    detected its bits.

    result is a harness.PacketResult collected with ("a_norm",
    "channel_error"). For jpais-gpc every symbol's squared amplitude norm is
    the global budget K; for jpais-ipc each user's is 1.
    """
    failures = []
    if result.diverged:
        failures.append(f"{scheme}: check packet diverged")
    ber = result.bit_errors / result.payload_bits
    if not ber < ADAPTIVE_BER_CEILING:
        failures.append(f"{scheme}: check packet BER {ber} not below "
                        f"{ADAPTIVE_BER_CEILING}")
    norms = result.extras["a_sq_norms"]
    budget = float(users) if scheme == "jpais-gpc" else 1.0
    worst = float(np.max(np.abs(norms - budget))) if norms.size else float("nan")
    if not worst <= BUDGET_TOL * budget:
        failures.append(f"{scheme}: power budget off by {worst}")
    err = result.extras["channel_error"]
    final = float(err[-1]) if err.size else float("nan")
    if not final < CHANNEL_ERROR_CEILING:
        failures.append(f"{scheme}: final channel error {final}")
    return failures
