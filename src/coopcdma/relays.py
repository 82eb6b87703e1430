"""Amplify-and-forward relaying with linear receive filtering at the relays.

Each relay separates the users with a linear MMSE (or RLS-adapted) filter,
normalizes the soft estimate to unit average energy, and re-spreads it toward
the destination, so that the destination-controlled amplitudes alone set the
per-link transmit power.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateStateError
from .model import hard_decision
from .rlscore import correlation_gain

_POWER_FLOOR = 1e-30


def mmse_relay_bank(x_scaled: np.ndarray, sigma2: float):
    """Exact per-user MMSE filters and output-power gains for one relay.

    x_scaled holds the amplitude-scaled source-to-relay chip waveforms, one
    column per user. Returns (W, gains) with gains g_k such that the forwarded
    soft symbols g_k * w_k^H r have unit average energy.
    """
    M = x_scaled.shape[0]
    R = x_scaled @ x_scaled.conj().T + sigma2 * np.eye(M)
    if sigma2 > 0.0:
        W = np.linalg.solve(R, x_scaled)
    else:
        W = np.linalg.pinv(R) @ x_scaled
    out_power = np.real(np.einsum("ij,ij->j", W.conj(), R @ W))
    if np.any(out_power <= _POWER_FLOOR):
        raise DegenerateStateError("relay filter output power is zero; "
                                   "source-relay link carries no signal")
    return W, 1.0 / np.sqrt(out_power)


def relay_statistics(x_scaled: np.ndarray, sigma2: float, bank):
    """Second-order model of one relay's forwarded symbols.

    bank is the relay's (W, gains), as mmse_relay_bank returns them for the
    same x_scaled and sigma2. With filters W and normalizing gains g, the
    forwarded symbol vector is btilde = G b + nu where G = diag(g) W^H X
    couples the users' true symbols and nu is filtered relay noise with
    covariance S. Returns (G, S); a perfect relay corresponds to G = I, S = 0.
    """
    W, gains = bank
    G = gains[:, None] * (W.conj().T @ x_scaled)
    S = sigma2 * (gains[:, None] * (W.conj().T @ W) * gains[None, :])
    return G, S


class AdaptiveRelay:
    """RLS-adapted relay: shared inverse-correlation matrix, per-user filters.

    Tracks the output power of each filter with a running mean so the
    forwarded symbols stay close to unit energy while the filters adapt.
    """

    def __init__(self, M: int, K: int, alpha: float, delta: float):
        self.Phi = np.eye(M, dtype=complex) / delta
        self.W = np.zeros((M, K), dtype=complex)
        self.alpha = alpha
        self.power = np.zeros(K)
        self.count = 0

    def step(self, r: np.ndarray, training: np.ndarray | None) -> np.ndarray:
        """Process one source-to-relay observation; returns forwarded symbols."""
        y = self.W.conj().T @ r
        ref = training if training is not None else hard_decision(y)
        k, self.Phi = correlation_gain(self.Phi, r, self.alpha)
        self.W = self.W + np.outer(k, (ref - y).conj())
        self.count += 1
        self.power += (np.abs(y) ** 2 - self.power) / self.count
        return y / np.sqrt(np.maximum(self.power, _POWER_FLOOR))
