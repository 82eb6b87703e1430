"""Amplify-and-forward relaying with linear receive filtering at the relays.

Each relay separates the users with a linear MMSE (or RLS-adapted) filter,
normalizes the soft estimate to unit average energy, and re-spreads it toward
the destination, so that the destination-controlled amplitudes alone set the
per-link transmit power.
"""

from __future__ import annotations

import numpy as np

from . import mmse
from .errors import DegenerateStateError
# by name, so that a wrapper of gpc.receiver_update times the destination only
from .gpc import init_receiver, receiver_update
from .model import hard_decision
# unused here: the benchmark's tracer wraps correlation_gain at this name
from .rlscore import correlation_gain  # noqa: F401

_POWER_FLOOR = 1e-30


def mmse_relay_bank(x_scaled: np.ndarray, sigma2):
    """Exact per-user MMSE filters and output-power gains of a stack of relays.

    x_scaled (..., M, K) holds the relays' amplitude-scaled source-to-relay
    chip waveforms, one column per user, and sigma2 their noise levels, one
    value or any shape that broadcasts over x_scaled's leading axes. Returns
    (W, gains), (..., M, K) and (..., K), gains g_k making the forwarded
    g_k * w_k^H r unit-energy. Each covariance X X^H + sigma2 I is solved as
    the destination's are (mmse._checked_solve, floor sigma2): a singular or
    ill-conditioned one, as at sigma2 = 0, falls back to the pseudoinverse
    with a RuntimeWarning.
    """
    M = x_scaled.shape[-2]
    R = (x_scaled @ x_scaled.conj().swapaxes(-1, -2)
         + np.asarray(sigma2)[..., None, None] * np.eye(M))
    W = mmse._checked_solve(R, x_scaled, "relay covariance", sigma2)
    out_power = np.real(np.einsum("...ij,...ij->...j", W.conj(), R @ W))
    if np.any(out_power <= _POWER_FLOOR):
        raise DegenerateStateError("relay filter output power is zero; "
                                   "source-relay link carries no signal")
    return W, 1.0 / np.sqrt(out_power)


def relay_statistics(x_scaled: np.ndarray, sigma2, bank):
    """Second-order model of a stack of relays' forwarded symbols.

    bank is the relays' (W, gains), as mmse_relay_bank returns them for the
    same x_scaled (..., M, K) and sigma2 (one value, or one that broadcasts
    over the leading axes). With filters W and normalizing gains
    g, a relay forwards btilde = G b + nu where G = diag(g) W^H X couples the
    users' true symbols and nu is filtered relay noise with covariance S.
    Returns the (..., K, K) stacks (G, S); a perfect relay has G = I, S = 0.
    """
    W, gains = bank
    WH = W.conj().swapaxes(-1, -2)
    G = gains[..., :, None] * (WH @ x_scaled)
    S = np.asarray(sigma2)[..., None, None] * (
        gains[..., :, None] * (WH @ W) * gains[..., None, :])
    return G, S


class AdaptiveRelay:
    """RLS-adapted relays for one packet, stepped as one stack: the
    destination's receiver recursion on each relay's observation (an n_r x
    M x K filter stack), and a running mean of each filter's output power
    over the packet, so the forwarded symbols stay close to unit energy
    while the filters adapt.
    """

    def __init__(self, relays: int, M: int, K: int, alpha: float,
                 delta: float):
        self.rx = init_receiver(np.zeros((relays, M, K)), alpha, delta)
        self.count = 0  # symbols whose filter step has completed

    def step(self, r: np.ndarray, training: np.ndarray | None) -> np.ndarray:
        """Filter each relay's source-to-relay observation r (n_r x M, or M
        heard by all) and update the filters on the training symbols, or
        else on the output's decisions; returns the filter outputs (n_r x
        K), not yet normalized. A non-finite a-priori error raises
        NumericalDivergenceError before any state changes."""
        y = (self.rx.W.conj().swapaxes(-1, -2) @ r[..., None])[..., 0]
        ref = training if training is not None else hard_decision(y)
        receiver_update(self.rx, r, ref, y)
        self.count += 1
        return y

    def forward(self, obs: np.ndarray, training: np.ndarray) -> np.ndarray:
        """The symbols the relays forward for the packet's observations obs
        (n_r x M x n): one filter step per symbol, the first
        training.shape[-1] of them on the training symbols (K x T). Returns
        (n, n_r, K): each filter output over the square root of the running
        mean of its output power from the packet's first symbol to that one
        (floored at _POWER_FLOOR)."""
        n, T = obs.shape[-1], training.shape[-1]
        relays, _, K = self.rx.W.shape
        y = np.empty((n, relays, K), dtype=complex)
        for i in range(n):
            y[i] = self.step(obs[:, :, i], training[:, i] if i < T else None)
        # the running mean of |y|^2, in place and in symbol order:
        # mean_1 = |y_1|^2, mean_i = mean_(i-1) + (|y_i|^2 - mean_(i-1)) / i
        mean = np.square(np.abs(y))
        for i in range(1, n):
            m, last = mean[i], mean[i - 1]
            m -= last
            m /= i + 1
            m += last
        y /= np.sqrt(np.maximum(mean, _POWER_FLOOR, out=mean), out=mean)
        return y
