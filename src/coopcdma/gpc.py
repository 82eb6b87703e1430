"""Adaptive joint estimation under the global power constraint.

Three coupled recursions share state across a packet: an RLS receiver-matrix
update driven by the stacked observation, a constrained power-vector update
that solves its weighted normal equations and projects onto the budget sphere
as the exact power step does, and a joint RLS channel estimator over all users
and links. Under individual constraints power and channel run per user block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mmse import nonnegative_amplitudes
from .rlscore import (ExpWeightedInverse, check_finite, correlation_gain,
                      solve_normal)


@dataclass
class ReceiverRlsState:
    Phi: np.ndarray
    W: np.ndarray
    alpha: float


def init_receiver(stack: int, K: int, alpha: float, delta: float,
                  W0: np.ndarray | None = None) -> ReceiverRlsState:
    W = np.zeros((stack, K), dtype=complex) if W0 is None else W0.astype(complex)
    return ReceiverRlsState(Phi=np.eye(stack, dtype=complex) / delta, W=W, alpha=alpha)


def receiver_update(state: ReceiverRlsState, r: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """One receiver step; returns the a-priori error xi = b - W^H r."""
    xi = b - state.W.conj().T @ r
    k, state.Phi = correlation_gain(state.Phi, r, state.alpha)
    state.W = state.W + np.outer(k, xi.conj())
    check_finite(xi, "receiver a-priori error")
    return xi


@dataclass
class PowerRlsState:
    """Exponentially weighted LS state for the transmit amplitudes.

    a_ls = N^-1 z solves the weighted normal equations, anchored at the
    initial allocation by N = delta*I, z = delta*a0; a is the emitted
    allocation, a_ls projected onto the nonnegative-real budget sphere, never
    fed back into N and z. Until `start` updates have passed the initial
    (equal-power) allocation is emitted while statistics accumulate, so no
    link is starved of excitation before the receiver and channel settle.
    """

    N: np.ndarray
    z: np.ndarray
    a_ls: np.ndarray  # internal unconstrained LS estimate
    a: np.ndarray  # emitted stacked K*hops amplitudes
    P_T: float
    alpha: float
    lam: float
    start: int
    t: int = 0


def init_power(a0: np.ndarray, P_T: float, alpha: float, delta: float,
               lam: float = 0.0, start: int = 0) -> PowerRlsState:
    a0 = a0.astype(complex)
    return PowerRlsState(N=delta * np.eye(a0.size, dtype=complex), z=delta * a0,
                         a_ls=a0.copy(), a=a0.copy(), P_T=P_T, alpha=alpha,
                         lam=lam, start=start)


def _loading_weight(lam: float, alpha: float, dim: int) -> float:
    """Weight of the cycled diagonal-loading regressor.

    One basis direction is refreshed per step, so each direction's
    exponentially weighted loading sums to lam/(1-alpha): the same relative
    regularization the exact power step applies to its ensemble statistics.
    """
    if alpha >= 1.0:
        return lam * dim
    return lam * (1.0 - alpha ** dim) / (1.0 - alpha)


def _emit_amplitudes(state: PowerRlsState) -> np.ndarray:
    """Emit the projected LS estimate once the training hold has passed."""
    if state.t > state.start:
        state.a = nonnegative_amplitudes(state.a_ls, state.P_T).astype(complex)
    return state.a


def power_update(state: PowerRlsState, W: np.ndarray, U_hat: np.ndarray,
                 link_symbols: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Constrained power step: one normal-equation update, then projection.

    U_hat holds the estimated per-link waveforms (stack x K*hops) and
    link_symbols the per-link symbol estimates, so the user-k regressor (column
    k of V) is v_k = s * conj(U_hat^H w_k) and a^H v_k is the signal part of
    the filter output w_k^H r predicted by the current amplitudes.
    """
    V = link_symbols[:, None] * (U_hat.conj().T @ W).conj()
    state.N = state.alpha * state.N + V @ V.conj().T
    state.z = state.alpha * state.z + V @ b.conj()
    dim = state.z.size
    if state.lam > 0.0:
        i = state.t % dim
        state.N[i, i] += _loading_weight(state.lam, state.alpha, dim)
    state.t += 1
    check_finite(state.N, "power normal matrix")
    state.a_ls = solve_normal(state.N, state.z, "power normal matrix")
    check_finite(state.a_ls, "power estimate")
    return _emit_amplitudes(state)


@dataclass
class ChannelRlsState:
    normal: ExpWeightedInverse
    p: np.ndarray
    h: np.ndarray
    alpha: float


def init_channel(dim: int, alpha: float, delta: float,
                 h0: np.ndarray | None = None) -> ChannelRlsState:
    h = np.zeros(dim, dtype=complex) if h0 is None else h0.astype(complex).copy()
    return ChannelRlsState(normal=ExpWeightedInverse(dim, delta),
                           p=np.zeros(dim, dtype=complex), h=h, alpha=alpha)


def channel_update(state: ChannelRlsState, r: np.ndarray, C: np.ndarray,
                   link_symbols: np.ndarray, link_amps: np.ndarray,
                   L: int) -> np.ndarray:
    """Joint channel step: regressor V = C * diag(symbols * amps, each tap).

    C stacks the block signatures of all covered links (stack x dim); the
    symbol/amplitude scaling repeats per multipath tap. The estimate h solves
    the exponentially weighted normal equations N h = p.
    """
    scale = np.repeat(link_symbols * link_amps, L)
    V = C * scale[None, :]
    state.normal.update_rows(V, state.alpha)
    state.p = state.alpha * state.p + V.conj().T @ r
    state.h = state.normal.solve(state.p)
    check_finite(state.h, "channel estimate")
    return state.h


def waveforms_from_channel(C: np.ndarray, h: np.ndarray, L: int) -> np.ndarray:
    """Per-link effective waveforms (stack x links) from a channel estimate.

    C holds the links' columns of the stacked block signatures (L per link,
    as in Scenario.C_all) and h their stacked taps: column l is C's link-l
    block applied to h's link-l taps.
    """
    return (C * h).reshape(C.shape[0], -1, L).sum(-1)
