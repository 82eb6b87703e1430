"""Adaptive joint estimation under the global power constraint.

Three coupled recursions share state across a packet: an RLS receiver-matrix
update driven by the stacked observation (the relays run it on theirs), a
constrained power-vector update that solves its weighted normal equations and
projects onto the budget sphere as the exact power step does, and a joint RLS
channel estimator over all users and links, solved hop by hop. Power and
channel run on a leading axis of B user blocks: one block of all K users under
the global budget, or K one-user blocks (ipc).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mmse import nonnegative_amplitudes
from .rlscore import (ExpWeightedInverse, check_finite, correlation_gain,
                      solve_normal)


@dataclass
class ReceiverRlsState:
    """A stack of RLS receivers: Phi (..., M, M), filters W (..., M, K)."""

    Phi: np.ndarray
    W: np.ndarray
    alpha: float


def init_receiver(W0: np.ndarray, alpha: float,
                  delta: float) -> ReceiverRlsState:
    """Receivers from initial filters W0 (..., M, K), each Phi = I/delta."""
    W = W0.astype(complex)
    *lead, M, _ = W.shape
    return ReceiverRlsState(Phi=np.tile(np.eye(M, dtype=complex) / delta,
                                        (*lead, 1, 1)), W=W, alpha=alpha)


def receiver_update(state: ReceiverRlsState, r: np.ndarray, b: np.ndarray,
                    y: np.ndarray) -> np.ndarray:
    """One step of each receiver on its observation r (..., M), reference b
    and filter output y = W^H r (..., K); returns the a-priori error b - y,
    which raises before the state changes if it is not finite."""
    xi = b - y
    check_finite(xi, "receiver a-priori error")
    k, state.Phi = correlation_gain(state.Phi, r, state.alpha)
    state.W += k[..., :, None] * xi.conj()[..., None, :]
    return xi


@dataclass
class PowerRlsState:
    """Exponentially weighted LS state for the transmit amplitudes.

    N and z are the weighted normal equations N a_ls = z, anchored at the
    initial allocation by N = delta*I, z = delta*a0; a is the emitted
    allocation, their solution a_ls (formed in power_update) projected onto
    the nonnegative-real budget sphere, never fed back into N and z. Until
    `start` updates have passed the initial (equal-power) allocation is
    emitted while statistics accumulate, so no link is starved of excitation
    before the receiver and channel settle.
    """

    N: np.ndarray
    z: np.ndarray
    a: np.ndarray  # emitted amplitudes, user-major over the block's links
    P_T: float  # budget of each block
    alpha: float
    lam: float
    start: int
    t: int = 0


def init_power(a0: np.ndarray, P_T: float, alpha: float, delta: float,
               lam: float = 0.0, start: int = 0) -> PowerRlsState:
    a0 = a0.astype(complex)
    *blocks, n = a0.shape
    return PowerRlsState(N=np.tile(delta * np.eye(n, dtype=complex),
                                   (*blocks, 1, 1)), z=delta * a0,
                         a=a0.copy(), P_T=P_T, alpha=alpha, lam=lam,
                         start=start)


def _loading_weight(lam: float, alpha: float, dim: int) -> float:
    """Weight of the cycled diagonal-loading regressor.

    One basis direction is refreshed per step, so each direction's
    exponentially weighted loading sums to lam/(1-alpha): the same relative
    regularization the exact power step applies to its ensemble statistics.
    """
    if alpha >= 1.0:
        return lam * dim
    return lam * (1.0 - alpha ** dim) / (1.0 - alpha)


def power_update(state: PowerRlsState, W: np.ndarray, U_hat: np.ndarray,
                 link_symbols: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Constrained power step: one normal-equation update, then projection.

    U_hat holds the estimated per-link waveforms (stack x links), W the
    block users' filters and link_symbols the per-link symbol estimates, so
    the user-k regressor (column k of V) is v_k = s * conj(U_hat^H w_k) and
    a^H v_k is the signal part of the filter output w_k^H r predicted by the
    current amplitudes. Stacked blocks put their axis first on every array.
    """
    # conj(U_hat^H W) as U_hat^T conj(W): the same bits, without
    # conjugated copies of U_hat and of the product
    V = link_symbols[..., None] * (U_hat.swapaxes(-1, -2) @ W.conj())
    state.N *= state.alpha
    state.N += V @ V.conj().swapaxes(-1, -2)
    state.z *= state.alpha
    state.z += (V @ b.conj()[..., None])[..., 0]
    dim = state.z.shape[-1]
    if state.lam > 0.0:
        i = state.t % dim
        state.N[..., i, i] += _loading_weight(state.lam, state.alpha, dim)
    state.t += 1
    check_finite(state.N, "power normal matrix")
    a_ls = solve_normal(state.N, state.z, "power normal matrix")
    check_finite(a_ls, "power estimate")
    if state.t > state.start:  # the training hold has passed: emit a_ls
        state.a = nonnegative_amplitudes(a_ls, state.P_T).astype(complex)
    return state.a


@dataclass
class ChannelRlsState:
    normal: ExpWeightedInverse
    p: np.ndarray
    h: np.ndarray
    alpha: float


def init_channel(h0: np.ndarray, alpha: float, delta: float) -> ChannelRlsState:
    """Channel state from the initial taps h0 (..., hops, d): for each block
    of a stack and each hop, the taps of the block's links on that hop."""
    h = h0.astype(complex)
    return ChannelRlsState(normal=ExpWeightedInverse(h.shape[-1], delta,
                                                     h.shape[:-1]),
                           p=np.zeros_like(h), h=h, alpha=alpha)


def channel_update(state: ChannelRlsState, r: np.ndarray, C: np.ndarray,
                   link_symbols: np.ndarray, link_amps: np.ndarray,
                   L: int) -> np.ndarray:
    """Joint channel step, hop by hop: on hop j the regressor is
    V_j = C_j * diag(the hop-j links' symbols * amps, each tap).

    A link reaches the destination on one hop only, so its taps enter only
    that hop's M rows of r: the joint normal matrix of all the links is zero
    across hops, and each hop's block is solved apart. C (..., hops or 1, M,
    d) holds each hop's block signatures (d = users x L columns, user-major);
    link_symbols and link_amps (..., users*hops) are user-major over the
    block's links, as power_update takes them. The estimate h (..., hops, d)
    solves the exponentially weighted normal equations N_j h_j = p_j of each
    block and hop.
    """
    hops = state.h.shape[-2]
    gains = link_symbols * link_amps
    gains = gains.reshape(*gains.shape[:-1], -1, hops).swapaxes(-1, -2)
    V = C * np.repeat(gains, L, axis=-1)[..., None, :]
    state.normal.update_rows(V.reshape(-1, V.shape[-1]), state.alpha)
    state.p *= state.alpha
    # V^H r as conj(V^T conj(r)): the same bits, without a conjugated copy
    # of V
    r_hops = r.reshape(hops, -1, 1)  # hop j's M chips
    state.p += (V.swapaxes(-1, -2) @ r_hops.conj())[..., 0].conj()
    state.h = solve_normal(state.normal.N, state.p, "weighted normal matrix")
    check_finite(state.h, "channel estimate")
    return state.h


def waveforms_from_channel(C: np.ndarray, h: np.ndarray, L: int) -> np.ndarray:
    """Per-link effective waveforms (M x links) from a channel estimate.

    C holds the links' signature columns, L per link (the users' convolution
    matrices), and h their taps: column l is C's link-l block applied to h's
    link-l taps. C and h may be stacks, which broadcast against each other:
    taps (hops, links*L) give every hop's waveforms (hops, M, links).
    """
    X = C * h[..., None, :]
    X = X.reshape(*X.shape[:-1], -1, L)
    # the taps summed in order from sum's identity 0.0, as .sum(-1) does for
    # L <= 3: the same bits, without the reduction's overhead
    out = X[..., 0] + 0.0
    for tap in range(1, L):
        out += X[..., tap]
    return out
