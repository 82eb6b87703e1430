"""Adaptive joint estimation under the global power constraint.

Three coupled recursions share state across a packet: an RLS receiver-matrix
update driven by the stacked observation, a constrained power-vector update
processed as successive per-user rank-one steps followed by sphere
normalization, and a joint RLS channel estimator over all users and links.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError
from .rlscore import ExpWeightedInverse, check_finite, correlation_gain, resym


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

    a_ls is the unconstrained LS estimate driven by the rank-one recursion;
    a is the emitted allocation: a_ls projected onto the nonnegative-real
    sphere of the power budget. The projection is never folded back into the
    recursion so the LS state keeps tracking the normal-equation solution.
    Until `start` updates have passed the initial (equal-power) allocation is
    emitted while statistics accumulate, so no link is starved of excitation
    before the co-running receiver and channel estimates have settled.
    """

    Phi_a: np.ndarray
    a_ls: np.ndarray  # internal unconstrained LS estimate
    a: np.ndarray  # emitted stacked K*hops amplitudes
    P_T: float
    alpha: float
    lam: float
    start: int
    t: int = 0


def init_power(a0: np.ndarray, P_T: float, alpha: float, delta: float,
               lam: float = 0.0, start: int = 0) -> PowerRlsState:
    dim = a0.size
    return PowerRlsState(Phi_a=np.eye(dim, dtype=complex) / delta,
                         a_ls=a0.astype(complex).copy(),
                         a=a0.astype(complex).copy(), P_T=P_T, alpha=alpha,
                         lam=lam, start=start)


def _rank_one(Phi: np.ndarray, a_ls: np.ndarray, v: np.ndarray, d: complex):
    """One exponentially weighted rank-one LS update for pair (v, d)."""
    Pu = Phi @ v
    denom = 1.0 + float(np.real(np.vdot(v, Pu)))
    gain = Pu / denom
    xi = d - np.vdot(a_ls, v)
    a_ls = a_ls + gain * np.conj(xi)
    Phi = Phi - np.outer(gain, v.conj() @ Phi)
    return Phi, a_ls


def _loading_weight(lam: float, alpha: float, dim: int) -> float:
    """Weight of the cycled diagonal-loading regressor.

    One basis direction is refreshed per step, so each direction's
    exponentially weighted loading sums to lam/(1-alpha): the same relative
    regularization the exact power step applies to its ensemble statistics.
    """
    if alpha >= 1.0:
        return lam * dim
    return lam * (1.0 - alpha ** dim) / (1.0 - alpha)


def _emit_amplitudes(state, budget: float) -> np.ndarray:
    """Project the LS estimate onto the nonnegative-real budget sphere.

    Transmit amplitudes are physical gains: per-link phase alignment is the
    receive filter's job, so the LS phases are discarded on emission.
    """
    if not np.all(np.isfinite(state.a_ls)):
        raise DegenerateStateError("degenerate amplitude estimate")
    if state.t > state.start:
        a_r = np.clip(np.real(state.a_ls), 0.0, None)
        if np.linalg.norm(a_r) == 0.0:
            a_r = np.abs(state.a_ls)
        nrm = np.linalg.norm(a_r)
        if nrm == 0.0:
            raise DegenerateStateError("degenerate amplitude estimate")
        state.a = (a_r * (np.sqrt(budget) / nrm)).astype(complex)
    return state.a


def power_update(state: PowerRlsState, W: np.ndarray, U_hat: np.ndarray,
                 link_symbols: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Constrained power step: K successive rank-one updates, then projection.

    U_hat holds the estimated per-link waveforms (stack x K*hops) and
    link_symbols the per-link symbol estimates, so the user-k regressor is
    v_k = s * conj(U_hat^H w_k) and a^H v_k is the signal part of the filter
    output w_k^H r predicted by the current amplitudes.
    """
    G = (U_hat.conj().T @ W).conj()
    Phi = state.Phi_a / state.alpha  # forgetting applied once per symbol
    a_ls = state.a_ls
    K = b.size
    for k in range(K):
        Phi, a_ls = _rank_one(Phi, a_ls, link_symbols * G[:, k], b[k])
    dim = a_ls.size
    if state.lam > 0.0:
        e = np.zeros(dim, dtype=complex)
        e[state.t % dim] = np.sqrt(_loading_weight(state.lam, state.alpha, dim))
        Phi, a_ls = _rank_one(Phi, a_ls, e, 0.0)
    state.t += 1
    state.a_ls = a_ls
    state.Phi_a = resym(Phi)
    check_finite(state.Phi_a, "power inverse-correlation matrix")
    return _emit_amplitudes(state, state.P_T)


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


def waveforms_from_channel(conv_mats, h: np.ndarray, hops: int) -> np.ndarray:
    """Rebuild the stack x K*hops effective waveform matrix from an h estimate.

    conv_mats is the per-user list of M x L convolution matrices; h is the
    stacked channel (user-major, hop-major, L taps per link).
    """
    K = len(conv_mats)
    M, L = conv_mats[0].shape
    U = np.zeros((hops * M, K * hops), dtype=complex)
    for k in range(K):
        for j in range(hops):
            blk = (k * hops + j) * L
            U[j * M:(j + 1) * M, k * hops + j] = conv_mats[k] @ h[blk:blk + L]
    return U
