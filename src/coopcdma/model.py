"""Signal model for a multi-relay amplify-and-forward DS-CDMA uplink.

Holds the pieces of the chip-synchronous model r = sum_k C_k H_k B_k a_k +
eta + n: spreading codes, convolution matrices, multipath channels, QPSK
symbols, and the one frame synthesizer that turns a hop's chip waveforms,
symbols and amplitudes into observation windows with their ISI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QPSK_SCALE = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class SystemDims:
    """Integer dimensions governing every matrix shape in the simulation.

    K: users, N: chips per symbol, L: multipath taps, n_r: relays,
    P: symbols per packet. The chip-window length M = N + L - 1 is derived.
    """

    K: int
    N: int
    L: int
    n_r: int
    P: int = 1

    def __post_init__(self):
        if self.K < 1 or self.N < 1 or self.L < 1 or self.P < 1:
            raise ValueError(f"K, N, L, P must be >= 1, got {self}")
        if self.n_r < 0:
            raise ValueError(f"n_r must be >= 0, got {self.n_r}")

    @property
    def M(self) -> int:
        return self.N + self.L - 1

    @property
    def hops(self) -> int:
        """Number of destination-facing links per user (direct + relays)."""
        return self.n_r + 1

    @property
    def stack(self) -> int:
        """Length of the stacked received vector at the destination."""
        return self.hops * self.M


def draw_spreading_codes(K: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """Random binary +-1/sqrt(N) signatures, one row per user."""
    return (2 * rng.integers(0, 2, size=(K, N)) - 1) / np.sqrt(N)


def build_convolution_matrix(code: np.ndarray, L: int) -> np.ndarray:
    """M x L matrix whose column j is the signature shifted down by j chips."""
    if L < 1:
        raise ValueError("L must be >= 1")
    code = np.asarray(code)
    N = code.shape[0]
    M = N + L - 1
    D = np.zeros((M, L), dtype=complex)
    for c in range(L):
        D[c:c + N, c] = code
    return D


def generate_multipath_channel(L: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm L-tap channel with i.i.d. circular complex Gaussian taps."""
    h = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2.0)
    return h / np.linalg.norm(h)


def modulate_qpsk(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped unit-energy QPSK: bit pair (b0, b1) -> ((1-2*b0)+j(1-2*b1))/sqrt(2)."""
    bits = np.asarray(bits)
    return ((1 - 2 * bits[..., 0]) + 1j * (1 - 2 * bits[..., 1])) * QPSK_SCALE


def demodulate_qpsk(soft: np.ndarray) -> np.ndarray:
    """Sign-based bit decisions per quadrature, inverse of modulate_qpsk."""
    soft = np.asarray(soft)
    return np.stack([(soft.real < 0).astype(np.int8),
                     (soft.imag < 0).astype(np.int8)], axis=-1)


def hard_decision(soft: np.ndarray) -> np.ndarray:
    """Nearest QPSK constellation point."""
    soft = np.asarray(soft)
    re = np.where(soft.real >= 0, 1.0, -1.0)
    im = np.where(soft.imag >= 0, 1.0, -1.0)
    return (re + 1j * im) * QPSK_SCALE


def add_hop_frames(out: np.ndarray, X: np.ndarray, S: np.ndarray,
                   a: np.ndarray | float, spill: int,
                   left: np.ndarray | None = None) -> None:
    """Add one hop's chip frames X (S a) and their ISI spill-over to out.

    X holds the hop's M x K chip waveforms (one column per user), S the K x
    (cols + 2) hop symbols with one neighbour column on each side (zero at the
    packet edges) and a the K x 1 amplitudes, or one amplitude for all users;
    out is the M x cols block of observation windows. A symbol's last
    `spill` = L - 1 chips fall into the head of the next window and its first
    `spill` chips into the tail of the previous one; spill = 0 leaves the
    windows free of ISI.

    With a left factor (J x M), out is the J x cols block of left times the
    windows, formed without the windows: the ISI terms go through left's head
    and tail columns.
    """
    N = X.shape[0] - spill
    if left is None:
        out += X @ (S[:, 1:-1] * a)
        if spill:
            out[:spill] += X[N:] @ (S[:, :-2] * a)
            out[N:] += X[:spill] @ (S[:, 2:] * a)
        return
    out += (left @ X) @ (S[:, 1:-1] * a)
    if spill:
        out += (left[:, :spill] @ X[N:]) @ (S[:, :-2] * a)
        out += (left[:, N:] @ X[:spill]) @ (S[:, 2:] * a)
