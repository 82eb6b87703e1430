"""Signal model for a multi-relay amplify-and-forward DS-CDMA uplink.

Holds the pieces of the chip-synchronous model r = sum_k C_k H_k B_k a_k +
eta + n: spreading codes, convolution matrices, multipath channels, QPSK
symbols, a hop's ISI geometry (hop_lag_parts, which the exact packet's map
shares) and the frame synthesizer that builds windows from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QPSK_SCALE = 1.0 / np.sqrt(2.0)
# QPSK points indexed by (real part >= 0) + 2 * (imaginary part >= 0)
_QPSK_POINTS = np.array([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j]) * QPSK_SCALE
# a decided part, as 0-d arrays: np.where takes them without converting a
# Python float each call
_PART_POS, _PART_NEG = np.array(QPSK_SCALE), np.array(-QPSK_SCALE)


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
        for name in ("K", "N", "L", "n_r", "P"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def generate_multipath_channel(L: int, rng: np.random.Generator,
                               shape: tuple = ()) -> np.ndarray:
    """Unit-norm L-tap channel with i.i.d. circular complex Gaussian taps, or
    a (*shape, L) array of them.

    Each channel draws its L real parts, then its L imaginary parts, so one
    call for a shape draws the stream of one call per channel in C order. The
    norm is sqrt(re.re + im.im), the bits of np.linalg.norm of one channel.
    """
    re, im = np.moveaxis(rng.standard_normal((*shape, 2, L)), -2, 0)
    h = (re + 1j * im) / np.sqrt(2.0)
    norm = np.sqrt(np.vecdot(h.real, h.real) + np.vecdot(h.imag, h.imag))
    return h / norm[..., None]


def modulate_qpsk(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped unit-energy QPSK: bit pair (b0, b1) -> ((1-2*b0)+j(1-2*b1))/sqrt(2)."""
    bits = np.asarray(bits)
    # the point of real part 1 - 2*b0 and imaginary part 1 - 2*b1 in
    # _QPSK_POINTS' order: the bits of the formula, without its temporaries
    return _QPSK_POINTS[3 - bits[..., 0] - 2 * bits[..., 1]]


def demodulate_qpsk(soft: np.ndarray) -> np.ndarray:
    """Sign-based bit decisions per quadrature, inverse of modulate_qpsk."""
    soft = np.asarray(soft)
    # both parts in one pass over soft's floats, viewed as (..., 2n) real
    # and imaginary parts (a 0-d soft as one element), each decision a byte
    parts = np.ascontiguousarray(soft, dtype=complex).view(float)
    return (parts < 0).view(np.int8).reshape(*soft.shape, 2)


def hard_decision(soft: np.ndarray) -> np.ndarray:
    """Nearest QPSK constellation point; a zero part (also -0.0) decides +,
    a nan part -.

    Both parts are decided in one pass over soft's floats, viewed as
    (..., 2K) real and imaginary parts: one comparison and one np.where
    give the bytes of the point table _QPSK_POINTS indexed by the two
    comparisons, without the index arithmetic and the fancy index.
    """
    soft = np.asarray(soft, dtype=complex)
    # a 0-d soft is viewed as one element, and the decision takes its shape
    parts = np.ascontiguousarray(soft).view(float)
    decided = np.where(parts >= 0, _PART_POS, _PART_NEG).view(complex)
    return decided.reshape(soft.shape)


def hop_lag_parts(X: np.ndarray, spill: int) -> list:
    """(lag, window rows, waveform rows) of each symbol an observation window
    holds of a hop's chip waveforms X (..., M, K): its own (lag 0), and with
    spill > 0 the last `spill` = L - 1 chips of the previous symbol in its
    head (lag -1) and the first of the next in its tail (lag +1). Exact only
    for spill <= N: a longer spill reaches symbols two or more away too."""
    parts = [(0, slice(None), X)]
    if spill:
        N = X.shape[-2] - spill
        parts += [(-1, slice(None, spill), X[..., N:, :]),
                  (1, slice(N, None), X[..., :spill, :])]
    return parts


def add_hop_frames(out: np.ndarray, X: np.ndarray, S: np.ndarray,
                   a: np.ndarray | float, spill: int) -> None:
    """Add one hop's chip frames X (S a) and their ISI spill-over to out.

    X holds the hop's M x K chip waveforms (one column per user), S the K x
    (cols + 2) hop symbols with one neighbour column on each side (zero at the
    packet edges) and a the K x 1 amplitudes, or one amplitude for all users;
    out is the M x cols block of observation windows, each the sum of its
    lag parts (hop_lag_parts). X, S and out may be stacks (B, ...) of B
    hops: with B = K one-user hops (X (K, M, 1), S (K, 1, cols + 2)), out
    holds each link's frames apart.
    """
    # each symbol times its amplitude once, for all three shifts; the unit
    # amplitude 1.0 scales nothing (S * 1.0 has S's values)
    Sa = S if isinstance(a, float) and a == 1.0 else S * a
    cols = Sa.shape[-1] - 2
    for lag, rows, part in hop_lag_parts(X, spill):
        window = out[..., rows, :]  # added in place, through a view
        window += part @ Sa[..., 1 + lag:cols + 1 + lag]
