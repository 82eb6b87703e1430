"""Shared fixtures for the simulation test suite."""

import numpy as np
import pytest

from coopcdma.model import (SystemDims, add_hop_frames,
                            build_convolution_matrix, draw_spreading_codes,
                            generate_multipath_channel)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_link_pieces(dims: SystemDims, rng: np.random.Generator):
    """Codes, per-link channels, and per-hop chip waveforms for one scenario.

    Returns codes (K x N), channels h (K x hops x L, unit norm) and the
    per-hop chip waveforms X (hops x M x K) with X[j][:, k] = D_k h[k, j].
    """
    codes = draw_spreading_codes(dims.K, dims.N, rng)
    h = np.zeros((dims.K, dims.hops, dims.L), dtype=complex)
    X = np.zeros((dims.hops, dims.M, dims.K), dtype=complex)
    for k in range(dims.K):
        D = build_convolution_matrix(codes[k], dims.L)
        for j in range(dims.hops):
            h[k, j] = generate_multipath_channel(dims.L, rng)
            X[j][:, k] = D @ h[k, j]
    return codes, h, X


def stacked_signature(codes: np.ndarray, L: int, hops: int) -> np.ndarray:
    """The stack x K*hops*L block signature of all the destination-facing
    links, user-major: each user's M x L convolution matrix once per hop on
    the diagonal, built by kron. The oracle of the per-hop waveform map,
    which applies one convolution matrix per user to each hop's taps."""
    return np.hstack([np.kron(np.eye(hops), build_convolution_matrix(c, L))
                      for c in codes])


def add_destination_frames(out: np.ndarray, scn, S: np.ndarray,
                           amps: np.ndarray) -> None:
    """Add every hop's frames to the stacked destination chip windows out:
    the chip-window oracle of the filtered and per-link frame builders.

    S holds the hops x K per-hop symbols of out's columns plus one neighbour
    column on each side; amps is the K x hops amplitude matrix.
    """
    M, hops = scn.dims.M, scn.dims.hops
    for j in range(hops):
        rows = slice(j * M, (j + 1) * M)
        add_hop_frames(out[rows], scn.U[rows, j::hops], S[j], amps[:, j:j + 1],
                       scn.spill)


def poisoned(A: np.ndarray, value: complex,
             rng: np.random.Generator) -> np.ndarray:
    """A complex copy of A with one random entry set to value."""
    A = np.array(A, dtype=complex)
    A.flat[rng.integers(A.size)] = value
    return A
