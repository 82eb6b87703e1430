"""Shared fixtures for the simulation test suite."""

import numpy as np
import pytest

from coopcdma.model import (SystemDims, build_convolution_matrix,
                            draw_spreading_codes, generate_multipath_channel)


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


def poisoned(A: np.ndarray, value: complex,
             rng: np.random.Generator) -> np.ndarray:
    """A complex copy of A with one random entry set to value."""
    A = np.array(A, dtype=complex)
    A.flat[rng.integers(A.size)] = value
    return A
