"""Shared fixtures for the simulation test suite."""

import dataclasses

import numpy as np
import pytest

from coopcdma import harness
from coopcdma.harness import ExperimentConfig
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


def dense_link_waveforms(X: np.ndarray) -> np.ndarray:
    """The hops*M x n_u*hops matrix of every link's waveform from the per-hop
    waveforms X (hops, M, n_u): hop j's M rows, column k*hops + j for user
    k's link on hop j, zero elsewhere. The oracle of the power step's
    per-hop link responses."""
    hops, M, n_u = X.shape
    U = np.zeros((hops * M, n_u * hops), dtype=complex)
    for j in range(hops):
        for k in range(n_u):
            U[j * M:(j + 1) * M, k * hops + j] = X[j, :, k]
    return U


def add_destination_frames(out: np.ndarray, scn, S: np.ndarray,
                           amps: np.ndarray) -> None:
    """Add every hop's frames to the stacked destination chip windows out:
    the chip-window oracle of the filtered and per-link frame builders.

    S holds the hops x K per-hop symbols of out's columns plus one neighbour
    column on each side; amps is the K x hops amplitude matrix.
    """
    M = scn.dims.M
    for j, X in enumerate(scn.x_dest):
        add_hop_frames(out[j * M:(j + 1) * M], X, S[j], amps[:, j:j + 1],
                       scn.spill)


def trial_soft_outputs(scns, cfg, draws) -> np.ndarray:
    """The (points, K, P) soft outputs of a trial's points designed for cfg,
    on the trial's draws: harness.exact_soft_blocks' blocks, joined."""
    return np.concatenate([soft.copy() for _, soft in
                           harness.exact_soft_blocks(scns, cfg, draws)],
                          axis=-1)


def destination_noise_columns(theta: np.ndarray, dims) -> np.ndarray:
    """The columns of a packet map (harness._packet_maps) that colour the
    destination's noise: the last rows of its lag-0 sources."""
    start = dims.K + dims.n_r * min(dims.M, dims.K)
    return theta[..., start:start + min(dims.stack, dims.K)]


def chip_soft_outputs(scn, W, amps, draws, bank=None) -> np.ndarray:
    """The exact packet in the chip domain, the oracle of its map: every
    relay's and the destination's whole-packet chip windows, noise included,
    then the filters. A filter bank's chip noise is sigma Q z, z its
    unit-variance noise in draws and Q the Q factor of its filters, so that
    the filters see sigma R^H z, the noise the map colours. bank holds the
    relays' stacked filters and gains (harness._relay_chains), by default
    those of scn's chain."""
    dims = scn.dims
    K, P = dims.K, dims.P
    sources = draws.sources[:, harness._REACH:-harness._REACH]
    S = np.zeros((dims.hops, K, P + 2), dtype=complex)
    S[0, :, 1:-1] = sources[:K]
    sigma = np.sqrt(scn.sigma2)
    row = K
    bank = bank or harness._relay_chains([scn])[1]
    for j, (X, Wr, g) in enumerate(zip(scn.x_sr, *(b[0] for b in bank))):
        Q, R = np.linalg.qr(Wr)
        obs = sigma * Q @ sources[row:row + len(R)]
        add_hop_frames(obs, X, S[0], 1.0, scn.spill)
        S[j + 1, :, 1:-1] = g[:, None] * (Wr.conj().T @ obs)
        row += len(R)
    Q, _ = np.linalg.qr(W)
    frames = sigma * Q @ sources[row:]
    add_destination_frames(frames, scn, S, amps)
    return W.conj().T @ frames


def emit_config(cfg: ExperimentConfig) -> str:
    """Config serialized back to the flat file format that
    cli.parse_config reads (round-trippable)."""
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(f"{v:.17g}" for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def scenario_omega(scn) -> np.ndarray:
    """The link-symbol correlation matrix of the scenario's relay chain: its
    chain in a stack of one (harness._relay_chains), whose TrialFailure it
    raises. The oracle of each trial's slice of a stacked chain."""
    return harness._relay_chains([scn])[0][0]


def poisoned(A: np.ndarray, value: complex,
             rng: np.random.Generator) -> np.ndarray:
    """A complex copy of A with one random entry set to value."""
    A = np.array(A, dtype=complex)
    A.flat[rng.integers(A.size)] = value
    return A
