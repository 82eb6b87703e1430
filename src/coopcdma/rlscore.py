"""Shared recursive least squares primitives.

The rank-one recursions (receiver, relays) maintain the inverse of an
exponentially weighted correlation matrix via the matrix inversion lemma and
are re-symmetrized each step to suppress Hermitian drift on long
decision-directed runs. The channel and power estimators, fed a block of
regressors per symbol, keep the weighted normal matrix itself and solve their
normal equations instead (Haykin, Adaptive Filter Theory, ch. 9-10). Each
takes an optional leading stack axis: (B, ...) arrays hold B independent
recursions (power blocks, relays) that step in one call.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalDivergenceError


def check_finite(A: np.ndarray, what: str) -> None:
    if not np.isfinite(A).all():
        raise NumericalDivergenceError(f"non-finite entries in {what}")


def correlation_gain(Phi: np.ndarray, r: np.ndarray, alpha: float):
    """One rank-one inverse-correlation update, in place.

    Returns the gain vector k = Phi r / (alpha + r^H Phi r) and Phi updated
    to Phi' = (Phi - k r^H Phi) / alpha, i.e. the inverse of alpha*R + r r^H
    when Phi was the inverse of R, re-symmetrized (cheap drift control).
    Phi (..., M, M) and r (..., M) may be stacks; Phi is overwritten.
    """
    rH = r.conj()[..., None, :]
    Pr = Phi @ r[..., None]
    k = Pr / (alpha + np.real(rH @ Pr))
    Phi -= k * (rH @ Phi)
    # numpy divides a complex by a real through its reciprocal, so scaling by
    # 0.5 / alpha gives the bits of dividing by alpha and then halving
    Phi *= 0.5 / alpha
    Phi += Phi.conj().swapaxes(-1, -2)
    return k[..., 0], Phi


class ExpWeightedInverse:
    """Exponentially weighted normal matrix, updated one row block per step.

    Holds N = alpha^i * delta*I + sum_l alpha^(i-l) V[l]^H V[l] itself, not
    its inverse: one block product per update and one linear solve per
    estimate cost less than a Sherman-Morrison step per regressor row.
    blocks is the shape of a stack of them, N being (*blocks, dim, dim).
    """

    def __init__(self, dim: int, delta: float = 0.01, blocks: tuple = ()):
        self.N = np.tile(delta * np.eye(dim, dtype=complex), (*blocks, 1, 1))

    def update_rows(self, V: np.ndarray, alpha: float) -> None:
        """Fold in one symbol's regressor rows V (rows x dim); for a stack of
        B matrices, B equal row blocks, block after block, one per N[b]."""
        V = V.reshape(*self.N.shape[:-2], -1, V.shape[-1])
        self.N *= alpha
        self.N += V.conj().swapaxes(-1, -2) @ V
        check_finite(self.N, "weighted normal matrix")


def solve_normal(N: np.ndarray, p: np.ndarray, what: str) -> np.ndarray:
    """Solve N x = p, or a stack of them; a singular N is a divergence."""
    try:
        return np.linalg.solve(N, p[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalDivergenceError(f"{what} is singular: {exc}") from exc
