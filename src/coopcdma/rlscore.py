"""Shared recursive least squares primitives.

The rank-one recursions (receiver, relays) maintain the inverse of an
exponentially weighted correlation matrix via the matrix inversion lemma and
are re-symmetrized each step to suppress Hermitian drift on long
decision-directed runs. The channel and power estimators, fed a block of
regressors per symbol, keep the weighted normal matrix itself and solve their
normal equations instead (Haykin, Adaptive Filter Theory, ch. 9-10).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalDivergenceError


def resym(A: np.ndarray) -> np.ndarray:
    """Project back onto the Hermitian cone; cheap drift control."""
    return 0.5 * (A + A.conj().T)


def check_finite(A: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(A)):
        raise NumericalDivergenceError(f"non-finite entries in {what}")


def correlation_gain(Phi: np.ndarray, r: np.ndarray, alpha: float):
    """One rank-one inverse-correlation update.

    Returns the gain vector k = Phi r / (alpha + r^H Phi r) and the updated
    inverse Phi' = (Phi - k r^H Phi) / alpha, i.e. the inverse of
    alpha*R + r r^H when Phi was the inverse of R.
    """
    Pr = Phi @ r
    denom = alpha + float(np.real(np.vdot(r, Pr)))
    k = Pr / denom
    Phi = (Phi - np.outer(k, r.conj() @ Phi)) / alpha
    return k, resym(Phi)


class ExpWeightedInverse:
    """Exponentially weighted normal matrix, updated one row block per step.

    Holds N = alpha^i * delta*I + sum_l alpha^(i-l) V[l]^H V[l] itself, not
    its inverse: one block product per update and one linear solve per
    estimate cost less than a Sherman-Morrison step per regressor row.
    """

    def __init__(self, dim: int, delta: float = 0.01):
        self.dim = dim
        self.N = delta * np.eye(dim, dtype=complex)

    def update_rows(self, V: np.ndarray, alpha: float) -> None:
        self.N = alpha * self.N + V.conj().T @ V
        check_finite(self.N, "weighted normal matrix")

    def solve(self, p: np.ndarray) -> np.ndarray:
        """Least-squares estimate: the solution h of N h = p."""
        return solve_normal(self.N, p, "weighted normal matrix")


def solve_normal(N: np.ndarray, p: np.ndarray, what: str) -> np.ndarray:
    """Solve the normal equations N x = p; a singular N is a divergence."""
    try:
        return np.linalg.solve(N, p)
    except np.linalg.LinAlgError as exc:
        raise NumericalDivergenceError(f"{what} is singular: {exc}") from exc
