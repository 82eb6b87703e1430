"""Shared recursive least squares primitives.

The rank-one recursions (receiver, relays) maintain the inverse of an
exponentially weighted correlation matrix via the matrix inversion lemma, and
are re-symmetrized every hermitian_period steps to bound the Hermitian drift
that rounding accumulates on long decision-directed runs. The channel and
power estimators, fed a block of regressors per symbol, keep the weighted
normal matrix itself and solve their normal equations instead (Haykin,
Adaptive Filter Theory, ch. 9-10). Each takes an optional leading stack axis:
(B, ...) arrays hold B independent recursions (power blocks, relays) that
step in one call.
"""

from __future__ import annotations

import math

import numpy as np
# the LAPACK gufunc np.linalg.solve dispatches to, called without its
# argument checks and casts
from numpy.linalg import _umath_linalg

from .errors import NumericalDivergenceError

# the period at alpha = 1, where the anti-Hermitian rounding error does not
# grow but still adds up
_MAX_HERMITIAN_PERIOD = 1024


def check_finite(A: np.ndarray, what: str) -> None:
    # a count, not .all(): no Python-level reduction wrapper
    if np.count_nonzero(np.isfinite(A)) != A.size:
        raise NumericalDivergenceError(f"non-finite entries in {what}")


def correlation_gain(Phi: np.ndarray, r: np.ndarray, alpha: float):
    """One rank-one inverse-correlation update, in place.

    Returns the gain k = Pr / (alpha + r^H Pr), Pr = Phi r, as the (..., M,
    1) column, and Phi updated to Phi' = (Phi - k Pr^H) / alpha, i.e. the
    inverse of alpha*R + r r^H when Phi was the Hermitian inverse of R:
    r^H Phi is (Phi r)^H, so the update reuses Pr. Rounding leaves Phi'
    Hermitian only to working precision; see hermitian_period. Phi (..., M,
    M) and r (..., M) may be stacks; Phi is overwritten.
    """
    Pr = Phi @ r[..., None]
    k = Pr / (alpha + (r.conj()[..., None, :] @ Pr).real)
    Phi -= k * Pr.conj().swapaxes(-1, -2)
    # numpy divides a complex by a real through its reciprocal: the bits of
    # dividing by alpha, without the complex division's cost
    Phi *= 1.0 / alpha
    return k, Phi


def hermitian_period(alpha: float) -> int:
    """Updates between two passes that replace a correlation_gain Phi by its
    Hermitian part.

    The update keeps the anti-Hermitian part of Phi (its rounding error) to
    first order and scales it by 1/alpha each step, so it grows as alpha^-n
    (to about ||Phi|| over 20000 symbols at alpha = 0.998). Passes
    alpha^-n <= 2 steps apart, at least one and at most
    _MAX_HERMITIAN_PERIOD, hold it near the rounding of the last steps.
    """
    if alpha >= 1.0:
        return _MAX_HERMITIAN_PERIOD
    return int(min(max(math.log(2.0) / -math.log(alpha), 1.0),
                   _MAX_HERMITIAN_PERIOD))


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


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# np.linalg.solve's own LAPACK call under its own error state, so it has its
# bytes; as a decorator, errstate costs less per call than as a with block
@np.errstate(call=_raise_singular, invalid="call", over="ignore",
             divide="ignore", under="ignore")
def lapack_solve(N: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.linalg.solve(N, B) for a matrix (..., n, k) B, with its bytes and
    its LinAlgError on a singular N, but without its argument checks: the
    real LAPACK loop when N and B are both real, the complex one else (the
    loop np.linalg.solve picks; the complex loop on real operands would
    change the bytes). The operands must be float64 or complex128."""
    real = N.dtype.kind != "c" and B.dtype.kind != "c"
    return _umath_linalg.solve(N, B, signature="dd->d" if real else "DD->D")


def solve_normal(N: np.ndarray, p: np.ndarray, what: str) -> np.ndarray:
    """Solve N x = p for complex N and p, or a stack of them; a singular N
    is a divergence."""
    try:
        return lapack_solve(N, p[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalDivergenceError(f"{what} is singular: {exc}") from exc
