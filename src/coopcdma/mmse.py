"""Exact constrained-MMSE receiver and power-allocation design.

Works from ensemble statistics assembled out of the stacked effective chip
waveforms (signature * channel per link), assuming i.i.d. unit-energy symbols
that are independent across users, and unit-energy relayed symbols. Every
design entry takes the link-symbol correlation matrix Omega of the relay
chain (relay_omega). Receiver and power steps depend on each other and are
alternated to a fixed point. Every user's power budget is 1. The power
constraint is a partition into B equal contiguous user blocks (1: global,
K: individual budgets), a block's budget being its number of users; the power
step is one regularized solve over all blocks, each projected onto its
nonnegative-real budget sphere, as in the adaptive path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, IllConditionedError

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class MmseConfig:
    lam: float = 0.025  # loading of the power step
    max_iters: int = 50
    tol: float = 1e-6

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("regularization must be >= 0")
        if self.max_iters < 1 or self.tol <= 0:
            raise ValueError("max_iters must be >= 1 and tol > 0")


@dataclass
class EnsembleStatistics:
    """Closed-form second-order statistics of the stacked observation.

    R: stack x stack covariance; P_ch: stack x K cross-correlation with the
    desired symbols (columns are the amplitude-weighted composite waveforms);
    R_a (B x n x n) / p_a (B x n): power-domain covariance and
    cross-correlation of each of B contiguous user blocks of n = K*hops/B
    links, set by add_power_terms (B = 1 global, B = K individual budgets).
    """

    R: np.ndarray
    P_ch: np.ndarray
    hops: int
    R_a: np.ndarray | None = None
    p_a: np.ndarray | None = None


def relay_omega(K: int, hops: int, relay_stats) -> np.ndarray:
    """Link-symbol correlation matrix from second-order relay models.

    relay_stats is a list over relays of (G, S): the forwarded symbol vector
    of relay j is G_j b + nu_j with noise covariance S_j (see
    relays.relay_statistics). Column l = q*hops + p carries the symbol of
    user q on hop p (p = 0 is the direct link). The link symbols are A b plus
    independent relay noise, A's rows being those of I, G_1, ..., G_n_r
    interleaved user-major: Omega = A A^H + blockdiag(S_j).
    """
    n_r = hops - 1
    if len(relay_stats) != n_r:
        raise ValueError(f"expected {n_r} relay models, got {len(relay_stats)}")
    maps = np.array([np.eye(K)] + [G for G, _ in relay_stats], dtype=complex)
    A = maps.transpose(1, 0, 2).reshape(K * hops, K)
    omega = A @ A.conj().T
    relay_hops = np.arange(1, hops)
    omega.reshape(K, hops, K, hops)[:, relay_hops, :, relay_hops] += np.reshape(
        [S for _, S in relay_stats], (n_r, K, K))
    return omega


def build_statistics(U: np.ndarray, hops: int, sigma2: float,
                     amps: np.ndarray, omega: np.ndarray) -> EnsembleStatistics:
    """Assemble R and P_ch at the amplitudes amps; add_power_terms adds the
    filter-dependent R_a and p_a.

    U is the stack x K*hops matrix of effective per-link waveforms (column
    order: user-major, direct hop first); amps is K x hops. omega is the
    K*hops x K*hops link-symbol correlation matrix (relay_omega).
    """
    stack, cols = U.shape
    K = cols // hops
    a_vec = np.asarray(amps, dtype=complex).reshape(cols)
    Ua = U * a_vec[None, :]
    R = Ua @ omega @ Ua.conj().T + sigma2 * np.eye(stack)
    P_ch = np.stack([Ua @ omega[:, k * hops] for k in range(K)], axis=1)
    if not np.all(np.isfinite(R)):
        raise IllConditionedError("non-finite entries in covariance assembly")
    return EnsembleStatistics(R=R, P_ch=P_ch, hops=hops)


def _diagonal_blocks(X: np.ndarray, blocks: int) -> np.ndarray:
    """View of the B = blocks equal diagonal blocks of X, (B, rows/B, cols/B)."""
    if blocks == 1:
        return X[None]  # the whole matrix, without einsum's call overhead
    rows, cols = X.shape
    return np.einsum("bibj->bij", X.reshape(blocks, rows // blocks,
                                            blocks, cols // blocks))


def add_power_terms(stats: EnsembleStatistics, U: np.ndarray,
                    amps: np.ndarray, W: np.ndarray,
                    omega: np.ndarray, blocks: int) -> None:
    """Fill in the W-dependent half of the statistics: R_a and p_a of each of
    `blocks` equal contiguous user blocks.

    They are the quadratic and linear coefficients, in block b's amplitudes,
    of the MSE summed over b's users with the other blocks' amplitudes held
    at amps. With G_b the block users' link responses on the block's links,
    R_a[b] = (G_b G_b^H) o Omega_bb^T; p_a[b] is the block users'
    desired-symbol correlation minus the other blocks' fixed contribution,
    which is zero for one block.
    """
    G = U.conj().T @ W  # (K*hops) x K; column k holds the link responses of w_k
    d = omega[:, ::stats.hops]  # column k: each link's correlation with b_k
    if blocks > 1:
        # amplitude-weighted link responses of each filter, other blocks only
        aG = np.asarray(amps, dtype=complex).reshape(-1, 1) * G
        _diagonal_blocks(aG, blocks)[...] = 0.0
        d = d - omega @ aG
    G_b = _diagonal_blocks(G, blocks)
    stats.R_a = ((G_b @ G_b.conj().transpose(0, 2, 1))
                 * _diagonal_blocks(omega, blocks).transpose(0, 2, 1))
    stats.p_a = np.einsum("bik->bi", G_b * _diagonal_blocks(d, blocks).conj())


def _checked_solve(R: np.ndarray, rhs: np.ndarray, what: str,
                   floor: float = 0.0) -> np.ndarray:
    """Solve R x = rhs for a Hermitian positive semidefinite R, or for a stack
    of them (R of shape (B, n, n) with rhs of shape (B, n)).

    floor is a lower bound on the eigenvalues of R that the caller knows from
    how R was built (sigma^2 for a receiver covariance, lambda for a loaded
    power covariance), 0 when none is known. For Hermitian R,
    cond2(R) <= ||R||_1 / floor, so ||R||_1 <= floor * _COND_LIMIT / 2 proves
    cond2(R) <= _COND_LIMIT with a factor 2 to spare for rounding in the
    assembly of R; such a matrix goes straight to LU (np.linalg.solve). The
    SVD (np.linalg.cond) runs only when floor is 0, when the bound does not
    prove the limit, or when LU raises LinAlgError. A matrix whose condition
    number is then non-finite or above the limit is solved with the
    pseudoinverse, with one RuntimeWarning per such matrix.
    """
    if not np.all(np.isfinite(R)) or not np.all(np.isfinite(rhs)):
        raise IllConditionedError(f"{what}: non-finite entries")
    stacked = R.ndim > 2
    if floor > 0.0 and np.all(np.abs(R).sum(axis=-2).max(axis=-1)
                              <= floor * _COND_LIMIT / 2):
        try:
            if stacked:
                return np.linalg.solve(R, rhs[..., None])[..., 0]
            return np.linalg.solve(R, rhs)
        except np.linalg.LinAlgError:
            pass
    if stacked:
        return np.stack([_cond_solve(Rb, xb, what) for Rb, xb in zip(R, rhs)])
    return _cond_solve(R, rhs, what)


def _cond_solve(R: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(R)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        # singular covariances (e.g. the noise-free limit) fall back to the
        # pseudoinverse, but never silently
        warnings.warn(f"{what}: condition number {cond:.3e}, using pseudoinverse",
                      RuntimeWarning, stacklevel=3)
        return np.linalg.pinv(R) @ rhs
    return np.linalg.solve(R, rhs)


def receiver_global(stats: EnsembleStatistics, floor: float = 0.0) -> np.ndarray:
    """Joint MMSE filter matrix W = R^-1 P_ch.

    floor is a lower bound on the eigenvalues of R (see _checked_solve): the
    noise variance sigma^2 whenever omega is a covariance matrix.
    """
    return _checked_solve(stats.R, stats.P_ch, "receiver covariance", floor)


def project_sphere(a: np.ndarray, budget: float) -> np.ndarray:
    """Rescale so the squared norm equals the power budget."""
    nrm = np.linalg.norm(a)
    if nrm == 0.0:
        raise DegenerateStateError("zero-norm amplitude vector at projection")
    return a * (np.sqrt(budget) / nrm)


def nonnegative_amplitudes(a: np.ndarray, budget: float) -> np.ndarray:
    """Project onto the nonnegative-real sphere of the given power budget.

    Transmit amplitudes are physical gains: per-link phase alignment is the
    receiver's job (each link occupies its own block of the stacked
    observation), so the phase content of an unconstrained solution is pure
    gauge freedom and is discarded. Magnitudes are used as a fallback when
    clipping the real part would zero the vector.
    """
    a_r = np.clip(np.real(a), 0.0, None)
    if np.linalg.norm(a_r) == 0.0:
        a_r = np.abs(a)
    return project_sphere(a_r, budget)


def _real_power_solve(R_a: np.ndarray, p_a: np.ndarray, lam: float) -> np.ndarray:
    """Regularized power step restricted to real amplitude vectors.

    For real a the quadratic MSE terms reduce to the real parts of the
    complex statistics, so this solve is exact on the real subspace. R_a may
    be a stack of blocks (B, n, n) with p_a of shape (B, n).
    Re(R_a) is positive semidefinite (a Hadamard product of two covariances,
    Schur product theorem), so lam bounds the eigenvalues of the loaded matrix.
    """
    dim = R_a.shape[-1]
    return _checked_solve(np.real(R_a) + lam * np.eye(dim), np.real(p_a),
                          "power covariance", lam)


def power_step(stats: EnsembleStatistics, lam: float,
               block_budget: float) -> np.ndarray:
    """Regularized power step of every amplitude block in one stacked solve,
    each block projected to nonnegative reals on the sphere of block_budget
    (its number of users); returns the B x n block amplitudes."""
    a = _real_power_solve(stats.R_a, stats.p_a, lam)
    for a_b in a:
        a_b[:] = nonnegative_amplitudes(a_b, block_budget)
    return a


def total_mse(U: np.ndarray, hops: int, sigma2: float,
              amps: np.ndarray, W: np.ndarray, omega: np.ndarray) -> float:
    """Ensemble MSE  sum_k E|b_k - w_k^H r|^2  at the given filters/amplitudes."""
    return statistics_mse(build_statistics(U, hops, sigma2, amps, omega), W)


def statistics_mse(stats: EnsembleStatistics, W: np.ndarray) -> float:
    """Ensemble MSE of the filters W under already assembled statistics."""
    cross = np.einsum("ik,ik->k", W.conj(), stats.P_ch)
    quad = np.einsum("ik,ik->k", W.conj(), stats.R @ W)
    return float(np.sum(1.0 - 2.0 * cross.real + quad.real))


@dataclass
class AlternationResult:
    W: np.ndarray
    amps: np.ndarray  # K x hops
    mse_trace: np.ndarray
    converged: bool
    iterations: int


def equal_power_amps(K: int, hops: int) -> np.ndarray:
    """Equal power per link within each user's unit budget (CIS)."""
    return np.full((K, hops), np.sqrt(1.0 / hops))


def alternate(U: np.ndarray, hops: int, sigma2: float, blocks: int,
              config: MmseConfig, omega: np.ndarray) -> AlternationResult:
    """Alternate filter and power steps from the equal-power initialization.

    The users form `blocks` equal contiguous blocks (1: global, K: individual
    constraints), each under the sum of its users' unit budgets; a one-link
    block, pinned by its budget, is designed without alternation
    (harness.power_blocks). The trace records the ensemble MSE after each
    filter step, so its first entry is the MSE of the equal-power (CIS)
    allocation under its own MMSE filters.
    omega must be a covariance matrix (positive semidefinite), as every
    link-symbol correlation built here is: sigma2 then bounds the eigenvalues
    of each receiver covariance from below.
    """
    cols = U.shape[1]
    K = cols // hops
    if blocks < 1 or K % blocks:
        raise ValueError(f"{blocks} blocks do not split {K} users evenly")
    amps = equal_power_amps(K, hops)
    block_budget = float(K // blocks)
    trace = []
    converged = False
    it = 0
    for it in range(1, config.max_iters + 1):
        # one assembly per iteration: the filter step, the traced MSE and the
        # power step all read the statistics at the current amplitudes
        stats = build_statistics(U, hops, sigma2, amps, omega)
        W = receiver_global(stats, sigma2)
        trace.append(statistics_mse(stats, W))
        add_power_terms(stats, U, amps, W, omega, blocks)
        a_new = power_step(stats, config.lam, block_budget).reshape(K, hops)
        delta = np.linalg.norm(a_new - amps) / max(np.linalg.norm(amps), 1e-30)
        amps = a_new
        if delta < config.tol:
            converged = True
            break
    stats = build_statistics(U, hops, sigma2, amps, omega)
    W = receiver_global(stats, sigma2)
    trace.append(statistics_mse(stats, W))
    return AlternationResult(W=W, amps=amps, mse_trace=np.asarray(trace),
                             converged=converged, iterations=it)
