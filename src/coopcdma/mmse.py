"""Exact constrained-MMSE receiver and power-allocation design.

Works from ensemble statistics assembled out of the stacked effective chip
waveforms (signature * channel per link), assuming i.i.d. unit-energy symbols
that are independent across users, and unit-energy relayed symbols. Receiver
and power steps depend on each other and are alternated to a fixed point; the
sphere constraint on the amplitudes is enforced by projection after each
regularized power step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedError

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class MmseConfig:
    lam_global: float = 0.025
    lam_individual: float = 0.025
    max_iters: int = 50
    tol: float = 1e-6

    def __post_init__(self):
        if self.lam_global < 0 or self.lam_individual < 0:
            raise ValueError("regularization must be >= 0")
        if self.max_iters < 1 or self.tol <= 0:
            raise ValueError("max_iters must be >= 1 and tol > 0")


@dataclass
class EnsembleStatistics:
    """Closed-form second-order statistics of the stacked observation.

    R: stack x stack covariance; P_ch: stack x K cross-correlation with the
    desired symbols (columns are the amplitude-weighted composite waveforms);
    R_a / p_a: power-domain covariance and cross-correlation, stacked over
    users for the global constraint or a per-user list for individual
    constraints.
    """

    R: np.ndarray
    P_ch: np.ndarray
    mode: str
    hops: int
    R_a: np.ndarray | None = None
    p_a: np.ndarray | None = None
    R_a_users: list = field(default_factory=list)
    p_a_users: list = field(default_factory=list)


def perfect_relay_omega(K: int, hops: int) -> np.ndarray:
    """Link-symbol correlation matrix when relayed symbols equal the source's.

    Every link of one user carries the same unit-energy symbol (perfectly
    correlated within a user block), and users are independent.
    """
    return np.kron(np.eye(K), np.ones((hops, hops)))


def relay_omega(K: int, hops: int, relay_stats) -> np.ndarray:
    """Link-symbol correlation matrix from second-order relay models.

    relay_stats is a list over relays of (G, S): the forwarded symbol vector
    of relay j is G_j b + nu_j with noise covariance S_j (see
    relays.relay_statistics). Column l = q*hops + p carries the symbol of
    user q on hop p (p = 0 is the direct link).
    """
    n_r = hops - 1
    if len(relay_stats) != n_r:
        raise ValueError(f"expected {n_r} relay models, got {len(relay_stats)}")
    omega = np.zeros((K * hops, K * hops), dtype=complex)

    def idx(q, p):
        return q * hops + p

    for q in range(K):
        for qq in range(K):
            omega[idx(q, 0), idx(qq, 0)] = 1.0 if q == qq else 0.0
            for j in range(n_r):
                G_j, S_j = relay_stats[j]
                omega[idx(q, 0), idx(qq, j + 1)] = np.conj(G_j[qq, q])
                omega[idx(q, j + 1), idx(qq, 0)] = G_j[q, qq]
                for jj in range(n_r):
                    G_jj, _ = relay_stats[jj]
                    val = G_j[q] @ G_jj[qq].conj()
                    if j == jj:
                        val += S_j[q, qq]
                    omega[idx(q, j + 1), idx(qq, jj + 1)] = val
    return omega


def build_statistics(U: np.ndarray, hops: int, sigma2: float,
                     amps: np.ndarray, W: np.ndarray | None = None,
                     mode: str = "gpc",
                     omega: np.ndarray | None = None) -> EnsembleStatistics:
    """Assemble R, P_ch and, when filters are given, R_a and p_a.

    U is the stack x K*hops matrix of effective per-link waveforms (column
    order: user-major, direct hop first); amps is K x hops. omega is the
    link-symbol correlation matrix; by default the relayed symbols are
    treated as perfect copies of the source symbols.
    """
    stack, cols = U.shape
    K = cols // hops
    a_vec = np.asarray(amps, dtype=complex).reshape(cols)
    if omega is None:
        omega = perfect_relay_omega(K, hops)
    Ua = U * a_vec[None, :]
    R = Ua @ omega @ Ua.conj().T + sigma2 * np.eye(stack)
    P_ch = np.stack([Ua @ omega[:, k * hops] for k in range(K)], axis=1)
    if not np.all(np.isfinite(R)):
        raise IllConditionedError("non-finite entries in covariance assembly")
    stats = EnsembleStatistics(R=R, P_ch=P_ch, mode=mode, hops=hops)
    if W is not None:
        add_power_terms(stats, U, amps, W, omega)
    return stats


def add_power_terms(stats: EnsembleStatistics, U: np.ndarray,
                    amps: np.ndarray, W: np.ndarray,
                    omega: np.ndarray) -> None:
    """Fill in the W-dependent half of the statistics: R_a and p_a (gpc) or
    the per-user R_a_users and p_a_users (ipc)."""
    hops = stats.hops
    cols = U.shape[1]
    K = cols // hops
    G = U.conj().T @ W  # (K*hops) x K; column k holds the link responses of w_k
    if stats.mode == "gpc":
        # quadratic/linear terms of the total MSE in the stacked amplitudes
        R_a = (G @ G.conj().T) * omega.T
        p_a = np.zeros(cols, dtype=complex)
        for k in range(K):
            p_a += G[:, k] * omega[k * hops, :]
        stats.R_a, stats.p_a = R_a, p_a
    else:
        a_vec = np.asarray(amps, dtype=complex).reshape(cols)
        for k in range(K):
            blk = slice(k * hops, (k + 1) * hops)
            phi = G[:, k]
            # fixed contribution of the other users' current amplitudes
            u_other = phi.conj() * a_vec
            u_other[blk] = 0.0
            d = omega[:, k * hops] - omega @ u_other.conj()
            stats.R_a_users.append(np.outer(phi[blk], phi[blk].conj())
                                   * omega[blk, blk].T)
            stats.p_a_users.append(phi[blk] * d[blk].conj())


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
        raise IllConditionedError("zero-norm amplitude vector at projection")
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
    be a stack of per-user blocks (K, n, n) with p_a of shape (K, n).
    Re(R_a) is positive semidefinite (a Hadamard product of two covariances,
    Schur product theorem), so lam bounds the eigenvalues of the loaded matrix.
    """
    dim = R_a.shape[-1]
    return _checked_solve(np.real(R_a) + lam * np.eye(dim), np.real(p_a),
                          "power covariance", lam)


def power_global(stats: EnsembleStatistics, lam: float, P_T: float) -> np.ndarray:
    """Regularized stacked power step, projected to nonnegative reals on the
    P_T sphere."""
    a = _real_power_solve(stats.R_a, stats.p_a, lam)
    return nonnegative_amplitudes(a, P_T)


def power_users(stats: EnsembleStatistics, lam: float,
                budgets: np.ndarray) -> np.ndarray:
    """Regularized per-user power steps, one stacked solve, each projected to
    nonnegative reals on its user's P_A,k sphere."""
    a = _real_power_solve(np.stack(stats.R_a_users), np.stack(stats.p_a_users),
                          lam)
    return np.stack([nonnegative_amplitudes(a[k], budgets[k])
                     for k in range(len(budgets))])


def total_mse(U: np.ndarray, hops: int, sigma2: float,
              amps: np.ndarray, W: np.ndarray,
              omega: np.ndarray | None = None) -> float:
    """Ensemble MSE  sum_k E|b_k - w_k^H r|^2  at the given filters/amplitudes."""
    return statistics_mse(build_statistics(U, hops, sigma2, amps, omega=omega), W)


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


def equal_power_amps(K: int, hops: int, budgets: np.ndarray) -> np.ndarray:
    """Equal power per link within each user's budget (the CIS allocation)."""
    return np.sqrt(np.asarray(budgets, dtype=float)[:, None] / hops) * np.ones((K, hops))


def alternate(U: np.ndarray, hops: int, sigma2: float, mode: str,
              config: MmseConfig, budgets: np.ndarray,
              omega: np.ndarray | None = None) -> AlternationResult:
    """Alternate filter and power steps from the equal-power initialization.

    budgets holds P_A,k per user; the global budget is their sum. The trace
    records the ensemble MSE after each filter step, so its first entry is the
    MSE of the equal-power (CIS) allocation under its own MMSE filters.
    omega must be a covariance matrix (positive semidefinite), as every
    link-symbol correlation built here is: sigma2 then bounds the eigenvalues
    of each receiver covariance from below.
    """
    cols = U.shape[1]
    K = cols // hops
    budgets = np.asarray(budgets, dtype=float)
    P_T = float(budgets.sum())
    amps = equal_power_amps(K, hops, budgets)
    lam = config.lam_global if mode == "gpc" else config.lam_individual
    if omega is None:
        omega = perfect_relay_omega(K, hops)
    trace = []
    converged = False
    it = 0
    W = None
    for it in range(1, config.max_iters + 1):
        # one assembly per iteration: the filter step, the traced MSE and the
        # power step all read the statistics at the current amplitudes
        stats = build_statistics(U, hops, sigma2, amps, mode=mode, omega=omega)
        W = receiver_global(stats, sigma2)
        trace.append(statistics_mse(stats, W))
        if hops == 1 and K == 1:
            converged = True  # power fully determined by the constraint
            break
        add_power_terms(stats, U, amps, W, omega)
        if mode == "gpc":
            a_new = power_global(stats, lam, P_T).reshape(K, hops)
        else:
            a_new = power_users(stats, lam, budgets)
        delta = np.linalg.norm(a_new - amps) / max(np.linalg.norm(amps), 1e-30)
        amps = a_new
        if delta < config.tol:
            converged = True
            break
    stats = build_statistics(U, hops, sigma2, amps, omega=omega)
    W = receiver_global(stats, sigma2)
    trace.append(statistics_mse(stats, W))
    return AlternationResult(W=W, amps=amps, mse_trace=np.asarray(trace),
                             converged=converged, iterations=it)
