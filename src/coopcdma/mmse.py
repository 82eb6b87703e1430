"""Exact constrained-MMSE receiver and power-allocation design.

The stacked observation is r = U diag(a) s + n: U holds the effective chip
waveforms (signature * channel) of the K*hops links, a their amplitudes, s
the link symbols with correlation Omega (relay_omega; unit-energy QPSK
symbols, independent across users) and n white noise of variance sigma^2.
Every design entry takes Omega. Receiver and power steps depend on each other
and are alternated to a fixed point. Every user's power budget is 1. The
power constraint is a partition into B equal contiguous user blocks (1:
global, K: individual budgets), a block's budget being its number of users;
the power step is one regularized solve over all blocks, each projected onto
its nonnegative-real budget sphere, as in the adaptive path.

The design works in link coordinates (K*hops of them), not in the stack of
chips: U enters only through the Gram matrix U^H U, and with Omega = F F^H the
push-through identity gives the MMSE filters as W = U diag(a) F C with a
K*hops-dimensional solve for C. The power terms and the MSE follow from the
link responses U^H W, so W itself is formed once, after the alternation.
build_statistics and total_mse assemble the stacked statistics; they score
a design, they are not part of it.
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
    desired symbols (columns are the amplitude-weighted composite waveforms).
    """

    R: np.ndarray
    P_ch: np.ndarray


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
    """Assemble R and P_ch at the amplitudes amps.

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
    return EnsembleStatistics(R=R, P_ch=P_ch)


def _diagonal_blocks(X: np.ndarray, blocks: int) -> np.ndarray:
    """View of the B = blocks equal diagonal blocks of X, (B, rows/B, cols/B)."""
    if blocks == 1:
        return X[None]  # the whole matrix, without einsum's call overhead
    rows, cols = X.shape
    return np.einsum("bibj->bij", X.reshape(blocks, rows // blocks,
                                            blocks, cols // blocks))


def power_terms(links: np.ndarray, amps: np.ndarray, omega: np.ndarray,
                blocks: int):
    """R_a (B x n x n) and p_a (B x n) of each of B = `blocks` equal
    contiguous user blocks of n = K*hops/B links.

    links is the K*hops x K matrix U^H W of link responses: column k holds
    the response of filter w_k to each link's waveform. R_a[b] and p_a[b] are
    the quadratic and linear coefficients, in block b's amplitudes, of the MSE
    summed over b's users with the other blocks' amplitudes held at amps.
    With G_b the block users' link responses on the block's links,
    R_a[b] = (G_b G_b^H) o Omega_bb^T; p_a[b] is the block users'
    desired-symbol correlation minus the other blocks' fixed contribution,
    which is zero for one block.
    """
    hops = links.shape[0] // links.shape[1]
    d = omega[:, ::hops]  # column k: each link's correlation with b_k
    if blocks > 1:
        # amplitude-weighted link responses of each filter, other blocks only
        aG = np.asarray(amps, dtype=complex).reshape(-1, 1) * links
        _diagonal_blocks(aG, blocks)[...] = 0.0
        d = d - omega @ aG
    G_b = _diagonal_blocks(links, blocks)
    R_a = ((G_b @ G_b.conj().transpose(0, 2, 1))
           * _diagonal_blocks(omega, blocks).transpose(0, 2, 1))
    p_a = np.einsum("bik->bi", G_b * _diagonal_blocks(d, blocks).conj())
    return R_a, p_a


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


def link_factors(U: np.ndarray, omega: np.ndarray):
    """The design's fixed data in link coordinates: the Gram matrix U^H U and
    a factor F with Omega = F F^H.

    F comes from the eigendecomposition of Omega with its eigenvalues clipped
    at 0, so a singular positive semidefinite Omega (perfect relays, or no
    relay noise) factors without failing.
    """
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(omega))):
        raise IllConditionedError("non-finite entries in the link statistics")
    eigvals, V = np.linalg.eigh(omega)
    return U.conj().T @ U, V * np.sqrt(np.clip(eigvals, 0.0, None))


def filter_step(gram: np.ndarray, F: np.ndarray, hops: int, sigma2: float,
                amps: np.ndarray):
    """Joint MMSE filters at the amplitudes amps, in link coordinates.

    With V = U diag(a) F the covariance is R = V V^H + sigma^2 I and the
    cross-correlation P_ch = V B, B = F^H E (E selects the direct links), so
    by the push-through identity W = R^-1 P_ch = V C with
    C = (sigma^2 I + V^H V)^-1 B, V^H V = F^H diag(a)^H U^H U diag(a) F.
    That matrix is Hermitian with eigenvalues >= sigma^2, the floor the solve
    certifies from. Returns Y = diag(a) F C, so that W = U Y and the link
    responses are U^H W = gram Y, and the ensemble MSE of W,
    K - tr(B^H B) + sigma^2 tr(B^H C) = sigma^2 Re tr(B^H C): the diagonal of
    B^H B = E^H Omega E is the unit energy of the users' own symbols.
    """
    DF = np.asarray(amps, dtype=complex).reshape(-1, 1) * F
    B = F[::hops].conj().T
    A = DF.conj().T @ gram @ DF + sigma2 * np.eye(F.shape[1])
    C = _checked_solve(A, B, "receiver covariance", sigma2)
    mse = sigma2 * float(np.real(np.einsum("ik,ik->", B.conj(), C)))
    return DF @ C, mse


def receiver(U: np.ndarray, hops: int, sigma2: float, amps: np.ndarray,
             omega: np.ndarray) -> np.ndarray:
    """Joint MMSE filter matrix W = R^-1 P_ch at fixed amplitudes amps (K x
    hops), solved in link coordinates (filter_step)."""
    gram, F = link_factors(U, omega)
    return U @ filter_step(gram, F, hops, sigma2, amps)[0]


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


def power_step(R_a: np.ndarray, p_a: np.ndarray, lam: float,
               block_budget: float) -> np.ndarray:
    """Regularized power step of every amplitude block (power_terms) in one
    stacked solve, each block projected to nonnegative reals on the sphere of
    block_budget (its number of users); returns the B x n block amplitudes."""
    a = _real_power_solve(R_a, p_a, lam)
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
    allocation under its own MMSE filters; the last entry is total_mse of the
    returned design.
    omega must be a covariance matrix (positive semidefinite) with unit
    direct-link diagonal, as every link-symbol correlation built here is:
    sigma2 then bounds the eigenvalues of each receiver covariance from below,
    and the traced MSE takes the closed form of filter_step.
    """
    cols = U.shape[1]
    K = cols // hops
    if blocks < 1 or K % blocks:
        raise ValueError(f"{blocks} blocks do not split {K} users evenly")
    amps = equal_power_amps(K, hops)
    block_budget = float(K // blocks)
    gram, F = link_factors(U, omega)
    trace = []
    converged = False
    it = 0
    for it in range(1, config.max_iters + 1):
        Y, mse = filter_step(gram, F, hops, sigma2, amps)
        trace.append(mse)
        R_a, p_a = power_terms(gram @ Y, amps, omega, blocks)
        a_new = power_step(R_a, p_a, config.lam, block_budget).reshape(K, hops)
        delta = np.linalg.norm(a_new - amps) / max(np.linalg.norm(amps), 1e-30)
        amps = a_new
        if delta < config.tol:
            converged = True
            break
    W = U @ filter_step(gram, F, hops, sigma2, amps)[0]
    trace.append(total_mse(U, hops, sigma2, amps, W, omega))
    return AlternationResult(W=W, amps=amps, mse_trace=np.asarray(trace),
                             converged=converged, iterations=it)
