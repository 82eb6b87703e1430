"""Exact constrained-MMSE receiver and power-allocation design.

The stacked observation is r = U diag(a) s + n: U holds the effective chip
waveforms (signature * channel) of the K*hops links, a their amplitudes, s
the link symbols with correlation Omega (relay_omega; unit-energy QPSK
symbols, independent across users) and n white noise of variance sigma^2.
Every design entry takes Omega. Receiver and power steps depend on each other
and are alternated to a fixed point. Every user's power budget is 1. The
power constraint is a partition into B equal contiguous user blocks (1:
global, K: individual budgets), a block's budget being its number of users;
the power step is one regularized solve over all blocks (_real_power_solve),
then each block's projection onto its nonnegative-real budget sphere
(nonnegative_amplitudes), as in the adaptive path.

The design works in link coordinates (K*hops of them), not in the stack of
chips: U enters only through the Gram matrix U^H U, and with Omega = F F^H the
push-through identity gives the MMSE filters as W = U diag(a) F C with a
K*hops-dimensional solve for C. The power terms and the MSE follow from the
link responses U^H W, so W itself is formed once, after the alternation.
build_statistics and total_mse assemble the stacked statistics; they score
a design, they are not part of it.

The design steps (link_factors, filter_step, power_terms, _real_power_solve,
nonnegative_amplitudes) take a leading trial axis, so that design solves the
designs of T independent trials (of one SNR point) as one stack; each trial's
arithmetic is the same as on a stack of one, which alternate is.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (TRIAL_FAILURES, DegenerateStateError,
                     IllConditionedError)

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
    if not np.isfinite(R).all():
        raise IllConditionedError("non-finite entries in covariance assembly")
    return EnsembleStatistics(R=R, P_ch=P_ch)


def _diagonal_blocks(X: np.ndarray, blocks: int) -> np.ndarray:
    """View of the B = blocks equal diagonal blocks of each trial's matrix,
    (T, B, rows/B, cols/B) for X of shape (T, rows, cols)."""
    if blocks == 1:
        return X[:, None]  # the whole matrix, without einsum's call overhead
    trials, rows, cols = X.shape
    return np.einsum("tbibj->tbij", X.reshape(trials, blocks, rows // blocks,
                                              blocks, cols // blocks))


def _conj_t(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return X.conj().swapaxes(-1, -2)


def power_terms(links: np.ndarray, amps: np.ndarray, omega: np.ndarray,
                blocks: int):
    """R_a (T x B x n x n) and p_a (T x B x n) of each of B = `blocks` equal
    contiguous user blocks of n = K*hops/B links, for each of T trials.

    links is the T x K*hops x K stack of link responses U^H W: column k holds
    the response of filter w_k to each link's waveform; amps is T x K x hops
    and omega T x K*hops x K*hops. R_a[t, b] and p_a[t, b] are
    the quadratic and linear coefficients, in block b's amplitudes, of the MSE
    summed over b's users with the other blocks' amplitudes held at amps.
    With G_b the block users' link responses on the block's links,
    R_a[b] = (G_b G_b^H) o Omega_bb^T; p_a[b] is the block users'
    desired-symbol correlation minus the other blocks' fixed contribution,
    which is zero for one block.
    """
    trials, cols, K = links.shape
    d = omega[:, :, ::cols // K]  # column k: each link's correlation with b_k
    if blocks > 1:
        # amplitude-weighted link responses of each filter, other blocks only
        aG = np.asarray(amps, dtype=complex).reshape(trials, cols, 1) * links
        _diagonal_blocks(aG, blocks)[...] = 0.0
        d = d - omega @ aG
    G_b = _diagonal_blocks(links, blocks)
    R_a = ((G_b @ _conj_t(G_b))
           * _diagonal_blocks(omega, blocks).swapaxes(-1, -2))
    p_a = np.einsum("tbik->tbi", G_b * _diagonal_blocks(d, blocks).conj())
    return R_a, p_a


def _checked_solve(R: np.ndarray, rhs: np.ndarray, what: str,
                   floor: float = 0.0) -> np.ndarray:
    """Solve R x = rhs for a Hermitian positive semidefinite R, or for each
    matrix of a stack of them (R of shape (..., n, n)). rhs holds one vector
    (..., n) or one matrix (..., n, k) of right-hand sides per matrix.

    floor is a lower bound on the eigenvalues of R that the caller knows from
    how R was built (sigma^2 for a receiver covariance, lambda for a loaded
    power covariance), 0 when none is known. For Hermitian R,
    cond2(R) <= ||R||_1 / floor, so ||R||_1 <= floor * _COND_LIMIT / 2 proves
    cond2(R) <= _COND_LIMIT with a factor 2 to spare for rounding in the
    assembly of R. Every matrix so certified goes to one batched LU call
    (np.linalg.solve). The SVD (np.linalg.cond) runs, matrix by matrix, only
    on the others: when floor is 0, when the bound does not prove the limit,
    or when LU raises LinAlgError on that matrix. A matrix whose condition
    number is then non-finite or above the limit is solved with the
    pseudoinverse, with one RuntimeWarning per such matrix.
    """
    if not (np.isfinite(R).all() and np.isfinite(rhs).all()):
        raise IllConditionedError(f"{what}: non-finite entries")
    n = R.shape[-1]
    vectors = rhs.ndim < R.ndim
    Rs = R.reshape(-1, n, n)
    bs = (rhs[..., None] if vectors else rhs).reshape(len(Rs), n, -1)
    certified = np.zeros(len(Rs), dtype=bool)
    if floor > 0.0:
        certified = (np.abs(Rs).sum(axis=-2).max(axis=-1)
                     <= floor * _COND_LIMIT / 2)
    x = np.empty(bs.shape, dtype=np.result_type(R, rhs))
    if certified.any():
        lu = slice(None) if certified.all() else certified
        try:
            x[lu] = np.linalg.solve(Rs[lu], bs[lu])
        except np.linalg.LinAlgError:  # find the matrices LU fails on
            for i in np.flatnonzero(certified):
                try:
                    x[i] = np.linalg.solve(Rs[i], bs[i])
                except np.linalg.LinAlgError:
                    certified[i] = False
    for i in np.flatnonzero(~certified):
        x[i] = _cond_solve(Rs[i], bs[i], what)
    return x.reshape(rhs.shape)


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
    """The design's fixed data in link coordinates, for each of T trials:
    the Gram matrices U^H U and factors F with Omega = F F^H, from U of shape
    (T, stack, K*hops) and omega of shape (T, K*hops, K*hops).

    F comes from the eigendecomposition of Omega with its eigenvalues clipped
    at 0, so a singular positive semidefinite Omega (perfect relays, or no
    relay noise) factors without failing.
    """
    if not (np.isfinite(U).all() and np.isfinite(omega).all()):
        raise IllConditionedError("non-finite entries in the link statistics")
    eigvals, V = np.linalg.eigh(omega)
    return _conj_t(U) @ U, V * np.sqrt(np.clip(eigvals, 0.0, None))[:, None]


def filter_step(gram: np.ndarray, F: np.ndarray, hops: int, sigma2: float,
                amps: np.ndarray):
    """Joint MMSE filters at the amplitudes amps (T x K x hops), in link
    coordinates, for each of T trials (link_factors' gram and F).

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
    trials, cols, _ = F.shape
    DF = np.asarray(amps, dtype=complex).reshape(trials, cols, 1) * F
    B = _conj_t(F[:, ::hops])
    A = _conj_t(DF) @ gram @ DF + sigma2 * np.eye(cols)
    C = _checked_solve(A, B, "receiver covariance", sigma2)
    mse = sigma2 * np.real(np.einsum("tik,tik->t", B.conj(), C))
    return DF @ C, mse


def nonnegative_amplitudes(a: np.ndarray, budget: float) -> np.ndarray:
    """Project each vector along the last axis onto the nonnegative-real
    sphere of the given power budget.

    Transmit amplitudes are physical gains: per-link phase alignment is the
    receiver's job (each link occupies its own block of the stacked
    observation), so the phase content of an unconstrained solution is pure
    gauge freedom and is discarded. A vector whose real part clips to zero
    falls back to its magnitudes; a vector still of zero norm raises
    DegenerateStateError.
    """
    a_r = np.maximum(a.real, 0.0)
    sq_norms = np.einsum("...i,...i->...", a_r, a_r)
    if not sq_norms.all():
        a_r = np.where(a_r.any(axis=-1)[..., None], a_r, np.abs(a))
        sq_norms = np.einsum("...i,...i->...", a_r, a_r)
        if not sq_norms.all():
            raise DegenerateStateError(
                "zero-norm amplitude vector at projection")
    return a_r * (math.sqrt(budget) / np.sqrt(sq_norms))[..., None]


def _real_power_solve(R_a: np.ndarray, p_a: np.ndarray, lam: float) -> np.ndarray:
    """Regularized power step restricted to real amplitude vectors.

    For real a the quadratic MSE terms reduce to the real parts of the
    complex statistics, so this solve is exact on the real subspace. R_a may
    be a stack of blocks (..., B, n, n) with p_a of shape (..., B, n).
    Re(R_a) is positive semidefinite (a Hadamard product of two covariances,
    Schur product theorem), so lam bounds the eigenvalues of the loaded matrix.
    """
    dim = R_a.shape[-1]
    return _checked_solve(np.real(R_a) + lam * np.eye(dim), np.real(p_a),
                          "power covariance", lam)


def total_mse(U: np.ndarray, hops: int, sigma2: float,
              amps: np.ndarray, W: np.ndarray, omega: np.ndarray) -> float:
    """Ensemble MSE  sum_k E|b_k - w_k^H r|^2  at the given filters/amplitudes."""
    stats = build_statistics(U, hops, sigma2, amps, omega)
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


@dataclass
class StackedDesign:
    """The designs of a stack of T trials (design). Trial t failed when
    errors[t] holds the IllConditionedError or DegenerateStateError it
    raised; its W and amps are then nan."""

    W: np.ndarray  # T x stack x K
    amps: np.ndarray  # T x K x hops, real
    # T x (most filter steps any trial took), each trial's filter-step MSE
    # per iteration it entered, nan after
    mse_trace: np.ndarray
    iterations: np.ndarray  # T, 0 without a power step
    converged: np.ndarray  # T
    errors: list


def equal_power_amps(K: int, hops: int) -> np.ndarray:
    """Equal power per link within each user's unit budget (CIS)."""
    return np.full((K, hops), np.sqrt(1.0 / hops))


def _each_trial(step, trials: np.ndarray, errors: list, outs) -> np.ndarray:
    """Run step on a stack of trials and write its outputs into outs.

    step(t) takes an index array t of trials and returns a tuple of arrays
    whose leading axis runs over t; outs holds one array per output, indexed
    by trial. When the stack raises IllConditionedError or
    DegenerateStateError, each trial steps alone, a stack of one with the
    same arithmetic, so that a failure fails only its own trial: errors[t]
    records it and t is left out of the trials returned.
    """
    try:
        values = step(trials)
    except TRIAL_FAILURES as exc:
        if len(trials) == 1:
            errors[trials[0]] = exc
            return trials[:0]
        return np.concatenate([_each_trial(step, trials[i:i + 1], errors, outs)
                               for i in range(len(trials))])
    for out, value in zip(outs, values):
        out[trials] = value
    return trials


def design(U: np.ndarray, hops: int, sigma2: float, blocks: int | None,
           config: MmseConfig | None, omega: np.ndarray) -> StackedDesign:
    """Exact designs of T trials as one stack: U (T x stack x K*hops) and
    omega (T x K*hops x K*hops) hold each trial's waveforms and link-symbol
    correlation, all at one noise level sigma2.

    Without blocks (None, the equal-power schemes) each trial gets the MMSE
    filters of the equal-power amplitudes. With blocks the trials alternate
    filter and power steps as alternate describes, each frozen once its
    stopping test passes; the test takes np.linalg.norm per trial, so every
    trial's iterations, amplitudes and filters are those it gets alone. Each
    step, the power step's solve and its projection apart, is guarded on its
    own (_each_trial): a trial whose step fails is dropped from the stack,
    and only that step reruns.
    """
    trials, stack, cols = U.shape
    K = cols // hops
    if blocks is not None and (blocks < 1 or K % blocks):
        raise ValueError(f"{blocks} blocks do not split {K} users evenly")
    max_iters = 0 if blocks is None else config.max_iters
    errors = [None] * trials
    amps = np.tile(equal_power_amps(K, hops), (trials, 1, 1))
    a_ls = np.empty_like(amps)
    a_new = np.empty_like(amps)
    gram = np.empty((trials, cols, cols), dtype=complex)
    F = np.empty_like(gram)
    Y = np.empty((trials, cols, K), dtype=complex)
    mse = np.empty(trials)
    W = np.full((trials, stack, K), np.nan, dtype=complex)
    trace = []  # per iteration, the MSE of each trial's filter step
    iterations = np.zeros(trials, dtype=int)
    converged = np.zeros(trials, dtype=bool)

    active = _each_trial(lambda t: link_factors(U[t], omega[t]),
                         np.arange(trials), errors, (gram, F))
    for it in range(1, max_iters + 1):
        if not active.size:
            break
        active = _each_trial(
            lambda t: filter_step(gram[t], F[t], hops, sigma2, amps[t]),
            active, errors, (Y, mse))
        if active.size:
            trace.append(np.full(trials, np.nan))
            trace[-1][active] = mse[active]
        active = _each_trial(lambda t: (_real_power_solve(
            *power_terms(gram[t] @ Y[t], amps[t], omega[t], blocks),
            config.lam).reshape(-1, K, hops),), active, errors, (a_ls,))
        # each block projected onto the sphere of its number of users
        active = _each_trial(lambda t: (nonnegative_amplitudes(
            a_ls[t].reshape(len(t), blocks, -1),
            float(K // blocks)).reshape(-1, K, hops),), active, errors, (a_new,))
        done = np.array([np.linalg.norm(a_new[t] - amps[t])
                         / max(np.linalg.norm(amps[t]), 1e-30) < config.tol
                         for t in active], dtype=bool)
        amps[active] = a_new[active]
        iterations[active] = it
        converged[active[done]] = True
        active = active[~done]
    live = np.array([t for t in range(trials) if errors[t] is None], dtype=int)
    if live.size:
        _each_trial(lambda t: (U[t] @ filter_step(gram[t], F[t], hops, sigma2,
                                                  amps[t])[0],),
                    live, errors, (W,))
    amps[[errors[t] is not None for t in range(trials)]] = np.nan
    return StackedDesign(W=W, amps=amps,
                         mse_trace=np.reshape(trace, (-1, trials)).T,
                         iterations=iterations, converged=converged,
                         errors=errors)


def alternate(U: np.ndarray, hops: int, sigma2: float, blocks: int,
              config: MmseConfig, omega: np.ndarray) -> AlternationResult:
    """Alternate filter and power steps from the equal-power initialization:
    design on a stack of one.

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
    res = design(U[None], hops, sigma2, blocks, config, omega[None])
    if res.errors[0] is not None:
        raise res.errors[0]
    W, amps, iterations = res.W[0], res.amps[0], int(res.iterations[0])
    trace = np.append(res.mse_trace[0, :iterations],
                      total_mse(U, hops, sigma2, amps, W, omega))
    return AlternationResult(W=W, amps=amps, mse_trace=trace,
                             converged=bool(res.converged[0]),
                             iterations=iterations)
