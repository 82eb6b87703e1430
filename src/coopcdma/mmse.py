"""Exact constrained-MMSE receiver and power-allocation design.

The stacked observation is r = U diag(a) s + n: U holds the effective chip
waveforms (signature * channel) of the K*hops links, a their amplitudes, s
the link symbols with correlation Omega (relay_omega; unit-energy QPSK
symbols, independent across users) and n white noise of variance sigma^2.
Receiver and power steps are alternated until the MSE stops falling
(design). The power constraint is a partition into B equal contiguous user
blocks (1: global, K: individual budgets), a block's budget its number of
users; the power step is one regularized solve over all blocks
(_real_power_solve), then each block's projection onto its nonnegative-real
budget sphere (nonnegative_amplitudes), as in the adaptive path.

The design works in link coordinates (K*hops of them), not in the stack of
chips. U is hop-diagonal (hop j's rows hold its waveforms X_j = x_dest[j] in
its links' columns k*hops + j), so the design takes the hop stack X: U enters
only through U^H U, X_j^H X_j on each hop's links, and with Omega = F F^H the
push-through identity gives the MMSE filters as W = U diag(a) F C with a
K*hops-dimensional solve for C. The power terms and the MSE follow from the
link responses U^H W, so W is formed once, hop by hop, after the alternation.
build_statistics and total_mse score a design from U, outside the design.

The design steps take a leading trial axis, so that design solves T
independent trials, each at its own noise level, as one stack, each with
the arithmetic of a stack of one (alternate). A trial whose step fails
(IllConditionedError, DegenerateStateError) fails the stack's call, which
the harness bisects (harness._design_stack).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
# einsum's C function, which np.einsum calls when not asked to optimize: the
# same bytes without the wrapper's dispatch, a microsecond or two a call in
# the alternation's steps
from numpy._core.multiarray import c_einsum

from .errors import DegenerateStateError, IllConditionedError
from .rlscore import lapack_solve

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class MmseConfig:
    lam: float = 0.025  # loading of the power step
    max_iters: int = 50  # filter and power steps of a design at most
    # a design stops once a filter step's MSE falls by less than this
    # fraction of the previous step's
    tol: float = 1e-6

    def __post_init__(self):
        # nan fails every comparison
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"regularization must be finite and >= 0, "
                             f"got {self.lam!r}")
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, (int, np.integer))
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an integer >= 1, "
                             f"got {self.max_iters!r}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")


@dataclass
class EnsembleStatistics:
    """Closed-form second-order statistics of the stacked observation.

    R: stack x stack covariance; P_ch: stack x K cross-correlation with the
    desired symbols (columns are the amplitude-weighted composite waveforms).
    """

    R: np.ndarray
    P_ch: np.ndarray


def relay_omega(G: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Link-symbol correlation matrix from second-order relay models.

    G and S are the (..., n_r, K, K) stacks of relays.relay_statistics, with
    any leading axes (trials): the forwarded symbol vector of relay j is
    G[j] b + nu_j with noise covariance S[j]. Column l = q*hops + p,
    hops = n_r + 1, carries the symbol of user q on hop p (p = 0 is the
    direct link). The link symbols are A b plus independent relay noise, A's
    rows being those of I, G[0], ..., G[n_r - 1] interleaved user-major:
    Omega = A A^H + blockdiag(S), (..., K*hops, K*hops).
    """
    *lead, n_r, K, _ = G.shape
    hops = n_r + 1
    direct = np.broadcast_to(np.eye(K, dtype=complex), (*lead, 1, K, K))
    A = np.concatenate([direct, G], axis=-3).swapaxes(-3, -2).reshape(
        *lead, K * hops, K)
    omega = A @ _conj_t(A)
    relay_hops = np.arange(1, hops)
    # (n_r, ..., K, K): relay hop j's user-by-user block of each trial
    omega.reshape(*lead, K, hops, K, hops)[..., relay_hops, :, relay_hops] += (
        np.moveaxis(S, -3, 0))
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
    return c_einsum("tbibj->tbij", X.reshape(trials, blocks, rows // blocks,
                                             blocks, cols // blocks))


def _conj_t(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return X.conj().swapaxes(-1, -2)


def power_fixed_terms(omega: np.ndarray, hops: int, blocks: int):
    """The terms of power_terms that no step changes, for omega (T x K*hops
    x K*hops): its direct-link columns (column k: each link's correlation
    with b_k) and its B = blocks transposed diagonal blocks, as views."""
    return (omega[:, :, ::hops],
            _diagonal_blocks(omega, blocks).swapaxes(-1, -2))


def power_terms(links: np.ndarray, amps: np.ndarray, omega: np.ndarray,
                blocks: int, fixed=None):
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
    which is zero for one block. fixed holds power_fixed_terms of omega when
    the caller keeps them across steps.
    """
    trials, cols, K = links.shape
    d, omega_t = fixed or power_fixed_terms(omega, cols // K, blocks)
    if blocks > 1:
        # amplitude-weighted link responses of each filter, other blocks only
        aG = np.asarray(amps, dtype=complex).reshape(trials, cols, 1) * links
        _diagonal_blocks(aG, blocks)[...] = 0.0
        d = d - omega @ aG
    G_b = _diagonal_blocks(links, blocks)
    R_a = (G_b @ _conj_t(G_b)) * omega_t
    p_a = c_einsum("tbik->tbi", G_b * _diagonal_blocks(d, blocks).conj())
    return R_a, p_a


def _checked_solve(R: np.ndarray, rhs: np.ndarray, what: str,
                   floor=0.0) -> np.ndarray:
    """Solve R x = rhs for a Hermitian positive semidefinite R, or for each
    matrix of a stack of them (R of shape (..., n, n)). rhs holds one vector
    (..., n) or one matrix (..., n, k) of right-hand sides per matrix.

    floor is a lower bound on R's eigenvalues that the caller knows from how
    R was built (sigma^2 for a receiver or relay covariance, lambda for a
    loaded power covariance), 0 when none is known: one value, or any shape
    that broadcasts to R's leading axes. cond2(R) <= ||R||_F / floor, so
    ||R||_F <= floor * _COND_LIMIT / 2 proves cond2(R) <= _COND_LIMIT with a
    factor 2 to spare for rounding in R's assembly. A stack certified whole
    goes to one batched LU call with np.linalg.solve's bytes
    (rlscore.lapack_solve). Any other stack, and one on which LU raises, is
    solved matrix by matrix: by LU when certified, else, or when LU raises,
    by the SVD path (_cond_solve), which solves a matrix whose condition
    number is non-finite or above the limit with the pseudoinverse and one
    RuntimeWarning each, in the stack's order. An empty stack solves to an
    empty x. R and rhs are float64 or complex128.
    """
    # a count, not .all(): no Python-level reduction wrapper
    if (np.count_nonzero(np.isfinite(R)) != R.size
            or np.count_nonzero(np.isfinite(rhs)) != rhs.size):
        raise IllConditionedError(f"{what}: non-finite entries")
    n = R.shape[-1]
    vectors = rhs.ndim < R.ndim
    Rs = R.reshape(-1, n, n)
    bs = rhs.reshape(len(Rs), n, 1 if vectors else rhs.shape[-1])
    # each matrix's Frobenius norm, the square root of the dot product of its
    # entries' real and imaginary parts with themselves, against its own
    # floor, which broadcasts over R's leading axes
    parts = Rs.reshape(len(Rs), n * n).view(float)
    norms = np.sqrt(np.vecdot(parts, parts)).reshape(R.shape[:-2])
    certified = ((norms <= floor * _COND_LIMIT / 2)
                 & (np.asarray(floor) > 0.0)).reshape(-1)
    if np.count_nonzero(certified) == len(Rs):
        try:  # the whole stack, no copy in or out
            return lapack_solve(Rs, bs).reshape(rhs.shape)
        except np.linalg.LinAlgError:  # find the matrices LU fails on
            pass
    x = np.empty(bs.shape, dtype=np.result_type(R, rhs))
    for i, lu in enumerate(certified.tolist()):
        if lu:
            try:
                x[i] = lapack_solve(Rs[i], bs[i])
                continue
            except np.linalg.LinAlgError:
                pass
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


def link_factors(X: np.ndarray, omega: np.ndarray):
    """The design's fixed data in link coordinates, for each of T trials:
    the Gram matrices U^H U, X_j^H X_j on hop j's links k*hops + j and zero
    across hops, and factors F with Omega = F F^H, from the per-hop
    waveforms X (T, hops, M, K) and omega (T, K*hops, K*hops).

    F comes from the eigendecomposition of Omega with its eigenvalues clipped
    at 0, so a singular positive semidefinite Omega (perfect relays, or no
    relay noise) factors without failing.
    """
    if not (np.isfinite(X).all() and np.isfinite(omega).all()):
        raise IllConditionedError("non-finite entries in the link statistics")
    trials, hops, _, K = X.shape
    gram = np.zeros((trials, K * hops, K * hops), dtype=complex)
    c_einsum("tkjqj->tjkq", gram.reshape(trials, K, hops, K, hops))[...] = (
        _conj_t(X) @ X)
    eigvals, V = np.linalg.eigh(omega)
    return gram, V * np.sqrt(np.clip(eigvals, 0.0, None))[:, None]


def filter_fixed_terms(F: np.ndarray, hops: int, sigma2):
    """The terms of filter_step that no amplitude changes, for link_factors'
    F (T x K*hops x K*hops) and the trials' noise levels sigma2 (T,): B =
    F^H E, its conjugate and each trial's sigma^2 I (as complex, the cast the
    sum with a complex matrix makes)."""
    B = _conj_t(F[:, ::hops])
    noise = np.asarray(sigma2)[..., None, None] * np.eye(F.shape[-1])
    return B, B.conj(), noise.astype(complex)


def filter_step(gram: np.ndarray, F: np.ndarray, sigma2,
                amps: np.ndarray, fixed=None):
    """Joint MMSE filters at the amplitudes amps (T x K x hops), in link
    coordinates, for each of T trials (link_factors' gram and F) at its
    noise level sigma2 (T,).

    With V = U diag(a) F the covariance is R = V V^H + sigma^2 I and the
    cross-correlation P_ch = V B, B = F^H E (E selects the direct links), so
    by the push-through identity W = R^-1 P_ch = V C with
    C = (sigma^2 I + V^H V)^-1 B, V^H V = F^H diag(a)^H U^H U diag(a) F.
    That matrix is Hermitian with eigenvalues >= sigma^2, the floor the solve
    certifies from. Returns Y = diag(a) F C, so that W = U Y and the link
    responses are U^H W = gram Y, and the ensemble MSE of W,
    K - tr(B^H B) + sigma^2 tr(B^H C) = sigma^2 Re tr(B^H C): the diagonal of
    B^H B = E^H Omega E is the unit energy of the users' own symbols. fixed
    holds filter_fixed_terms of F when the caller keeps them across steps.
    """
    trials, cols, _ = F.shape
    B, B_conj, noise = fixed or filter_fixed_terms(F, amps.shape[-1], sigma2)
    DF = np.asarray(amps, dtype=complex).reshape(trials, cols, 1) * F
    A = _conj_t(DF) @ gram @ DF
    A += noise
    C = _checked_solve(A, B, "receiver covariance", sigma2)
    mse = sigma2 * np.real(c_einsum("tik,tik->t", B_conj, C))
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
    sq_norms = c_einsum("...i,...i->...", a_r, a_r)
    # a count, not .all(): no Python-level reduction wrapper
    if np.count_nonzero(sq_norms) != sq_norms.size:
        a_r = np.where(a_r.any(axis=-1)[..., None], a_r, np.abs(a))
        sq_norms = c_einsum("...i,...i->...", a_r, a_r)
        if not sq_norms.all():
            raise DegenerateStateError(
                "zero-norm amplitude vector at projection")
    return a_r * (math.sqrt(budget) / np.sqrt(sq_norms))[..., None]


def _real_power_solve(R_a: np.ndarray, p_a: np.ndarray, lam: float,
                      loading: np.ndarray | None = None) -> np.ndarray:
    """Regularized power step restricted to real amplitude vectors.

    For real a the quadratic MSE terms reduce to the real parts of the
    complex statistics, so this solve is exact on the real subspace. R_a may
    be a stack of blocks (..., B, n, n) with p_a of shape (..., B, n).
    Re(R_a) is positive semidefinite (a Hadamard product of two covariances,
    Schur product theorem), so lam bounds the eigenvalues of the loaded matrix.
    loading is lam I when the caller keeps it across steps.
    """
    if loading is None:
        loading = lam * np.eye(R_a.shape[-1])
    return _checked_solve(np.real(R_a) + loading, np.real(p_a),
                          "power covariance", lam)


def total_mse(U: np.ndarray, hops: int, sigma2: float,
              amps: np.ndarray, W: np.ndarray, omega: np.ndarray) -> float:
    """Ensemble MSE  sum_k E|b_k - w_k^H r|^2  at the given filters/amplitudes."""
    stats = build_statistics(U, hops, sigma2, amps, omega)
    cross = c_einsum("ik,ik->k", W.conj(), stats.P_ch)
    quad = c_einsum("ik,ik->k", W.conj(), stats.R @ W)
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
    """The designs of a stack of T trials (design), every one of which
    succeeded: a trial that fails fails the whole stack's call."""

    W: np.ndarray  # T x stack x K
    amps: np.ndarray  # T x K x hops, real
    mse: np.ndarray  # T, the closed-form MSE of W (filter_step's)
    # T x (most filter steps any trial took), each trial's filter-step MSE
    # per iteration it entered, nan after
    mse_trace: np.ndarray
    iterations: np.ndarray  # T, 0 without a power step
    converged: np.ndarray  # T


def equal_power_amps(K: int, hops: int) -> np.ndarray:
    """Equal power per link within each user's unit budget (CIS)."""
    return np.full((K, hops), np.sqrt(1.0 / hops))


def design(X: np.ndarray, sigma2, blocks: int | None,
           config: MmseConfig | None, omega: np.ndarray) -> StackedDesign:
    """Exact designs of T trials as one stack: X (T x hops x M x K), sigma2
    (T, or one value for all) and omega (T x K*hops x K*hops) hold each
    trial's per-hop waveforms, noise level and link-symbol correlation.

    Without blocks (None, the equal-power schemes) each trial gets the MMSE
    filters of the equal-power amplitudes. With blocks, filter and power
    steps alternate. A trial stops, converged, at its first filter step
    whose MSE is not below (1 - config.tol) times its previous step's, and
    keeps the lower MSE of those two steps with its filters and amplitudes,
    taking no more power steps; one still running after config.max_iters
    steps keeps the last power step's amplitudes, whose filters a final
    filter step forms. Each trial's test reads only its own MSEs, so every
    trial gets the bytes it gets alone. The fixed terms are formed once and
    the active trials' rows copied out only when the active set shrinks. A
    trial whose step fails raises its TrialFailure for the whole stack.
    """
    trials, hops, M, K = X.shape
    if blocks is not None and (blocks < 1 or K % blocks):
        raise ValueError(f"{blocks} blocks do not split {K} users evenly")
    sigma2 = np.broadcast_to(np.asarray(sigma2, dtype=float), (trials,))
    max_iters = 0 if blocks is None else config.max_iters
    amps = np.tile(equal_power_amps(K, hops), (trials, 1, 1))
    # each trial's design in link coordinates (W = U Y) and its MSE
    Y, mse = np.empty((trials, K * hops, K), dtype=complex), np.empty(trials)
    trace = []  # per iteration, the MSE of each trial's filter step
    iterations = np.zeros(trials, dtype=int)
    converged = np.zeros(trials, dtype=bool)
    gram, F = link_factors(X, omega)
    fixed = filter_fixed_terms(F, hops, sigma2)
    if blocks is not None:
        direct, omega_t = power_fixed_terms(omega, hops, blocks)
        loading = config.lam * np.eye(K * hops // blocks)
        # every term a step reads, in the active trials' rows: the stack's
        # own arrays while every trial is active, then copies of the active
        # rows, taken again only when trials stop; the results go to amps
        terms = [gram, F, sigma2, amps.copy(), omega, direct, omega_t,
                 *fixed]
    active, last = np.arange(trials), None
    for it in range(1, max_iters + 1):
        g, f, s2, a, om, d, om_t, *fix = terms
        now = (*filter_step(g, f, s2, a, fix), a)  # (Y, MSE, amplitudes)
        trace.append(np.full(trials, np.nan))
        trace[-1][active] = now[1]
        # each active trial's last filter step, an infinite MSE at the first
        last = last or (now[0], np.full(active.size, np.inf), a)
        # stopped: the MSE fell by less than tol; such a trial keeps the
        # lower MSE of its last two filter steps, its filters and amplitudes
        done = now[1] >= (1.0 - config.tol) * last[1]
        if np.count_nonzero(done):
            lower = (now[1] < last[1])[done]
            stop = active[done]
            for out, new, old in zip((Y, mse, amps), now, last):
                # lower broadcast along each trial's own axes
                out[stop] = np.where(lower.reshape(-1, *[1] * (new.ndim - 1)),
                                     new[done], old[done])
            iterations[stop], converged[stop] = it, True
            active, now = active[~done], [x[~done] for x in now]
            # each term's active rows replace it before the next term's are
            # copied, so that one term at a time is held twice
            for i, term in enumerate(terms):
                terms[i] = term[~done]
            del term
            if not active.size:
                break
            g, _, _, a, om, d, om_t, *_ = terms
        # the power step, of the trials that go on, each block onto the
        # sphere of its number of users
        R_a, p_a = power_terms(g @ now[0], a, om, blocks, (d, om_t))
        a_ls = _real_power_solve(R_a, p_a, config.lam, loading)
        a_new = nonnegative_amplitudes(
            a_ls.reshape(-1, blocks, K * hops // blocks),
            K // blocks).reshape(-1, K, hops)
        if it == max_iters:  # at the cap: the last power step's amplitudes
            amps[active], iterations[active] = a_new, it
        last, terms[3] = now, a_new
    # no working copy is held through the final filter step
    terms = last = now = g = f = s2 = a = om = d = om_t = fix = None
    # the final filter step, of the trials whose amplitudes no filter step
    # has seen: every trial without blocks, those at the cap with them
    final = np.flatnonzero(~converged)
    if final.size:
        Y[final], mse[final] = filter_step(
            gram[final], F[final], sigma2[final], amps[final],
            [term[final] for term in fixed])
    # W = U Y, hop j's rows X_j times hop j's rows of Y
    W = (X @ Y.reshape(trials, K, hops, K).swapaxes(1, 2)).reshape(
        trials, hops * M, K)
    return StackedDesign(W=W, amps=amps, mse=mse,
                         mse_trace=np.reshape(trace, (-1, trials)).T,
                         iterations=iterations, converged=converged)


def alternate(X: np.ndarray, sigma2: float, blocks: int,
              config: MmseConfig, omega: np.ndarray) -> AlternationResult:
    """Alternate filter and power steps from the equal-power initialization:
    design on a stack of one, the per-hop waveforms X (hops x M x K).

    The users form `blocks` equal contiguous blocks (1: global, K: individual
    constraints); a one-link block, pinned by its budget, is designed
    without alternation (harness.power_blocks). The trace holds each filter
    step's MSE, the first the equal-power (CIS) allocation's, then the
    closed-form MSE of the returned design (StackedDesign.mse), the trace's
    minimum on convergence. omega must be positive semidefinite with unit
    direct-link diagonal, as every link-symbol correlation built here is:
    sigma2 then bounds each receiver covariance's eigenvalues from below.
    """
    res = design(X[None], sigma2, blocks, config, omega[None])
    W, amps, iterations = res.W[0], res.amps[0], int(res.iterations[0])
    trace = np.append(res.mse_trace[0, :iterations], res.mse[0])
    return AlternationResult(W=W, amps=amps, mse_trace=trace,
                             converged=bool(res.converged[0]),
                             iterations=iterations)
