"""Property tests of the certified solve, mmse._checked_solve.

Its certificate bounds each matrix's Frobenius norm by the matrix's
eigenvalue floor. The 1-norm certificate it replaced is kept here as the
oracle, one_norm_checked_solve. On stacks of Hermitian positive semidefinite
matrices with true floors, including matrices near the condition limit and
singular ones, no matrix that _checked_solve solves without the SVD path has
a condition number above the limit, and the solutions and the pseudoinverse
warnings are those of the oracle, byte for byte: a matrix the two
certificates judge apart goes to LU on one side and to np.linalg.solve, the
same LU, on the other.
"""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coopcdma import mmse  # noqa: E402
from coopcdma.errors import IllConditionedError  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None, database=None)


def one_norm_checked_solve(R, rhs, what, floor=0.0):
    """_checked_solve with the 1-norm certificate: for Hermitian R,
    cond2(R) <= ||R||_1 / floor, so each matrix whose largest column sum is
    at most floor * _COND_LIMIT / 2 goes to LU without the SVD path."""
    if not (np.isfinite(R).all() and np.isfinite(rhs).all()):
        raise IllConditionedError(f"{what}: non-finite entries")
    n = R.shape[-1]
    vectors = rhs.ndim < R.ndim
    Rs = R.reshape(-1, n, n)
    bs = rhs.reshape(len(Rs), n, 1 if vectors else rhs.shape[-1])
    floors = np.broadcast_to(floor, R.shape[:-2]).reshape(-1)
    certified = (np.abs(Rs).sum(axis=-2).max(axis=-1)
                 <= floors * mmse._COND_LIMIT / 2) & (floors > 0.0)
    if certified.all():
        try:
            return mmse.lapack_solve(Rs, bs).reshape(rhs.shape)
        except np.linalg.LinAlgError:
            pass
    x = np.empty(bs.shape, dtype=np.result_type(R, rhs))
    for i, lu in enumerate(certified.tolist()):
        if lu:
            try:
                x[i] = mmse.lapack_solve(Rs[i], bs[i])
                continue
            except np.linalg.LinAlgError:
                pass
        x[i] = mmse._cond_solve(Rs[i], bs[i], what)
    return x.reshape(rhs.shape)


@st.composite
def hermitian_stacks(draw):
    """(R, rhs, floors): a stack of 1 to 4 Hermitian positive semidefinite
    n x n matrices, real or complex, each with a floor its eigenvalues keep
    (a loose one too): matrices whose condition numbers spread up to 1e14,
    matrices near the limit (1e11 to 1.6e12), and singular ones, whose floor
    is 0."""
    n = draw(st.integers(1, 6))
    count = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Rs, floors = [], []
    for _ in range(count):
        kind = draw(st.sampled_from(["spread", "near limit", "singular"]))
        floor = 10.0 ** draw(st.floats(-6.0, 3.0))
        log_cond = draw(st.floats(0.0, 14.0) if kind == "spread"
                        else st.floats(11.0, 12.2))
        # the floor and floor * 10^log_cond, and the others between them
        eigvals = floor * 10.0 ** (log_cond * rng.random(n))
        eigvals[0], eigvals[-1] = floor, floor * 10.0 ** log_cond
        if kind == "singular":
            eigvals[:draw(st.integers(1, n))] = 0.0
            floor = 0.0
        A = rng.standard_normal((n, n)).astype(dtype)
        if dtype is np.complex128:
            A += 1j * rng.standard_normal((n, n))
        V = np.linalg.qr(A)[0]
        Rs.append((V * eigvals) @ V.conj().T)
        floors.append(floor * draw(st.sampled_from([1.0, 1.0, 0.5, 1e-3])))
    rhs_shape = (count, n) if draw(st.booleans()) else (count, n, 2)
    rhs = rng.standard_normal(rhs_shape).astype(dtype)
    return np.stack(Rs), rhs, np.array(floors)


def solve_recorded(solve, R, rhs, floors):
    """solve(R, rhs, "test", floors), the (category, message) of each
    warning it raised, and the matrices it sent down the SVD path."""
    real, svd_path = mmse._cond_solve, []

    def recorded(R_i, rhs_i, what):
        svd_path.append(R_i)
        return real(R_i, rhs_i, what)

    mmse._cond_solve = recorded
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = solve(R, rhs, "test", floors)
    finally:
        mmse._cond_solve = real
    return x, [(w.category, str(w.message)) for w in caught], svd_path


@SETTINGS
@given(hermitian_stacks())
def test_frobenius_certificate_never_passes_an_ill_conditioned_matrix(stack):
    R, rhs, floors = stack
    _, _, svd_path = solve_recorded(mmse._checked_solve, R, rhs, floors)
    for R_i in R:
        if not any(S is R_i or np.array_equal(S, R_i) for S in svd_path):
            assert np.linalg.cond(R_i) <= mmse._COND_LIMIT


def judged_apart():
    """A stack of two matrices with floor 1 that the two certificates judge
    apart: a diagonal matrix whose 1-norm, 4e11, passes and whose Frobenius
    norm, 8e11, does not, and a rank-one update of I whose Frobenius norm,
    4.2e11, passes and whose 1-norm, 7e11, does not. Both have condition
    numbers near 4e11, below the limit."""
    v = np.array([1.0, 0.2, 0.2, 0.2, 0.2, 0.2])
    R = np.stack([np.diag([1.0, 4e11, 4e11, 4e11, 4e11, 1.0]),
                  3.5e11 * np.outer(v, v) + np.eye(6)])
    rhs = np.random.default_rng(5).standard_normal((2, 6))
    return R, rhs, np.ones(2)


@SETTINGS
@given(hermitian_stacks())
@example(judged_apart())
@example(tuple(part[1:] for part in judged_apart()))
def test_solutions_and_warnings_are_the_one_norm_oracles(stack):
    R, rhs, floors = stack
    x, caught, _ = solve_recorded(mmse._checked_solve, R, rhs, floors)
    want, want_caught, _ = solve_recorded(one_norm_checked_solve, R, rhs,
                                          floors)
    assert x.dtype == want.dtype and x.shape == want.shape
    assert x.tobytes() == want.tobytes()
    assert caught == want_caught
