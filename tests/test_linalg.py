import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadersel.errors import LeaderSelError, LyapunovAccuracyError
from leadersel.graphs import build_graph
from leadersel.linalg import (
    TOLERANCES,
    lyapunov_solve,
    sherman_morrison_update,
    spd_inverse,
    sym_eigenvalues,
)
from leadersel.stability import auto_gains, companion_state_matrix
from leadersel.system import GroundedSystem, singleton_phase

from conftest import gain_vector, random_connected_graph, state_matrix


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


# -- eigenvalues -----------------------------------------------------------

def test_eigenvalues_identity():
    np.testing.assert_allclose(sym_eigenvalues(np.eye(2)).eigenvalues, [1.0, 1.0])


def test_eigenvalues_grounded_k2():
    # roots of x^2 - 3x + 1
    dec = sym_eigenvalues(np.array([[2.0, -1.0], [-1.0, 1.0]]))
    expected = [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2]
    np.testing.assert_allclose(dec.eigenvalues, expected, rtol=1e-12)


def test_eigenvalues_path_laplacian():
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    np.testing.assert_allclose(sym_eigenvalues(lap).eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)


def test_eigenvalues_rejects_asymmetric():
    with pytest.raises(LeaderSelError, match="not symmetric within tolerance"):
        sym_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(LeaderSelError, match="not symmetric within tolerance"):
        sym_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]), vectors=True)


def random_symmetric_stack(rng: np.random.Generator, b: int, n: int) -> np.ndarray:
    a = rng.standard_normal((b, n, n))
    return a + a.transpose(0, 2, 1)


@pytest.mark.parametrize("b, n", [(1, 1), (5, 3), (64, 20), (9, 31)])
def test_eigenvalues_of_a_stack_equal_per_matrix_calls(b, n):
    stack = random_symmetric_stack(np.random.default_rng(b * n), b, n)
    values = sym_eigenvalues(stack).eigenvalues
    full = sym_eigenvalues(stack, vectors=True)
    assert values.shape == (b, n)
    for i, matrix in enumerate(stack):
        one = sym_eigenvalues(matrix, vectors=True)
        assert np.array_equal(values[i], sym_eigenvalues(matrix).eigenvalues)
        assert np.array_equal(full.eigenvalues[i], one.eigenvalues)
        assert np.array_equal(full.eigenvectors[i], one.eigenvectors)


def test_stack_with_one_asymmetric_matrix_is_refused():
    rng = np.random.default_rng(4)
    stack = random_symmetric_stack(rng, 6, 5)
    stack[0] *= 1e6  # a large neighbour must not hide the small matrix's asymmetry
    sym_eigenvalues(stack)
    stack[3, 1, 2] += 1e-6  # far above 1e-10 of its own norm, below that of the stack's
    assert 1e-6 < TOLERANCES.symmetry_rtol * np.linalg.norm(stack)
    for vectors in (False, True):
        with pytest.raises(LeaderSelError, match="not symmetric within tolerance"):
            sym_eigenvalues(stack, vectors=vectors)


def test_two_dimensional_eigensolve_is_unchanged():
    rng = np.random.default_rng(8)
    m = random_symmetric_stack(rng, 1, 12)[0]
    assert np.array_equal(sym_eigenvalues(m).eigenvalues, np.linalg.eigvalsh(m))
    # the tolerance is relative to the matrix norm at every scale
    for scale in (1e-4, 1e4):
        limit = TOLERANCES.symmetry_rtol * np.linalg.norm(m * scale)
        skew = np.zeros_like(m)
        skew[0, 1] = limit / 2.0
        sym_eigenvalues(m * scale + skew)
        skew[0, 1] = limit * 2.0
        with pytest.raises(LeaderSelError, match="not symmetric within tolerance"):
            sym_eigenvalues(m * scale + skew)


def test_symmetry_is_checked_where_the_norm_overflows():
    """At 1e200 both Frobenius norms overflow to inf, and inf <= inf once
    let any asymmetry through; the same matrix at 1e150 was refused."""
    asymmetric = np.array([[1e200, 1e200], [0.0, 1e200]])
    stack = random_symmetric_stack(np.random.default_rng(5), 4, 2)
    stack[1] = 0.0  # a zero matrix has no largest entry to scale by
    stack[2] = asymmetric
    for matrix in (asymmetric, asymmetric * 1e-50, stack):
        for vectors in (False, True):
            with pytest.raises(LeaderSelError, match="not symmetric"):
                sym_eigenvalues(matrix, vectors=vectors)
    symmetric = np.array([[1e200, 1e200], [1e200, 1e200]])
    stack[2] = symmetric
    assert np.array_equal(sym_eigenvalues(symmetric).eigenvalues, [0.0, 2e200])
    assert np.array_equal(sym_eigenvalues(stack).eigenvalues[2], [0.0, 2e200])


def test_eigenvalues_that_overflow_are_refused():
    """Finite entries near the float maximum can have eigenvalues past it:
    inf is refused, not returned as a spectrum."""
    m = np.array([[1.7e308, 1e308], [1e308, -1.7e308]])
    stack = random_symmetric_stack(np.random.default_rng(6), 3, 2)
    stack[1] = m
    for matrix in (m, stack):
        for vectors in (False, True):
            with pytest.raises(LeaderSelError, match="overflow the float range"):
                sym_eigenvalues(matrix, vectors=vectors)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entries", [[(0, 1)], [(0, 1), (1, 0)], [(2, 2)]])
def test_non_finite_entries_are_refused(bad, entries):
    """LAPACK reads one triangle only: unchecked, eye(3) with [0, 1] = NaN
    would give eigenvalues [1, 1, 1]."""
    m = np.eye(3)
    for entry in entries:
        m[entry] = bad
    stack = random_symmetric_stack(np.random.default_rng(3), 5, 3)
    stack[2] = m
    for matrix in (m, stack):
        for vectors in (False, True):
            with pytest.raises(LeaderSelError, match="non-finite entries"):
                sym_eigenvalues(matrix, vectors=vectors)
    with pytest.raises(LeaderSelError, match="non-finite entries"):
        spd_inverse(m)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4), (1, 2, 2, 2)])
def test_eigenvalues_refuse_non_square_shapes(shape):
    message = f"expected a square matrix, got shape {shape}"
    with pytest.raises(LeaderSelError, match=re.escape(message)):
        sym_eigenvalues(np.zeros(shape))


def test_spd_solve_refuses_a_stack():
    with pytest.raises(LeaderSelError, match=r"expected a square matrix, got shape \(2, 3, 3\)"):
        spd_inverse(np.broadcast_to(np.eye(3), (2, 3, 3)))


@given(st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_eigenvalue_trace_det_and_reconstruction(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    m = (m + m.T) / 2
    dec = sym_eigenvalues(m)
    assert np.all(np.diff(dec.eigenvalues) >= -1e-12)
    np.testing.assert_allclose(dec.eigenvalues.sum(), np.trace(m), rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(
        np.prod(dec.eigenvalues), np.linalg.det(m), rtol=1e-8, atol=1e-8
    )
    full = sym_eigenvalues(m, vectors=True)
    recon = full.eigenvectors @ np.diag(full.eigenvalues) @ full.eigenvectors.T
    assert np.linalg.norm(recon - m) <= 1e-10 * max(np.linalg.norm(m), 1.0)


# -- SPD solve / inverse ----------------------------------------------------

def test_spd_inverse_identity_and_diagonal():
    np.testing.assert_allclose(spd_inverse(np.eye(3)), np.eye(3))
    np.testing.assert_allclose(spd_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))


def test_spd_inverse_grounded_k2():
    inv = spd_inverse(np.array([[2.0, -1.0], [-1.0, 1.0]]))
    np.testing.assert_allclose(inv, [[1.0, 1.0], [1.0, 2.0]], rtol=1e-12)


def test_spd_inverse_rejects_indefinite():
    with pytest.raises(LeaderSelError, match="Cholesky factorization failed"):
        spd_inverse(np.array([[1.0, 0.0], [0.0, -1.0]]))


@given(st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_spd_inverse_residual_contract(n, seed):
    m = random_spd(np.random.default_rng(seed), n)
    inv = spd_inverse(m)
    assert np.linalg.norm(m @ inv - np.eye(n)) <= 1e-10 * n
    np.testing.assert_allclose(inv, inv.T)


# -- rank-one updates --------------------------------------------------------

def test_rank_one_scalar():
    np.testing.assert_allclose(
        sherman_morrison_update(np.array([[1.0]]), 0, 1.0), [[0.5]]
    )


def test_rank_one_k2_add_second_leader():
    inv = np.array([[1.0, 1.0], [1.0, 2.0]])  # inverse of [[2,-1],[-1,1]]
    updated = sherman_morrison_update(inv, 1, 1.0)
    np.testing.assert_allclose(
        updated, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], rtol=1e-12
    )


@given(st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_rank_one_matches_direct_inverse(n, seed):
    rng = np.random.default_rng(seed)
    m = random_spd(rng, n)
    index = int(rng.integers(0, n))
    scale = float(rng.uniform(0.1, 3.0))
    updated = sherman_morrison_update(spd_inverse(m), index, scale)
    direct = spd_inverse(m + scale * np.outer(np.eye(n)[index], np.eye(n)[index]))
    assert np.linalg.norm(updated - direct) <= 1e-8 * np.linalg.norm(direct)


@given(st.integers(2, 6), st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_rank_one_composes(n, seed, k):
    rng = np.random.default_rng(seed)
    m = random_spd(rng, n)
    inv = spd_inverse(m)
    total = m.copy()
    for _ in range(k):
        index = int(rng.integers(0, n))
        scale = float(rng.uniform(0.1, 2.0))
        inv = sherman_morrison_update(inv, index, scale)
        total[index, index] += scale
    direct = spd_inverse(total)
    assert np.linalg.norm(inv - direct) <= 1e-8 * np.linalg.norm(direct)


def test_rank_one_singular_denominator():
    with pytest.raises(LeaderSelError, match="update denominator 0.0 at or below tolerance"):
        sherman_morrison_update(np.array([[1.0]]), 0, -1.0)


# -- Lyapunov solve -----------------------------------------------------------

def test_lyapunov_scalar():
    np.testing.assert_allclose(
        lyapunov_solve(np.array([[-1.0]]), np.array([[1.0]])), [[0.5]]
    )


def test_lyapunov_two_by_two_output_variance():
    # closed loop of the scalar second-order system with unit gains
    a = np.array([[0.0, 1.0], [-1.0, -1.0]])
    rhs = np.array([[0.0, 0.0], [0.0, 1.0]])
    p = lyapunov_solve(a, rhs)
    np.testing.assert_allclose(p, p.T)
    assert abs(p[0, 0] - 0.5) < 1e-12


@given(st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_lyapunov_residual_and_symmetry(n, seed):
    rng = np.random.default_rng(seed)
    a = -random_spd(rng, n)  # negative definite, hence stable
    w = rng.standard_normal((n, n))
    rhs = w @ w.T
    p = lyapunov_solve(a, rhs)
    np.testing.assert_allclose(p, p.T, atol=1e-10)
    residual = np.linalg.norm(a @ p + p @ a.T + rhs)
    assert residual <= 1e-8 * np.linalg.norm(rhs)


def test_lyapunov_dimension_cap():
    n = TOLERANCES.lyapunov_dim_cap + 1
    with pytest.raises(LeaderSelError, match=f"dimension {n} exceeds cap {n - 1}"):
        lyapunov_solve(-np.eye(n), np.eye(n))


def test_lyapunov_rejects_singular_system():
    with pytest.raises(LeaderSelError, match="sign iteration met a singular matrix"):
        lyapunov_solve(np.array([[0.0]]), np.array([[1.0]]))


@pytest.mark.parametrize("a", [
    np.array([[0.5]]),
    np.array([[-1.0, 0.0], [0.0, 2.0]]),
    np.array([[0.1, 1.0], [-1.0, 0.1]]),  # complex pair in the right half-plane
    companion_state_matrix(np.eye(2), (1.0, 1.0, 1.0, 1.0)),  # equal-gain order 4
])
def test_lyapunov_rejects_right_half_plane_eigenvalue(a):
    assert np.max(np.linalg.eigvals(a).real) > 0
    with pytest.raises(LeaderSelError, match="did not converge to -I: A is not stable") as info:
        lyapunov_solve(a, np.eye(a.shape[0]))
    assert not isinstance(info.value, LyapunovAccuracyError)  # no "oracle accuracy limit" prefix


# -- Lyapunov solve against the Kronecker oracle --------------------------------

def kronecker_lyapunov_oracle(a: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Independent test oracle: solve (I (x) A + A (x) I) vec P = -vec RHS densely.

    Returns the symmetrized P and whether its residual meets the same
    ``lyapunov_residual_rtol`` bound that ``lyapunov_solve`` enforces.
    O(n^6) time and O(n^4) memory, so kept to small n.
    """
    n = a.shape[0]
    eye = np.eye(n)
    p = np.linalg.solve(np.kron(eye, a) + np.kron(a, eye), -rhs.reshape(-1)).reshape(n, n)
    p = (p + p.T) / 2.0
    residual = np.linalg.norm(a @ p + p @ a.T + rhs)
    return p, residual <= TOLERANCES.lyapunov_residual_rtol * np.linalg.norm(rhs)


def random_stable(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense non-normal matrix shifted so its spectrum sits left of -0.1."""
    a = rng.standard_normal((n, n))
    return a - (np.max(np.linalg.eigvals(a).real) + 0.1 + rng.uniform()) * np.eye(n)


def random_companion(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Stable order-m companion state matrix (non-normal) on a random graph."""
    g = random_connected_graph(rng, n)
    leaders = sorted({int(v) for v in rng.integers(0, n, 2)})
    system = GroundedSystem.create(g, leaders, auto_gains(singleton_phase(g), m))
    a = companion_state_matrix(system.matrix, system.gains.values)
    assert np.max(np.linalg.eigvals(a).real) < 0
    return a


@pytest.mark.parametrize("seed", range(12))
def test_lyapunov_matches_kronecker_oracle(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 3, 5, 8, 13, 21, 30)
    n = dims[seed % len(dims)]
    w = rng.standard_normal((n, n))
    cases = [random_stable(rng, n)]
    for m in (2, 3, 4):
        if n % m == 0 and n // m >= 2:
            cases.append(random_companion(rng, n // m, m))
    for a in cases:
        rhs = w @ w.T
        expected, accepted = kronecker_lyapunov_oracle(a, rhs)
        assert accepted
        p = lyapunov_solve(a, rhs)
        assert np.linalg.norm(p - expected) <= 1e-9 * np.linalg.norm(expected)


@pytest.mark.parametrize("graph", ["K2", "G10"])
def test_lyapunov_accepts_what_kronecker_accepts_near_boundary(graph):
    """Order 3 at c lambda_min - 1 = margin, from 1e-1 down to 1e-9: every
    system the Kronecker oracle solves within the residual bound,
    lyapunov_solve solves too, to the same Gramian trace; the rest it
    refuses with LyapunovAccuracyError, never with a wrong answer."""
    if graph == "K2":
        g = build_graph(2, [(0, 1, 1.0)])
    else:
        g = random_connected_graph(np.random.default_rng(10), 10)
    leaders = [0] if graph == "K2" else [0, 3, 7]
    base = GroundedSystem.create(g, leaders, gain_vector(1, 1, 1))
    accepted = 0
    for margin in np.logspace(-1, -9, 17):
        gains = gain_vector(1.0, 1.0, (1.0 + margin) / base.lambda_min)
        a = state_matrix(GroundedSystem.create(g, leaders, gains))
        rhs = np.zeros_like(a)
        rhs[-g.n :, -g.n :] = np.eye(g.n)  # the noise drives the last block
        expected, oracle_ok = kronecker_lyapunov_oracle(a, rhs)
        try:
            p = lyapunov_solve(a, rhs)
        except LyapunovAccuracyError:
            assert not oracle_ok, margin
            continue
        accepted += 1
        if oracle_ok:
            assert np.trace(p[: g.n, : g.n]) == pytest.approx(
                np.trace(expected[: g.n, : g.n]), rel=1e-7
            )
    assert accepted >= 10


def test_lyapunov_solve_memory_is_quadratic():
    """At state dimension 60 the peak traced allocation stays below 16 MB
    (a dense Kronecker system alone would take 104 MB)."""
    a = random_companion(np.random.default_rng(5), 15, 4)
    rhs = np.eye(60)
    lyapunov_solve(a, rhs)  # warm up lazily allocated numpy internals
    tracemalloc.start()
    try:
        lyapunov_solve(a, rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
