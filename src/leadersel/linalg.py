"""Dense symmetric linear algebra kernel.

Thin, contract-checked wrappers over LAPACK (via numpy) plus a Lyapunov
solver: the scaled Newton iteration for the matrix sign function with one
residual-correction step, O(n^3) time and O(n^2) memory.  All numeric
tolerances used anywhere in the package live in the one ``TOLERANCES``
record below; every check reads it where it checks, and no function
takes an override.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LeaderSelError, LyapunovAccuracyError


@dataclass(frozen=True)
class Tolerances:
    """Tolerance and cap fields of ``TOLERANCES``, the package's one table."""

    symmetry_rtol: float = 1e-10          # relative symmetry check for eigensolves
    rank_one_denominator_min: float = 1e-12
    woodbury_rtol: float = 1e-10          # greedy checks, relative per unit of condition number
    lyapunov_residual_rtol: float = 1e-8
    lyapunov_sign_rtol: float = 1e-10     # sign iteration: stop at ||A_k + I||_F <= this * sqrt(n)
    lyapunov_dim_cap: int = 1200          # max state dimension for the oracle (n = 300 at order 4)
    stability_slack: float = 1e-12        # strictness of stability inequalities
    coherence_margin: float = 1e-9        # below this slack, refuse closed forms
    connectivity_rtol: float = 1e-10      # lambda_1(L) <= this * lambda_max(L): disconnected
    greedy_improvement: float = 1e-12
    subset_cap: int = 10**6               # exhaustive-search subset budget
    step_norm_guard: float = 0.1          # require dt * ||A||_2 below this


TOLERANCES = Tolerances()


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues of a symmetric matrix, and on request its eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None  # orthonormal columns, when asked for


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix over the last two axes."""
    return np.sqrt(np.einsum("...ij,...ij->...", x, x))


def _require_symmetric(m: np.ndarray, stack: bool = False) -> np.ndarray:
    """``m`` as a float array, refused unless finite and symmetric within tolerance.

    With ``stack``, a (b, n, n) stack is accepted too, and each of its
    matrices is checked against its own scale.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-2] != m.shape[-1]:
        raise LeaderSelError(f"expected a square matrix, got shape {m.shape}")
    scale = _frobenius(m)  # not finite if an entry is not, or if the norm overflows
    if not np.isfinite(scale).all():
        if not np.isfinite(m).all():
            raise LeaderSelError("matrix has non-finite entries")
        # The norm overflowed: check each matrix in units of its largest entry.
        peak = np.abs(m).max(axis=(-2, -1), keepdims=True)
        _require_symmetric(m / np.maximum(peak, np.finfo(float).tiny), stack)
        return m
    skew = _frobenius(m - np.swapaxes(m, -1, -2))
    if not np.all(skew <= TOLERANCES.symmetry_rtol * scale):
        raise LeaderSelError("matrix is not symmetric within tolerance")
    return m


def _sym_eigen(m: np.ndarray, vectors: bool = False) -> SpectralDecomposition:
    """The checked eigensolve behind ``sym_eigenvalues``.

    It calls no public function of the package, so a worker thread may
    run it while the calling thread is traced.
    """
    m = _require_symmetric(m, stack=True)
    try:
        values, basis = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise LeaderSelError(str(exc)) from exc
    if not np.isfinite(values).all():
        raise LeaderSelError("eigenvalues overflow the float range")
    return SpectralDecomposition(eigenvalues=values, eigenvectors=basis)


def sym_eigenvalues(m: np.ndarray, vectors: bool = False) -> SpectralDecomposition:
    """Eigenvalues of a symmetric matrix, ascending; with ``vectors``, also its eigenvectors.

    A (b, n, n) stack gives one row (and one basis) per matrix, each equal
    bit for bit to what that matrix alone gives; the stack is refused if
    any one of its matrices is not symmetric or not finite.
    """
    return _sym_eigen(m, vectors)


def spd_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite (Cholesky-checked) matrix, symmetrized."""
    m = _require_symmetric(m)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise LeaderSelError("Cholesky factorization failed") from exc
    inv = np.linalg.solve(m, np.eye(m.shape[0]))
    return (inv + inv.T) / 2.0


def sherman_morrison_update(inv: np.ndarray, index: int, scale: float) -> np.ndarray:
    """Inverse of M + scale * e_i e_i^T given inv = M^-1.

    The update costs O(n^2); the denominator 1 + scale * inv[i, i] must
    stay above tolerance or LeaderSelError is raised.
    """
    inv = np.asarray(inv, dtype=float)
    denom = 1.0 + scale * inv[index, index]
    if denom <= TOLERANCES.rank_one_denominator_min:
        raise LeaderSelError(f"update denominator {denom} at or below tolerance")
    col = inv[:, index]
    return inv - (scale / denom) * np.outer(col, col)


# Each sign step squares |(lambda + 1) / (lambda - 1)| for every eigenvalue
# of A, so any eigenvalue that double precision can tell from the
# imaginary axis reaches the stopping rule well within this many steps.
_SIGN_STEPS = 2 * np.finfo(float).nmant


def _sign_lyapunov(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """P with A P + P A^T + RHS = 0 from the sign of [[A, RHS], [0, -A^T]].

    Scaled Newton iteration on the block-triangular matrix, kept in its
    two blocks: A_k -> sign(A) = -I for stable A, and R_k -> 2 P.
    """
    n = a.shape[0]
    eye = np.eye(n)
    a_k, r_k = a, rhs
    for _ in range(_SIGN_STEPS):
        sign, logdet = np.linalg.slogdet(a_k)
        if sign == 0 or not np.isfinite(logdet):
            raise LeaderSelError("Lyapunov sign iteration met a singular matrix")
        inv = np.linalg.inv(a_k)
        gamma = np.exp(-logdet / n)  # determinant scaling |det A_k|^(-1/n)
        a_next = (gamma * a_k + inv / gamma) / 2.0
        r_k = (gamma * r_k + inv @ r_k @ inv.T / gamma) / 2.0
        step = np.linalg.norm(a_next - a_k)
        a_k = a_next
        if np.linalg.norm(a_k + eye) <= TOLERANCES.lyapunov_sign_rtol * np.sqrt(n):
            return r_k / 2.0
        if step <= TOLERANCES.lyapunov_sign_rtol * np.linalg.norm(a_k):
            break  # settled on a sign other than -I
    raise LeaderSelError(
        "Lyapunov sign iteration did not converge to -I: A is not stable"
    )


def lyapunov_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A P + P A^T + RHS = 0 for stable A by the matrix sign function.

    Scaled Newton sign iteration (Roberts 1980; Higham 2008, ch. 5) with
    determinant scaling, then one residual-correction step: the same
    iteration solves for the residual of the first answer, and the
    correction is added.  O(n^3) time, O(n^2) memory.  An A that is
    singular along the way or whose sign is not -I raises
    LeaderSelError.  The returned P is symmetrized and its residual
    must meet ``lyapunov_residual_rtol``; if it cannot,
    LyapunovAccuracyError says so.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or rhs.shape != (n, n):
        raise LeaderSelError(f"shape mismatch: A {a.shape}, RHS {rhs.shape}")
    if n > TOLERANCES.lyapunov_dim_cap:
        raise LeaderSelError(f"dimension {n} exceeds cap {TOLERANCES.lyapunov_dim_cap}")
    p = _sign_lyapunov(a, rhs)
    p = (p + p.T) / 2.0
    correction = _sign_lyapunov(a, a @ p + p @ a.T + rhs)
    p = p + (correction + correction.T) / 2.0
    residual = np.linalg.norm(a @ p + p @ a.T + rhs)
    bound = TOLERANCES.lyapunov_residual_rtol * np.linalg.norm(rhs)
    if residual > bound:
        raise LyapunovAccuracyError(
            f"the Gramian oracle cannot meet its residual bound on this system: "
            f"residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    return p
