"""Dense linear algebra: a rank-checked least-squares solve.

Matrices are 2-D float64 ``numpy`` arrays (row-major), vectors are 1-D.
Everything here is a pure function over immutable inputs and safe to call
from any number of threads.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, RankDeficient

# Relative threshold on |R_ii| below which a QR factor is treated as rank
# deficient.  Conservative for the series lengths (T ~ 500) used upstream.
RANK_TOL = 1e-10


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ContractViolation(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ContractViolation(f"{name} has nonfinite entries")
    return m


def _as_vector(v, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ContractViolation(f"{name} must be 1-D, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ContractViolation(f"{name} has nonfinite entries")
    return v


def least_squares(a, b) -> np.ndarray:
    """Solve min_x ||Ax - b||_2 by Householder QR.

    Requires A.rows >= A.cols and full column rank; raises
    :class:`RankDeficient` when any diagonal of R falls below
    ``RANK_TOL * max|R|``.
    """
    a = _as_matrix(a, "A")
    b = _as_vector(b, "b")
    rows, cols = a.shape
    if rows < cols:
        raise ContractViolation(f"A must be tall: {rows} rows < {cols} cols")
    if b.shape[0] != rows:
        raise ContractViolation(f"b length {b.shape[0]} != A rows {rows}")
    q, r = np.linalg.qr(a, mode="reduced")
    diag = np.abs(np.diag(r))
    if diag.min() <= RANK_TOL * max(diag.max(), np.finfo(np.float64).tiny):
        raise RankDeficient(
            f"R diagonal {diag.min():.3e} below {RANK_TOL:g} * {diag.max():.3e}"
        )
    return solve_upper_triangular(r, q.T @ b)


def solve_upper_triangular(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Back substitution for a square upper-triangular system."""
    n = r.shape[0]
    x = np.empty(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - r[i, i + 1 :] @ x[i + 1 :]) / r[i, i]
    return x
