"""Dense exact linear algebra over GF(q).

A matrix is a 2-D integer array of canonical element ints; each function
also takes a list of equal-length rows.  rank and rref run one Gaussian
elimination on an int64 copy, one row operation per field array op
(`GF.vmul`, `GF.vadd`): rank clears each pivot column below the pivot,
rref above it too, and rref returns the array.  mat_mul is one integer
product mod p over a prime field, else one broadcast multiply-add per
inner index.  So desk-scale sweeps (a few hundred rows) stay fast.
"""

from __future__ import annotations

import numpy as np

from .gf import GF


def _eliminate(field: GF, rows, reduced: bool) -> tuple[np.ndarray, list[int]]:
    """(echelon form, pivot columns) of rows; with reduced, every pivot is
    the only nonzero entry of its column (reduced row echelon form)."""
    mat = np.array(rows, dtype=np.int64)      # a copy: elimination writes to it
    if not len(mat):
        return np.zeros((0, 0), dtype=np.int64), []
    nrows, ncols = mat.shape
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        found = np.nonzero(mat[r:, c])[0]
        if found.size == 0:
            continue
        pr = r + int(found[0])
        if pr != r:
            mat[[r, pr]] = mat[[pr, r]]
        mat[r] = field.vmul(field.inv(int(mat[r, c])), mat[r])
        top = 0 if reduced else r + 1
        clear = top + np.nonzero(mat[top:, c])[0]
        clear = clear[clear != r]
        if clear.size:
            factors = field.vmul(field.p - 1, mat[clear, c])
            prod = field.vmul(factors[:, None], mat[r][None, :])
            mat[clear] = field.vadd(mat[clear], prod)
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return mat, pivots


def rank(field: GF, rows) -> int:
    return len(_eliminate(field, rows, reduced=False)[1])


def rref(field: GF, rows) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (int64 array, pivot column indices)."""
    return _eliminate(field, rows, reduced=True)


def is_independent(field: GF, rows) -> bool:
    return rank(field, rows) == len(rows)


def mat_mul(field: GF, a, b) -> np.ndarray:
    """The product a b as an int64 array; a is (r, n), b is (n, c).  Over a
    prime field it is one integer product reduced mod p, exact while the
    n (p-1)^2 of a sum fits in int64."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if field.e == 1 and a.shape[1] * (field.p - 1) ** 2 < 2 ** 63:
        return a @ b % field.p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for j in range(a.shape[1]):
        out = field.vadd(out, field.vmul(a[:, j, None], b[None, j, :]))
    return out
