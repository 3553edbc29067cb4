"""Dense exact linear algebra over GF(q).

Matrices are lists (or tuples) of equal-length rows of canonical element
ints.  rref/inv_matrix are plain exact Gaussian elimination on Python
lists with the scalar field ops; rank runs the same elimination on a numpy
array of canonical ints, one row operation per field array op (`GF.vmul`,
`GF.vadd`), so that desk-scale sweeps (a few hundred rows) stay fast.
"""

from __future__ import annotations

import numpy as np

from .gf import GF


def rank(field: GF, rows) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    mat = np.array(rows, dtype=np.int64)
    nrows, ncols = mat.shape
    r = 0
    for c in range(ncols):
        pivots = np.nonzero(mat[r:, c])[0]
        if pivots.size == 0:
            continue
        pr = r + int(pivots[0])
        if pr != r:
            mat[[r, pr]] = mat[[pr, r]]
        mat[r] = field.vmul(field.inv(int(mat[r, c])), mat[r])
        below = r + 1 + np.nonzero(mat[r + 1 :, c])[0]
        if below.size:
            factors = field.vmul(field.p - 1, mat[below, c])
            prod = field.vmul(factors[:, None], mat[r][None, :])
            mat[below] = field.vadd(mat[below], prod)
        r += 1
        if r == nrows:
            break
    return r


def rref(field: GF, rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def is_independent(field: GF, rows) -> bool:
    rows = list(rows)
    return rank(field, rows) == len(rows)


def inv_matrix(field: GF, rows) -> list[list[int]]:
    """Inverse of a square matrix; ValueError if singular."""
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(field, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def mat_mul(field: GF, a, b) -> list[list[int]]:
    bt = list(zip(*b))
    return [[_dot(field, row, col) for col in bt] for row in a]


def _dot(field: GF, u, v) -> int:
    acc = 0
    for x, y in zip(u, v):
        if x and y:
            acc = field.add(acc, field.mul(x, y))
    return acc
