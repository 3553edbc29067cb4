"""Dense exact linear algebra over GF(q).

A matrix is a 2-D integer array of canonical element ints; each function
also takes a list of equal-length rows.  rank and rref run one Gaussian
elimination on an int64 copy, one row operation per field array op
(`GF.vmul`, `GF.vadd`) on the columns from the pivot's on, since the
pivot row is zero left of its pivot: rank clears each pivot column below
the pivot, rref above it too, and rref returns the array.  mat_mul is one
integer product mod p over a prime field.  Over GF(p^e) it builds, per inner index
j, the q rows T_j[v] = v b[j, :] and gathers them at a[:, j], adding the
gathered rows in integers: XOR of symbols for p = 2, base-p digits in
uint16 for odd p, reduced mod p at the end.  So desk-scale sweeps (a few
hundred rows) and the syndromes of a whole witness set stay fast.
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
        # rows r.. are zero left of c, so row r scaled, and added to any
        # row, changes only columns c..
        mat[r, c:] = field.vmul(field.inv(int(mat[r, c])), mat[r, c:])
        top = 0 if reduced else r + 1
        clear = top + np.nonzero(mat[top:, c])[0]
        clear = clear[clear != r]
        if clear.size:
            factors = field.vmul(field.p - 1, mat[clear, c])
            prod = field.vmul(factors[:, None], mat[r, c:][None, :])
            mat[clear, c:] = field.vadd(mat[clear, c:], prod)
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
    n (p-1)^2 of a sum fits in int64.  Otherwise, for each inner index j,
    the products a[i, j] b[j, :] are the rows of the table
    T_j[v] = v b[j, :] gathered at a[:, j] (or multiplied directly when a
    has fewer rows than T_j), and added as integers: by XOR of uint8 (or
    uint16) symbols for p = 2, else digit by digit in base p, in uint16
    for p < 256, reduced mod p only where another sum could overflow and
    once at the end."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    p, q, e = field.p, field.q, field.e
    (r, inner), c = a.shape, b.shape[1]
    if e == 1 and inner * (p - 1) ** 2 < 2 ** 63:
        return a @ b % p
    if p == 2:
        out = np.zeros((r, c), dtype=np.min_scalar_type(q - 1))
    else:
        out = np.zeros((r, c, e), dtype=np.uint16 if p < 256 else np.int64)
        place = p ** np.arange(e)
        # sums of p - 1 that fit on top of a reduced digit
        room = np.iinfo(out.dtype).max // (p - 1) - 1

    def products(rows, j):
        prod = field.vmul(rows, b[j])
        if p == 2:
            return prod.astype(out.dtype)
        return (prod[..., None] // place % p).astype(out.dtype)

    values = np.arange(q)[:, None]
    for j in range(inner):
        prod = products(values, j)[a[:, j]] if r >= q else products(a[:, j, None], j)
        if p == 2:
            out ^= prod
            continue
        if j and j % room == 0:
            out %= p
        out += prod
    if p == 2:
        return out.astype(np.int64)
    return (out % p).astype(np.int64) @ place
