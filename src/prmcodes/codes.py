"""Point enumeration, evaluation maps, and generator matrices.

The coordinate order of every code is fixed by the point array: one row per
point, affine points all q^m tuples in lexicographic order, projective
points the standard representatives (unique scalar multiple whose last
nonzero coordinate is 1) in lexicographic order.  Any fixed order gives a
permutation-equivalent code, so weights, distances and counts do not depend
on this choice; only codeword indexing does.  Point indices are 0-based.

Points, generator matrices and word sets are numpy arrays from here to the
verify row; only the export functions turn them into text.  A generator
matrix is evaluated in one array pass: a table of every power x^a of every
field element, gathered at the (row, point) pairs of each variable's
exponents and coordinates, and the gathers multiplied together.  Its point
and row arrays are read-only, since every check of a code shares them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .combinat import p_k, ts_decompose
from .errors import POINT_GUARD, GuardExceeded
from .gf import GF
from .poly import Poly, reduced_monomials_affine, reduced_monomials_projective


Codeword = tuple[int, ...]


def digits(q: int, m: int) -> np.ndarray:
    """The (q^m, m) base-q digits of 0 .. q^m - 1, most significant first:
    every m-tuple over range(q) in lexicographic (`product`) order."""
    return np.arange(q ** m)[:, None] // q ** np.arange(m - 1, -1, -1) % q


def affine_points(field: GF, m: int, guard: int = POINT_GUARD) -> np.ndarray:
    """All q^m affine points as a read-only (q^m, m) int64 array, in
    lexicographic order."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if field.q ** m > guard:
        raise GuardExceeded("point", f"{field.q}^{m} affine points", guard)
    pts = digits(field.q, m)
    pts.flags.writeable = False
    return pts


def projective_points(field: GF, m: int, guard: int = POINT_GUARD) -> np.ndarray:
    """All p_m standard representatives as a read-only (p_m, m + 1) int64
    array, in lexicographic order.  They are built by their first
    coordinate: the representatives of P^i are (0, r) for every
    representative r of P^(i-1), then (1, 0, ..., 0), then (a, r) for
    a = 1 .. q - 1 and every r."""
    if m < 1:
        raise ValueError("m must be positive")
    q, n = field.q, p_k(field.q, m)
    if n > guard:
        raise GuardExceeded("point", f"{n} projective points", guard)
    pts = np.ones((1, 1), dtype=np.int64)          # P^0
    for i in range(m):
        grid = np.hstack([np.repeat(np.arange(q), len(pts))[:, None], np.tile(pts, (q, 1))])
        pts = np.concatenate([grid[: len(pts)], np.eye(1, i + 2, dtype=np.int64), grid[len(pts) :]])
    if len(pts) != n:
        raise RuntimeError(f"{len(pts)} standard representatives, not p_{m} = {n}")
    pts.flags.writeable = False
    return pts


def ev_vector(f: Poly, pts: np.ndarray) -> Codeword:
    """Evaluation codeword of a polynomial over an ordered point array."""
    return tuple(f.evaluate(p) for p in pts.tolist())


def distinct_words(words: np.ndarray, q: int) -> np.ndarray:
    """The distinct rows of an (N, n) array of words over GF(q), in one fixed
    order, in the smallest unsigned dtype that holds a symbol.  Each row is
    compared as one opaque block of bytes, which sorts far faster than
    np.unique(axis=0); that byte order need not be lexicographic, so
    nothing may rely on the order beyond its being fixed."""
    words = np.ascontiguousarray(words, dtype=np.min_scalar_type(q - 1))
    n = words.shape[1]
    out = np.unique(words.view(f"V{n * words.itemsize}").ravel())
    return out.view(words.dtype).reshape(-1, n)


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    family: str              # "rm" | "prm"
    field: GF
    order: int               # nu for rm, d for prm
    m: int
    points: np.ndarray       # (n, nvars), one row per point
    basis: tuple[tuple[int, ...], ...]   # exponent vectors, one per row
    rows: np.ndarray         # (k, n) int64

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.points)

    def rank(self) -> int:
        return linalg.rank(self.field, self.rows)


def power_table(field: GF, top: int) -> np.ndarray:
    """The (top + 1, q) int64 table powers[a, x] = x^a with 0^0 = 1."""
    powers = np.ones((top + 1, field.q), dtype=np.int64)
    elements = np.arange(field.q)
    for a in range(1, top + 1):
        powers[a] = field.vmul(powers[a - 1], elements)
    return powers


def _evaluate(field: GF, basis, pts: np.ndarray) -> np.ndarray:
    """The read-only (k, n) int64 rows of G, one per exponent vector of
    basis, evaluated at every point from the power table, up to the largest
    exponent, which for a projective basis can exceed q - 1."""
    nvars = pts.shape[1]
    exps = np.array(basis, dtype=np.intp).reshape(len(basis), nvars)
    powers = power_table(field, int(exps.max(initial=0)))
    vals = np.ones((len(basis), len(pts)), dtype=np.int64)
    for i in range(nvars):
        vals = field.vmul(vals, powers[exps[:, i, None], pts[None, :, i]])
    vals.flags.writeable = False
    return vals


def rm_generator_matrix(field: GF, nu: int, m: int) -> GeneratorMatrix:
    """Rows are the evaluations of the reduced monomials of degree <= nu at
    all affine points; the rows are independent and span the code."""
    ts_decompose(nu, field.q, "rm", m)
    pts = affine_points(field, m)
    basis = tuple(reduced_monomials_affine(field.q, nu, m))
    rows = _evaluate(field, basis, pts)
    return GeneratorMatrix("rm", field, nu, m, pts, basis, rows)


def prm_generator_matrix(field: GF, d: int, m: int) -> GeneratorMatrix:
    """Rows are the evaluations of the projectively reduced monomials of
    degree d at the standard projective representatives."""
    ts_decompose(d, field.q, "prm", m)
    pts = projective_points(field, m)
    basis = tuple(reduced_monomials_projective(field.q, d, m))
    rows = _evaluate(field, basis, pts)
    return GeneratorMatrix("prm", field, d, m, pts, basis, rows)


def weight(c: Codeword) -> int:
    return sum(1 for x in c if x)


# -- export -------------------------------------------------------------------


def matrix_csv(g: GeneratorMatrix) -> str:
    """CSV of canonical integers, one row per basis monomial; the header
    row holds the ':'-joined point tuples."""
    lines = [",".join(":".join(map(str, p)) for p in g.points.tolist())]
    lines += [",".join(map(str, row)) for row in g.rows.tolist()]
    return "\n".join(lines) + "\n"


def matrix_json(g: GeneratorMatrix) -> dict:
    return {
        "family": g.family,
        "q": g.field.q,
        "field": g.field.as_dict(),
        "order": g.order,
        "m": g.m,
        "points": g.points.tolist(),
        "basis": [list(b) for b in g.basis],
        "rows": g.rows.tolist(),
    }
