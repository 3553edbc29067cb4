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

The parity-check matrix H of a code, whose rows span its dual code, is
`GeneratorMatrix.h`, built on first read and kept by that instance.  H
comes from exact linear algebra on G, not from a duality theorem about the
codes, so the oracle routes and verify rows that read it stay independent
of the formulas they check.  An affine code's H is read off the inverse of
its evaluation map, the Kronecker power (V_1^-1)^(x m) with
V_1[a, x] = x^a, at the exponent vectors outside the basis, by the same
kernel that evaluates G, with no elimination of G; it raises unless
V_1 V_1^-1 = I and the rows of G are the evaluations of k distinct
exponent vectors.  A projective code's H comes from elimination on G.
Both raise, under python -O too, unless G H^T = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    if m < 0:
        raise ValueError("m must be nonnegative")
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

    @cached_property
    def h(self) -> np.ndarray:
        """The parity-check matrix `parity_check(self)`, built once per
        instance; `dataclasses.replace` makes a new instance, so a G with
        changed rows gets its own H."""
        return parity_check(self)


def power_table(field: GF, top: int) -> np.ndarray:
    """The (top + 1, q) int64 table powers[a, x] = x^a with 0^0 = 1."""
    powers = np.ones((top + 1, field.q), dtype=np.int64)
    elements = np.arange(field.q)
    for a in range(1, top + 1):
        powers[a] = field.vmul(powers[a - 1], elements)
    return powers


def _evaluate(field: GF, table: np.ndarray, basis, pts: np.ndarray) -> np.ndarray:
    """The read-only (r, n) int64 rows prod_i table[e_i, x_i], one per
    exponent vector e of basis, at every point x of pts: one gather of
    table and one field product per coordinate."""
    nvars = pts.shape[1]
    exps = np.array(basis, dtype=np.intp).reshape(len(basis), nvars)
    vals = np.ones((len(basis), len(pts)), dtype=np.int64)
    for i in range(nvars):
        vals = field.vmul(vals, table[exps[:, i, None], pts[None, :, i]])
    vals.flags.writeable = False
    return vals


def rm_generator_matrix(field: GF, nu: int, m: int) -> GeneratorMatrix:
    """Rows are the evaluations of the reduced monomials of degree <= nu at
    all affine points; the rows are independent and span the code."""
    ts_decompose(nu, field.q, "rm", m)
    pts = affine_points(field, m)
    basis = tuple(reduced_monomials_affine(field.q, nu, m))
    rows = _evaluate(field, power_table(field, field.q - 1), basis, pts)
    return GeneratorMatrix("rm", field, nu, m, pts, basis, rows)


def prm_generator_matrix(field: GF, d: int, m: int) -> GeneratorMatrix:
    """Rows are the evaluations of the projectively reduced monomials of
    degree d at the standard projective representatives."""
    ts_decompose(d, field.q, "prm", m)
    pts = projective_points(field, m)
    basis = tuple(reduced_monomials_projective(field.q, d, m))
    rows = _evaluate(field, power_table(field, d), basis, pts)
    return GeneratorMatrix("prm", field, d, m, pts, basis, rows)


def generator_matrix(family: str, field: GF, order: int, m: int) -> GeneratorMatrix:
    """`rm_generator_matrix` or `prm_generator_matrix` by family name; a
    ValueError for any other name.  The builder is read from the module at
    call time, so a wrapper set on either one sees every build."""
    if family == "rm":
        return rm_generator_matrix(field, order, m)
    if family == "prm":
        return prm_generator_matrix(field, order, m)
    raise ValueError(f"unknown code family {family!r}: expected 'rm' or 'prm'")


def _affine_parity_rows(g: GeneratorMatrix) -> np.ndarray:
    """The rows of H for an affine code, with no elimination of G.  Its
    evaluation map V[b, x] = x^b over all exponent vectors b in
    {0..q-1}^m is the Kronecker power of V_1[a, x] = x^a (0^0 = 1, the
    `power_table` that G is evaluated from), so V^-1 = (V_1^-1)^(x m), with
    V_1^-1 read off the reduced row echelon form of [V_1 | I].  G is the
    rows of V at the basis, so the rows of (V^-1)^T at the other exponent
    vectors, H[b, x] = prod_i V_1^-1[x_i, b_i] in ascending order of b, are
    orthogonal to G and independent.  Raises unless V_1 V_1^-1 = I and the
    rows of G are the evaluations of k distinct exponent vectors, which
    makes rank G = k."""
    field, q, m = g.field, g.field.q, g.m
    v1 = power_table(field, q - 1)
    identity = np.eye(q, dtype=np.int64)
    inv = linalg.rref(field, np.hstack([v1, identity]))[0][:, q:]
    if not np.array_equal(linalg.mat_mul(field, v1, inv), identity):
        raise RuntimeError("V_1 times the inverse read off [V_1 | I] is not the identity")
    exps = np.array(g.basis, dtype=np.intp).reshape(len(g.basis), m)
    basis = np.zeros(q ** m, dtype=bool)
    if ((exps >= 0) & (exps < q)).all():
        basis[exps @ q ** np.arange(m - 1, -1, -1)] = True
    if (np.count_nonzero(basis) != g.k
            or not np.array_equal(g.rows, _evaluate(field, v1, exps, g.points))):
        raise RuntimeError("rm generator rows are not the evaluations of k distinct "
                           "exponent vectors in [0, q - 1]^m")
    return _evaluate(field, inv.T, digits(q, m)[~basis], g.points)


def parity_check(g: GeneratorMatrix) -> np.ndarray:
    """H, an (n - r) x n int64 array whose rows span the dual code, r the
    rank of G.  For an affine code, the rows of the inverse evaluation map
    at the exponent vectors outside the basis (`_affine_parity_rows`).
    Otherwise, with G in reduced row echelon form [I | A] on its pivot
    columns, H = [-A^T | I] on the pivot and the free columns.  Its rows
    are independent, so it raises unless G H^T = 0, which then makes span
    H the whole dual code.  H is read-only, since every check of the code
    shares it through `GeneratorMatrix.h`."""
    if g.family == "rm":
        h = _affine_parity_rows(g)
    else:
        field, n = g.field, g.n
        red, pivots = linalg.rref(field, g.rows)
        free = sorted(set(range(n)) - set(pivots))
        h = np.zeros((len(free), n), dtype=np.int64)
        h[:, pivots] = field.vmul(field.p - 1, red[: len(pivots), free].T)
        h[np.arange(len(free)), free] = 1
    if linalg.mat_mul(g.field, g.rows, h.T).any():
        raise RuntimeError("parity-check rows are not orthogonal to the generator rows")
    h.flags.writeable = False
    return h


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
