"""Point enumeration, evaluation maps, and generator matrices.

The coordinate order of every code is fixed by the point list: affine
points are all q^m tuples in lexicographic order, projective points are the
standard representatives (unique scalar multiple whose last nonzero
coordinate is 1) in lexicographic order.  Any fixed order gives a
permutation-equivalent code, so weights, distances and counts do not depend
on this choice; only codeword indexing does.  Point indices are 0-based.

A generator matrix is evaluated in one array pass: a table of every power
x^a of every field element, gathered at the (row, point) pairs of each
variable's exponents and coordinates, and the gathers multiplied together.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linalg
from .combinat import p_k
from .errors import POINT_GUARD, GuardExceeded
from .gf import GF
from .poly import Poly, reduced_monomials_affine, reduced_monomials_projective


Point = tuple[int, ...]
Codeword = tuple[int, ...]


@dataclass(frozen=True)
class PointList:
    kind: str            # "affine" | "projective"
    field: GF
    m: int
    points: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.points)


def affine_points(field: GF, m: int, guard: int = POINT_GUARD) -> PointList:
    if m < 0:
        raise ValueError("m must be nonnegative")
    if field.q ** m > guard:
        raise GuardExceeded("point", f"{field.q}^{m} affine points", guard)
    pts = tuple(product(range(field.q), repeat=m))
    return PointList("affine", field, m, pts)


def projective_points(field: GF, m: int, guard: int = POINT_GUARD) -> PointList:
    """All p_m standard representatives in lexicographic order: for each
    index i of the last nonzero coordinate, the q^i free prefixes, then a 1,
    then m - i zeros."""
    if m < 1:
        raise ValueError("m must be positive")
    n = p_k(field.q, m)
    if n > guard:
        raise GuardExceeded("point", f"{n} projective points", guard)
    pts = tuple(sorted(
        (*prefix, 1) + (0,) * (m - i)
        for i in range(m + 1)
        for prefix in product(range(field.q), repeat=i)
    ))
    if len(pts) != n:
        raise RuntimeError(f"{len(pts)} standard representatives, not p_{m} = {n}")
    return PointList("projective", field, m, pts)


def ev_vector(f: Poly, pts: PointList) -> Codeword:
    """Evaluation codeword of a polynomial over an ordered point list."""
    return tuple(f.evaluate(p) for p in pts.points)


@dataclass(frozen=True)
class GeneratorMatrix:
    family: str              # "rm" | "prm"
    field: GF
    order: int               # nu for rm, d for prm
    m: int
    points: PointList
    basis: tuple[tuple[int, ...], ...]   # exponent vectors, one per row
    rows: tuple[Codeword, ...]

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.points)

    def rank(self) -> int:
        return linalg.rank(self.field, self.rows)


def _evaluate(field: GF, basis, pts: PointList) -> tuple[Codeword, ...]:
    """The rows of G, one per exponent vector of basis, evaluated at every
    point: powers[a, x] = x^a with 0^0 = 1, up to the largest exponent,
    which for a projective basis can exceed q - 1."""
    nvars = len(pts.points[0])
    exps = np.array(basis, dtype=np.intp).reshape(len(basis), nvars)
    x = np.array(pts.points, dtype=np.intp).reshape(len(pts), nvars)
    powers = np.ones((int(exps.max(initial=0)) + 1, field.q), dtype=np.int64)
    elements = np.arange(field.q)
    for a in range(1, len(powers)):
        powers[a] = field.vmul(powers[a - 1], elements)
    vals = np.ones((len(basis), len(pts)), dtype=np.int64)
    for i in range(nvars):
        vals = field.vmul(vals, powers[exps[:, i, None], x[None, :, i]])
    return tuple(map(tuple, vals.tolist()))


def rm_generator_matrix(field: GF, nu: int, m: int) -> GeneratorMatrix:
    """Rows are the evaluations of the reduced monomials of degree <= nu at
    all affine points; the rows are independent and span the code."""
    if m < 1:
        raise ValueError("m must be positive")
    if not 0 <= nu <= m * (field.q - 1):
        raise ValueError(f"order {nu} outside [0, {m * (field.q - 1)}]")
    pts = affine_points(field, m)
    basis = tuple(reduced_monomials_affine(field.q, nu, m))
    rows = _evaluate(field, basis, pts)
    return GeneratorMatrix("rm", field, nu, m, pts, basis, rows)


def prm_generator_matrix(field: GF, d: int, m: int) -> GeneratorMatrix:
    """Rows are the evaluations of the projectively reduced monomials of
    degree d at the standard projective representatives."""
    if m < 1:
        raise ValueError("m must be positive")
    if not 1 <= d <= m * (field.q - 1) + 1:
        raise ValueError(f"order {d} outside [1, {m * (field.q - 1) + 1}]")
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
    lines = [",".join(":".join(str(x) for x in p) for p in g.points.points)]
    for row in g.rows:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def matrix_json(g: GeneratorMatrix) -> dict:
    return {
        "family": g.family,
        "q": g.field.q,
        "field": g.field.as_dict(),
        "order": g.order,
        "m": g.m,
        "points": [list(p) for p in g.points.points],
        "basis": [list(b) for b in g.basis],
        "rows": [list(r) for r in g.rows],
    }
