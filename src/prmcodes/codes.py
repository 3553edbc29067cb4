"""Point enumeration, evaluation maps, and generator matrices.

The coordinate order of every code is fixed by the point list: affine
points are all q^m tuples in lexicographic order, projective points are the
standard representatives (unique scalar multiple whose last nonzero
coordinate is 1) in lexicographic order.  Any fixed order gives a
permutation-equivalent code, so weights, distances and counts do not depend
on this choice; only codeword indexing does.  Point indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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

    def index(self) -> dict[Point, int]:
        return {pt: i for i, pt in enumerate(self.points)}


def affine_points(field: GF, m: int, guard: int = POINT_GUARD) -> PointList:
    if m < 0:
        raise ValueError("m must be nonnegative")
    if field.q ** m > guard:
        raise GuardExceeded("point", f"{field.q}^{m} affine points", guard)
    pts = tuple(product(range(field.q), repeat=m))
    return PointList("affine", field, m, pts)


def normalize_point(field: GF, vec) -> Point:
    """Standard representative: scale so the last nonzero coordinate is 1."""
    vec = tuple(vec)
    last = max((i for i, x in enumerate(vec) if x), default=None)
    if last is None:
        raise ValueError("the zero vector is not a projective point")
    inv = field.inv(vec[last])
    return tuple(field.mul(inv, x) for x in vec)


def projective_points(field: GF, m: int, guard: int = POINT_GUARD) -> PointList:
    """All p_m standard representatives in lexicographic order."""
    if m < 1:
        raise ValueError("m must be positive")
    n = p_k(field.q, m)
    if n > guard:
        raise GuardExceeded("point", f"{n} projective points", guard)
    pts = tuple(
        pt
        for pt in product(range(field.q), repeat=m + 1)
        if any(pt) and pt[max(i for i, x in enumerate(pt) if x)] == 1
    )
    assert len(pts) == n
    return PointList("projective", field, m, pts)


def evaluate_monomial(field: GF, exps, point) -> int:
    """Value of a monomial at a point, with the 0^0 = 1 convention."""
    v = 1
    for x, a in zip(point, exps):
        if a:
            v = field.mul(v, field.pow(x, a))
            if v == 0:
                return 0
    return v


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


def rm_generator_matrix(field: GF, nu: int, m: int) -> GeneratorMatrix:
    """Rows are the evaluations of the reduced monomials of degree <= nu at
    all affine points; the rows are independent and span the code."""
    if m < 1:
        raise ValueError("m must be positive")
    if not 0 <= nu <= m * (field.q - 1):
        raise ValueError(f"order {nu} outside [0, {m * (field.q - 1)}]")
    pts = affine_points(field, m)
    basis = tuple(reduced_monomials_affine(field.q, nu, m))
    rows = tuple(
        tuple(evaluate_monomial(field, exps, p) for p in pts.points) for exps in basis
    )
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
    rows = tuple(
        tuple(evaluate_monomial(field, exps, p) for p in pts.points) for exps in basis
    )
    return GeneratorMatrix("prm", field, d, m, pts, basis, rows)


def interpolation_poly(field: GF, d: int, m: int, index: int) -> Poly:
    """Degree-d homogeneous polynomial that is 1 at the projective point
    with the given 0-based index and 0 at every other point.  Exists for
    every point once d >= m(q - 1) + 1, which is why the code is then the
    whole ambient space."""
    q = field.q
    if d < m * (q - 1) + 1:
        raise ValueError(f"need d >= m(q-1)+1 = {m * (q - 1) + 1}, got {d}")
    pts = projective_points(field, m)
    if not 0 <= index < len(pts):
        raise ValueError(f"point index {index} out of range")
    pt = pts.points[index]
    j = max(i for i, x in enumerate(pt) if x)          # pt = (a_0..a_{j-1}, 1, 0..0)
    nv = m + 1
    xj = Poly.monomial(field, tuple(1 if i == j else 0 for i in range(nv)))
    out = xj ** (d - m * (q - 1))
    xj_q1 = xj ** (q - 1)
    for i in range(j):
        coeffs = [0] * nv
        coeffs[i] = 1
        coeffs[j] = field.neg(pt[i])
        out = out * (xj_q1 - Poly.linear(field, coeffs) ** (q - 1))
    for k in range(j + 1, nv):
        xk = Poly.monomial(field, tuple(1 if i == k else 0 for i in range(nv)))
        out = out * (xj_q1 - xk ** (q - 1))
    return out


def weight(c: Codeword) -> int:
    return sum(1 for x in c if x)


def support(c: Codeword) -> set[int]:
    return {i for i, x in enumerate(c) if x}


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
