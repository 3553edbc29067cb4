import json
import random
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest

from prmcodes import codes, linalg, minwt, oracle
from prmcodes.codes import (
    affine_points,
    ev_vector,
    matrix_csv,
    matrix_json,
    prm_generator_matrix,
    projective_points,
    rm_generator_matrix,
    weight,
)
from prmcodes.combinat import p_k
from prmcodes.dimension import dim_gamma, rho
from prmcodes.errors import GuardExceeded
from prmcodes.gf import GF
from prmcodes.poly import Poly

from lemmas import canonical_min_poly, normalize_point, support

F2, F3, F4 = GF(2), GF(3), GF(2, 2)


def _scalar_rows(g):
    """The scalar reference for the generator matrices: a table
    pw[x][a] = field.pow(x, a), and each entry the table value of the first
    nonzero exponent folded with field.mul over the others, stopping at the
    first zero.  A constant monomial reads pw[x][0] = 1, so 0^0 = 1."""
    F = g.field
    mul = F.mul
    pw = [[F.pow(x, a) for a in range(max(map(max, g.basis)) + 1)] for x in range(F.q)]
    rows = []
    for exps in g.basis:
        (i0, a0), *rest = [(i, a) for i, a in enumerate(exps) if a] or [(0, 0)]
        row = []
        for p in g.points.tolist():
            v = pw[p[i0]][a0]
            for i, a in rest:
                if v == 0:
                    break
                v = mul(v, pw[p[i]][a])
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


def _tuples(arr):
    return tuple(map(tuple, arr.tolist()))


def _reference_cases():
    """(field, m, orders) for q in {2,3,4,5,7,8,9} with q^(m+1) <= 2000,
    every order, and GF(1031), which has no lookup tables, at m = 1 with
    orders 1 to 3."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        m = 1
        while q ** (m + 1) <= 2000:
            yield GF.from_q(q), m, range(m * (q - 1) + 2)
            m += 1
    yield GF(1031), 1, range(1, 4)


@pytest.mark.parametrize("F,m,orders", list(_reference_cases()),
                         ids=lambda v: repr(v) if isinstance(v, GF) else None)
def test_generator_matrices_equal_scalar_evaluation(F, m, orders):
    for order in orders:
        if order <= m * (F.q - 1):
            g = rm_generator_matrix(F, order, m)
            assert _tuples(g.rows) == _scalar_rows(g), ("rm", F.q, m, order)
        if order >= 1:
            g = prm_generator_matrix(F, order, m)
            assert _tuples(g.rows) == _scalar_rows(g), ("prm", F.q, m, order)


def test_prm_exponent_above_q_minus_one():
    # x0^3 is a basis monomial of prm(3,3,1), and x^3 = x on GF(3): its row
    # is x0 at (0,1), (1,0), (1,1), (2,1)
    g = prm_generator_matrix(F3, 3, 1)
    i = g.basis.index((3, 0))
    assert tuple(g.rows[i].tolist()) == (0, 1, 1, 2) == _scalar_rows(g)[i]


def test_zero_to_the_zero_is_one():
    # x0^2 of prm(3,2,2) is 1 at (1, 0, 0), where x1^0 = x2^0 = 0^0 = 1,
    # and the constant monomial of rm(3,0,2) is 1 at (0, 0)
    g = prm_generator_matrix(F3, 2, 2)
    i = g.basis.index((2, 0, 0))
    assert g.rows[i][_tuples(g.points).index((1, 0, 0))] == 1
    assert _tuples(g.rows)[i] == _scalar_rows(g)[i]
    g = rm_generator_matrix(F3, 0, 2)
    assert _tuples(g.points)[0] == (0, 0) and _tuples(g.rows) == ((1,) * 9,)


def test_projective_points_small():
    pts = _tuples(projective_points(F2, 1))
    assert pts == ((0, 1), (1, 0), (1, 1))
    assert len(projective_points(F3, 2)) == 13
    assert len(projective_points(F2, 2)) == 7
    # P^0 is one point, the flat of a class walk at t = m
    for F in (F2, F3, F4):
        assert projective_points(F, 0).tolist() == [[1]]
    with pytest.raises(ValueError, match=r"^m must be nonnegative$"):
        projective_points(F2, -1)


def filtered_projective_points(field: GF, m: int) -> tuple:
    """Every nonzero (m+1)-tuple whose last nonzero coordinate is 1, in
    product order: the filtering reference for projective_points."""
    return tuple(
        pt
        for pt in product(range(field.q), repeat=m + 1)
        if any(pt) and pt[max(i for i, x in enumerate(pt) if x)] == 1
    )


@pytest.mark.parametrize("q, m", [(2, 1), (2, 4), (3, 3), (4, 2), (5, 2), (8, 1), (9, 2)])
def test_projective_points_equal_the_filtered_product(q, m):
    F = GF.from_q(q)
    assert _tuples(projective_points(F, m)) == filtered_projective_points(F, m)


def test_projective_points_are_standard_and_distinct():
    for F in (F2, F3, F4):
        for m in (1, 2):
            pts = _tuples(projective_points(F, m))
            assert len(pts) == p_k(F.q, m)
            for p in pts:
                last = max(i for i, x in enumerate(p) if x)
                assert p[last] == 1
            # no two proportional
            for a, b in combinations(pts, 2):
                assert not all(
                    F.mul(lam, x) == y for x, y in zip(a, b) for lam in [1]
                ) or a == b
                for lam in range(1, F.q):
                    assert tuple(F.mul(lam, x) for x in a) != b


def test_normalize_point():
    assert normalize_point(F3, (1, 2, 0)) == (2, 1, 0)   # scale by inv(2) = 2
    assert normalize_point(F3, (2, 1, 0)) == (2, 1, 0)   # already standard
    assert normalize_point(F3, (0, 0, 2)) == (0, 0, 1)
    with pytest.raises(ValueError):
        normalize_point(F3, (0, 0, 0))


def test_affine_points():
    pts = _tuples(affine_points(F2, 2))
    assert pts == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_wrong_point_count_raises(monkeypatch):
    # the count check is an explicit raise, so it holds under python -O too
    monkeypatch.setattr(codes, "p_k", lambda q, m: 8)
    with pytest.raises(RuntimeError, match=r"^7 standard representatives, not p_2 = 8$"):
        projective_points(F2, 2)


def test_points_and_rows_are_read_only_arrays():
    # every check of a code shares its G, so nothing may write to it
    for g in (prm_generator_matrix(F3, 2, 2), rm_generator_matrix(F2, 1, 3)):
        assert g.rows.dtype == g.points.dtype == g.field.symbol
        assert g.rows.shape == (g.k, g.n) and len(g.points) == g.n
        for arr in (g.rows, g.points):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1


@pytest.mark.parametrize("q", [2, 3, 4, 9, 257, 1031])
def test_every_field_array_is_symbols(q):
    # uint8 symbols, then uint16 with flat tables (q = 257) and without
    # (q = 1031), whatever dtype the operands come in.  The affine H and the
    # witness set are left out at q = 1031: the one needs an elimination of
    # 1031 x 2062 elementwise ops, the other holds (q + 1)(q - 1) words
    F = GF.from_q(q)
    rm, prm = rm_generator_matrix(F, 0, 1), prm_generator_matrix(F, 1, 1)
    ints = np.arange(min(q, 50))
    symbols = ints.astype(F.symbol)
    arrays = {
        "affine points": affine_points(F, 1),
        "projective points": projective_points(F, 1),
        "power table": codes.power_table(F, 2),
        "rm rows": rm.rows,
        "prm rows": prm.rows,
        "prm h": prm.h,
        "rref": linalg.rref(F, prm.rows)[0],
        "rref of ints": linalg.rref(F, prm.rows.tolist())[0],
        "mat_mul": linalg.mat_mul(F, prm.rows, prm.h.T),
        "mat_mul of ints": linalg.mat_mul(F, prm.rows.tolist(), prm.h.T.tolist()),
        "vadd of int64": F.vadd(ints[:, None], ints),
        "vmul of int64": F.vmul(ints[:, None], ints),
        "vadd of symbols": F.vadd(symbols[:, None], symbols),
        "vmul of symbols": F.vmul(symbols[:, None], symbols),
        "brute min weight words": oracle.brute_min_weight_words(rm),
    }
    if q < 1024:
        arrays["rm h"] = rm.h
        arrays["witness words"] = minwt.enumerate_witness_codewords(F, 1, 1)
    for name, arr in arrays.items():
        assert arr.dtype == F.symbol, (q, name, arr.dtype)


def test_parity_check_is_built_once_per_instance():
    # g.h is built on first read and kept by g, read-only like G; a G made
    # by replace with a changed row builds its own H, which raises, even
    # after the H of g was read
    g = rm_generator_matrix(F3, 3, 2)
    h = g.h
    assert g.h is h and h.shape == (1, 9)
    with pytest.raises(ValueError, match="read-only"):
        h[0, 0] = 1
    changed = g.rows.copy()
    changed[1, 0] = F3.add(int(changed[1, 0]), 1)
    with pytest.raises(RuntimeError, match="not the evaluations of k distinct exponent vectors"):
        replace(g, rows=changed).h
    assert g.h is h
    p = prm_generator_matrix(F3, 2, 2)
    assert p.h is p.h and p.h.shape == (p.n - p.k, p.n)


@pytest.mark.parametrize("q, dtype", [(2, np.uint8), (256, np.uint8), (1031, np.uint16)])
def test_distinct_words(q, dtype):
    # repeated rows go, one of each stays, in one order for any input order
    rng = np.random.default_rng(q)
    words = rng.integers(0, q, size=(50, 9))
    words[:, 0] = rng.integers(q - 2, q, size=50)      # symbols above 127 where q allows
    doubled = np.concatenate([words, words[::-1]])
    F = GF.from_q(q)
    out = codes.distinct_words(doubled, F)
    assert out.dtype == dtype and out.shape[1] == 9
    assert len(out) == len(set(map(tuple, words.tolist())))
    assert set(map(tuple, out.tolist())) == set(map(tuple, words.tolist()))
    assert np.array_equal(codes.distinct_words(words[::-1], F), out)
    assert codes.distinct_words(np.zeros((0, 9), dtype=np.int64), F).shape == (0, 9)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_scalar_multiples(q):
    # every nonzero multiple of every row, each once, in distinct_words order
    F = GF.from_q(q)
    rng = np.random.default_rng(q)
    words = rng.integers(0, q, size=(20, 7)).astype(F.symbol)
    words[-1] = F.vmul(q - 1, words[0])         # a multiple of another row
    out = codes.scalar_multiples(words, F)
    assert out.dtype == F.symbol and np.array_equal(out, codes.distinct_words(out, F))
    rows = set(map(tuple, out.tolist()))
    assert len(rows) == len(out) and set(map(tuple, words.tolist())) <= rows
    for lam in range(1, q):
        assert set(map(tuple, F.vmul(lam, out).tolist())) == rows
    assert rows == {tuple(F.vmul(lam, w).tolist()) for w in words for lam in range(1, q)}


def test_point_guard():
    with pytest.raises(GuardExceeded):
        projective_points(F2, 2, guard=5)


def test_rm_generator_examples():
    g = rm_generator_matrix(F2, 1, 2)
    assert (g.k, g.n) == (3, 4)
    assert g.rank() == 3
    g0 = rm_generator_matrix(F2, 0, 2)
    assert _tuples(g0.rows) == ((1, 1, 1, 1),)
    gfull = rm_generator_matrix(F2, 2, 2)
    assert (gfull.k, gfull.n) == (4, 4)
    assert gfull.rank() == 4
    with pytest.raises(ValueError):
        rm_generator_matrix(F2, 3, 2)
    with pytest.raises(ValueError, match=r"^m must be positive, got 0$"):
        rm_generator_matrix(F2, 0, 0)


def test_prm_generator_examples():
    g1 = prm_generator_matrix(F2, 1, 2)
    assert (g1.k, g1.n) == (3, 7)
    # simplex: every nonzero column pattern appears exactly once
    cols = set(map(tuple, g1.rows.T.tolist()))
    assert len(cols) == 7 and (0, 0, 0) not in cols
    g2 = prm_generator_matrix(F2, 2, 2)
    assert (g2.k, g2.n, g2.rank()) == (6, 7, 6)
    g3 = prm_generator_matrix(F2, 3, 2)
    assert (g3.k, g3.n, g3.rank()) == (7, 7, 7)
    with pytest.raises(ValueError):
        prm_generator_matrix(F2, 4, 2)
    with pytest.raises(ValueError):
        prm_generator_matrix(F2, 0, 2)
    with pytest.raises(ValueError, match=r"^m must be positive, got 0$"):
        prm_generator_matrix(F2, 1, 0)


def test_generator_matrix_dispatches_on_family(monkeypatch):
    for family, build in (("rm", rm_generator_matrix), ("prm", prm_generator_matrix)):
        for F in (F2, F3, F4):
            g, want = codes.generator_matrix(family, F, 2, 2), build(F, 2, 2)
            assert (g.family, g.order, g.m, g.basis) == (family, 2, 2, want.basis)
            assert np.array_equal(g.points, want.points)
            assert np.array_equal(g.rows, want.rows)
    with pytest.raises(ValueError, match=r"^unknown code family 'xyz': expected 'rm' or 'prm'$"):
        codes.generator_matrix("xyz", F2, 1, 2)
    # the builder is read at call time, so a wrapper set on it sees the build
    built = []
    monkeypatch.setattr(codes, "prm_generator_matrix",
                        lambda *args: built.append(args) or prm_generator_matrix(*args))
    codes.generator_matrix("prm", F3, 2, 2)
    assert built == [(F3, 2, 2)]


def test_nondegenerate_columns():
    # every column of every generator matrix is nonzero
    for F in (F2, F3, F4):
        for m in (1, 2, 3):
            for nu in range(0, m * (F.q - 1) + 1):
                g = rm_generator_matrix(F, nu, m)
                assert g.rows.any(axis=0).all()
            for d in range(1, m * (F.q - 1) + 2):
                g = prm_generator_matrix(F, d, m)
                assert g.rows.any(axis=0).all()


def test_rank_equals_dimension_formula():
    for F in (F2, F3, F4, GF(5)):
        for m in (1, 2, 3):
            for d in range(1, m * (F.q - 1) + 2):
                g = prm_generator_matrix(F, d, m)
                assert g.rank() == g.k == dim_gamma(F.q, d, m), (F.q, d, m)


def test_rm_rank_equals_rho():
    for F in (F2, F3):
        for m in (1, 2, 3):
            for nu in range(0, m * (F.q - 1) + 1):
                g = rm_generator_matrix(F, nu, m)
                assert g.rank() == g.k == rho(F.q, nu, m)


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
    pt = tuple(pts[index].tolist())
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


def test_interpolation_identity():
    for F, m in [(F2, 1), (F2, 2), (F3, 1), (F3, 2)]:
        d = m * (F.q - 1) + 1
        pts = projective_points(F, m)
        rows = []
        for i in range(len(pts)):
            f = interpolation_poly(F, d, m, i)
            assert f.is_homogeneous(d)
            rows.append(ev_vector(f, pts))
        n = len(pts)
        assert rows == [
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        ]


def test_interpolation_above_minimum_degree():
    pts = projective_points(F3, 1)
    for i in range(len(pts)):
        f = interpolation_poly(F3, 4, 1, i)    # one above m(q-1)+1 = 3
        assert f.is_homogeneous(4)
        assert ev_vector(f, pts) == tuple(
            1 if j == i else 0 for j in range(len(pts))
        )


def test_interpolation_preconditions():
    with pytest.raises(ValueError):
        interpolation_poly(F2, 2, 2, 0)       # d = m(q-1) too small
    with pytest.raises(ValueError):
        interpolation_poly(F2, 3, 2, 9)       # index out of range


def test_homogeneous_scaling_at_nonstandard_representatives():
    # evaluating degree-d F at lam*P scales the value by lam^d, which is why
    # standard representatives make the codeword well-defined
    rng = random.Random(3)
    for F in (F3, F4):
        m = 2
        d = 3
        from prmcodes.poly import reduced_monomials_projective

        basis = reduced_monomials_projective(F.q, d, m)
        for _ in range(40):
            f = Poly(
                F,
                m + 1,
                {e: rng.randrange(1, F.q) for e in rng.sample(basis, 3)},
            )
            pt = tuple(rng.randrange(F.q) for _ in range(m + 1))
            lam = rng.randrange(1, F.q)
            scaled = tuple(F.mul(lam, x) for x in pt)
            assert f.evaluate(scaled) == F.mul(F.pow(lam, d), f.evaluate(pt))


def test_weight_and_support():
    assert weight((0, 0, 0)) == 0 and support((0, 0, 0)) == set()
    assert weight((1,) * 7) == 7 and support((1,) * 7) == set(range(7))
    cw = ev_vector(canonical_min_poly(F2, 2, 2), projective_points(F2, 2))
    assert weight(cw) == 2


def test_matrix_csv_layout():
    g = prm_generator_matrix(F2, 1, 2)
    lines = matrix_csv(g).strip().split("\n")
    assert len(lines) == 1 + g.k
    assert lines[0].split(",")[0] == "0:0:1"
    assert all(len(line.split(",")) == g.n for line in lines)


def test_matrix_json_roundtrippable():
    g = prm_generator_matrix(F3, 2, 2)
    payload = json.loads(json.dumps(matrix_json(g)))
    assert payload["family"] == "prm"
    assert payload["q"] == 3
    assert payload["field"] == {"p": 3, "e": 1, "modulus": [0, 1]}
    assert len(payload["rows"]) == 6
    assert payload["rows"] == g.rows.tolist()
    assert len(payload["points"]) == 13


def test_rebased_matrix_same_code():
    # row operations change the matrix but not the code: ranks agree and the
    # row spaces coincide
    g = prm_generator_matrix(F3, 2, 2)
    rng = random.Random(0)
    k = g.k
    while True:
        A = [[rng.randrange(3) for _ in range(k)] for _ in range(k)]
        if linalg.rank(F3, A) == k:
            break
    new_rows = linalg.mat_mul(F3, A, g.rows)
    g2 = replace(g, rows=new_rows)
    assert g2.rank() == g.rank()
    assert linalg.rank(F3, np.concatenate([g.rows, new_rows])) == k
