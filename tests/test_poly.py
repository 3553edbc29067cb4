import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from prmcodes import linalg
from prmcodes.dimension import dim_gamma, rho
from prmcodes.gf import GF
from prmcodes.poly import (
    Poly,
    PolyParseError,
    format_poly,
    parse_poly,
    reduce_exponents,
    reduce_projective,
    reduced_monomials_affine,
    reduced_monomials_projective,
)

F2, F3, F4, F5 = GF(2), GF(3), GF(2, 2), GF(5)
FIELDS = [F2, F3, F4, F5]


def random_poly(F, nvars, rng, max_exp=6, max_terms=5):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(max_exp + 1) for _ in range(nvars))
        terms[exps] = rng.randrange(1, F.q)
    return Poly(F, nvars, terms)


# -- reduction ---------------------------------------------------------------


def is_projectively_reduced(f: Poly) -> bool:
    q = f.field.q
    return all(reduce_exponents(q, e) == e for e in f.terms)


def test_reduce_exponents_hand_example():
    # q=3: X0^3 X1^2 X2 -> X0 X1^2 X2^3
    assert reduce_exponents(3, (3, 2, 1)) == (1, 2, 3)


def test_reduce_fixed_points():
    assert reduce_exponents(5, (4, 0, 0)) == (4, 0, 0)   # last variable is X0 itself
    assert reduce_exponents(3, (0, 0, 0)) == (0, 0, 0)   # the monomial 1
    assert reduce_exponents(3, (1, 2, 3)) == (1, 2, 3)


def test_reduce_projective_poly():
    f = parse_poly("X0^3*X1^2*X2", F3, 3)
    assert format_poly(reduce_projective(f)) == "X0*X1^2*X2^3"
    assert is_projectively_reduced(reduce_projective(f))
    assert not is_projectively_reduced(f)


def test_reduce_zero_poly():
    z = Poly.zero(F3, 3)
    assert reduce_projective(z) == z
    assert is_projectively_reduced(z)


def test_reduce_collision_combines_coefficients():
    # X0^3*X1 and X0*X1^3 both reduce to X0*X1^3 over GF(3)
    assert reduce_exponents(3, (3, 1)) == (1, 3)
    f = Poly(F3, 2, {(3, 1): 1, (1, 3): 2})
    assert reduce_projective(f).is_zero()            # 1 + 2 = 0 in GF(3)
    g = Poly(F3, 2, {(3, 1): 1, (1, 3): 1})
    assert reduce_projective(g).terms == {(1, 3): 2}


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_reduce_idempotent_degree_preserving(F):
    rng = random.Random(F.q)
    for _ in range(1000):
        nvars = rng.randrange(2, 5)
        f = random_poly(F, nvars, rng)
        r = reduce_projective(f)
        assert reduce_projective(r) == r
        # reduction is degree-preserving monomial by monomial
        for e in f.terms:
            assert sum(reduce_exponents(F.q, e)) == sum(e)
        # so surviving terms keep degrees from f (collisions may cancel)
        assert {sum(e) for e in r.terms} <= {sum(e) for e in f.terms}
        if f.is_homogeneous():
            assert r.is_homogeneous()


@pytest.mark.parametrize("F", [F2, F3, F4], ids=repr)
def test_reduce_preserves_evaluation_everywhere(F):
    rng = random.Random(7 * F.q)
    for _ in range(60):
        nvars = rng.randrange(2, 4)
        f = random_poly(F, nvars, rng)
        r = reduce_projective(f)
        for pt in product(range(F.q), repeat=nvars):
            assert f.evaluate(pt) == r.evaluate(pt), (f, pt)


# -- monomial bases -------------------------------------------------------------


def test_projective_basis_degree_one():
    assert reduced_monomials_projective(2, 1, 2) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_projective_basis_sizes_match_dimension_formula():
    for q in (2, 3, 4, 5):
        for m in (1, 2, 3):
            for d in range(1, m * (q - 1) + 2):
                basis = reduced_monomials_projective(q, d, m)
                assert len(set(basis)) == len(basis)
                assert all(sum(e) == d for e in basis)
                assert all(reduce_exponents(q, e) == e for e in basis)
                assert len(basis) == dim_gamma(q, d, m), (q, d, m)


def test_projective_basis_full_space():
    # d = m(q-1)+1 spans the whole ambient space: p_m monomials
    assert len(reduced_monomials_projective(3, 5, 2)) == 13


def test_projective_basis_rejects_degree_zero():
    with pytest.raises(ValueError):
        reduced_monomials_projective(2, 0, 2)


def test_affine_monomials():
    assert reduced_monomials_affine(2, 2, 2) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert reduced_monomials_affine(2, 1, 2) == [(0, 0), (1, 0), (0, 1)]
    assert reduced_monomials_affine(5, 0, 3) == [(0, 0, 0)]
    assert reduced_monomials_affine(3, -1, 2) == []
    for q in (2, 3, 4):
        for n in (0, 1, 2, 3):
            for nu in range(n * (q - 1) + 2):
                assert len(reduced_monomials_affine(q, nu, n)) == rho(q, nu, n)


# -- evaluation ------------------------------------------------------------------


def test_evaluate_basics():
    f = parse_poly("X0*X1", F2, 3)
    assert f.evaluate((1, 1, 0)) == 1
    assert f.evaluate((1, 0, 1)) == 0


def test_evaluate_zero_power_convention():
    # X0^(q-1) evaluates to 1 wherever X0 != 0, and the constant survives X=0
    f = Poly.monomial(F5, (4, 0))
    assert f.evaluate((0, 0)) == 0
    for x in range(1, 5):
        assert f.evaluate((x, 3)) == 1
    one = Poly.constant(F5, 2, 1)
    assert one.evaluate((0, 0)) == 1


def test_evaluate_dimension_mismatch():
    f = Poly.monomial(F3, (1, 1))
    with pytest.raises(ValueError):
        f.evaluate((1,))
    with pytest.raises(ValueError):
        f.evaluate((1, 5))           # 5 is not a GF(3) element


def test_cross_field_operations_rejected():
    f = Poly.monomial(F3, (1, 0))
    g = Poly.monomial(F5, (1, 0))
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * g


# -- linear form machinery --------------------------------------------------------


def inv_matrix(field: GF, rows) -> list[list[int]]:
    """Inverse of a square matrix; ValueError if singular."""
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = linalg.rref(field, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return red[:, n:].tolist()


def substitute_linear(f: Poly, rows) -> Poly:
    """Substitute X_i -> sum_j rows[i][j] * Y_j and expand."""
    F = f.field
    n = f.nvars
    out = Poly.zero(F, n)
    forms = [Poly.affine(F, tuple(r) + (0,)) for r in rows]
    for exps, c in f.terms.items():
        term = Poly.constant(F, n, c)
        for i, a in enumerate(exps):
            if a:
                term = term * forms[i] ** a
        out = out + term
    return out


def divides_linear(L, f: Poly) -> tuple[bool, Poly | None]:
    """Whether the linear form L divides the homogeneous f; the quotient is
    returned when it does.

    Implemented by an invertible change of coordinates taking L to the last
    variable, then checking that every term of the transformed polynomial
    contains that variable.
    """
    F = f.field
    n = f.nvars
    L = tuple(L)
    if len(L) != n:
        raise ValueError(f"form has {len(L)} coefficients, need {n}")
    for c in L:
        F._chk(c)
    if not any(L):
        raise ValueError("zero form")
    if not f.is_homogeneous():
        raise ValueError("polynomial must be homogeneous")
    if f.is_zero():
        return True, f
    pivot = next(i for i, c in enumerate(L) if c)
    basis = [[1 if j == i else 0 for j in range(n)] for i in range(n) if i != pivot]
    fwd = basis + [list(L)]            # invertible: maps L to the last coordinate
    back = inv_matrix(F, fwd)
    h = substitute_linear(f, back)
    if any(e[n - 1] == 0 for e in h.terms):
        return False, None
    quot = Poly(F, n, {e[: n - 1] + (e[n - 1] - 1,): c for e, c in h.terms.items()})
    return True, substitute_linear(quot, fwd)


def separating_form(field: GF, a, b) -> tuple[int, ...]:
    """A linear form vanishing at the projective point a but not at b,
    built from the first coordinate pair with a nonzero 2x2 minor."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError("points live in different spaces")
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            det = field.sub(field.mul(a[i], b[j]), field.mul(a[j], b[i]))
            if det:
                coeffs = [0] * n
                coeffs[j] = a[i]
                coeffs[i] = field.neg(a[j])
                return tuple(coeffs)
    raise ValueError("points are equal (proportional)")


def test_divides_linear_examples():
    # X2 divides X2*(X0+X1)
    f = parse_poly("X0*X2 + X1*X2", F2, 3)
    ok, quot = divides_linear((0, 0, 1), f)
    assert ok
    assert quot == parse_poly("X0 + X1", F2, 3)
    # X0 does not divide X1^2
    ok, quot = divides_linear((1, 0, 0), Poly.monomial(F2, (0, 2, 0)))
    assert not ok and quot is None


def test_divides_linear_random_products():
    rng = random.Random(11)
    for F in (F2, F3, F4):
        for _ in range(40):
            nvars = 3
            L = tuple(rng.randrange(F.q) for _ in range(nvars))
            if not any(L):
                continue
            d = rng.randrange(1, 4)
            h_terms = {}
            for _ in range(rng.randrange(1, 4)):
                e = [0] * nvars
                for _ in range(d):
                    e[rng.randrange(nvars)] += 1
                h_terms[tuple(e)] = rng.randrange(1, F.q)
            H = Poly(F, nvars, h_terms)
            if H.is_zero():
                continue
            prod = Poly.linear(F, L) * H
            ok, quot = divides_linear(L, prod)
            assert ok
            assert Poly.linear(F, L) * quot == prod


def test_hyperplane_containment_implies_divisibility_low_degree():
    # reduce a multiple of L: its zero set still contains V(L), and up to
    # total degree q the reduced polynomial is still divisible by L
    rng = random.Random(23)
    for F in (F2, F3, F4, F5):
        nvars = 3
        for _ in range(60):
            L = tuple(rng.randrange(F.q) for _ in range(nvars))
            if not any(L):
                continue
            d = rng.randrange(1, F.q + 1)
            h_terms = {}
            for _ in range(rng.randrange(1, 4)):
                e = [0] * nvars
                for _ in range(d - 1):
                    e[rng.randrange(nvars)] += 1
                h_terms[tuple(e)] = rng.randrange(1, F.q)
            H = Poly(F, nvars, h_terms)
            if H.is_zero():
                continue
            G = reduce_projective(Poly.linear(F, L) * H)
            if G.is_zero():
                continue
            for pt in product(range(F.q), repeat=nvars):
                if Poly.linear(F, L).evaluate(pt) == 0:
                    assert G.evaluate(pt) == 0
            ok, _ = divides_linear(L, G)
            assert ok, (F, L, G)


def test_hyperplane_containment_exhaustive_low_degree():
    # every nonzero reduced F of degree <= 2: a contained hyperplane forces
    # a linear factor (exhaustive over all F and all hyperplane forms)
    from prmcodes.codes import projective_points

    for F in (F2, F3):
        m = 2
        pts = list(map(tuple, projective_points(F, m).tolist()))
        for d in (1, 2):
            basis = reduced_monomials_projective(F.q, d, m)
            for coeffs in product(range(F.q), repeat=len(basis)):
                if not any(coeffs):
                    continue
                f = Poly(F, m + 1, dict(zip(basis, coeffs)))
                vals = [f.evaluate(p) for p in pts]
                for Lc in pts:       # hyperplane normals, one per point
                    lp = Poly.linear(F, Lc)
                    if all(
                        v == 0 for v, p in zip(vals, pts) if lp.evaluate(p) == 0
                    ):
                        ok, quot = divides_linear(Lc, f)
                        assert ok
                        assert lp * quot == f


def test_containment_without_divisibility_above_degree_q():
    # boundary regression: over GF(2), V(X0+X1+X2) sits inside V(X0*X1*X2)
    # but X0+X1+X2 is not a factor; the containment-to-divisibility step is
    # a degree <= q phenomenon
    f = Poly.monomial(F2, (1, 1, 1))
    L = (1, 1, 1)
    lp = Poly.linear(F2, L)
    for pt in product(range(2), repeat=3):
        if lp.evaluate(pt) == 0:
            assert f.evaluate(pt) == 0
    ok, _ = divides_linear(L, f)
    assert not ok


def test_substitute_linear_identity():
    f = random_poly(F3, 3, random.Random(1))
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert substitute_linear(f, ident) == f


def test_separating_form_examples():
    # first index pair with nonzero minor
    assert separating_form(F2, (1, 0, 0), (0, 1, 0)) == (0, 1, 0)
    # paper construction: L = a_i X_j - a_j X_i, which is X0 + X1 here
    assert separating_form(F2, (1, 1, 0), (1, 0, 0)) == (1, 1, 0)
    with pytest.raises(ValueError):
        separating_form(F2, (1, 1, 0), (1, 1, 0))
    with pytest.raises(ValueError):
        separating_form(F3, (1, 2, 0), (2, 1, 0))   # proportional over GF(3)


def test_separating_form_property_random():
    rng = random.Random(5)
    from prmcodes.codes import projective_points

    for F in (F2, F3, F4):
        pts = list(map(tuple, projective_points(F, 2).tolist()))
        for _ in range(60):
            a, b = rng.sample(pts, 2)
            L = separating_form(F, a, b)
            lp = Poly.linear(F, L)
            assert lp.evaluate(a) == 0
            assert lp.evaluate(b) != 0


# -- text format --------------------------------------------------------------------


def test_format_examples():
    f = Poly(F3, 3, {(1, 2, 0): 2, (0, 0, 3): 1})
    assert format_poly(f) == "2*X0*X1^2 + X2^3"
    assert format_poly(Poly.zero(F3, 3)) == "0"
    assert format_poly(Poly.constant(F3, 2, 2)) == "2"


def test_parse_examples():
    f = parse_poly("2*X0*X1^2 + X2^3", F3, 3)
    assert f.terms == {(1, 2, 0): 2, (0, 0, 3): 1}
    assert parse_poly("0", F3, 3).is_zero()
    assert parse_poly("1", F3, 2) == Poly.constant(F3, 2, 1)


def test_parse_errors_carry_column():
    with pytest.raises(PolyParseError) as e:
        parse_poly("X0 + ", F3, 2)
    assert e.value.column == 5
    with pytest.raises(PolyParseError):
        parse_poly("X9", F3, 2)
    with pytest.raises(PolyParseError):
        parse_poly("X0*2", F3, 2)
    with pytest.raises(PolyParseError):
        parse_poly("5*X0", F3, 2)    # coefficient out of range


@st.composite
def poly_strategy(draw):
    q_choice = draw(st.sampled_from([F2, F3, F4]))
    nvars = draw(st.integers(min_value=1, max_value=3))
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=5)) for _ in range(nvars)
        )
        terms[exps] = draw(st.integers(min_value=1, max_value=q_choice.q - 1))
    return Poly(q_choice, nvars, terms)


@given(poly_strategy())
@settings(max_examples=150, deadline=None)
def test_text_roundtrip(f):
    assert parse_poly(format_poly(f), f.field, f.nvars) == f
