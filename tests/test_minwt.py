import random
import tracemalloc
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from prmcodes import linalg, minwt
from prmcodes.codes import (
    digits,
    ev_vector,
    prm_generator_matrix,
    projective_points,
    weight,
)
from prmcodes.combinat import binomial, gaussian_binomial, p_k
from prmcodes.errors import WITNESS_GUARD, GuardExceeded
from prmcodes.gf import GF
from prmcodes.minwt import (
    FiberReport,
    MinWtWitness,
    TauReport,
    TSDecomp,
    _form_values,
    count_report,
    enumerate_witness_codewords,
    prm_min_distance,
    prm_min_weight_count,
    prm_min_weight_count_alt,
    prm_witness_poly,
    random_prm_witness,
    rm_min_distance,
    rm_min_weight_count,
    rm_witness_poly,
    support_fiber_check,
    tau_bijection_check,
    ts_decompose,
)
from prmcodes.oracle import brute_min_weight_words
from prmcodes.poly import Poly, reduced_monomials_projective

from lemmas import (
    canonical_min_poly,
    class_blocks,
    form_values,
    max_zero_bound,
    normalize_point,
    rref_bases,
    support,
    word_set,
)

F2, F3, F4, F5 = GF(2), GF(3), GF(2, 2), GF(5)


# -- (t, s) decomposition --------------------------------------------------------


def test_ts_decompose():
    assert ts_decompose(1, 2, "prm", 2) == TSDecomp(0, 0)
    assert ts_decompose(4, 3, "prm", 2) == TSDecomp(1, 1)
    assert ts_decompose(3, 2, "prm", 2) == TSDecomp(2, 0)
    assert ts_decompose(0, 5, "rm", 2) == TSDecomp(0, 0)
    assert ts_decompose(5, 4, "rm", 2) == TSDecomp(1, 2)
    # m = 1: the top order of each family
    assert ts_decompose(3, 3, "prm", 1) == TSDecomp(1, 0)
    assert ts_decompose(2, 3, "rm", 1) == TSDecomp(1, 0)
    with pytest.raises(ValueError, match=r"^order 0 outside \[1, 5\]$"):
        ts_decompose(0, 3, "prm", 2)
    with pytest.raises(ValueError, match=r"^order 6 outside \[1, 5\]$"):
        ts_decompose(6, 3, "prm", 2)             # m(q-1) + 2
    with pytest.raises(ValueError, match=r"^order -1 outside \[0, 4\]$"):
        ts_decompose(-1, 3, "rm", 2)
    with pytest.raises(ValueError, match=r"^order 5 outside \[0, 4\]$"):
        ts_decompose(5, 3, "rm", 2)              # m(q-1) + 1
    with pytest.raises(ValueError):
        ts_decompose(2, 3, "other", 2)
    # m = 0 holds only the order 1 (prm) or 0 (rm), and neither is a code
    with pytest.raises(ValueError, match=r"^m must be positive, got 0$"):
        ts_decompose(1, 2, "prm", 0)
    with pytest.raises(ValueError, match=r"^m must be positive, got 0$"):
        ts_decompose(0, 2, "rm", 0)


# -- distances --------------------------------------------------------------------


def test_prm_min_distance_values():
    assert prm_min_distance(2, 1, 2) == 4
    assert prm_min_distance(2, 2, 2) == 2
    assert prm_min_distance(2, 3, 2) == 1
    assert prm_min_distance(3, 2, 2) == 6
    assert prm_min_distance(3, 4, 2) == 2
    with pytest.raises(ValueError):
        prm_min_distance(2, 4, 2)


def test_rm_min_distance_values():
    assert rm_min_distance(2, 1, 2) == 2
    assert rm_min_distance(2, 0, 2) == 4          # q^m at order 0
    assert rm_min_distance(3, 2, 2) == 3          # t=1, s=0: 3 * 3^0
    assert rm_min_distance(3, 4, 2) == 1
    with pytest.raises(ValueError):
        rm_min_distance(2, 3, 2)


def test_max_zero_bound():
    assert max_zero_bound(2, 2, 2) == 5
    assert max_zero_bound(3, 2, 2) == 7
    # at and beyond the full-space order the ceiling term is 1
    for q, m in [(2, 2), (3, 2), (2, 3)]:
        for d in range(m * (q - 1) + 1, m * (q - 1) + 5):
            assert max_zero_bound(q, d, m) == p_k(q, m) - 1


# -- witness polynomials ------------------------------------------------------------


def test_canonical_poly_weights():
    cases = [
        (F2, 1, 2, ()),        # hyperplane complement, weight 4
        (F2, 2, 2, ()),
        (F3, 2, 2, (0,)),      # X0 * X1, weight 6
        (F3, 4, 2, (0,)),
        (F5, 3, 2, (0, 2)),
    ]
    for F, d, m, omegas in cases:
        G = canonical_min_poly(F, d, m, omegas)
        assert G.is_homogeneous(d)
        cw = ev_vector(G, projective_points(F, m))
        assert weight(cw) == prm_min_distance(F.q, d, m), (F.q, d, m)


def test_canonical_poly_simple_forms():
    from prmcodes.poly import parse_poly

    assert canonical_min_poly(F2, 1, 2) == parse_poly("X0", F2, 3)
    assert canonical_min_poly(F3, 2, 2, (0,)) == parse_poly("X0*X1", F3, 3)
    # q=2, d=2: X1*(X0 + X1)
    assert canonical_min_poly(F2, 2, 2) == parse_poly("X0*X1 + X1^2", F2, 3)


def test_canonical_poly_validation():
    with pytest.raises(ValueError):
        canonical_min_poly(F3, 2, 2)                 # s=1 needs one omega
    with pytest.raises(ValueError):
        canonical_min_poly(F5, 3, 2, (1, 1))         # duplicates


def test_identity_witness_matches_canonical_up_to_sign():
    # the two published product shapes differ by (-1)^t
    for F, d, m, omegas in [(F2, 2, 2, ()), (F3, 2, 2, (1,)), (F3, 4, 2, (0, )), (F3, 3, 2, ())]:
        ts = ts_decompose(d, F.q, "prm", m)
        nforms = ts.t + 1 if ts.s == 0 else ts.t + 2
        forms = tuple(
            tuple(1 if j == i else 0 for j in range(m + 1)) for i in range(nforms)
        )
        w = MinWtWitness("prm", forms, tuple(omegas))
        Q = prm_witness_poly(w, F, d, m)
        G = canonical_min_poly(F, d, m, omegas)
        sign = F.pow(F.neg(1), ts.t)
        assert Q == G.scale(sign)


def test_prm_witness_validation():
    with pytest.raises(ValueError, match="independent"):
        prm_witness_poly(
            MinWtWitness("prm", ((1, 0, 0), (1, 0, 0))), F2, 2, 2
        )
    with pytest.raises(ValueError, match="forms"):
        prm_witness_poly(MinWtWitness("prm", ((1, 0, 0),)), F2, 2, 2)
    with pytest.raises(ValueError, match="distinct"):
        # q=5, d=3: t=0, s=2, two forms and two omegas required
        prm_witness_poly(
            MinWtWitness("prm", ((1, 0, 0), (0, 1, 0)), (1, 1)), F5, 3, 2
        )
    with pytest.raises(ValueError, match="kind"):
        prm_witness_poly(MinWtWitness("rm", ((1, 0, 0),)), F2, 1, 2)


def test_random_prm_witnesses_hit_min_distance():
    rng = random.Random(42)
    cases = [(F2, 2), (F3, 2), (F4, 2), (F5, 2), (F2, 3), (F3, 3)]
    checked = 0
    for F, m in cases:
        pts = projective_points(F, m)
        for d in range(1, m * (F.q - 1) + 2):
            for _ in range(6):
                w = random_prm_witness(F, d, m, rng)
                f = prm_witness_poly(w, F, d, m)
                assert f.is_homogeneous(d)
                cw = ev_vector(f, pts)
                assert weight(cw) == prm_min_distance(F.q, d, m), (F.q, d, m, w)
                checked += 1
    assert checked >= 200


def test_rm_witness_poly():
    # q=2, nu=1, m=2, l_1 = X0: f = 1 + X0, weight 2
    w = MinWtWitness("rm", ((1, 0, 0),), omega0=1)
    f = rm_witness_poly(w, F2, 1, 2)
    from prmcodes.poly import parse_poly

    assert f == parse_poly("1 + X0", F2, 2)
    from prmcodes.codes import affine_points

    cw = ev_vector(f, affine_points(F2, 2))
    assert weight(cw) == 2


def test_rm_witness_random_weights():
    rng = random.Random(9)
    from prmcodes.codes import affine_points

    for F, m in [(F2, 2), (F3, 2), (F2, 3), (F4, 2)]:
        pts = affine_points(F, m)
        for nu in range(0, m * (F.q - 1) + 1):
            ts = ts_decompose(nu, F.q, "rm", m)
            need = ts.t if ts.s == 0 else ts.t + 1
            for _ in range(5):
                forms = []
                while len(forms) < need:
                    c = tuple(rng.randrange(F.q) for _ in range(m + 1))
                    if not any(c[:m]):
                        continue
                    from prmcodes import linalg

                    if linalg.is_independent(F, [f[:m] for f in forms] + [c[:m]]):
                        forms.append(c)
                omega0 = rng.randrange(1, F.q)
                omegas = tuple(sorted(rng.sample(range(F.q), ts.s)))
                w = MinWtWitness("rm", tuple(forms), omegas, omega0)
                f = rm_witness_poly(w, F, nu, m)
                cw = ev_vector(f, pts)
                assert weight(cw) == rm_min_distance(F.q, nu, m), (F.q, nu, m, w)


def test_rm_witness_validation():
    with pytest.raises(ValueError, match="nonzero"):
        rm_witness_poly(MinWtWitness("rm", ((1, 0, 0),), omega0=0), F2, 1, 2)
    with pytest.raises(ValueError, match="degree"):
        rm_witness_poly(MinWtWitness("rm", ((0, 0, 1),), omega0=1), F2, 1, 2)
    with pytest.raises(ValueError, match="independent"):
        # degree-1 parts coincide even though the affine forms differ
        rm_witness_poly(
            MinWtWitness("rm", ((1, 0, 0), (1, 0, 1)), omega0=1), F2, 2, 2
        )


# -- counts ------------------------------------------------------------------------


def test_count_values():
    assert prm_min_weight_count(2, 1, 2) == 7
    assert prm_min_weight_count(2, 2, 2) == 21
    assert prm_min_weight_count(2, 3, 2) == 7
    assert prm_min_weight_count(3, 2, 2) == 156
    assert prm_min_weight_count(3, 3, 2) == 104
    assert rm_min_weight_count(2, 1, 2) == 6
    assert rm_min_weight_count(2, 2, 2) == 4
    assert rm_min_weight_count(3, 0, 2) == 2


def test_alt_count_agrees():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in (1, 2, 3):
            for d in range(1, m * (q - 1) + 2):
                assert prm_min_weight_count_alt(q, d, m) == prm_min_weight_count(
                    q, d, m
                ), (q, d, m)


def test_count_report_with_oracle():
    rep = count_report(F3, 2, 2, with_oracle=True)
    assert rep.formula_count == rep.alt_count == rep.brute_count == 156
    assert rep.agree
    assert rep.as_dict()["brute_count"] == "156"


# -- witness enumeration --------------------------------------------------------------


@pytest.mark.parametrize(
    "F,d,m,expected",
    [(F2, 1, 2, 7), (F2, 2, 2, 21), (F3, 2, 2, 156), (F2, 3, 2, 7)],
    ids=str,
)
def test_enumerate_witness_codewords_counts(F, d, m, expected):
    cws = enumerate_witness_codewords(F, d, m)
    assert len(word_set(cws)) == len(cws) == expected == prm_min_weight_count(F.q, d, m)
    dist = prm_min_distance(F.q, d, m)
    assert all(weight(c) == dist for c in cws)


def test_enumerate_equals_oracle_set():
    for F, d, m in [(F2, 2, 2), (F3, 2, 2), (F3, 3, 2), (F2, 2, 3)]:
        wit = enumerate_witness_codewords(F, d, m)
        assert np.array_equal(wit, brute_min_weight_words(prm_generator_matrix(F, d, m)))


def test_enumerate_guard():
    # prm(3,3,2), t = 1: 13 subspaces W times 4 scalar orbits of cosets
    with pytest.raises(GuardExceeded):
        enumerate_witness_codewords(F3, 3, 2, guard=51)
    assert len(enumerate_witness_codewords(F3, 3, 2, guard=52)) == 104
    # t = 3: 15 subspaces W times one coset representative each
    words = enumerate_witness_codewords(F2, 4, 3, guard=1000)
    assert len(words) == 15 == prm_min_weight_count(2, 4, 3)


# Reference for the quotiented enumeration: the redundant one, over every
# ordered tuple of independent forms and every scalar set, deduplicated by
# codeword.


def independent_tuples(F, m, count):
    """All ordered tuples of `count` linearly independent coefficient
    vectors in q^(m+1)-space, generated with span-based pruning."""
    nonzero = [c for c in product(range(F.q), repeat=m + 1) if any(c)]

    def extend(chosen, span):
        if len(chosen) == count:
            yield tuple(chosen)
            return
        for cand in nonzero:
            if cand in span:
                continue
            new_span = set(span)
            for sc in range(1, F.q):
                scaled = tuple(F.mul(sc, x) for x in cand)
                for v in span:
                    new_span.add(tuple(F.add(a, b) for a, b in zip(v, scaled)))
            chosen.append(cand)
            yield from extend(chosen, new_span)
            chosen.pop()

    yield from extend([], {(0,) * (m + 1)})


def redundant_witness_codewords(F, d, m):
    ts = ts_decompose(d, F.q, "prm", m)
    t, s = ts.t, ts.s
    pts = projective_points(F, m).tolist()
    vals = {}
    for c in product(range(F.q), repeat=m + 1):
        row = []
        for p in pts:
            acc = 0
            for a, x in zip(c, p):
                acc = F.add(acc, F.mul(a, x))
            row.append(acc)
        vals[c] = row
    out = set()
    for forms in independent_tuples(F, m, t + 1 if s == 0 else t + 2):
        vt = vals[forms[t]]
        lower = [vals[f] for f in forms[:t]]
        vt1 = vals[forms[t + 1]] if s else None
        for omegas in combinations(range(F.q), s):
            cw = []
            for i, x in enumerate(vt):
                # L_t (L_t^(q-1) - L_i^(q-1)) at a point
                acc = x
                for li in lower:
                    acc = F.mul(acc, F.sub(F.pow(x, F.q - 1), F.pow(li[i], F.q - 1)))
                for om in omegas:
                    acc = F.mul(acc, F.sub(vt1[i], F.mul(om, x)))
                cw.append(acc)
            out.add(tuple(cw))
    return out


def redundant_work(q, d, m):
    """Ordered independent form tuples times scalar sets."""
    t, s = divmod(d - 1, q - 1)
    work = binomial(q, s)
    for i in range(t + 1 if s == 0 else t + 2):
        work *= q ** (m + 1) - q ** i
    return work


REFERENCE_CASES = [
    (F, d, m)
    for F, m in [(F2, 1), (F2, 2), (F3, 1), (F3, 2), (F4, 1), (F4, 2), (F2, 3), (F3, 3)]
    for d in range(1, m * (F.q - 1) + 2)
    if redundant_work(F.q, d, m) <= 2 * 10 ** 4
]


@pytest.mark.parametrize(
    "F,d,m", REFERENCE_CASES, ids=[f"q{F.q}-d{d}-m{m}" for F, d, m in REFERENCE_CASES]
)
def test_quotiented_enumeration_equals_redundant(F, d, m):
    assert word_set(enumerate_witness_codewords(F, d, m)) == redundant_witness_codewords(F, d, m)


# Reference for the vectorized form table: the scalar evaluation, one
# call of this module's _dot (below) per (form, point).


def scalar_form_values(F, m, pts, forms):
    return {c: tuple(_dot(F, c, p) for p in pts.tolist()) for c in forms}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_form_values_equal_scalar(q, m):
    F = GF.from_q(q)
    pts = projective_points(F, m)
    vals = _form_values(F, digits(q, m + 1), pts)
    forms = list(product(range(q), repeat=m + 1))
    assert vals.shape == (len(forms), len(pts))
    assert vals.dtype == F.symbol
    assert digits(q, m + 1).tolist() == [list(c) for c in forms]
    # row i is the i-th form in product order: every form where the scalar
    # reference stays under 10^5 dot products, an evenly spaced sample of
    # them beyond (q = 7, 8, 9 at m = 3)
    stride = max(1, len(forms) * len(pts) // 10 ** 5)
    rows = range(0, len(forms), stride)
    sample = [forms[i] for i in rows]
    assert {forms[i]: tuple(vals[i].tolist()) for i in rows} == scalar_form_values(
        F, m, pts, sample
    )


# References for the array table: the bodies it replaced, over a dict from
# each coefficient tuple to its value tuple, one symbol at a time.


def dict_form_values(F, m, pts):
    """Value tuple over the point list for every coefficient tuple, keys in
    `product` order, from one int64 evaluation of all forms."""
    coeffs = product(range(F.q), repeat=m + 1)
    return {c: tuple(row) for c, row in zip(coeffs, form_values(F, m, pts).tolist())}


def dict_zeros(vals, basis, npts):
    return frozenset(i for i in range(npts) if not any(vals[row][i] for row in basis))


def dict_cosets(vals, basis):
    pivots = [row.index(1) for row in basis]
    return [c for c in vals if any(c) and not any(c[j] for j in pivots)]


WALK_CASES = [(2, 1), (2, 3), (2, 4), (3, 2), (4, 2)]


@pytest.mark.parametrize("q,m", WALK_CASES, ids=[f"q{q}-m{m}" for q, m in WALK_CASES])
def test_subspace_walk_equals_scalar_masks_in_rref_order(q, m):
    # the tau check reports the first wrong support size in walk order, so
    # the flats must come in the order of the canonical RREF bases; the
    # i-th point of a flat is the one whose coordinates off W's pivots are
    # the i-th point of P^(m-t), so each E is a copy of P^(m-t)
    F = GF.from_q(q)
    pts = projective_points(F, m)
    vals = dict_form_values(F, m, pts)
    for t in range(m + 1):
        flats = list(minwt._flats(F, m, t))
        bases = list(rref_bases(F, m + 1, t))
        assert len(flats) == len(bases), t
        for on_e, basis in zip(flats, bases):
            assert set(on_e.tolist()) == dict_zeros(vals, basis, len(pts)), (t, basis)
            pivots = {row.index(1) for row in basis}
            free = [c for c in range(m + 1) if c not in pivots]
            assert pts[on_e][:, free].tolist() == projective_points(F, m - t).tolist()


# at most 5 * 10^4 classes on each of q = 2 to m = 6, q = 3 to m = 4,
# q = 4 to m = 3 and q = 5, 7, 8, 9 to m = 2, every t and s among them
CLASS_CASES = [
    (q, d, m)
    for q, mmax in [(2, 6), (3, 4), (4, 3), (5, 2), (7, 2), (8, 2), (9, 2)]
    for m in range(1, mmax + 1)
    for d in range(1, m * (q - 1) + 2)
    if minwt._class_count(q, d, m) <= 5 * 10 ** 4
]


@pytest.mark.parametrize(
    "q,d,m", CLASS_CASES, ids=[f"q{q}-d{d}-m{m}" for q, d, m in CLASS_CASES]
)
def test_class_words_equal_the_subspace_walk(q, d, m):
    # the words of P^(m-t) placed on each flat are the words read off the
    # form table of all of P^m, block for block, in walk order and dtype
    F = GF.from_q(q)
    got = list(minwt._class_words(F, d, m, WITNESS_GUARD, "witness"))
    want = list(class_blocks(F, d, m))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def scalar_witness_codewords(F, d, m):
    q = F.q
    t, s = divmod(d - 1, q - 1)
    omega_sets = [()] if s == 0 else list(combinations(range(q), s))
    pts = projective_points(F, m)
    vals = dict_form_values(F, m, pts)
    npts = len(pts)
    prods = [[1] * q for _ in omega_sets]
    for row, omegas in zip(prods, omega_sets):
        for r in range(q):
            for w in omegas:
                row[r] = F.mul(row[r], F.sub(r, w))
    out = set()
    for basis in rref_bases(F, m + 1, t):
        zeros = dict_zeros(vals, basis, npts)
        comp = dict_cosets(vals, basis)
        for lt in comp:
            vt = vals[lt]
            if not s:
                out.add(tuple(x if i in zeros else 0 for i, x in enumerate(vt)))
                continue
            on = [i for i in zeros if vt[i]]
            lead = [F.pow(vt[i], s + 1) for i in on]
            inv = [F.inv(vt[i]) for i in on]
            line = {tuple(F.mul(a, x) for x in lt) for a in range(q)}
            for lt1 in comp:
                if lt1 in line:
                    continue
                vt1 = vals[lt1]
                ratios = [F.mul(vt1[i], v) for i, v in zip(on, inv)]
                for prod in prods:
                    cw = [0] * npts
                    for i, c, r in zip(on, lead, ratios):
                        cw[i] = F.mul(c, prod[r])
                    out.add(tuple(cw))
    return out


@pytest.mark.parametrize(
    "F,d,m", REFERENCE_CASES, ids=[f"q{F.q}-d{d}-m{m}" for F, d, m in REFERENCE_CASES]
)
def test_witness_enumeration_equals_scalar_reference(F, d, m):
    assert word_set(enumerate_witness_codewords(F, d, m)) == scalar_witness_codewords(F, d, m)


# -- support structure ------------------------------------------------------------------


def test_equal_support_means_scalar_multiple():
    # exhaustive at q=3, d=2, m=2: the 156 minimum-weight words fall into
    # 78 support classes, each a scalar orbit of size q-1
    words = brute_min_weight_words(prm_generator_matrix(F3, 2, 2)).tolist()
    by_support = {}
    for w in words:
        by_support.setdefault(frozenset(support(w)), []).append(w)
    assert len(by_support) == 78
    for group in by_support.values():
        assert len(group) == 2
        a, b = group
        lam = next(F3.mul(y, F3.inv(x)) for x, y in zip(a, b) if x)
        assert lam != 0
        assert all(F3.mul(lam, x) == y for x, y in zip(a, b))


def _dot(F, u, v):
    acc = 0
    for x, y in zip(u, v):
        if x and y:
            acc = F.add(acc, F.mul(x, y))
    return acc


def test_bound_achievers_zero_sets_are_hyperplane_unions():
    # every minimum-weight codeword's zero set is a union of at most d
    # distinct hyperplanes (exhaustive over the oracle sets)
    for F, m, dmax in [(F2, 2, 2), (F3, 2, 3)]:
        pts = projective_points(F, m).tolist()
        hyperplanes = [
            frozenset(i for i, p in enumerate(pts) if _dot(F, normal, p) == 0)
            for normal in pts
        ]
        for d in range(1, dmax + 1):
            words = brute_min_weight_words(prm_generator_matrix(F, d, m))
            for w in words.tolist():
                zero = frozenset(i for i, x in enumerate(w) if x == 0)
                inside = [h for h in hyperplanes if h <= zero]
                union = frozenset().union(*inside) if inside else frozenset()
                assert union == zero
                assert any(
                    frozenset().union(*combo) == zero
                    for r in range(1, min(d, len(inside)) + 1)
                    for combo in combinations(inside, r)
                )


def test_random_reduced_polys_respect_zero_set_bound():
    rng = random.Random(17)
    for F, m in [(F2, 2), (F3, 2), (F4, 2)]:
        n = p_k(F.q, m)
        pts = projective_points(F, m)
        for d in range(1, m * (F.q - 1) + 2):
            basis = reduced_monomials_projective(F.q, d, m)
            bound = max_zero_bound(F.q, d, m)
            for _ in range(40):
                terms = {
                    e: rng.randrange(1, F.q)
                    for e in rng.sample(basis, rng.randrange(1, len(basis) + 1))
                }
                f = Poly(F, m + 1, terms)
                if f.is_zero():
                    continue
                zeros = n - weight(ev_vector(f, pts))
                assert zeros <= bound, (F.q, d, m, f)


# -- incidence checks ----------------------------------------------------------------------


def test_fiber_check_frozen_values():
    rep = support_fiber_check(F3, 2, 2)
    assert rep.j_size == rep.j_expected == 1872
    assert rep.fiber_sizes == (24,)
    assert rep.fiber_expected == 24
    assert rep.support_count == 78
    assert rep.implied_count == rep.formula_count == 156
    assert rep.ok
    assert rep.as_dict()["ok"] is True


def test_fiber_check_more_cases():
    rep = support_fiber_check(F4, 2, 2)     # t=0, s=1 over GF(4)
    assert rep.ok
    rep = support_fiber_check(F3, 4, 2)     # t=1, s=1
    assert rep.ok


def test_fiber_check_rejects_s_zero():
    with pytest.raises(ValueError, match="tau"):
        support_fiber_check(F2, 2, 2)


def test_tau_check_frozen_values():
    rep = tau_bijection_check(F2, 2, 2)
    assert rep.pair_count == rep.pair_expected == 21
    assert rep.injective and rep.sizes_ok
    assert rep.implied_count == rep.formula_count == 21
    assert rep.ok
    rep3 = tau_bijection_check(F3, 3, 2)
    assert rep3.pair_count == 52 and rep3.implied_count == 104 and rep3.ok


def test_tau_check_allocates_no_table_over_all_forms():
    # prm(2,12,11), t = m = 11: 4095 flats, each one point.  A table of the
    # 4096 forms at the 4095 points of P^11 alone takes 128 MiB in int64;
    # the walk reads the forms of P^0 and the packed supports take 1 MiB
    tracemalloc.start()
    try:
        rep = tau_bijection_check(F2, 12, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak <= 16 * 2 ** 20


def test_tau_check_rejects_wrong_shape():
    with pytest.raises(ValueError, match="fiber"):
        tau_bijection_check(F3, 2, 2)       # s != 0
    with pytest.raises(ValueError, match="simplex"):
        tau_bijection_check(F3, 1, 2)       # t = 0
    with pytest.raises(GuardExceeded):
        tau_bijection_check(F2, 2, 2, guard=5)


# References for the incidence checks: E as the span of an RREF basis, its
# points rebuilt from every coefficient vector.


def _span_points(F, basis, point_index):
    """Projective point indices of the span of the basis rows."""
    n = len(basis[0]) if basis else 0
    out = set()
    for coeffs in product(range(F.q), repeat=len(basis)):
        vec = [0] * n
        for c, row in zip(coeffs, basis):
            vec = [F.add(v, F.mul(c, x)) for v, x in zip(vec, row)]
        if any(vec):
            out.add(point_index[normalize_point(F, vec)])
    return frozenset(out)


def _point_index(pts):
    return {pt: i for i, pt in enumerate(map(tuple, pts.tolist()))}


def span_fiber_check(F, d, m):
    q = F.q
    t, s = divmod(d - 1, q - 1)
    pts = projective_points(F, m)
    pidx = _point_index(pts)
    vals = dict_form_values(F, m, pts)
    fibers = {}
    j_size = 0
    for basis in rref_bases(F, m + 1, m - t + 1):
        epts = sorted(_span_points(F, basis, pidx))
        for lt in vals:
            vt = vals[lt]
            on = [i for i in epts if vt[i]]
            if not on:
                continue
            off = [i for i in epts if not vt[i]]
            inv_t = {i: F.inv(vt[i]) for i in on}
            for lt1 in vals:
                vt1 = vals[lt1]
                if all(vt1[i] == 0 for i in off):
                    continue
                ratios = {i: F.mul(vt1[i], inv_t[i]) for i in on}
                for sset in combinations(range(q), s):
                    supp = frozenset(i for i in on if ratios[i] not in sset)
                    fibers[supp] = fibers.get(supp, 0) + 1
                    j_size += 1
    return FiberReport(
        q=q, d=d, m=m, t=t, s=s,
        j_size=j_size,
        j_expected=gaussian_binomial(m + 1, m - t + 1, q)
        * (q ** (m + 1) - q ** t) * (q ** (m + 1) - q ** (t + 1)) * binomial(q, s),
        fiber_sizes=tuple(sorted(set(fibers.values()))),
        fiber_expected=(s + 1) * (q - 1) ** 2 * q ** (2 * t + 1),
        support_count=len(fibers),
        implied_count=(q - 1) * len(fibers),
        formula_count=prm_min_weight_count(q, d, m),
    )


def fiber_tuples(q, d, m):
    """Incidence tuples the exhaustive fiber references enumerate."""
    t, s = divmod(d - 1, q - 1)
    return gaussian_binomial(m + 1, t, q) * q ** (2 * (m + 1)) * binomial(q, s)


# every s != 0 tuple within budget; q = 3, d = 4, m = 2 is the one with t >= 1
FIBER_CASES = [
    (q, d, m)
    for q in (3, 4, 5, 7, 8, 9)
    for m in (1, 2, 3)
    for d in range(2, m * (q - 1) + 2)
    if (d - 1) % (q - 1) and fiber_tuples(q, d, m) <= 3 * 10 ** 4
]


@pytest.mark.parametrize(
    "q,d,m", FIBER_CASES, ids=[f"q{q}-d{d}-m{m}" for q, d, m in FIBER_CASES]
)
def test_fiber_check_equals_span_reference(q, d, m):
    F = GF.from_q(q)
    assert support_fiber_check(F, d, m) == span_fiber_check(F, d, m)


def span_tau_check(F, d, m):
    """Flag pairs (E, H) with E the span of a k-dimensional RREF basis and H
    the span of each (k-1)-dimensional subspace of its coefficient space."""
    q = F.q
    t = (d - 1) // (q - 1)
    k = m - t + 1
    pidx = _point_index(projective_points(F, m))
    supports = set()
    sizes = []
    pair_count = 0
    for ebasis in rref_bases(F, m + 1, k):
        epts = _span_points(F, ebasis, pidx)
        for hcoeff in rref_bases(F, k, k - 1):
            hbasis = linalg.mat_mul(F, hcoeff, ebasis).tolist() if hcoeff else []
            supp = epts - _span_points(F, hbasis, pidx)
            supports.add(supp)
            sizes.append(len(supp))
            pair_count += 1
    return TauReport(
        q=q, d=d, m=m, t=t,
        pair_count=pair_count,
        pair_expected=gaussian_binomial(m + 1, k, q) * gaussian_binomial(k, k - 1, q),
        injective=len(supports) == pair_count,
        wrong_size=next((x for x in sizes if x != q ** (m - t)), None),
        implied_count=(q - 1) * pair_count,
        formula_count=prm_min_weight_count(q, d, m),
    )


# every s = 0, t >= 1 tuple within budget, t = m included
TAU_CASES = [
    (q, d, m)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for m in (1, 2, 3)
    for d in range(q, m * (q - 1) + 2, q - 1)
    if gaussian_binomial(m + 1, m - (d - 1) // (q - 1) + 1, q) * q ** m <= 10 ** 4
]


@pytest.mark.parametrize(
    "q,d,m", TAU_CASES, ids=[f"q{q}-d{d}-m{m}" for q, d, m in TAU_CASES]
)
def test_tau_check_equals_span_reference(q, d, m):
    F = GF.from_q(q)
    assert tau_bijection_check(F, d, m) == span_tau_check(F, d, m)


SUPPORT_CASES = [*FIBER_CASES, (3, 3, 2)]


@pytest.mark.parametrize(
    "q,d,m", SUPPORT_CASES, ids=[f"q{q}-d{d}-m{m}" for q, d, m in SUPPORT_CASES]
)
def test_support_counts_equal_a_counter_over_packed_rows(monkeypatch, q, d, m):
    # a few rows a slice, so the support sizes are read across slices
    monkeypatch.setattr(minwt, "_SLICE_ROWS", 7)
    F = GF.from_q(q)
    name = "fiber" if (d - 1) % (q - 1) else "tau"
    blocks = list(minwt._class_words(F, d, m, WITNESS_GUARD, name))
    packed = np.concatenate([np.packbits(b != 0, axis=1) for b in blocks])
    counts, sizes = minwt._support_counts(F, d, m, WITNESS_GUARD, name)
    assert sorted(counts.tolist()) == sorted(Counter(map(bytes, packed)).values())
    assert sizes.tolist() == np.concatenate([np.count_nonzero(b, axis=1) for b in blocks]).tolist()


def scalar_fiber_check(F, d, m):
    q = F.q
    t, s = divmod(d - 1, q - 1)
    pts = projective_points(F, m)
    vals = dict_form_values(F, m, pts)
    npts = len(pts)
    fibers = {}
    j_size = 0
    for basis in rref_bases(F, m + 1, t):
        epts = dict_zeros(vals, basis, npts)
        for lt in vals:
            vt = vals[lt]
            on = [i for i in epts if vt[i]]
            if not on:
                continue
            off = [i for i in epts if not vt[i]]
            inv_t = {i: F.inv(vt[i]) for i in on}
            for lt1 in vals:
                vt1 = vals[lt1]
                if all(vt1[i] == 0 for i in off):
                    continue
                ratios = {i: F.mul(vt1[i], inv_t[i]) for i in on}
                for sset in combinations(range(q), s):
                    supp = frozenset(i for i in on if ratios[i] not in sset)
                    fibers[supp] = fibers.get(supp, 0) + 1
                    j_size += 1
    return FiberReport(
        q=q, d=d, m=m, t=t, s=s,
        j_size=j_size,
        j_expected=gaussian_binomial(m + 1, t, q)
        * (q ** (m + 1) - q ** t) * (q ** (m + 1) - q ** (t + 1)) * binomial(q, s),
        fiber_sizes=tuple(sorted(set(fibers.values()))),
        fiber_expected=(s + 1) * (q - 1) ** 2 * q ** (2 * t + 1),
        support_count=len(fibers),
        implied_count=(q - 1) * len(fibers),
        formula_count=prm_min_weight_count(q, d, m),
    )


@pytest.mark.parametrize(
    "q,d,m", FIBER_CASES, ids=[f"q{q}-d{d}-m{m}" for q, d, m in FIBER_CASES]
)
def test_fiber_check_equals_scalar_reference(q, d, m):
    F = GF.from_q(q)
    assert support_fiber_check(F, d, m) == scalar_fiber_check(F, d, m)


def exhaustive_fiber_check(F, d, m):
    """The fiber check over every form pair, in arrays: L_t and L_{t+1} run
    over all q^(m+1) rows of the test-side form table on each E, the zeros
    of the forms of a canonical RREF basis W, one tuple each."""
    q = F.q
    t, s = divmod(d - 1, q - 1)
    pts = projective_points(F, m)
    npts = len(pts)
    vals = form_values(F, m, pts)
    by_form = dict_form_values(F, m, pts)
    inv = np.array([0] + [F.inv(a) for a in range(1, q)])
    outside = np.ones((binomial(q, s), q), dtype=bool)
    for k, sset in enumerate(combinations(range(q), s)):
        outside[k, list(sset)] = False
    fibers = Counter()
    j_size = 0
    for basis in rref_bases(F, m + 1, t):
        epts = np.array(sorted(dict_zeros(by_form, basis, npts)))
        on_e = vals[:, epts]
        for vt in on_e:
            on = vt != 0
            if not on.any():
                continue
            ratios = F.vmul(on_e[on_e[:, ~on].any(axis=1)][:, on], inv[vt[on]])
            cols = epts[on]
            supp = np.zeros((len(outside) * len(ratios), npts), dtype=bool)
            supp[:, cols] = outside[:, ratios].reshape(len(supp), len(cols))
            fibers.update(map(bytes, np.packbits(supp, axis=1)))
            j_size += len(supp)
    return FiberReport(
        q=q, d=d, m=m, t=t, s=s,
        j_size=j_size,
        j_expected=gaussian_binomial(m + 1, t, q)
        * (q ** (m + 1) - q ** t) * (q ** (m + 1) - q ** (t + 1)) * binomial(q, s),
        fiber_sizes=tuple(sorted(set(fibers.values()))),
        fiber_expected=(s + 1) * (q - 1) ** 2 * q ** (2 * t + 1),
        support_count=len(fibers),
        implied_count=(q - 1) * len(fibers),
        formula_count=prm_min_weight_count(q, d, m),
    )


@pytest.mark.parametrize(
    "q,d,m", FIBER_CASES, ids=[f"q{q}-d{d}-m{m}" for q, d, m in FIBER_CASES]
)
def test_fiber_check_equals_exhaustive_reference(q, d, m):
    F = GF.from_q(q)
    assert support_fiber_check(F, d, m) == exhaustive_fiber_check(F, d, m)


def walk_classes(q, d, m):
    """Classes the one walk visits: [m+1, t] subspaces W, one L_t per
    scalar orbit of nonzero cosets, for s != 0 one L_{t+1} per nonzero
    coset of <W, L_t> (its translates L_{t+1} + a L_t give the same words),
    and every scalar set."""
    t, s = divmod(d - 1, q - 1)
    cosets = q ** (m + 1 - t) - 1
    return (gaussian_binomial(m + 1, t, q) * cosets // (q - 1)
            * (q ** (m - t) - 1 if s else 1) * binomial(q, s))


GUARD_CASES = [
    ("witness", enumerate_witness_codewords, 3, 2, 2),
    ("witness", enumerate_witness_codewords, 3, 3, 2),
    ("fiber", support_fiber_check, 3, 2, 2),
    ("fiber", support_fiber_check, 3, 4, 2),
    ("fiber", support_fiber_check, 4, 3, 2),
    ("tau", tau_bijection_check, 2, 2, 2),
    ("tau", tau_bijection_check, 3, 5, 2),
]


@pytest.mark.parametrize(
    "name,check,q,d,m", GUARD_CASES,
    ids=["witness-t0", "witness-t1", "fiber-t0", "fiber-t1", "fiber-t0-gf4", "tau-t1", "tau-t2"],
)
def test_guard_counts_classes(monkeypatch, name, check, q, d, m):
    F = GF.from_q(q)
    need = walk_classes(q, d, m)
    # one word per class walked, and a guard of exactly that many runs
    assert sum(map(len, minwt._class_words(F, d, m, need, name))) == need
    check(F, d, m, guard=need)
    built = []
    real = minwt._form_values
    monkeypatch.setattr(minwt, "_form_values", lambda *a: built.append(a) or real(*a))
    with pytest.raises(GuardExceeded, match=rf"^{name} guard: {need} classes > {need - 1}$"):
        check(F, d, m, guard=need - 1)
    assert built == []                 # refused before the form table is built


def scalar_tau_check(F, d, m):
    q = F.q
    t = (d - 1) // (q - 1)
    k = m - t + 1
    pts = projective_points(F, m)
    vals = dict_form_values(F, m, pts)
    npts = len(pts)
    supports = set()
    sizes = []
    pair_count = 0
    for basis in rref_bases(F, m + 1, t):
        epts = dict_zeros(vals, basis, npts)
        for form in dict_cosets(vals, basis):
            if next(x for x in form if x) != 1:
                continue
            vl = vals[form]
            supp = frozenset(i for i in epts if vl[i])
            supports.add(supp)
            sizes.append(len(supp))
            pair_count += 1
    return TauReport(
        q=q, d=d, m=m, t=t,
        pair_count=pair_count,
        pair_expected=gaussian_binomial(m + 1, k, q) * gaussian_binomial(k, k - 1, q),
        injective=len(supports) == pair_count,
        wrong_size=next((x for x in sizes if x != q ** (m - t)), None),
        implied_count=(q - 1) * pair_count,
        formula_count=prm_min_weight_count(q, d, m),
    )


@pytest.mark.parametrize(
    "q,d,m", TAU_CASES, ids=[f"q{q}-d{d}-m{m}" for q, d, m in TAU_CASES]
)
def test_tau_check_equals_scalar_reference(q, d, m):
    F = GF.from_q(q)
    assert tau_bijection_check(F, d, m) == scalar_tau_check(F, d, m)
