"""Acceptance suite: every criterion is exact (zero tolerance) and prints
one PASS line when it holds.  Heavy exhaustive enumerations are shared
through a session cache so the distance, count, and zero-set criteria reuse
the same oracle runs."""

import random
from itertools import product

import numpy as np
import pytest

from prmcodes import oracle
from prmcodes.codes import (
    ev_vector,
    prm_generator_matrix,
    projective_points,
    rm_generator_matrix,
)
from prmcodes.combinat import p_k
from prmcodes.dimension import dim_alpha, dim_beta, dim_delta, dim_gamma, rho
from prmcodes.gf import GF
from prmcodes.poly import Poly, reduce_projective
from prmcodes.minwt import (
    enumerate_witness_codewords,
    prm_min_distance,
    prm_min_weight_count,
    prm_min_weight_count_alt,
    rm_min_distance,
    rm_min_weight_count,
    support_fiber_check,
    tau_bijection_check,
)

from lemmas import bounded_compositions, max_zero_bound

FIELDS = {2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5)}

# criterion 4 parameter sets: (q, m, dim cap or None)
PRM_ORACLE_CASES = [(2, 2, None), (2, 3, None), (3, 2, None), (4, 2, 12), (5, 2, 10)]
RM_ORACLE_CASES = [(2, 2), (2, 3), (3, 2)]

_GUARD = 1 << 24


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS  {text}")


@pytest.fixture(scope="module")
def dist_cache():
    """(family, q, order, m) -> WeightDistribution, computed once."""
    cache = {}

    def get(family, q, order, m):
        key = (family, q, order, m)
        if key not in cache:
            F = FIELDS[q]
            g = (
                prm_generator_matrix(F, order, m)
                if family == "prm"
                else rm_generator_matrix(F, order, m)
            )
            cache[key] = oracle.weight_distribution(g, _GUARD)
        return cache[key]

    return get


def _prm_orders(q, m, dim_cap):
    for d in range(1, m * (q - 1) + 2):
        k = dim_gamma(q, d, m)
        if dim_cap is not None and k > dim_cap:
            continue
        if q ** k > _GUARD:
            continue
        yield d


def test_c01_dimension_four_way_equality():
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in range(1, 5):
            for d in range(1, m * (q - 1) + 2):
                a = dim_alpha(q, d, m)
                b = dim_beta(q, d, m)
                g = dim_gamma(q, d, m)
                dl = dim_delta(q, d, m)
                assert a == b == g == dl, (q, m, d, a, b, g, dl)
                checked += 1
    _report(1, f"alpha=beta=gamma=delta on {checked} parameter tuples")


def test_c02_dimension_equals_matrix_rank():
    checked = 0
    for q in (2, 3, 4):
        F = FIELDS[q]
        for m in range(1, 4):
            for d in range(1, m * (q - 1) + 2):
                g = prm_generator_matrix(F, d, m)
                assert g.rank() == dim_gamma(q, d, m), (q, m, d)
                checked += 1
    _report(2, f"gamma equals generator matrix rank on {checked} codes (length <= 85)")


def test_c03_full_space_rank():
    for q in (2, 3, 4):
        F = FIELDS[q]
        for m in range(1, 4):
            d = m * (q - 1) + 1
            assert prm_generator_matrix(F, d, m).rank() == p_k(q, m), (q, m)
    _report(3, "rank reaches p_m at order m(q-1)+1 for q in {2,3,4}, m <= 3")


def test_c04_minimum_distance(dist_cache):
    checked = []
    for q, m, cap in PRM_ORACLE_CASES:
        for d in _prm_orders(q, m, cap):
            dist = dist_cache("prm", q, d, m)
            dmin = min(w for w in dist.counts if w > 0)
            assert dmin == prm_min_distance(q, d, m), (q, m, d, dmin)
            checked.append(("prm", q, m, d))
    for q, m in RM_ORACLE_CASES:
        for nu in range(0, m * (q - 1) + 1):
            dist = dist_cache("rm", q, nu, m)
            dmin = min(w for w in dist.counts if w > 0)
            assert dmin == rm_min_distance(q, nu, m), (q, m, nu, dmin)
            checked.append(("rm", q, m, nu))
    _report(4, f"brute minimum distance equals (q-s)q^(m-t-1) on {len(checked)} codes")


def test_c05_minimum_weight_counts(dist_cache):
    frozen = {(2, 1, 2): 7, (2, 2, 2): 21, (2, 3, 2): 7, (3, 2, 2): 156, (3, 3, 2): 104}
    for (q, d, m), expected in frozen.items():
        dist = dist_cache("prm", q, d, m)
        dmin = min(w for w in dist.counts if w > 0)
        assert dist.counts[dmin] == expected
        assert prm_min_weight_count(q, d, m) == expected
        assert prm_min_weight_count_alt(q, d, m) == expected
    cases = [(2, 2, None), (3, 2, None), (2, 3, 3)]       # (q, m, max d)
    n_prm = 0
    for q, m, dmax in cases:
        for d in range(1, (dmax or m * (q - 1) + 1) + 1):
            dist = dist_cache("prm", q, d, m)
            dmin = min(w for w in dist.counts if w > 0)
            brute = dist.counts[dmin]
            assert brute == prm_min_weight_count(q, d, m), (q, d, m)
            assert brute == prm_min_weight_count_alt(q, d, m), (q, d, m)
            n_prm += 1
    n_rm = 0
    for q, m in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        for nu in range(0, m * (q - 1) + 1):
            dist = dist_cache("rm", q, nu, m)
            dmin = min(w for w in dist.counts if w > 0)
            assert dist.counts[dmin] == rm_min_weight_count(q, nu, m), (q, nu, m)
            n_rm += 1
    _report(5, f"brute counts equal both closed forms ({n_prm} prm, {n_rm} rm codes)")


def test_c06_characterization_set_equality():
    cases = [(2, 2, 2), (2, 3, 2), (3, 2, 3), (2, 2, 3)]   # (q, m, max d)
    total = 0
    for q, m, dmax in cases:
        F = FIELDS[q]
        for d in range(1, dmax + 1):
            wit = enumerate_witness_codewords(F, d, m)
            brute = oracle.brute_min_weight_words(prm_generator_matrix(F, d, m))
            assert np.array_equal(wit, brute), (q, m, d, len(wit), len(brute))
            total += len(wit)
    _report(6, f"witness codeword sets equal oracle sets (both inclusions, {total} words)")


def test_c07_incidence_structure():
    fib = support_fiber_check(FIELDS[3], 2, 2)
    assert fib.j_size == 1872
    assert fib.fiber_sizes == (24,)
    assert fib.support_count == 78
    assert fib.implied_count == 156
    assert fib.ok
    tau = tau_bijection_check(FIELDS[2], 2, 2)
    assert tau.pair_count == 21 and tau.injective and tau.ok
    _report(7, "fiber check 1872/24/78/156 at q=3,d=2,m=2; 21 injective pairs at q=2,d=2,m=2")


def test_c08_projective_reduction_preserves_evaluation():
    mismatches = 0
    total = 0
    for q, F in FIELDS.items():
        rng = random.Random(1000 + q)
        for i in range(500):
            m = rng.randrange(1, 4)
            nvars = m + 1
            terms = {}
            if i % 2:                      # homogeneous half of the sample
                d = rng.randrange(1, 2 * q + 2)
                for _ in range(rng.randrange(1, 6)):
                    exps = [0] * nvars
                    for _ in range(d):
                        exps[rng.randrange(nvars)] += 1
                    terms[tuple(exps)] = rng.randrange(1, q)
            else:
                for _ in range(rng.randrange(1, 6)):
                    exps = tuple(rng.randrange(2 * q + 2) for _ in range(nvars))
                    terms[exps] = rng.randrange(1, q)
            f = Poly(F, nvars, terms)
            r = reduce_projective(f)
            total += 1
            for pt in product(range(q), repeat=nvars):
                if f.evaluate(pt) != r.evaluate(pt):
                    mismatches += 1
                    break
    assert mismatches == 0
    _report(8, f"reduction preserved evaluations on {total} random polynomials, 0 mismatches")


def test_c09_zero_set_bound(dist_cache):
    # every nonzero codeword enumerated in criterion 4 comes from a nonzero
    # projectively reduced polynomial; its zero count is p_m minus its
    # weight, so the max zero count is p_m minus the minimum weight
    for q, m, cap in PRM_ORACLE_CASES:
        n = p_k(q, m)
        for d in _prm_orders(q, m, cap):
            dist = dist_cache("prm", q, d, m)
            dmin = min(w for w in dist.counts if w > 0)
            assert n - dmin <= max_zero_bound(q, d, m), (q, m, d)
    # random spot checks on top of the enumerated codes
    rng = random.Random(99)
    from prmcodes.poly import reduced_monomials_projective

    for q in (2, 3, 4, 5):
        F = FIELDS[q]
        m = 2
        pts = projective_points(F, m)
        for d in range(1, m * (q - 1) + 2):
            basis = reduced_monomials_projective(q, d, m)
            bound = max_zero_bound(q, d, m)
            for _ in range(25):
                picked = rng.sample(basis, rng.randrange(1, len(basis) + 1))
                f = Poly(F, m + 1, {e: rng.randrange(1, q) for e in picked})
                if f.is_zero():
                    continue
                zeros = len(pts) - sum(1 for v in ev_vector(f, pts) if v)
                assert zeros <= bound, (q, d, m)
    _report(9, "no enumerated or random reduced polynomial exceeds the zero-set bound")


def test_c10_combinatorics_oracles():
    for a in range(13):
        for n in range(5):
            for b in range(5):
                direct = sum(
                    1 for t in product(range(b + 1), repeat=n) if sum(t) == a
                )
                assert bounded_compositions(a, n, b) == direct, (a, n, b)
    for q in (2, 3, 4, 5):
        for n in range(5):
            for nu in range(0, n * (q - 1) + 3):
                assert bounded_compositions(nu, n, q - 1) == rho(q, nu, n) - rho(
                    q, nu - 1, n
                ), (q, nu, n)
    _report(10, "bounded compositions match enumeration and the rm dimension increments")
