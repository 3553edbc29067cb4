from itertools import product

import pytest
from hypothesis import given, strategies as st

from prmcodes.combinat import binomial, gaussian_binomial, p_k
from prmcodes.dimension import rho
from prmcodes.gf import GF

from lemmas import bounded_compositions, rref_bases


def brute_bounded(a, n, b):
    """Independent oracle: enumerate all n-tuples with entries in [0, b]."""
    return sum(1 for t in product(range(b + 1), repeat=n) if sum(t) == a)


def test_binomial_examples():
    assert binomial(3, -1) == 0
    assert binomial(-1, 0) == 1
    assert binomial(2, 5) == 0
    assert binomial(-1, 2) == 1      # generalized convention, not zero
    assert binomial(5, 2) == 10


def test_binomial_zero_characterization():
    # binomial(a, b) == 0 exactly when b < 0 or b > a >= 0
    for a in range(-12, 13):
        for b in range(-12, 13):
            expect_zero = b < 0 or (a >= 0 and b > a)
            assert (binomial(a, b) == 0) == expect_zero, (a, b)


@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50))
def test_pascal_identity(a, b):
    assert binomial(a, b - 1) + binomial(a, b) == binomial(a + 1, b)


def test_symmetry_is_conditional():
    # binomial(a, b) == binomial(a, a - b) exactly when a >= 0 or a < b < 0
    for a in range(-20, 21):
        for b in range(-20, 21):
            holds = binomial(a, b) == binomial(a, a - b)
            expected = a >= 0 or (a < b < 0)
            assert holds == expected, (a, b)


def test_gaussian_binomial_examples():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(3, 5, 2) == 0
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 0, 7) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_gaussian_binomial_counts_subspaces(q):
    # independent oracle: enumerate canonical RREF bases
    F = GF(2, 2) if q == 4 else GF(q)
    for a in range(5):
        for b in range(a + 1):
            assert gaussian_binomial(a, b, q) == sum(
                1 for _ in rref_bases(F, a, b)
            ), (a, b, q)


def test_p_k():
    assert p_k(2, 2) == 7
    assert p_k(3, 2) == 13
    assert p_k(5, -3) == 0
    assert p_k(4, 0) == 1
    for q in (2, 3, 5, 9):
        for k in range(6):
            assert p_k(q, k) == sum(q ** i for i in range(k + 1))


def test_bounded_compositions_examples():
    assert bounded_compositions(2, 2, 1) == 1
    assert bounded_compositions(3, 2, 1) == 0
    for n in range(5):
        for b in range(5):
            assert bounded_compositions(0, n, b) == 1


def test_bounded_compositions_vs_enumeration():
    for a in range(13):
        for n in range(5):
            for b in range(5):
                assert bounded_compositions(a, n, b) == brute_bounded(a, n, b), (a, n, b)


def test_bounded_compositions_vs_rm_dimension_increment():
    # placements with per-block cap q-1 count the reduced monomials of exact degree
    for q in (2, 3, 4, 5):
        for n in range(5):
            for nu in range(n * (q - 1) + 3):
                assert bounded_compositions(nu, n, q - 1) == rho(q, nu, n) - rho(
                    q, nu - 1, n
                ), (q, nu, n)
