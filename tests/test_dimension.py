from itertools import product

import pytest

from prmcodes.combinat import binomial, p_k
from prmcodes.dimension import (
    DimReport,
    dim_alpha,
    dim_beta,
    dim_delta,
    dim_gamma,
    dim_report,
    rho,
)
from prmcodes.errors import GuardExceeded

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)


def rho_brute(q, nu, n):
    """Independent oracle: count reduced monomials directly."""
    if nu < 0:
        return 0
    return sum(1 for e in product(range(q), repeat=n) if sum(e) <= nu)


def test_rho_examples():
    assert rho(2, 2, 2) == 4
    assert rho(3, 0, 0) == 1
    assert rho(3, -1, 2) == 0
    assert rho(5, -3, 0) == 0
    # below q the code is the full degree-nu space
    for q in (3, 5, 7):
        for n in (1, 2, 3):
            for nu in range(q):
                assert rho(q, nu, n) == binomial(n + nu, nu)


def test_rho_against_enumeration():
    for q in (2, 3, 4, 5):
        for n in range(5):
            for nu in range(-2, n * (q - 1) + 4):
                assert rho(q, nu, n) == rho_brute(q, nu, n), (q, nu, n)


def test_rho_clamps_and_saturates():
    for q in (2, 3, 4):
        for n in range(1, 5):
            cap = n * (q - 1)
            for nu in range(cap, cap + 5):
                assert rho(q, nu, n) == q ** n
                assert rho(q, nu, n) == rho(q, min(nu, cap), n)


def test_rho_monotone():
    for q in (2, 3, 5):
        for n in range(4):
            vals = [rho(q, nu, n) for nu in range(n * (q - 1) + 3)]
            assert vals == sorted(vals)


@pytest.mark.parametrize(
    "q,d,m,expected",
    [
        (2, 1, 2, 3),
        (2, 2, 2, 6),
        (2, 3, 2, 7),
        (3, 2, 2, 6),
        (3, 4, 2, 12),
        (3, 5, 2, 13),
        (5, 3, 2, 10),
    ],
)
def test_dimension_formula_values(q, d, m, expected):
    assert dim_alpha(q, d, m) == expected
    assert dim_beta(q, d, m) == expected
    assert dim_gamma(q, d, m) == expected
    assert dim_delta(q, d, m) == expected


def test_formulas_agree_small_sweep():
    for q in (2, 3, 4, 5):
        for m in (1, 2, 3):
            for d in range(1, m * (q - 1) + 2):
                a = dim_alpha(q, d, m)
                assert a == dim_beta(q, d, m) == dim_gamma(q, d, m) == dim_delta(q, d, m)


def test_gamma_is_sum_of_rm_dimensions():
    for q in PRIME_POWERS:
        for m in (1, 2, 3):
            for d in range(1, m * (q - 1) + 2):
                assert dim_gamma(q, d, m) == sum(rho(q, d - 1, i) for i in range(m + 1))


def test_gamma_boundary_values():
    for q in PRIME_POWERS:
        for m in (1, 2, 3, 4):
            assert dim_gamma(q, 1, m) == m + 1                       # simplex
            assert dim_gamma(q, m * (q - 1) + 1, m) == p_k(q, m)     # full space


def test_range_errors():
    for fn in (dim_alpha, dim_beta, dim_gamma, dim_delta):
        with pytest.raises(ValueError):
            fn(2, 0, 2)
        with pytest.raises(ValueError):
            fn(2, 4, 2)


def test_dim_report():
    rep = dim_report(2, 2, 2, with_rank=True)
    assert rep == DimReport(2, 2, 2, 6, 6, 6, 6, 6, True)
    rep = dim_report(3, 5, 2, with_rank=True)
    assert (rep.alpha, rep.rank, rep.agree) == (13, 13, True)
    rep = dim_report(9, 3, 2)
    assert rep.rank is None and rep.agree
    with pytest.raises(ValueError):
        dim_report(2, 4, 2)
    with pytest.raises(GuardExceeded):
        dim_report(2, 2, 2, with_rank=True, rank_guard=3)


def test_dim_report_as_dict_serializes_counts_as_strings():
    d = dim_report(2, 2, 2, with_rank=True).as_dict()
    assert d["alpha"] == "6" and d["rank"] == "6" and d["agree"] is True

