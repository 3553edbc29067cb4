import pytest
from hypothesis import given, strategies as st

from prmcodes.gf import GF, is_prime

SMALL_FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]


def test_deterministic_modulus_gf4():
    # the only monic irreducible quadratic over GF(2)
    assert GF(2, 2).modulus == (1, 1, 1)


def test_modulus_is_lex_least_and_rootless():
    for F in (GF(2, 2), GF(2, 3), GF(3, 2), GF(2, 4), GF(5, 2)):
        assert len(F.modulus) == F.e + 1
        assert F.modulus[-1] == 1
        # no linear factor: f(a) != 0 for all a in the prime field
        for a in range(F.p):
            val = sum(c * a ** i for i, c in enumerate(F.modulus)) % F.p
            assert val != 0, (F, a)


def test_prime_field_modulus_is_x():
    assert GF(2).modulus == (0, 1)
    assert GF(13).modulus == (0, 1)


def test_construction_errors():
    with pytest.raises(ValueError, match="not prime"):
        GF(4)
    with pytest.raises(ValueError, match="not prime"):
        GF(1)
    with pytest.raises(ValueError):
        GF(2, 0)
    with pytest.raises(ValueError, match="guard"):
        GF(2, 17)


def test_from_q():
    assert (GF.from_q(8).p, GF.from_q(8).e) == (2, 3)
    assert (GF.from_q(9).p, GF.from_q(9).e) == (3, 2)
    assert (GF.from_q(7).p, GF.from_q(7).e) == (7, 1)
    with pytest.raises(ValueError):
        GF.from_q(6)
    with pytest.raises(ValueError):
        GF.from_q(12)


def test_elements_ordering():
    assert GF(2).elements() == [0, 1]
    assert GF(3).elements() == [0, 1, 2]
    assert GF(2, 2).elements() == [0, 1, 2, 3]


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_field_axioms_exhaustive(F):
    els = F.elements()
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    if F.q <= 9:
        for a in els:
            for b in els:
                for c in els:
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize(
    "F", SMALL_FIELDS + [GF(11), GF(13), GF(2, 4)], ids=repr
)
def test_frobenius_fixed_points(F):
    # x^q = x for every element
    for a in F.elements():
        assert F.pow(a, F.q) == a


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_multiplicative_order_divides(F):
    for a in F.elements():
        if a:
            assert F.pow(a, F.q - 1) == 1


def test_encoding_roundtrip():
    for F in SMALL_FIELDS:
        for a in F.elements():
            assert F.encode(F.digits(a)) == a


def test_gf4_multiplication_table_entry():
    # x * x = x + 1 under x^2 + x + 1, i.e. encodings 2 * 2 = 3
    assert GF(2, 2).mul(2, 2) == 3


def test_gf3_add():
    assert GF(3).add(2, 2) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF(3).inv(0)
    with pytest.raises(ZeroDivisionError):
        GF(2, 2).pow(0, -1)


def test_out_of_range_elements_rejected():
    F = GF(3)
    with pytest.raises(ValueError):
        F.add(3, 0)
    with pytest.raises(ValueError):
        F.mul(0, -1)


def test_pow_conventions():
    F = GF(2, 2)
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    for a in (1, 2, 3):
        assert F.pow(a, -1) == F.inv(a)


@given(
    a=st.integers(min_value=1, max_value=8),
    i=st.integers(min_value=-20, max_value=20),
    j=st.integers(min_value=-20, max_value=20),
)
def test_pow_is_a_homomorphism(a, i, j):
    F = GF(3, 2)
    assert F.mul(F.pow(a, i), F.pow(a, j)) == F.pow(a, i + j)


def test_field_equality_by_spec():
    assert GF(3) == GF(3)
    assert GF(2, 2) != GF(2)
    assert hash(GF(2, 2)) == hash(GF(2, 2))


def test_as_dict():
    assert GF(2, 2).as_dict() == {"p": 2, "e": 2, "modulus": [1, 1, 1]}


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
