import numpy as np
import pytest
from hypothesis import given, strategies as st

from prmcodes import linalg
from prmcodes.gf import _TABLE_MAX, GF, is_prime

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


# -- the array ops -----------------------------------------------------------------

# GF(257) is the first field whose flat tables are indexed in intp
ARRAY_FIELDS = SMALL_FIELDS + [GF(11), GF(13), GF(2, 4), GF(5, 2), GF(257)]


@pytest.mark.parametrize("F", ARRAY_FIELDS, ids=repr)
def test_array_ops_equal_scalar_ops_on_every_pair(F):
    a = np.arange(F.q)[:, None]
    b = np.arange(F.q)[None, :]
    pairs = [(x, y) for x in range(F.q) for y in range(F.q)]
    assert F.vadd(a, b).ravel().tolist() == [F.add(x, y) for x, y in pairs]
    assert F.vmul(a, b).ravel().tolist() == [F.mul(x, y) for x, y in pairs]
    assert F.vmul(F.p - 1, b).ravel().tolist() == [F.neg(y) for y in range(F.q)]
    assert F.vadd(a, b).dtype == F.vmul(a, b).dtype == F.symbol


# every prime power q <= 256: the fields whose symbols fit in uint8, among
# them the prime fields past 16, where the flat index is uint16
UINT8_QS = sorted({p ** e for p in range(2, 257) if is_prime(p) for e in range(1, 9) if p ** e <= 256})


@pytest.mark.parametrize("q", UINT8_QS)
def test_uint8_array_ops_equal_int64_ops(q):
    # uint8 and int64 operands take the same flat tables (XOR for vadd when
    # p = 2) and give the same uint8 symbols, equal to the scalar ops on
    # every pair, broadcast, against an int and on empty arrays
    F = GF.from_q(q)
    assert F.symbol == np.uint8
    a, b = np.arange(q)[:, None], np.arange(q)[None, :]
    for op, scalar in ((F.vadd, F.add), (F.vmul, F.mul)):
        want = np.array([[scalar(x, y) for y in range(q)] for x in range(q)])
        for x, y in ((a, b), (a.astype(np.uint8), b.astype(np.uint8))):
            for got, ref in [(op(x, y), want),
                             (op(x[:, :, None], y.reshape(1, 1, q)), want.reshape(q, 1, q)),
                             (op(F.p - 1, y), want[F.p - 1:F.p]),
                             (op(x[:0], y), want[:0]),
                             (op(np.zeros((0, 1), dtype=x.dtype), y), want[:0])]:
                assert got.dtype == np.uint8, (q, op, x.dtype)
                assert got.shape == ref.shape and got.tolist() == ref.tolist(), (q, op, x.dtype)


def test_tables_are_read_only():
    # the flat tables of a field with uint8 symbols and of one with uint16
    for F in (GF(3, 2), GF(257)):
        F.mul(1, 1)
        for table in (F._add_flat, F._mul_flat):
            assert table.dtype == F.symbol
            with pytest.raises(ValueError):
                table[1] = 0


# fields above the table limit: the array ops take the scalar routines
# elementwise, the one path they have there
BIG_FIELDS = [GF(1031), GF(2, 11), GF(3, 7)]


@pytest.mark.parametrize("F", BIG_FIELDS, ids=repr)
def test_array_ops_without_tables(F):
    assert F.q > _TABLE_MAX
    rng = np.random.default_rng(F.q)
    a = rng.integers(0, F.q, size=(4, 5))
    b = rng.integers(0, F.q, size=(4, 5))
    flat = list(zip(a.ravel().tolist(), b.ravel().tolist()))
    assert F.vadd(a, b).ravel().tolist() == [F.add(x, y) for x, y in flat]
    assert F.vmul(a, b).ravel().tolist() == [F.mul(x, y) for x, y in flat]
    assert F.vmul(F.p - 1, a).ravel().tolist() == [F.neg(x) for x, _ in flat]
    # broadcasting a row against a column, as the oracle and rank do
    col, row = a[:, :1], b[0]
    assert F.vmul(col, row).tolist() == [
        [F.mul(x, y) for y in row.tolist()] for x in col.ravel().tolist()
    ]
    assert F.vadd(a, b).dtype == F.vmul(a, b).dtype == F.symbol
    assert F.add(F.neg(7), 7) == 0


@pytest.mark.parametrize("F", BIG_FIELDS, ids=repr)
def test_rank_without_tables(F):
    rng = np.random.default_rng(F.q + 1)
    full = rng.integers(0, F.q, size=(3, 6)).tolist()
    dependent = full + [[F.add(x, F.mul(5, y)) for x, y in zip(*full[:2])]]
    zero_col = [[0] + r[1:] for r in dependent]
    for rows in (full, dependent, zero_col, [[0] * 4, [0] * 4]):
        assert linalg.rank(F, rows) == len(linalg.rref(F, rows)[1])


def python_rref(field, rows):
    """The list-based Gaussian elimination that linalg.rref replaced, kept
    as its reference."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 257, 1031])
def test_rref_equals_python_elimination(q):
    # random shapes, sparse and dense, with dependent rows and zero columns
    F = GF.from_q(q)
    rng = np.random.default_rng(q)
    cases = [[], [[]], [[0, 0, 0]]]
    for _ in range(30):
        nrows, ncols = rng.integers(1, 9, size=2)
        mat = rng.integers(0, q, size=(nrows, ncols))
        mat[rng.random(mat.shape) < rng.random()] = 0
        if nrows > 2:
            mat[-1] = F.vadd(mat[0], F.vmul(int(rng.integers(q)), mat[1]))
        cases.append(mat.tolist())
    # up to 40 columns, the leading ones zero, so the first pivots sit
    # right of column 0 and every row operation starts past them
    for _ in range(15):
        nrows, ncols = int(rng.integers(1, 21)), int(rng.integers(2, 41))
        mat = rng.integers(0, q, size=(nrows, ncols))
        mat[:, : rng.integers(1, ncols)] = 0
        mat[:, rng.integers(ncols)] = 0
        if nrows > 2:
            mat[-1] = F.vadd(mat[0], F.vmul(int(rng.integers(q)), mat[1]))
        cases.append(mat.tolist())
    for rows in cases:
        red, pivots = linalg.rref(F, rows)
        assert red.dtype == F.symbol
        assert (red.tolist(), pivots) == python_rref(F, rows), rows
        assert linalg.rank(F, rows) == len(pivots)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 257])
@pytest.mark.parametrize("shape", [(0, 5), (3, 0)])
def test_rref_and_rank_keep_empty_shapes(q, shape):
    # a matrix with no rows keeps its columns, one with no columns its rows
    F = GF.from_q(q)
    red, pivots = linalg.rref(F, np.zeros(shape, dtype=F.symbol))
    assert red.shape == shape and red.dtype == F.symbol and pivots == []
    assert linalg.rank(F, np.zeros(shape, dtype=F.symbol)) == 0
    assert linalg.rref(F, [])[0].shape == (0, 0)


def _scalar_product(F, a, b):
    r, c = len(a), b.shape[1]
    want = [[0] * c for _ in range(r)]
    for i in range(r):
        for j in range(c):
            for x, y in zip(a[i].tolist(), b[:, j].tolist()):
                want[i][j] = F.add(want[i][j], F.mul(x, y))
    return want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 257, 1031])
def test_mat_mul_equals_scalar_sums(q):
    # the integer product mod p of a prime field and the table gathers of
    # an extension field (XOR for p = 2, base-p digits for odd p) against
    # sums of scalar products, empty inner and outer dimensions included;
    # a has fewer rows than q on the small shapes, at least q on the last
    # (and on the one before for q <= 9), so both ways of forming the
    # products run
    F = GF.from_q(q)
    rng = np.random.default_rng(q)
    for r, n, c in [(0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1), (5, 7, 4), (9, 40, 30),
                    (20, 12, 6)]:
        a = rng.integers(0, q, size=(r, n))
        b = rng.integers(0, q, size=(n, c))
        got = linalg.mat_mul(F, a, b)
        assert got.dtype == F.symbol and got.shape == (r, c)
        assert got.tolist() == _scalar_product(F, a, b), (q, r, n, c)


def test_mat_mul_reduces_digit_sums_before_they_overflow():
    # over GF(251^2) a uint16 digit holds 262 sums of 250: an inner
    # dimension of 600 needs two reductions on the way, and the products
    # 250 * 1 of the first row and column are each the largest digit
    F = GF(251, 2)
    rng = np.random.default_rng(0)
    a = np.full((2, 600), 250)
    a[1] = rng.integers(0, F.q, size=600)
    b = np.ones((600, 2), dtype=np.int64)
    b[:, 1] = rng.integers(0, F.q, size=600)
    assert linalg.mat_mul(F, a, b).tolist() == _scalar_product(F, a, b)
