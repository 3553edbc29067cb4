"""Reference helpers that more than one test file uses.

The standard representative of a projective point, the support of a word,
a word array as a set, the coordinate witness polynomial, the zero-set
bound, the bounded compositions and the canonical RREF bases as tuples:
the tests check the library against them, and nothing in the library
calls them.  Not collected: the file name has no test_ prefix.
"""

from itertools import combinations, product

from prmcodes.combinat import binomial, p_k
from prmcodes.gf import GF
from prmcodes.minwt import _check_omegas, ts_decompose
from prmcodes.poly import Poly


def normalize_point(field: GF, vec) -> tuple[int, ...]:
    """Standard representative: scale so the last nonzero coordinate is 1."""
    vec = tuple(vec)
    last = max((i for i, x in enumerate(vec) if x), default=None)
    if last is None:
        raise ValueError("the zero vector is not a projective point")
    inv = field.inv(vec[last])
    return tuple(field.mul(inv, x) for x in vec)


def support(c) -> set[int]:
    return {i for i, x in enumerate(c) if x}


def word_set(words) -> set[tuple[int, ...]]:
    """The rows of a word array as a set of tuples, which must lose none:
    a repeated row fails."""
    out = set(map(tuple, words.tolist()))
    assert len(out) == len(words), "a word is repeated"
    return out


def canonical_min_poly(field: GF, d: int, m: int, omegas=()) -> Poly:
    """The coordinate witness
    X_t * prod_{i<t} (X_i^(q-1) - X_t^(q-1)) * prod_j (X_{t+1} - w_j X_t);
    its evaluation has weight exactly prm_min_distance(q, d, m)."""
    q = field.q
    ts = ts_decompose(d, q, "prm", m)
    omegas = _check_omegas(field, omegas, ts.s)
    nv = m + 1
    unit = lambda i: tuple(1 if j == i else 0 for j in range(nv))
    xt = Poly.monomial(field, unit(ts.t))
    out = xt
    xt_q1 = xt ** (q - 1)
    for i in range(ts.t):
        out = out * (Poly.monomial(field, unit(i)) ** (q - 1) - xt_q1)
    for w in omegas:
        coeffs = [0] * nv
        coeffs[ts.t + 1] = 1
        coeffs[ts.t] = field.neg(w)
        out = out * Poly.linear(field, coeffs)
    return out


def max_zero_bound(q: int, d: int, m: int) -> int:
    """Largest possible projective zero set of a nonzero projectively
    reduced polynomial of degree d: p_m - ceil((q-s) q^(m-t-1)) with
    d - 1 = t(q-1) + s.  Valid for every d >= 1, also beyond the order
    range of the code, where the ceiling term is 1; so it splits d - 1
    itself rather than through ts_decompose."""
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    t, s = divmod(d - 1, q - 1)
    num = (q - s) * q ** max(0, m - t - 1)
    den = q ** max(0, t + 1 - m)
    return p_k(q, m) - (num + den - 1) // den


def bounded_compositions(a: int, n: int, b: int) -> int:
    """Number of ways to place a objects into n ordered blocks with at most
    b objects per block, by inclusion-exclusion over overfull blocks."""
    return sum(
        (-1) ** j
        * binomial(n, j)
        * binomial(a - j * (b + 1) + n - 1, a - j * (b + 1))
        for j in range(n + 1)
    )


def rref_bases(field: GF, ambient: int, k: int):
    """Canonical RREF bases of every k-dimensional subspace of q^ambient."""
    q = field.q
    if k == 0:
        yield ()
        return
    for pivots in combinations(range(ambient), k):
        free = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, ambient)
            if c not in pivots
        ]
        for fill in product(range(q), repeat=len(free)):
            rows = [[0] * ambient for _ in range(k)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free, fill):
                rows[r][c] = v
            yield tuple(tuple(r) for r in rows)
