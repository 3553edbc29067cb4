"""Reference helpers that more than one test file uses.

The standard representative of a projective point, the support of a word,
a word array as a set, the coordinate witness polynomial, the zero-set
bound, the bounded compositions, the canonical RREF bases as tuples, the
form-value table, the class walk over the form table of all of P^m, the
full Krawtchouk table and the oracle's bit planes packed one row at a
time: the tests check the library against them, and nothing in the
library calls them.  Not collected: the file name has no
test_ prefix.
"""

from itertools import combinations, product
from math import comb

import numpy as np

from prmcodes.codes import digits, projective_points
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


def form_values(field: GF, m: int, pts) -> np.ndarray:
    """The (q^(m+1), npts) symbol values of every form over the point array,
    forms in `product` order, added up one coordinate at a time."""
    q = field.q
    points = np.array(pts, dtype=np.int64).reshape(len(pts), m + 1)
    scalars = np.arange(q)[:, None]
    vals = np.zeros((1, len(pts)), dtype=np.int64)
    for j in reversed(range(m + 1)):
        terms = field.vmul(scalars, points[:, j])
        vals = field.vadd(terms[:, None, :], vals[None, :, :]).reshape(-1, len(pts))
    return vals


def subspace_walk(field: GF, m: int, t: int):
    """(vals, coeffs, walk): the form-value table over all of P^m, as
    symbols, the digit table of the forms, and for each canonical RREF basis W, in order, the mask of the
    points of E = V(W) and the mask of the nonzero forms that vanish on
    W's pivot columns, one per nonzero coset modulo W.  A basis is t table
    rows: the pivot rows plus every digit fill of the free cells."""
    q = field.q
    vals = form_values(field, m, projective_points(field, m))
    coeffs = digits(q, m + 1)
    nonzero = coeffs.any(axis=1)

    def walk():
        for pivots in combinations(range(m + 1), t):
            free = [(r, c) for r in range(t) for c in range(pivots[r] + 1, m + 1)
                    if c not in pivots]
            place = np.zeros((len(free), t), dtype=np.int64)
            for i, (r, c) in enumerate(free):
                place[i, r] = q ** (m - c)
            rows = q ** (m - np.array(pivots, dtype=np.int64)) + digits(q, len(free)) @ place
            comp = nonzero & ~coeffs[:, list(pivots)].any(axis=1)
            for zeros in ~vals[rows].any(axis=1):
                yield zeros, comp

    return vals, coeffs, walk()


def class_blocks(field: GF, d: int, m: int):
    """The class words of prm(q, d, m) in the blocks and order of
    minwt._class_words, each E read as a mask over the form table of all
    of P^m: for s = 0 one block per W, the words L_t [V(W)]; for s != 0
    one per (W, L_t), the word v^(s+1) prod_{w in S} (r - w) at every
    point of E with L_t = v and L_{t+1} = r v."""
    q = field.q
    t, s = divmod(d - 1, q - 1)
    vals, coeffs, walk = subspace_walk(field, m, t)
    leading = np.array([next((x for x in c if x), 0) == 1 for c in coeffs.tolist()])
    if not s:
        for zeros, comp in walk:
            yield vals[comp & leading] * zeros
        return
    elements = np.arange(q)
    lead = np.array([field.pow(v, s + 1) for v in range(q)])
    symbols = np.empty((binomial(q, s), q, q), dtype=vals.dtype)
    for k, sset in enumerate(combinations(range(q), s)):
        prod = np.ones(q, dtype=np.int64)
        for w in sset:
            prod = field.vmul(prod, field.vadd(elements, field.neg(w)))
        symbols[k] = field.vmul(lead[:, None], prod)
    inv = np.array([0] + [field.inv(a) for a in range(1, q)])
    npts = vals.shape[1]
    for zeros, comp in walk:
        epts = np.flatnonzero(zeros)
        on_e = vals[:, epts]
        for lt in np.flatnonzero(comp & leading):
            cosets = comp & (coeffs[:, np.flatnonzero(coeffs[lt])[0]] == 0)
            ratios = field.vmul(on_e[cosets], inv[on_e[lt]])
            block = np.zeros((len(symbols), len(ratios), npts), dtype=vals.dtype)
            block[..., epts] = symbols[:, on_e[lt], ratios]
            yield block.reshape(-1, npts)


def krawtchouk_table(n: int, q: int) -> list[list[int]]:
    """table[j][i] = K_i(j), the coefficient of z^i in
    (1 + (q-1) z)^(n-j) (1 - z)^j: column 0 is C(n, i) (q-1)^i, and each
    next column follows from (1 + (q-1) z) P_(j+1) = (1 - z) P_j."""
    col = [comb(n, i) * (q - 1) ** i for i in range(n + 1)]
    table = [col]
    for _ in range(n):
        nxt = [1]
        for i in range(1, n + 1):
            nxt.append(col[i] - col[i - 1] - (q - 1) * nxt[i - 1])
        col = nxt
        table.append(col)
    return table


def pack_by_row(vals: np.ndarray, bits: int) -> np.ndarray:
    """The (bits, W, ...) bit planes of oracle._pack, each row packed on its
    own by np.packbits along the last axis into a zeroed buffer of whole
    words."""
    n = vals.shape[-1]
    word = next((w for w in (1, 2, 4) if 8 * w >= n), 8)      # bytes a word
    out = np.zeros((bits, *vals.shape[:-1], -(-n // (8 * word)) * word), dtype=np.uint8)
    for b in range(bits):
        out[b, ..., : -(-n // 8)] = np.packbits((vals >> b) & 1, axis=-1)
    return np.ascontiguousarray(np.moveaxis(out.view(f"u{word}"), -1, 1))
