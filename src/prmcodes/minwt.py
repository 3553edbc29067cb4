"""Minimum distance, minimum-weight codewords, and their exact counts.

For the projective family of order d write d - 1 = t(q - 1) + s with t >= 0
and 0 <= s < q - 1 (for the affine family decompose nu itself).  The pair
(t, s) controls everything: the minimum distance is (q - s) q^(m - t - 1),
a minimum-weight codeword is the evaluation of a product of linear forms

    Q = L_t * prod_{i<t} (L_t^(q-1) - L_i^(q-1)) * prod_j (L_{t+1} - w_j L_t)

over linearly independent forms L_0..L_{t+1} and distinct scalars w_j (only
L_0..L_t are needed when s = 0), and the number of such codewords has a
closed form in Gaussian binomials.  This module implements the formulas,
constructs and validates witnesses, enumerates the full witness codeword
set at desk scale, and runs the two incidence-counting consistency checks
that the s = 0 and s != 0 counting arguments rest on.

The witness enumeration and both incidence checks share one class walk
and one class count (`_class_words`).  Every minimum-weight word is a
class word L_t [V(W)] prod_{w in S} (L_{t+1} - w L_t), and both counting
arguments count the supports of those same words: the fibers for s != 0
and the flags (E, H) for s = 0.  The walk takes one word per class (W, L_t
up to a scalar, L_{t+1} modulo <W, L_t>, S), since the translate
(L_t, L_{t+1} + a L_t, S + a) gives the same word, and yields them in
blocks of rows.  The number of classes is the guard of all three, checked
before any table is built and refused as `<check> guard: N classes >
limit`.  The witness set is the class words and their scalar multiples,
deduplicated by `codes.distinct_words`, and the fiber and tau checks
count the packed supports of the class words, sorted in place.

The class walk is two walks.  `_flats` walks the canonical RREF bases W
of the t-dimensional spans of forms, one pivot set at a time, and gives
the points of each flat E = V(W), a copy of P^(m-t): the point x of E is
fixed by its free coordinates, a point of P^(m-t).  A form modulo W is a
form in those coordinates, so the class words on E are the t = 0 class
words of P^(m-t) (`_flat_words`), read from one form-value table over
P^(m-t), whose row i holds the form with the base-q digits of i as
coefficients (`product` order).  They are made once and placed on each E.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg, oracle
from .codes import digits, distinct_words, prm_generator_matrix, projective_points
from .combinat import TSDecomp, binomial, gaussian_binomial, p_k, ts_decompose
from .errors import ORACLE_GUARD, WITNESS_GUARD, GuardExceeded
from .gf import GF
from .poly import Poly


def _distance(q: int, ts: TSDecomp, m: int) -> int:
    """(q - s) q^(m - t - 1) in exact integer arithmetic; the division is
    exact throughout each family's valid order range, where t = m forces
    s = 0 and the value is 1."""
    num = (q - ts.s) * q ** max(0, m - ts.t - 1)
    den = q ** max(0, ts.t + 1 - m)
    assert num % den == 0
    return num // den


def rm_min_distance(q: int, nu: int, m: int) -> int:
    return _distance(q, ts_decompose(nu, q, "rm", m), m)


def prm_min_distance(q: int, d: int, m: int) -> int:
    return _distance(q, ts_decompose(d, q, "prm", m), m)


# -- witnesses ------------------------------------------------------------------


@dataclass(frozen=True)
class MinWtWitness:
    """Parameters of a minimum-weight codeword.

    kind "prm": forms are homogeneous coefficient tuples of length m + 1.
    kind "rm": forms are affine tuples (c_0 .. c_{m-1}, c_m) meaning
    c_0*X0 + ... + c_{m-1}*X_{m-1} + c_m, and omega0 is the leading nonzero
    scalar.  omegas holds the s distinct scalars of the last product.
    """

    kind: str
    forms: tuple[tuple[int, ...], ...]
    omegas: tuple[int, ...] = ()
    omega0: int = 1


def _check_omegas(field: GF, omegas, s: int) -> tuple[int, ...]:
    omegas = tuple(omegas)
    for w in omegas:
        field._chk(w)
    if len(omegas) != s:
        raise ValueError(f"need exactly {s} omega values, got {len(omegas)}")
    if len(set(omegas)) != len(omegas):
        raise ValueError("omega values must be distinct")
    return omegas


def prm_witness_poly(w: MinWtWitness, field: GF, d: int, m: int) -> Poly:
    """Expand a projective witness into its degree-d polynomial."""
    q = field.q
    if w.kind != "prm":
        raise ValueError(f"expected a prm witness, got kind {w.kind!r}")
    ts = ts_decompose(d, q, "prm", m)
    need = ts.t + 1 if ts.s == 0 else ts.t + 2
    if len(w.forms) != need:
        raise ValueError(f"need {need} linear forms for d={d}, got {len(w.forms)}")
    if any(len(f) != m + 1 for f in w.forms):
        raise ValueError(f"forms must have {m + 1} coefficients")
    if not linalg.is_independent(field, w.forms):
        raise ValueError("linear forms must be linearly independent")
    omegas = _check_omegas(field, w.omegas, ts.s)
    lt = Poly.linear(field, w.forms[ts.t])
    out = lt
    lt_q1 = lt ** (q - 1)
    for i in range(ts.t):
        out = out * (lt_q1 - Poly.linear(field, w.forms[i]) ** (q - 1))
    if ts.s:
        lt1 = Poly.linear(field, w.forms[ts.t + 1])
        for om in omegas:
            out = out * (lt1 - lt.scale(om))
    return out


def rm_witness_poly(w: MinWtWitness, field: GF, nu: int, m: int) -> Poly:
    """Expand an affine witness
    omega0 * prod_{i<=t} (1 - l_i^(q-1)) * prod_j (l_{t+1} - w_j)
    into a polynomial in m variables.

    Validity requires the degree-1 parts of the l_i to be independent (the
    constants are free); independence of the affine tuples alone admits
    inconsistent systems whose product evaluates to zero everywhere.
    """
    q = field.q
    if w.kind != "rm":
        raise ValueError(f"expected an rm witness, got kind {w.kind!r}")
    ts = ts_decompose(nu, q, "rm", m)
    field._chk(w.omega0)
    if w.omega0 == 0:
        raise ValueError("leading scalar must be nonzero")
    need = ts.t if ts.s == 0 else ts.t + 1
    if len(w.forms) != need:
        raise ValueError(f"need {need} affine forms for nu={nu}, got {len(w.forms)}")
    if any(len(f) != m + 1 for f in w.forms):
        raise ValueError(f"affine forms must have {m + 1} coefficients")
    if any(not any(f[:m]) for f in w.forms):
        raise ValueError("affine forms must have degree exactly 1")
    if not linalg.is_independent(field, [f[:m] for f in w.forms]):
        raise ValueError("degree-1 parts must be linearly independent")
    omegas = _check_omegas(field, w.omegas, ts.s)
    out = Poly.constant(field, m, w.omega0)
    one = Poly.constant(field, m, 1)
    for i in range(ts.t):
        out = out * (one - Poly.affine(field, w.forms[i]) ** (q - 1))
    if ts.s:
        last = Poly.affine(field, w.forms[ts.t])
        for om in omegas:
            out = out * (last - Poly.constant(field, m, om))
    return out


# -- counts ---------------------------------------------------------------------


def rm_min_weight_count(q: int, nu: int, m: int) -> int:
    """(q-1) q^t [m,t]_q M_s with M_s = C(q,s)[m-t,1]_q for s > 0, else 1."""
    ts = ts_decompose(nu, q, "rm", m)
    ms = 1
    if ts.s:
        ms = binomial(q, ts.s) * gaussian_binomial(m - ts.t, 1, q)
    return (q - 1) * q ** ts.t * gaussian_binomial(m, ts.t, q) * ms


def prm_min_weight_count(q: int, d: int, m: int) -> int:
    """(q^(m+1) - 1) [m,t]_q N_s with N_s = C(q,s)[m-t,1]_q / (s+1) for
    s > 0, else 1.  The division is exact."""
    ts = ts_decompose(d, q, "prm", m)
    out = (q ** (m + 1) - 1) * gaussian_binomial(m, ts.t, q)
    if ts.s:
        out *= binomial(q, ts.s) * gaussian_binomial(m - ts.t, 1, q)
        assert out % (ts.s + 1) == 0
        out //= ts.s + 1
    return out


def prm_min_weight_count_alt(q: int, d: int, m: int) -> int:
    """Manifestly integral rewriting of prm_min_weight_count for s != 0:
    (q^(m+1)-1)(q^m-1)/((q+1)(q-1)) * [m-1,t]_q * C(q+1, s+1).
    Falls back to the main formula when s = 0."""
    ts = ts_decompose(d, q, "prm", m)
    if ts.s == 0:
        return prm_min_weight_count(q, d, m)
    num = (
        (q ** (m + 1) - 1)
        * (q ** m - 1)
        * gaussian_binomial(m - 1, ts.t, q)
        * binomial(q + 1, ts.s + 1)
    )
    den = (q + 1) * (q - 1)
    assert num % den == 0
    return num // den


@dataclass(frozen=True)
class CountReport:
    q: int
    d: int
    m: int
    formula_count: int
    alt_count: int
    brute_count: int | None = None

    @property
    def agree(self) -> bool:
        ok = self.formula_count == self.alt_count
        if self.brute_count is not None:
            ok = ok and self.brute_count == self.formula_count
        return ok

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "m": self.m,
            "formula_count": str(self.formula_count),
            "alt_count": str(self.alt_count),
            "brute_count": None if self.brute_count is None else str(self.brute_count),
            "agree": self.agree,
        }


def count_report(
    field: GF, d: int, m: int, with_oracle: bool = False, guard: int = ORACLE_GUARD
) -> CountReport:
    q = field.q
    brute = None
    if with_oracle:
        brute = oracle.min_weight(prm_generator_matrix(field, d, m), guard).count
    return CountReport(
        q, d, m, prm_min_weight_count(q, d, m), prm_min_weight_count_alt(q, d, m), brute
    )


# -- the class walk ---------------------------------------------------------------


def _form_values(field: GF, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The (len(coeffs), npts) values over the point array, one point a
    row, of the forms whose coefficients are the rows of coeffs, in the
    smallest unsigned dtype that holds a symbol."""
    return linalg.mat_mul(field, coeffs, pts.T).astype(np.min_scalar_type(field.q - 1))


def _flats(field: GF, m: int, t: int):
    """The flats E = V(W) of P^m, one per canonical RREF basis W of a
    t-dimensional span of forms, in order: a pivot set at a time, then the
    digit fills of its rows' free cells in `product` order.  A flat is the
    P^m indices of its points, the i-th the x with x_F = y_i and
    x_P = -W_F y_i, for y_i the i-th point of P^(m-t) and F the columns
    that are not pivots; x is standard when y_i is, since x_p reads only
    the free coordinates after p.  An index is where the base-q code of x
    falls in the ascending codes of P^m."""
    q = field.q
    ys = projective_points(field, m - t)
    place = q ** np.arange(m, -1, -1)
    codes = projective_points(field, m) @ place
    neg = np.array([field.neg(a) for a in range(q)])
    for pivots in combinations(range(m + 1), t):
        free = [c for c in range(m + 1) if c not in pivots]
        cells = [(r, j) for r in range(t) for j, c in enumerate(free) if c > pivots[r]]
        fills = digits(q, len(cells))
        wf = np.zeros((len(fills), t, len(free)), dtype=np.int64)     # -W_F of every fill
        wf[:, [r for r, _ in cells], [j for _, j in cells]] = neg[fills]
        xp = linalg.mat_mul(field, wf.reshape(-1, len(free)), ys.T).reshape(len(fills), t, len(ys))
        yield from np.searchsorted(codes, ys @ place[free] + place[list(pivots)] @ xp)


def _leading_one(q: int, m: int) -> np.ndarray:
    """Mask of the forms whose first nonzero coefficient is 1: one form of
    each scalar orbit.  They are the table rows q^j .. 2q^j - 1."""
    mask = np.zeros(q ** (m + 1), dtype=bool)
    for j in range(m + 1):
        mask[q ** j : 2 * q ** j] = True
    return mask


def _class_words(field: GF, d: int, m: int, guard: int, name: str):
    """The one walk of the witness set and both incidence checks: one
    word of prm(q, d, m) per class, in blocks of rows over the points.

    On points L_t (L_t^(q-1) - L_i^(q-1)) = L_t [L_i = 0], so a witness
    word is L_t [V(W)] prod_{w in S} (L_{t+1} - w L_t) with W the span of
    L_0..L_{t-1}.  It depends only on W, on L_t and L_{t+1} modulo W, and
    on the scalar set S, and the translate (L_t, L_{t+1} + a L_t, S + a)
    gives the same word.  A class is one W (a canonical RREF basis), one
    L_t up to a scalar, and for s != 0 one L_{t+1} modulo <W, L_t> and one
    S.  Modulo W a form is a form in W's free coordinates, the coordinates
    of E = V(W) as a copy of P^(m-t): L_t is one with first nonzero
    coefficient 1, L_{t+1} one per nonzero coset of <L_t> (the one that
    vanishes at L_t's leading 1).  So the walk visits _class_count classes,
    and that one count is the guard `name`, checked when the walk is made,
    before any table is built.

    The words on each E are the t = 0 words of P^(m-t), made once.  For
    s = 0 it yields one block per W, the words L_t [V(W)].  For s != 0 it
    yields one block per (W, L_t): the words of every L_{t+1} and S,
    read from one symbol table.  Where L_t = v and L_{t+1} = r v the word
    is v^(s+1) prod_{w in S} (r - w) = symbols[S, v, r], which is 0 at
    v = 0; for v != 0 it is nonzero exactly when r is not in S, so a
    word's support is the support the fiber check counts."""
    classes = _class_count(field.q, d, m)
    if classes > guard:
        raise GuardExceeded(name, f"{classes} classes", guard)
    return _class_blocks(field, d, m)


def _class_count(q: int, d: int, m: int) -> int:
    """[m+1, t]_q (c - 1)/(q - 1) (q^(m-t) - 1 if s else 1) C(q, s), with
    c = q^(m+1-t): the classes of _class_words, one word each."""
    ts = ts_decompose(d, q, "prm", m)
    t, s = ts.t, ts.s
    c = q ** (m + 1 - t)
    classes = gaussian_binomial(m + 1, t, q) * (c - 1) // (q - 1)
    return classes * (q ** (m - t) - 1 if s else 1) * binomial(q, s)


def _class_blocks(field: GF, d: int, m: int):
    """The blocks of rows of _class_words, past its guard: the words of
    P^(m-t) placed on each flat, the zero vector's column off the flat."""
    q = field.q
    ts = ts_decompose(d, q, "prm", m)
    t, s = ts.t, ts.s
    # made once for every flat; at t = 0 the one flat is P^m, and they stream
    words = list(_flat_words(field, m - t, s)) if t else None
    npts = p_k(q, m - t)
    for on_e in _flats(field, m, t):
        pos = np.full(p_k(q, m), npts)
        pos[on_e] = np.arange(npts)
        for block in words if t else _flat_words(field, m, s):
            yield block.take(pos, axis=1)


def _flat_words(field: GF, k: int, s: int):
    """The t = 0 class words of order s + 1 on P^k, over its points and the
    zero vector, where every word is 0: one block of the words L_t for
    s = 0, else one block per L_t, of its L_{t+1} and S."""
    q = field.q
    coeffs = digits(q, k + 1)
    pts = np.vstack([projective_points(field, k), np.zeros((1, k + 1), dtype=np.int64)])
    vals = _form_values(field, coeffs, pts)
    leading = np.flatnonzero(_leading_one(q, k))
    if not s:
        yield vals[leading]
        return
    lead = np.array([field.pow(v, s + 1) for v in range(q)])
    symbols = np.empty((binomial(q, s), q, q), dtype=vals.dtype)
    for j, sset in enumerate(combinations(range(q), s)):
        prod = np.ones(q, dtype=np.int64)
        for w in sset:
            prod = field.vmul(prod, field.vadd(np.arange(q), field.neg(w)))
        symbols[j] = field.vmul(lead[:, None], prod)
    inv = np.array([0] + [field.inv(a) for a in range(1, q)])      # 1/0 read as 0
    nonzero = coeffs.any(axis=1)
    for lt in leading:
        cosets = nonzero & (coeffs[:, np.flatnonzero(coeffs[lt])[0]] == 0)
        ratios = field.vmul(vals[cosets], inv[vals[lt]])
        yield symbols[:, vals[lt], ratios].reshape(-1, len(pts))


# -- witness enumeration ----------------------------------------------------------


def enumerate_witness_codewords(
    field: GF, d: int, m: int, guard: int = WITNESS_GUARD
) -> np.ndarray:
    """The distinct witness codewords as one (N, n) array in the order of
    codes.distinct_words: the class words of _class_words and their
    scalar multiples.

    This is every witness word.  The walk fixes L_t up to a scalar, and
    (a L_t, L_{t+1}, S) gives a * word(L_t, L_{t+1}, a S), since
    a L_t prod_{w in S} (L_{t+1} - w a L_t) = a L_t prod_{w' in aS}
    (L_{t+1} - w' L_t); as S runs over the s-subsets so does aS.  So the
    words of every L_t are the class words times the q - 1 scalars.  By
    the characterization this set must equal the set of minimum-weight
    codewords of the projective code."""
    q = field.q
    dtype = np.min_scalar_type(q - 1)
    # the walk reaches a word from several forms of its pencil
    # <L_t, L_{t+1}>, so the class words are deduplicated before scaling
    words = distinct_words(np.concatenate(
        [np.zeros((0, p_k(q, m)), dtype), *_class_words(field, d, m, guard, "witness")]
    ), q)
    if q > 2:
        elements = np.arange(q)
        scaled = field.vmul(elements[1:, None], elements).astype(dtype)
        words = distinct_words(scaled.take(words, axis=1).reshape(-1, words.shape[1]), q)
    return words


# -- incidence checks -------------------------------------------------------------


# packed rows popcounted at once when the support sizes are read
_SLICE_ROWS = 1 << 16


def _support_counts(field: GF, d: int, m: int, guard: int, name: str):
    """(counts, sizes): how many classes of _class_words give each distinct
    support, in no fixed order, and the support size of each class word in
    walk order.  Each block's supports are packed to bit rows, 8 points a
    byte, as it is walked, into one array of a row per class.  The sizes
    are read first, a slice of rows at a time; then the packed rows, each
    one opaque block of bytes, are sorted in place and the runs of equal
    rows counted, so no copy of the array is made."""
    blocks = _class_words(field, d, m, guard, name)        # the guard first
    packed = np.empty((_class_count(field.q, d, m), (p_k(field.q, m) + 7) // 8), np.uint8)
    filled = 0
    for block in blocks:
        rows = np.packbits(block != 0, axis=1)
        if filled + len(rows) > len(packed):    # a wrong walk: its checks see every row
            packed = np.concatenate([packed, np.empty_like(rows)])
        packed[filled:filled + len(rows)] = rows
        filled += len(rows)
    packed = packed[:filled]
    sizes = np.empty(filled, dtype=np.intp)
    for start in range(0, filled, _SLICE_ROWS):
        stop = start + _SLICE_ROWS
        sizes[start:stop] = np.bitwise_count(packed[start:stop]).sum(axis=1)
    keys = packed.view(f"V{packed.shape[1]}").ravel()
    keys.sort()
    change = np.ones(len(keys) + 1, dtype=bool)   # where a run starts, and the end
    change[1:-1] = keys[1:] != keys[:-1]
    return np.diff(np.flatnonzero(change)), sizes


@dataclass(frozen=True)
class FiberReport:
    q: int
    d: int
    m: int
    t: int
    s: int
    j_size: int
    j_expected: int
    fiber_sizes: tuple[int, ...]
    fiber_expected: int
    support_count: int
    implied_count: int
    formula_count: int

    @property
    def ok(self) -> bool:
        return (
            self.j_size == self.j_expected
            and self.fiber_sizes == (self.fiber_expected,)
            and self.implied_count == self.formula_count
        )

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "m": self.m,
            "t": self.t,
            "s": self.s,
            "j_size": self.j_size,
            "j_expected": self.j_expected,
            "fiber_sizes": list(self.fiber_sizes),
            "fiber_expected": self.fiber_expected,
            "support_count": self.support_count,
            "implied_count": str(self.implied_count),
            "formula_count": str(self.formula_count),
            "ok": self.ok,
        }


def _class_size(q: int, t: int) -> int:
    """Pairs (L_t, L_{t+1}) in one class of the fiber check: q^t members of
    each coset modulo W, q - 1 common scalars and q translates by L_t."""
    return (q - 1) * q ** (2 * t + 1)


def support_fiber_check(field: GF, d: int, m: int, guard: int = WITNESS_GUARD) -> FiberReport:
    """Verification of the s != 0 counting argument over every tuple
    (E, L_t, L_{t+1}, S), one tuple per class of _class_words.

    The tuples are: E = V(W) a projective (m-t)-subspace for W a
    t-dimensional span of forms, L_t and L_{t+1} arbitrary forms, |S| = s,
    subject to E not contained in V(L_t) and E intersect V(L_t) =
    V(<W, L_t>) not contained in V(L_{t+1}), i.e. L_t not in W and
    L_{t+1} not in <W, L_t>.  The support such a tuple induces,
    {x in E : L_t(x) != 0 and L_{t+1}(x)/L_t(x) not in S}, is the support
    of its class word.  It depends only on L_t and L_{t+1} modulo W, since
    every form of W vanishes on E; scaling both forms by one nonzero c
    leaves their ratios on E alone, and the translate (L_{t+1} + a L_t,
    S + a) moves each ratio and S by a.  So each class stands for
    _class_size(q, t) tuples: a number from linear algebra, not from the
    count being checked.
    Groups tuples by the support they induce and reports: the tuple count
    against its closed-form product, the fiber sizes against
    (s+1)(q-1)^2 q^(2t+1), and (q-1) * #supports against the count formula.
    Disagreements are reported, never patched.
    """
    q = field.q
    ts = ts_decompose(d, q, "prm", m)
    t, s = ts.t, ts.s
    if s == 0:
        raise ValueError("s = 0 has no scalar set; use tau_bijection_check")
    counts, _ = _support_counts(field, d, m, guard, "fiber")
    size = _class_size(q, t)
    return FiberReport(
        q=q,
        d=d,
        m=m,
        t=t,
        s=s,
        j_size=size * int(counts.sum()),
        j_expected=gaussian_binomial(m + 1, t, q)
        * (q ** (m + 1) - q ** t)
        * (q ** (m + 1) - q ** (t + 1))
        * binomial(q, s),
        fiber_sizes=tuple(size * int(n) for n in np.unique(counts)),
        fiber_expected=(s + 1) * (q - 1) ** 2 * q ** (2 * t + 1),
        support_count=len(counts),
        implied_count=(q - 1) * len(counts),
        formula_count=prm_min_weight_count(q, d, m),
    )


@dataclass(frozen=True)
class TauReport:
    q: int
    d: int
    m: int
    t: int
    pair_count: int
    pair_expected: int
    injective: bool
    wrong_size: int | None      # the first support size that is not q^(m-t)
    implied_count: int
    formula_count: int

    @property
    def sizes_ok(self) -> bool:
        return self.wrong_size is None

    @property
    def ok(self) -> bool:
        return (
            self.pair_count == self.pair_expected
            and self.injective
            and self.sizes_ok
            and self.implied_count == self.formula_count
        )

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "m": self.m,
            "t": self.t,
            "pair_count": self.pair_count,
            "pair_expected": self.pair_expected,
            "injective": self.injective,
            "sizes_ok": self.sizes_ok,
            "wrong_size": self.wrong_size,
            "implied_count": str(self.implied_count),
            "formula_count": str(self.formula_count),
            "ok": self.ok,
        }


def tau_bijection_check(field: GF, d: int, m: int, guard: int = WITNESS_GUARD) -> TauReport:
    """Exhaustive verification of the s = 0 counting argument: flag pairs
    (E, H) with H a hyperplane of the (m-t)-subspace E map injectively to
    supports E minus H, each of q^(m-t) points, and (q-1) times the pair
    count is the codeword count.

    E runs over V(W) for the t-dimensional spans W of forms.  The
    hyperplanes of E are its intersections E cap V(L) with one form L per
    hyperplane: the L_t of a class of _class_words, whose word L_t [V(W)]
    has the support {x in E : L(x) != 0} = E minus H."""
    q = field.q
    ts = ts_decompose(d, q, "prm", m)
    t, s = ts.t, ts.s
    if s != 0:
        raise ValueError("s != 0 has no flag bijection; use support_fiber_check")
    if t < 1:
        raise ValueError("t must be at least 1 (the order-1 code is the simplex)")
    counts, sizes = _support_counts(field, d, m, guard, "tau")
    wrong = sizes[sizes != q ** (m - t)]
    k = m - t + 1
    return TauReport(
        q=q,
        d=d,
        m=m,
        t=t,
        pair_count=len(sizes),
        pair_expected=gaussian_binomial(m + 1, k, q) * gaussian_binomial(k, k - 1, q),
        injective=len(counts) == len(sizes),
        wrong_size=int(wrong[0]) if len(wrong) else None,
        implied_count=(q - 1) * len(sizes),
        formula_count=prm_min_weight_count(q, d, m),
    )


def random_prm_witness(field: GF, d: int, m: int, rng) -> MinWtWitness:
    """A uniformly sampled valid projective witness (rejection sampling)."""
    q = field.q
    ts = ts_decompose(d, q, "prm", m)
    nforms = ts.t + 1 if ts.s == 0 else ts.t + 2
    forms: list[tuple[int, ...]] = []
    while len(forms) < nforms:
        cand = tuple(rng.randrange(q) for _ in range(m + 1))
        if any(cand) and linalg.is_independent(field, forms + [cand]):
            forms.append(cand)
    omegas = tuple(sorted(rng.sample(range(q), ts.s)))
    return MinWtWitness("prm", tuple(forms), omegas)
