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

The form-value table is one (q^(m+1), npts) numpy array indexed by form:
row i holds the values over the point array of the form whose coefficients
are the base-q digits of i (`product` order).  So a form is a row index,
and every subspace is described by the forms that vanish on it: one walk
(`_subspaces`) serves the witness enumeration and both incidence checks.
It reads E = V(W), the zeros of a canonical RREF basis W, as a boolean
mask over the points, and takes the forms modulo W from the nonzero forms
that vanish on W's pivot columns, a mask over the rows.  The words or
supports of every L_{t+1} for one (W, L_t) are built at once; a support is
a packed bit row, compared by its bytes.  The witness enumeration takes
one form tuple per class of tuples that give the same word (see
enumerate_witness_codewords for why that is complete) and returns its
distinct words as one array, in the order of `codes.distinct_words`.  The
fiber check also walks one (L_t, L_{t+1}) per class, cosets modulo W and
a common scalar, and weighs each by the class size (see
support_fiber_check); the tau check walks one hyperplane form per scalar
orbit.  Each check's guard counts what its walk visits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import linalg, oracle
from .codes import digits, distinct_words, prm_generator_matrix, projective_points
from .combinat import TSDecomp, binomial, gaussian_binomial, ts_decompose
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
        g = prm_generator_matrix(field, d, m)
        dist = oracle.distribution(g, guard)
        brute = dist.counts[dist.dmin]
    return CountReport(
        q, d, m, prm_min_weight_count(q, d, m), prm_min_weight_count_alt(q, d, m), brute
    )


# -- witness enumeration ----------------------------------------------------------


def _rows(q: int, forms) -> list[int]:
    """Table rows of the given forms: each coefficient tuple read as a
    base-q number."""
    out = []
    for form in forms:
        i = 0
        for c in form:
            i = i * q + c
        out.append(i)
    return out


def _form_values(field: GF, m: int, pts: np.ndarray) -> np.ndarray:
    """The (q^(m+1), npts) value table of every form over the (npts, m + 1)
    point array, forms in `product` order, in the smallest unsigned dtype
    that holds a symbol."""
    q = field.q
    return linalg.mat_mul(field, digits(q, m + 1), pts.T).astype(np.min_scalar_type(q - 1))


def _rref_bases(field: GF, ambient: int, k: int):
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


def _subspaces(field: GF, m: int, t: int):
    """(vals, coeffs, walk): the form-value table over the projective
    points, the (q^(m+1), m + 1) digit table of the forms, and a walk over
    the canonical RREF bases W of every t-dimensional span of forms.  For
    each W the walk yields the mask of the points of E = V(W), where every
    form of W vanishes, and the mask of the nonzero forms that vanish on
    W's pivot columns: one representative of each nonzero coset modulo W."""
    q = field.q
    vals = _form_values(field, m, projective_points(field, m))
    coeffs = digits(q, m + 1)
    nonzero = coeffs.any(axis=1)
    walk = (
        (~vals[_rows(q, basis)].any(axis=0),
         nonzero & ~coeffs[:, [row.index(1) for row in basis]].any(axis=1))
        for basis in _rref_bases(field, m + 1, t)
    )
    return vals, coeffs, walk


def _inverses(field: GF) -> np.ndarray:
    """inv[a] = 1/a for a != 0, and inv[0] = 0."""
    return np.array([0] + [field.inv(a) for a in range(1, field.q)], dtype=np.int64)


def enumerate_witness_codewords(
    field: GF, d: int, m: int, guard: int = WITNESS_GUARD
) -> np.ndarray:
    """The distinct witness codewords as one (N, n) array in the order of
    codes.distinct_words, from one form tuple per class.

    On points L_t * (L_t^(q-1) - L_i^(q-1)) = L_t * [L_i = 0], so a witness
    word is L_t * [V(W)] * prod_j (L_{t+1} - w_j L_t) with W the span of
    L_0..L_{t-1}: it depends only on W, on L_t and L_{t+1} modulo W, and on
    the scalar set.  W runs over canonical RREF bases; L_t and L_{t+1} run
    over the forms vanishing on W's pivot columns, which hold exactly one
    representative of each coset.  For each (W, L_t) the words of every
    L_{t+1} and every scalar set are built at once.  By the
    characterization this set must equal the set of minimum-weight
    codewords of the projective code."""
    q = field.q
    ts = ts_decompose(d, q, "prm", m)
    t, s = ts.t, ts.s
    omega_sets = [()] if s == 0 else list(combinations(range(q), s))
    # the scalar subsets multiply the per-tuple work, so they count
    # against the same guard as the form tuples
    cosets = q ** (m + 1 - t)
    tuples = gaussian_binomial(m + 1, t, q) * (cosets - 1) * (cosets - q if s else 1)
    if tuples * len(omega_sets) > guard:
        raise GuardExceeded(
            "witness", f"{tuples} form tuples x {len(omega_sets)} scalar sets", guard
        )
    vals, coeffs, walk = _subspaces(field, m, t)
    npts = vals.shape[1]
    chunks = [np.zeros((0, npts), dtype=vals.dtype)]
    if not s:
        # the word is L_t on V(W) and 0 elsewhere
        for zeros, comp in walk:
            chunks.append(vals[comp] * zeros)
        return distinct_words(np.concatenate(chunks), q)
    # where L_t != 0 the word is L_t^(s+1) prod_j (r - w_j), r = L_{t+1}/L_t;
    # prods[k, r] is that product for the k-th scalar set
    prods = np.ones((len(omega_sets), q), dtype=np.int64)
    for k, omegas in enumerate(omega_sets):
        for w in omegas:
            prods[k] = field.vmul(prods[k], field.vadd(np.arange(q), field.neg(w)))
    lead = np.array([field.pow(a, s + 1) for a in range(q)], dtype=np.int64)
    inv = _inverses(field)
    scalars = np.arange(1, q)[:, None]
    for zeros, comp in walk:
        for lt in np.flatnonzero(comp):
            vt = vals[lt]
            on = np.flatnonzero(zeros & (vt != 0))
            others = comp.copy()
            others[_rows(q, field.vmul(scalars, coeffs[lt]).tolist())] = False
            ratios = field.vmul(vals[others][:, on], inv[vt[on]])
            words = np.zeros((len(prods), len(ratios), npts), dtype=vals.dtype)
            words[..., on] = field.vmul(lead[vt[on]], prods[:, ratios])
            chunks.append(words.reshape(-1, npts))
    return distinct_words(np.concatenate(chunks), q)


# -- incidence checks -------------------------------------------------------------


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


def _leading_one(q: int, m: int) -> np.ndarray:
    """Mask of the forms whose first nonzero coefficient is 1: one form of
    each scalar orbit.  They are the table rows q^j .. 2q^j - 1."""
    mask = np.zeros(q ** (m + 1), dtype=bool)
    for j in range(m + 1):
        mask[q ** j : 2 * q ** j] = True
    return mask


def _class_size(q: int, t: int) -> int:
    """Pairs (L_t, L_{t+1}) in one class of the fiber check: q^t members of
    each coset modulo W, times the q - 1 common scalar multiples."""
    return (q - 1) * q ** (2 * t)


def support_fiber_check(field: GF, d: int, m: int, guard: int = WITNESS_GUARD) -> FiberReport:
    """Verification of the s != 0 counting argument over every tuple
    (E, L_t, L_{t+1}, S), one tuple per class.

    The tuples are: E = V(W) a projective (m-t)-subspace for W a
    t-dimensional span of forms, L_t and L_{t+1} arbitrary forms, |S| = s,
    subject to E not contained in V(L_t) and E intersect V(L_t) not
    contained in V(L_{t+1}).  The support such a tuple induces depends only
    on L_t and L_{t+1} modulo W, since every form of W vanishes on E, and
    scaling both forms by one nonzero c leaves their ratios on E alone.  So
    L_t runs over the nonzero coset representatives whose first nonzero
    coefficient is 1, L_{t+1} over every nonzero coset representative, and
    each tuple stands for a class of _class_size(q, t) tuples: a number
    from linear algebra, not from the count being checked.
    Groups tuples by the support they induce and reports: the tuple count
    against its closed-form product, the fiber sizes against
    (s+1)(q-1)^2 q^(2t+1), and (q-1) * #supports against the count formula.
    Disagreements are reported, never patched.  The guard counts the
    classes walked.
    """
    q = field.q
    ts = ts_decompose(d, q, "prm", m)
    t, s = ts.t, ts.s
    if s == 0:
        raise ValueError("s = 0 has no scalar set; use tau_bijection_check")
    n_subspaces = gaussian_binomial(m + 1, t, q)
    cosets = q ** (m + 1 - t) - 1
    classes = n_subspaces * cosets // (q - 1) * cosets * binomial(q, s)
    if classes > guard:
        raise GuardExceeded("fiber", f"{classes} incidence classes", guard)
    j_expected = (
        n_subspaces
        * (q ** (m + 1) - q ** t)
        * (q ** (m + 1) - q ** (t + 1))
        * binomial(q, s)
    )
    vals, _, walk = _subspaces(field, m, t)
    leading_one = _leading_one(q, m)
    npts = vals.shape[1]
    inv = _inverses(field)
    # outside[k, r]: r is not in the k-th scalar set
    outside = np.ones((binomial(q, s), q), dtype=bool)
    for k, sset in enumerate(combinations(range(q), s)):
        outside[k, list(sset)] = False
    # each support is a packed bit row over all points, counted by its bytes
    # once per class that induces it
    fibers: Counter[bytes] = Counter()
    for zeros, comp in walk:
        epts = np.flatnonzero(zeros)
        on_e = vals[comp][:, epts]         # one form of each nonzero coset, on E
        # L_t is not in W, so it does not vanish on all of E
        for vt in vals[comp & leading_one][:, epts]:
            on = vt != 0
            # E cap V(L_t) not inside V(L_{t+1})
            ratios = field.vmul(on_e[on_e[:, ~on].any(axis=1)][:, on], inv[vt[on]])
            cols = epts[on]
            supp = np.zeros((len(outside) * len(ratios), npts), dtype=bool)
            supp[:, cols] = outside[:, ratios].reshape(len(supp), len(cols))
            fibers.update(map(bytes, np.packbits(supp, axis=1)))
    size = _class_size(q, t)
    return FiberReport(
        q=q,
        d=d,
        m=m,
        t=t,
        s=s,
        j_size=size * fibers.total(),
        j_expected=j_expected,
        fiber_sizes=tuple(sorted({size * n for n in fibers.values()})),
        fiber_expected=(s + 1) * (q - 1) ** 2 * q ** (2 * t + 1),
        support_count=len(fibers),
        implied_count=(q - 1) * len(fibers),
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
    hyperplane: a nonzero coset of W (a form vanishing on W's pivot
    columns) whose first nonzero coefficient is 1.  Then E minus H is
    {x in E : L(x) != 0}."""
    q = field.q
    ts = ts_decompose(d, q, "prm", m)
    t, s = ts.t, ts.s
    if s != 0:
        raise ValueError("s != 0 has no flag bijection; use support_fiber_check")
    if t < 1:
        raise ValueError("t must be at least 1 (the order-1 code is the simplex)")
    k = m - t + 1
    pair_expected = gaussian_binomial(m + 1, k, q) * gaussian_binomial(k, k - 1, q)
    if pair_expected > guard:
        raise GuardExceeded("tau", f"{pair_expected} flag pairs", guard)
    vals, _, walk = _subspaces(field, m, t)
    leading_one = _leading_one(q, m)
    # each support E minus H is a packed bit row over all points
    supports: set[bytes] = set()
    pair_count = 0
    wrong_size = None
    for zeros, comp in walk:
        hyper = vals[comp & leading_one]
        supp = np.packbits((hyper != 0) & zeros, axis=1)
        supports.update(map(bytes, supp))
        pair_count += len(hyper)
        sizes = np.bitwise_count(supp).sum(axis=1)
        wrong = sizes[sizes != q ** (m - t)]
        if wrong_size is None and wrong.size:
            wrong_size = int(wrong[0])
    return TauReport(
        q=q,
        d=d,
        m=m,
        t=t,
        pair_count=pair_count,
        pair_expected=pair_expected,
        injective=len(supports) == pair_count,
        wrong_size=wrong_size,
        implied_count=(q - 1) * pair_count,
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
