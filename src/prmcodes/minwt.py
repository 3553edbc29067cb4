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

Enumerations generate witnesses redundantly (every independent form tuple,
every scalar subset) and deduplicate by final codeword; that is provably
complete and the redundancy is acceptable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from . import linalg
from .codes import PointList, prm_generator_matrix, projective_points
from .combinat import binomial, gaussian_binomial, p_k
from .errors import ORACLE_GUARD, WITNESS_GUARD, GuardExceeded
from .gf import GF
from .poly import Poly


@dataclass(frozen=True)
class TSDecomp:
    t: int
    s: int


def ts_decompose(order: int, q: int, kind: str) -> TSDecomp:
    """Unique (t, s) with order - 1 = t(q-1) + s for "prm", or
    order = t(q-1) + s for "rm", and 0 <= s < q - 1."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if kind == "prm":
        if order < 1:
            raise ValueError(f"projective order must be positive, got {order}")
        v = order - 1
    elif kind == "rm":
        if order < 0:
            raise ValueError(f"affine order must be nonnegative, got {order}")
        v = order
    else:
        raise ValueError(f"kind must be 'rm' or 'prm', got {kind!r}")
    return TSDecomp(v // (q - 1), v % (q - 1))


def _distance(q: int, ts: TSDecomp, m: int) -> int:
    """(q - s) q^(m - t - 1) in exact integer arithmetic; the division is
    exact throughout each family's valid order range, where t = m forces
    s = 0 and the value is 1."""
    num = (q - ts.s) * q ** max(0, m - ts.t - 1)
    den = q ** max(0, ts.t + 1 - m)
    assert num % den == 0
    return num // den


def rm_min_distance(q: int, nu: int, m: int) -> int:
    if not 0 <= nu <= m * (q - 1):
        raise ValueError(f"order {nu} outside [0, {m * (q - 1)}]")
    return _distance(q, ts_decompose(nu, q, "rm"), m)


def prm_min_distance(q: int, d: int, m: int) -> int:
    if not 1 <= d <= m * (q - 1) + 1:
        raise ValueError(f"order {d} outside [1, {m * (q - 1) + 1}]")
    return _distance(q, ts_decompose(d, q, "prm"), m)


def max_zero_bound(q: int, d: int, m: int) -> int:
    """Largest possible projective zero set of a nonzero projectively
    reduced polynomial of degree d: p_m - ceil((q-s) q^(m-t-1)).  Valid for
    every d >= 1; beyond full-space orders the ceiling term is 1."""
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    ts = ts_decompose(d, q, "prm")
    num = (q - ts.s) * q ** max(0, m - ts.t - 1)
    den = q ** max(0, ts.t + 1 - m)
    return p_k(q, m) - (num + den - 1) // den


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


def canonical_min_poly(field: GF, d: int, m: int, omegas=()) -> Poly:
    """The coordinate witness
    X_t * prod_{i<t} (X_i^(q-1) - X_t^(q-1)) * prod_j (X_{t+1} - w_j X_t);
    its evaluation has weight exactly prm_min_distance(q, d, m)."""
    q = field.q
    if not 1 <= d <= m * (q - 1) + 1:
        raise ValueError(f"order {d} outside [1, {m * (q - 1) + 1}]")
    ts = ts_decompose(d, q, "prm")
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


def prm_witness_poly(w: MinWtWitness, field: GF, d: int, m: int) -> Poly:
    """Expand a projective witness into its degree-d polynomial."""
    q = field.q
    if w.kind != "prm":
        raise ValueError(f"expected a prm witness, got kind {w.kind!r}")
    ts = ts_decompose(d, q, "prm")
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
    if not 0 <= nu <= m * (q - 1):
        raise ValueError(f"order {nu} outside [0, {m * (q - 1)}]")
    field._chk(w.omega0)
    if w.omega0 == 0:
        raise ValueError("leading scalar must be nonzero")
    ts = ts_decompose(nu, q, "rm")
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
    if not 0 <= nu <= m * (q - 1):
        raise ValueError(f"order {nu} outside [0, {m * (q - 1)}]")
    ts = ts_decompose(nu, q, "rm")
    ms = 1
    if ts.s:
        ms = binomial(q, ts.s) * gaussian_binomial(m - ts.t, 1, q)
    return (q - 1) * q ** ts.t * gaussian_binomial(m, ts.t, q) * ms


def prm_min_weight_count(q: int, d: int, m: int) -> int:
    """(q^(m+1) - 1) [m,t]_q N_s with N_s = C(q,s)[m-t,1]_q / (s+1) for
    s > 0, else 1.  The division is exact."""
    if not 1 <= d <= m * (q - 1) + 1:
        raise ValueError(f"order {d} outside [1, {m * (q - 1) + 1}]")
    ts = ts_decompose(d, q, "prm")
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
    if not 1 <= d <= m * (q - 1) + 1:
        raise ValueError(f"order {d} outside [1, {m * (q - 1) + 1}]")
    ts = ts_decompose(d, q, "prm")
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
        from . import oracle

        g = prm_generator_matrix(field, d, m)
        dist = oracle.weight_distribution(g, guard)
        dmin = min(w for w in dist.counts if w > 0)
        brute = dist.counts[dmin]
    return CountReport(
        q, d, m, prm_min_weight_count(q, d, m), prm_min_weight_count_alt(q, d, m), brute
    )


# -- witness enumeration ----------------------------------------------------------


def _form_values(field: GF, m: int, pts: PointList) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Value vector over the point list for every coefficient tuple."""
    out = {}
    for coeffs in product(range(field.q), repeat=m + 1):
        out[coeffs] = tuple(
            linalg._dot(field, coeffs, p) for p in pts.points
        )
    return out


def _independent_tuples(field: GF, m: int, count: int):
    """All ordered tuples of `count` linearly independent coefficient
    vectors in q^(m+1)-space, generated with span-based pruning."""
    q = field.q
    nonzero = [c for c in product(range(q), repeat=m + 1) if any(c)]

    def extend(chosen, span):
        if len(chosen) == count:
            yield tuple(chosen)
            return
        for cand in nonzero:
            if cand in span:
                continue
            new_span = set(span)
            for sc in range(1, q):
                scaled = tuple(field.mul(sc, x) for x in cand)
                for v in span:
                    new_span.add(tuple(field.add(a, b) for a, b in zip(v, scaled)))
            chosen.append(cand)
            yield from extend(chosen, new_span)
            chosen.pop()

    zero = (0,) * (m + 1)
    yield from extend([], {zero})


def enumerate_witness_codewords(
    field: GF, d: int, m: int, guard: int = WITNESS_GUARD
) -> set[tuple[int, ...]]:
    """The full set of witness codewords: every independent form tuple and
    every distinct scalar set, deduplicated by evaluation vector.  By the
    characterization this set must equal the set of minimum-weight
    codewords of the projective code."""
    q = field.q
    if not 1 <= d <= m * (q - 1) + 1:
        raise ValueError(f"order {d} outside [1, {m * (q - 1) + 1}]")
    ts = ts_decompose(d, q, "prm")
    t, s = ts.t, ts.s
    nforms = t + 1 if s == 0 else t + 2
    omega_sets = [()] if s == 0 else list(combinations(range(q), s))
    # the scalar subsets multiply the per-tuple work, so they count
    # against the same guard as the form tuples
    tuples = 1
    for i in range(nforms):
        tuples *= q ** (m + 1) - q ** i
    if tuples * len(omega_sets) > guard:
        raise GuardExceeded(
            "witness", f"{tuples} form tuples x {len(omega_sets)} scalar sets", guard
        )
    pts = projective_points(field, m)
    vals = _form_values(field, m, pts)
    npts = len(pts)
    out: set[tuple[int, ...]] = set()
    for forms in _independent_tuples(field, m, nforms):
        vt = vals[forms[t]]
        ind_t = tuple(1 if x else 0 for x in vt)
        lower = [tuple(1 if x else 0 for x in vals[f]) for f in forms[:t]]
        vt1 = vals[forms[t + 1]] if s else None
        for omegas in omega_sets:
            cw = []
            for i in range(npts):
                acc = vt[i]
                if acc:
                    for li in lower:
                        acc = field.mul(acc, field.sub(ind_t[i], li[i]))
                        if not acc:
                            break
                if acc and s:
                    for om in omegas:
                        acc = field.mul(
                            acc, field.sub(vt1[i], field.mul(om, vt[i]))
                        )
                        if not acc:
                            break
                cw.append(acc)
            out.add(tuple(cw))
    return out


# -- incidence checks -------------------------------------------------------------


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


def _span_points(field: GF, basis, point_index: dict) -> frozenset[int]:
    """Projective point indices of the span of the basis rows."""
    from .codes import normalize_point

    q = field.q
    n = len(basis[0]) if basis else 0
    out = set()
    for coeffs in product(range(q), repeat=len(basis)):
        if not any(coeffs):
            continue
        vec = [0] * n
        for c, row in zip(coeffs, basis):
            if c:
                for j, x in enumerate(row):
                    if x:
                        vec[j] = field.add(vec[j], field.mul(c, x))
        if any(vec):
            out.add(point_index[normalize_point(field, vec)])
    return frozenset(out)


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


def support_fiber_check(field: GF, d: int, m: int, guard: int = WITNESS_GUARD) -> FiberReport:
    """Exhaustive verification of the s != 0 counting argument.

    Enumerates every tuple (E, L_t, L_{t+1}, S) with E a projective
    (m-t)-subspace, L_t and L_{t+1} arbitrary forms, |S| = s, subject to
    E not contained in V(L_t) and E intersect V(L_t) not contained in
    V(L_{t+1}); zero forms are excluded by those conditions on their own.
    Groups tuples by the support they induce and reports: the tuple count
    against its closed-form product, the fiber sizes against
    (s+1)(q-1)^2 q^(2t+1), and (q-1) * #supports against the count formula.
    Disagreements are reported, never patched.
    """
    q = field.q
    if not 1 <= d <= m * (q - 1) + 1:
        raise ValueError(f"order {d} outside [1, {m * (q - 1) + 1}]")
    ts = ts_decompose(d, q, "prm")
    t, s = ts.t, ts.s
    if s == 0:
        raise ValueError("s = 0 has no scalar set; use tau_bijection_check")
    n_subspaces = gaussian_binomial(m + 1, m - t + 1, q)
    lam = n_subspaces * q ** (2 * (m + 1)) * binomial(q, s)
    if lam > guard:
        raise GuardExceeded("fiber", f"{lam} incidence tuples", guard)
    j_expected = (
        n_subspaces
        * (q ** (m + 1) - q ** t)
        * (q ** (m + 1) - q ** (t + 1))
        * binomial(q, s)
    )
    pts = projective_points(field, m)
    pidx = pts.index()
    vals = _form_values(field, m, pts)
    all_forms = list(vals)
    scalar_sets = list(combinations(range(q), s))
    fibers: dict[frozenset[int], int] = {}
    j_size = 0
    for basis in _rref_bases(field, m + 1, m - t + 1):
        epts = sorted(_span_points(field, basis, pidx))
        for lt in all_forms:
            vt = vals[lt]
            on = [i for i in epts if vt[i]]
            if not on:                     # E inside V(L_t)
                continue
            off = [i for i in epts if not vt[i]]
            inv_t = {i: field.inv(vt[i]) for i in on}
            for lt1 in all_forms:
                vt1 = vals[lt1]
                if all(vt1[i] == 0 for i in off):   # E cap V(L_t) inside V(L_{t+1})
                    continue
                ratios = {i: field.mul(vt1[i], inv_t[i]) for i in on}
                for sset in scalar_sets:
                    supp = frozenset(i for i in on if ratios[i] not in sset)
                    fibers[supp] = fibers.get(supp, 0) + 1
                    j_size += 1
    return FiberReport(
        q=q,
        d=d,
        m=m,
        t=t,
        s=s,
        j_size=j_size,
        j_expected=j_expected,
        fiber_sizes=tuple(sorted(set(fibers.values()))),
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
    implied_count: int
    formula_count: int

    @property
    def ok(self) -> bool:
        return (
            self.pair_count == self.pair_expected
            and self.injective
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
            "implied_count": str(self.implied_count),
            "formula_count": str(self.formula_count),
            "ok": self.ok,
        }


def tau_bijection_check(field: GF, d: int, m: int, guard: int = WITNESS_GUARD) -> TauReport:
    """Exhaustive verification of the s = 0 counting argument: flag pairs
    (E, H) with H a hyperplane of the (m-t)-subspace E map injectively to
    supports E minus H, and (q-1) times the pair count is the codeword
    count."""
    q = field.q
    if not 1 <= d <= m * (q - 1) + 1:
        raise ValueError(f"order {d} outside [1, {m * (q - 1) + 1}]")
    ts = ts_decompose(d, q, "prm")
    t, s = ts.t, ts.s
    if s != 0:
        raise ValueError("s != 0 has no flag bijection; use support_fiber_check")
    if t < 1:
        raise ValueError("t must be at least 1 (the order-1 code is the simplex)")
    k = m - t + 1
    pair_expected = gaussian_binomial(m + 1, k, q) * gaussian_binomial(k, k - 1, q)
    if pair_expected > guard:
        raise GuardExceeded("tau", f"{pair_expected} flag pairs", guard)
    pts = projective_points(field, m)
    pidx = pts.index()
    supports: set[frozenset[int]] = set()
    pair_count = 0
    for ebasis in _rref_bases(field, m + 1, k):
        epts = _span_points(field, ebasis, pidx)
        for hcoeff in _rref_bases(field, k, k - 1):
            hbasis = linalg.mat_mul(field, hcoeff, ebasis)
            hpts = _span_points(field, hbasis, pidx) if hbasis else frozenset()
            supports.add(epts - hpts)
            pair_count += 1
    return TauReport(
        q=q,
        d=d,
        m=m,
        t=t,
        pair_count=pair_count,
        pair_expected=pair_expected,
        injective=len(supports) == pair_count,
        implied_count=(q - 1) * pair_count,
        formula_count=prm_min_weight_count(q, d, m),
    )


def random_prm_witness(field: GF, d: int, m: int, rng) -> MinWtWitness:
    """A uniformly sampled valid projective witness (rejection sampling)."""
    q = field.q
    ts = ts_decompose(d, q, "prm")
    nforms = ts.t + 1 if ts.s == 0 else ts.t + 2
    forms: list[tuple[int, ...]] = []
    while len(forms) < nforms:
        cand = tuple(rng.randrange(q) for _ in range(m + 1))
        if any(cand) and linalg.is_independent(field, forms + [cand]):
            forms.append(cand)
    omegas = tuple(sorted(rng.sample(range(q), ts.s)))
    return MinWtWitness("prm", tuple(forms), omegas)
