"""Parameter sweeps: the dimension/distance table and the verification run.

Everything here is a plain library function returning data, so the CLI
stays a thin formatting layer and the fault-injection tests can drive the
verifier directly.  Library calls go through the module objects on
purpose (dimension.dim_alpha, oracle.min_weight, not from-imports) so a
corrupted or wrapped function is the one the verifier calls.

The distance, count and witness-set rows rest on one oracle result per
code, `oracle.min_weight`: d_min and A_dmin from a walk of the code or of
its dual code, whichever is smaller, or, when neither walk fits the
guard, from the information-set route (`oracle.route`).  The
witness-set row is the same on every route: every witness word has
H c^T = 0 for the parity-check matrix H of G and weight d_min, and there
are A_dmin of them, which together make the witness set the minimum-weight
set.  The rank row reads the rank off the same H.  H is `gm.h`, the
parity-check matrix that `codes.parity_check` builds once per generator
matrix, and only when a row or an oracle route reads it.  Every row reaches
G through `Code.gm`, the one rank-length gate: a projective code longer
than the limit, or an affine one on the information-set route, is refused
there before G is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import codes, dimension, linalg, minwt, oracle
from .combinat import p_k
from .errors import ORACLE_GUARD, RANK_LEN_GUARD, WITNESS_GUARD, GuardExceeded
from .gf import GF, prime_power
from .poly import reduced_monomials_affine


@dataclass(frozen=True)
class SweepConfig:
    qs: tuple[int, ...] = (2, 3)
    m_lo: int = 1
    m_hi: int = 2
    d_lo: int = 1
    d_hi: int | None = None        # None: up to m(q-1)+1 per (q, m)
    guard: int = ORACLE_GUARD
    witness_guard: int = WITNESS_GUARD
    rank_len_guard: int = RANK_LEN_GUARD
    with_rank: bool = False

    def validate(self) -> None:
        if not self.qs:
            raise ValueError("need at least one q")
        if len(set(self.qs)) != len(self.qs):
            raise ValueError(f"q values {','.join(map(str, self.qs))} repeat a field")
        if any(q < 2 for q in self.qs):
            raise ValueError("every q must be at least 2")
        for q in self.qs:
            prime_power(q)
        if self.m_lo < 1:
            raise ValueError("m must be at least 1")
        if self.m_hi < self.m_lo:
            raise ValueError(f"m range {self.m_lo}:{self.m_hi} is empty")
        if self.d_lo < 1:
            raise ValueError("d must be at least 1")
        if self.d_hi is not None and self.d_hi < self.d_lo:
            raise ValueError(f"d range {self.d_lo}:{self.d_hi} is empty")
        if min(self.guard, self.witness_guard, self.rank_len_guard) < 1:
            raise ValueError("guards must be positive")
        if self.d_hi is not None:
            for q in self.qs:
                for m in range(self.m_lo, self.m_hi + 1):
                    if self.d_hi > m * (q - 1) + 1:
                        raise ValueError(
                            f"d range ends at {self.d_hi}, above the maximum "
                            f"{m * (q - 1) + 1} for q={q}, m={m}"
                        )

    def tuples(self):
        for q in self.qs:
            for m in range(self.m_lo, self.m_hi + 1):
                hi = self.d_hi if self.d_hi is not None else m * (q - 1) + 1
                for d in range(self.d_lo, hi + 1):
                    yield q, m, d


def table_rows(cfg: SweepConfig) -> list[dict]:
    """One row per (q, m, d): length, the four dimension formulas, the
    distance and count formulas, and the agreement flag."""
    cfg.validate()
    fields = {q: GF.from_q(q) for q in cfg.qs}
    out = []
    for q, m, d in cfg.tuples():
        code = Code(cfg, fields[q], "prm", m, d)
        a, b, g, dl = code.dims
        row = {
            "q": q,
            "m": m,
            "d": d,
            "length": p_k(q, m),
            "alpha": a,
            "beta": b,
            "gamma": g,
            "delta": dl,
            "distance": code.formula("min_distance"),
            "minwt_count": code.formula("min_weight_count"),
        }
        agree = a == b == g == dl
        if cfg.with_rank:
            try:
                rank = code.gm.rank()
            except GuardExceeded as exc:
                row["rank"] = str(exc)
            else:
                row["rank"] = rank
                agree = agree and rank == g
        row["agree"] = agree
        out.append(row)
    return out


TABLE_COLUMNS = (
    "q", "m", "d", "length", "alpha", "beta", "gamma", "delta",
    "distance", "minwt_count", "agree",
)


def table_csv(rows: list[dict], with_rank: bool) -> str:
    """CSV of table_rows output; with ranks, the rank column sits before
    the agreement flag."""
    cols = list(TABLE_COLUMNS)
    if with_rank:
        cols.insert(cols.index("agree"), "rank")
    lines = [",".join(cols)]
    lines += [",".join(str(row.get(c, "")) for c in cols) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CheckResult:
    q: int
    m: int
    d: int
    family: str
    check: str
    status: str          # PASS | FAIL | SKIPPED
    detail: str = ""

    def line(self) -> str:
        where = f"q={self.q} m={self.m} {'d' if self.family == 'prm' else 'nu'}={self.d}"
        tail = f"  [{self.detail}]" if self.detail else ""
        return f"{self.status:7s} {self.family}:{self.check:12s} {where}{tail}"


@dataclass
class VerifyReport:
    results: list[CheckResult] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(r.status == "FAIL" for r in self.results)

    def counts(self) -> dict[str, int]:
        out = {"PASS": 0, "FAIL": 0, "SKIPPED": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    def to_text(self) -> str:
        lines = [r.line() for r in self.results]
        c = self.counts()
        lines.append(
            f"total: {c['PASS']} passed, {c['FAIL']} failed, {c['SKIPPED']} skipped"
        )
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "counts": self.counts(),
            # each row is its record, with d named "order"
            "results": [{"order" if k == "d" else k: v for k, v in asdict(r).items()}
                        for r in self.results],
        }


class Code:
    """One code of a sweep: (family, q, m, order).

    Its generator matrix (with its parity-check matrix `gm.h`) and
    minimum-weight result are each made at most once, on first use.  `gm`
    is the one rank-length gate: before G is built, it refuses a code
    longer than the limit when some row would reduce G, as for every
    projective code and for an affine code on the information-set route.
    When that gate or the oracle guard refuses, the access raises
    GuardExceeded instead.
    """

    def __init__(self, cfg: SweepConfig, field: GF, family: str, m: int, order: int):
        self.cfg, self.field, self.family = cfg, field, family
        self.q, self.m, self.order = field.q, m, order

    def formula(self, name: str) -> int:
        """minwt.<family>_<name>(q, order, m)."""
        return getattr(minwt, f"{self.family}_{name}")(self.q, self.order, self.m)

    @cached_property
    def ts(self) -> tuple[int, int]:
        ts = minwt.ts_decompose(self.order, self.q, self.family, self.m)
        return ts.t, ts.s

    @cached_property
    def dims(self) -> tuple[int, int, int, int]:
        args = (self.q, self.order, self.m)
        return (dimension.dim_alpha(*args), dimension.dim_beta(*args),
                dimension.dim_gamma(*args), dimension.dim_delta(*args))

    @cached_property
    def gm(self) -> codes.GeneratorMatrix:
        # a projective code's H comes from elimination, and the
        # information-set route reduces G several times; an affine code's
        # route sorts its monomial basis, so it is read only past the limit
        n = p_k(self.q, self.m) if self.family == "prm" else self.q ** self.m
        limit = self.cfg.rank_len_guard
        if n > limit and (
            self.family == "prm"
            or oracle.route(self.q, len(reduced_monomials_affine(self.q, self.order, self.m)),
                            n, self.cfg.guard) == "information-set"
        ):
            raise GuardExceeded("rank", f"length {n}", limit)
        return codes.generator_matrix(self.family, self.field, self.order, self.m)

    @cached_property
    def _min_weight(self) -> oracle.MinWeight | GuardExceeded:
        # a refusal is kept too, so the rows of a refused code predict
        # their work once (cached_property does not cache an exception)
        try:
            return oracle.min_weight(self.gm, self.cfg.guard)
        except GuardExceeded as exc:
            return exc

    @property
    def min_weight(self) -> oracle.MinWeight:
        """The code's one oracle result, d_min and A_dmin; GuardExceeded,
        the same one each time, when every route is over the guard."""
        if isinstance(self._min_weight, GuardExceeded):
            raise self._min_weight
        return self._min_weight


# A runner returns None for PASS or the FAIL detail; GuardExceeded skips.


def _dims(c: Code) -> str | None:
    a, b, g, dl = c.dims
    if a == b == g == dl:
        return None
    return f"alpha={a} beta={b} gamma={g} delta={dl}"


def _rank(c: Code) -> str | None:
    rank, gamma = c.gm.n - len(c.gm.h), c.dims[2]
    return None if rank == gamma else f"rank={rank} gamma={gamma}"


def _distance(c: Code) -> str | None:
    dmin = c.min_weight.dmin
    formula = c.formula("min_distance")
    return None if dmin == formula else f"oracle={dmin} formula={formula}"


_COUNT_FORMULAS = {
    "prm": ("min_weight_count", "min_weight_count_alt"),
    "rm": ("min_weight_count",),
}


def _count(c: Code) -> str | None:
    brute = c.min_weight.count
    main, *alt = (c.formula(name) for name in _COUNT_FORMULAS[c.family])
    if brute == main and all(a == brute for a in alt):
        return None
    return f"oracle={brute} formula={main}" + "".join(f" alt={a}" for a in alt)


def _witness_set(c: Code) -> str | None:
    """Every witness word is a codeword (H c^T = 0) of weight d_min, and
    there are A_dmin distinct ones.  A FAIL names the least word that breaks
    the first two, or else the least minimum-weight word with no witness,
    from the information-set words or, when the primal walk fits the
    guard, from that walk."""
    result = c.min_weight  # oracle first: its guard refuses before any enumeration
    dmin, count = result.dmin, result.count
    wit = minwt.enumerate_witness_codewords(c.field, c.order, c.m, c.cfg.witness_guard)
    words = codes.distinct_words(wit, c.field)
    syndromes = linalg.mat_mul(c.field, words, c.gm.h.T)
    bad = syndromes.any(axis=1) | (np.count_nonzero(words, axis=1) != dmin)
    sizes = f"witness set size {len(words)}, oracle count {count}"
    if bad.any():
        word = min(map(tuple, words[bad].tolist()))
        return f"{sizes}; not minimum weight: {','.join(map(str, word))}"
    if len(words) == count:
        return None
    brute = result.words
    if brute is None and len(words) < count and c.q ** c.gm.k <= c.cfg.guard:
        brute = oracle.brute_min_weight_words(c.gm, c.cfg.guard)
    if brute is not None:
        missing = set(map(tuple, brute.tolist())) - set(map(tuple, words.tolist()))
        if missing:
            return f"{sizes}; no witness: {','.join(map(str, min(missing)))}"
    return sizes


def _fibers(c: Code) -> str | None:
    fib = minwt.support_fiber_check(c.field, c.order, c.m, c.cfg.witness_guard)
    if fib.ok:
        return None
    return (f"|J|={fib.j_size}/{fib.j_expected} "
            f"fibers={fib.fiber_sizes}/{fib.fiber_expected} "
            f"count={fib.implied_count}/{fib.formula_count}")


def _tau(c: Code) -> str | None:
    tau = minwt.tau_bijection_check(c.field, c.order, c.m, c.cfg.witness_guard)
    if tau.ok:
        return None
    detail = (f"pairs={tau.pair_count}/{tau.pair_expected} "
              f"injective={tau.injective} "
              f"count={tau.implied_count}/{tau.formula_count}")
    if not tau.sizes_ok:
        detail += f" size={tau.wrong_size}/{c.field.q ** (c.m - tau.t)}"
    return detail


# (family, check, applies to (t, s) or None for every order, runner), in
# row order within a code
CHECKS = (
    ("prm", "dims", None, _dims),
    ("prm", "rank", None, _rank),
    ("prm", "distance", None, _distance),
    ("prm", "count", None, _count),
    ("prm", "witness-set", None, _witness_set),
    ("prm", "fibers", lambda t, s: s != 0, _fibers),
    ("prm", "tau", lambda t, s: s == 0 and t >= 1, _tau),
    ("rm", "distance", None, _distance),
    ("rm", "count", None, _count),
)


def _codes(cfg: SweepConfig):
    """(family, q, m, order) of every code the sweep checks, in row order:
    the projective tuples, then every affine order of each (q, m)."""
    for q, m, d in cfg.tuples():
        yield "prm", q, m, d
    for q in cfg.qs:
        for m in range(cfg.m_lo, cfg.m_hi + 1):
            for nu in range(m * (q - 1) + 1):
                yield "rm", q, m, nu


def run_verify(cfg: SweepConfig) -> VerifyReport:
    """Cross-verify formulas against matrices, oracles, witness sets and the
    incidence checks over the configured sweep: one row for every check
    that applies.  Guard overruns become SKIPPED rows naming the guard,
    never silent passes."""
    cfg.validate()
    fields = {q: GF.from_q(q) for q in cfg.qs}
    rep = VerifyReport()
    for family, q, m, order in _codes(cfg):
        code = Code(cfg, fields[q], family, m, order)
        for fam, check, applies, runner in CHECKS:
            if fam != family or (applies and not applies(*code.ts)):
                continue
            try:
                detail = runner(code)
            except GuardExceeded as exc:
                status, detail = "SKIPPED", str(exc)
            else:
                status = "PASS" if detail is None else "FAIL"
            rep.results.append(CheckResult(q, m, order, family, check, status, detail or ""))
    return rep
