"""The benchmark workloads: inputs from a seed, the timed calls, and the
correctness gate that turns the program's output into counted checks.

A workload is a list of units, each one call into the library: run_verify
on one (q, m, d), or the generator matrix and walk of one code.  Every
workload is deterministic.  The seed only permutes the order of the units,
so every seed does the same work and must give the same counts.

The planned check set is built here from (q, m, d) and the (t, s) rule, not
read back from the program, and every check the program did not PASS is
either accounted for by a guard the tuple exceeds (computed from q, k and n
with the guard values of the config) or counted as a failure.  Dimensions
used for the guards are monomial counts made here, independent of the four
dimension formulas under test.
"""

from __future__ import annotations

import functools
import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from math import comb, prod
from pathlib import Path

from prmcodes import codes, minwt, oracle, sweeps
from prmcodes.gf import GF
from prmcodes.sweeps import SweepConfig

REFERENCE = Path(__file__).with_name("reference.json")


@functools.cache
def reference() -> dict:
    """Pinned weight distributions of the oracle-walk codes."""
    return json.loads(REFERENCE.read_text())

# guard name -> per-layer metric that counts the checks it refuses
GUARD_METRICS = {
    "rank": "linalg.rank.guard_refusals",
    "oracle": "oracle.guard_refusals",
    "witness": "minwt.witness.guard_refusals",
    "fiber": "minwt.fiber.guard_refusals",
    "tau": "minwt.tau.guard_refusals",
}


# -- counting helpers, independent of the library --------------------------------


def prime_power(q: int) -> tuple[int, int]:
    p = next(f for f in range(2, q + 1) if q % f == 0)
    e, n = 0, q
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def make_field(q: int) -> GF:
    return GF(*prime_power(q))


def rm_dim(q: int, nu: int, m: int) -> int:
    """Monomials in m variables, every exponent below q, total degree <= nu."""
    if nu < 0:
        return 0
    ways = [1] + [0] * nu              # ways[s]: exponent vectors of sum s
    for _ in range(m):
        ways = [sum(ways[s - a] for a in range(min(q - 1, s) + 1)) for s in range(nu + 1)]
    return sum(ways)


def prm_dim(q: int, d: int, m: int) -> int:
    """Projectively reduced monomials of degree d in m + 1 variables, counted
    by their last variable: a free head in i variables of degree <= d - 1."""
    return sum(rm_dim(q, d - 1, i) for i in range(m + 1))


def prm_length(q: int, m: int) -> int:
    return (q ** (m + 1) - 1) // (q - 1)


def gaussian(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if not 0 <= k <= n:
        return 0
    return prod(q ** (n - i) - 1 for i in range(k)) // prod(q ** (i + 1) - 1 for i in range(k))


def ts(q: int, d: int) -> tuple[int, int]:
    return divmod(d - 1, q - 1)


def witness_work(q: int, d: int, m: int) -> tuple[int, int]:
    """(ordered independent form tuples, scalar subsets) that witness
    enumeration walks for prm(q, m, d)."""
    t, s = ts(q, d)
    nforms = t + 1 if s == 0 else t + 2
    tuples = prod(q ** (m + 1) - q ** i for i in range(nforms))
    return tuples, comb(q, s)


def fiber_tuples(q: int, d: int, m: int) -> int:
    t, s = ts(q, d)
    return gaussian(m + 1, m - t + 1, q) * q ** (2 * (m + 1)) * comb(q, s)


def tau_pairs(q: int, d: int, m: int) -> int:
    t, _ = ts(q, d)
    k = m - t + 1
    return gaussian(m + 1, k, q) * gaussian(k, k - 1, q)


# -- tallies -----------------------------------------------------------------------


@dataclass
class Tally:
    """Planned checks and what became of them, by check key, so that a
    check two units both make counts once."""

    outcomes: dict[tuple, tuple[str | None, str | None]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def planned(self) -> int:
        return len(self.outcomes)

    @property
    def passed(self) -> int:
        return sum(status == "PASS" for status, _ in self.outcomes.values())

    @property
    def missing(self) -> int:
        return sum(status is None for status, _ in self.outcomes.values())

    @property
    def refusals(self) -> Counter:
        """guard -> checks it left unverified"""
        return Counter(guard for status, guard in self.outcomes.values()
                       if status not in ("PASS", "FAIL") and guard is not None)

    @property
    def unverified(self) -> int:
        return self.planned - self.passed

    def counts(self) -> tuple:
        return (self.planned, self.passed, self.missing, sorted(self.refusals.items()),
                len(self.failures))

    def settle(self, key, status: str | None, guard: str | None) -> None:
        """Account for one planned check; status None means no row."""
        if status == "FAIL":
            self.failures.append(f"{key}: FAIL")
        elif status != "PASS" and guard is None:
            self.failures.append(f"{key}: {status or 'missing'} with no guard exceeded")
        self.outcomes[key] = (status, guard)

    def merge(self, other: "Tally") -> "Tally":
        for key, outcome in other.outcomes.items():
            if self.outcomes.setdefault(key, outcome) != outcome:
                self.failures.append(f"{key}: {outcome[0]} in one unit, {self.outcomes[key][0]} in another")
        self.failures += other.failures
        return self


# -- verify sweeps ------------------------------------------------------------------


def plan_verify(cfg: SweepConfig) -> dict[tuple, str | None]:
    """Every planned (family, q, m, order, check), mapped to the first guard
    that refuses it, or None when no guard applies."""
    plan: dict[tuple, str | None] = {}
    for q in cfg.qs:
        for m in range(cfg.m_lo, cfg.m_hi + 1):
            for d in range(cfg.d_lo, (cfg.d_hi or m * (q - 1) + 1) + 1):
                key = ("prm", q, m, d)
                if prm_length(q, m) > cfg.rank_len_guard:
                    walk = "rank"
                elif q ** prm_dim(q, d, m) > cfg.guard:
                    walk = "oracle"
                else:
                    walk = None
                tuples, subsets = witness_work(q, d, m)
                plan[key + ("dims",)] = None
                plan[key + ("rank",)] = "rank" if walk == "rank" else None
                plan[key + ("distance",)] = walk
                plan[key + ("count",)] = walk
                plan[key + ("witness-set",)] = walk or (
                    "witness" if tuples > max(1, cfg.witness_guard // subsets) else None
                )
                t, s = ts(q, d)
                if s:
                    over = fiber_tuples(q, d, m) > cfg.witness_guard
                    plan[key + ("fibers",)] = "fiber" if over else None
                elif t >= 1:
                    over = tau_pairs(q, d, m) > cfg.witness_guard
                    plan[key + ("tau",)] = "tau" if over else None
            for nu in range(m * (q - 1) + 1):
                walk = "oracle" if q ** rm_dim(q, nu, m) > cfg.guard else None
                plan[("rm", q, m, nu, "distance")] = walk
                plan[("rm", q, m, nu, "count")] = walk
    return plan


def shuffled(units: list, seed: int) -> list:
    random.Random(seed).shuffle(units)
    return units


@dataclass(frozen=True)
class Verify:
    """sweeps.run_verify over one or more configurations, split into calls
    on single (q, m, d); the seed permutes them.  run_verify checks the rm
    codes of every (q, m) it is given, so each unit repeats that small part,
    and its rows, which the tally counts once."""

    cfgs: tuple[SweepConfig, ...]

    @property
    def qs(self) -> tuple[int, ...]:
        return tuple(sorted({q for cfg in self.cfgs for q in cfg.qs}))

    def units(self, seed: int) -> list[SweepConfig]:
        return shuffled([replace(cfg, qs=(q,), m_lo=m, m_hi=m, d_lo=d, d_hi=d)
                         for cfg in self.cfgs for q in cfg.qs
                         for m in range(cfg.m_lo, cfg.m_hi + 1)
                         for d in range(cfg.d_lo, (cfg.d_hi or m * (q - 1) + 1) + 1)], seed)

    def run(self, cfg: SweepConfig):
        return sweeps.run_verify(cfg)

    def check(self, cfg: SweepConfig, report) -> Tally:
        plan = plan_verify(cfg)
        tally = Tally()
        status: dict[tuple, str] = {}
        for r in report.results:
            key = (r.family, r.q, r.m, r.d, r.check)
            if key not in plan or key in status:
                tally.failures.append(f"{key}: unplanned or repeated row")
            status[key] = r.status
        for key, guard in plan.items():
            tally.settle(key, status.get(key), guard)
        return tally


# -- the oracle walk ------------------------------------------------------------------


@dataclass(frozen=True)
class OracleWalk:
    """Generator matrices and exhaustive weight distributions of a fixed
    list of (family, q, m, order) codes."""

    code_list: tuple[tuple[str, int, int, int], ...]

    @property
    def qs(self) -> tuple[int, ...]:
        return tuple(sorted({c[1] for c in self.code_list}))

    def units(self, seed: int):
        fields = {q: make_field(q) for q in self.qs}
        for f in fields.values():
            f.mul(1, 1)                    # build the lookup tables here, not in the walk
        return shuffled([(c, fields[c[1]]) for c in self.code_list], seed)

    def run(self, unit):
        (family, q, m, order), f = unit
        make = codes.prm_generator_matrix if family == "prm" else codes.rm_generator_matrix
        g = make(f, order, m)
        return g.k, oracle.weight_distribution(g)

    def check(self, unit, out) -> Tally:
        (family, q, m, order), _ = unit
        key = (family, q, m, order)
        k, dist = out
        tally = Tally()
        counts = dist.counts
        want_k = prm_dim(q, order, m) if family == "prm" else rm_dim(q, order, m)
        total_ok = k == want_k and dist.total == sum(counts.values()) == q ** want_k
        tally.settle(key + ("total",), "PASS" if total_ok else "FAIL", None)
        dmin = min(w for w in counts if w > 0)
        if family == "prm":
            closed = (minwt.prm_min_distance(q, order, m),
                      {minwt.prm_min_weight_count(q, order, m),
                       minwt.prm_min_weight_count_alt(q, order, m)})
        else:
            closed = (minwt.rm_min_distance(q, order, m),
                      {minwt.rm_min_weight_count(q, order, m)})
        minwt_ok = (dmin, {counts[dmin]}) == closed
        tally.settle(key + ("minwt",), "PASS" if minwt_ok else "FAIL", None)
        pinned = {int(w): c for w, c in reference()[":".join(map(str, key))].items()}
        tally.settle(key + ("distribution",), "PASS" if counts == pinned else "FAIL", None)
        return tally


ORACLE_CODES = (
    ("prm", 2, 5, 2), ("prm", 3, 2, 5), ("prm", 4, 3, 2), ("rm", 4, 2, 3),
    ("rm", 5, 2, 3), ("prm", 7, 1, 7), ("prm", 8, 1, 7), ("prm", 9, 1, 6),
)

WORKLOADS = {
    # q = 3, m = 3 only at the orders with s = 0 (tau check), under 0.1 s
    # each; its s != 0 orders take 1.4 to 4.3 s each, too long to be timed
    # often enough in one run
    "verify-q23": Verify((SweepConfig(qs=(2,), m_lo=1, m_hi=3),
                          SweepConfig(qs=(3,), m_lo=1, m_hi=2),
                          *(SweepConfig(qs=(3,), m_lo=3, m_hi=3, d_lo=d, d_hi=d) for d in (1, 3, 5, 7)))),
    "oracle-walk": OracleWalk(ORACLE_CODES),
}
