"""The published closed-form dimension formulas and their cross-checks.

Four independently published expressions (alpha, beta, gamma, delta) give
the dimension of the projective Reed-Muller code of order d on projective
m-space over GF(q); rho gives the dimension of the affine Reed-Muller code.
Each is implemented literally from its displayed expression with no shared
simplification, so their pairwise equality is a genuine numeric cross-check
rather than a tautology.

One convention pitfall is load-bearing here.  With the generalized binomial
(combinat.binomial), C(a, b) vanishes for b < 0 but NOT for a < 0 <= b, and
the symmetry C(a, b) = C(a, a - b) fails exactly when a < 0 <= b.  The rho
and gamma summands are therefore written with the bottom index that goes
negative (C(n + nu - iq, nu - iq), not C(n + nu - iq, n)); the two readings
differ, and only this one counts reduced monomials (e.g. q=3, nu=3, n=2:
8 reduced monomials, while the fixed-bottom reading gives 9).
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import binomial, p_k
from .errors import POINT_GUARD, GuardExceeded


def _check_range(q: int, d: int, m: int) -> None:
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if not 1 <= d <= m * (q - 1) + 1:
        raise ValueError(f"order {d} outside [1, {m * (q - 1) + 1}]")


def _degree_classes(q: int, d: int):
    """e = d, d-(q-1), d-2(q-1), ... down to 1: the degrees congruent to d
    modulo q - 1.  For q = 2 this is every degree in 1..d."""
    e = d
    while e >= 1:
        yield e
        e -= q - 1


def rho(q: int, nu: int, n: int) -> int:
    """Dimension of the Reed-Muller code of order nu in n variables: the
    number of monomials with every exponent < q and total degree <= nu.

    Total in nu: returns 0 for nu < 0 and clamps at nu = n(q - 1), both of
    which the inclusion-exclusion sum does on its own.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    return sum(
        (-1) ** i * binomial(n, i) * binomial(n + nu - i * q, nu - i * q)
        for i in range(n + 1)
    )


def dim_alpha(q: int, d: int, m: int) -> int:
    """Sum over degree classes of an (m+1)-fold inclusion-exclusion."""
    _check_range(q, d, m)
    return sum(
        sum(
            (-1) ** j * binomial(m + 1, j) * binomial(e - j * q + m, e - j * q)
            for j in range(m + 2)
        )
        for e in _degree_classes(q, d)
    )


def dim_beta(q: int, d: int, m: int) -> int:
    """Full polynomial space of degree d minus the dimension of the degree-d
    part of the vanishing ideal of the projective point set."""
    _check_range(q, d, m)
    correction = sum(
        (-1) ** j
        * binomial(m + 1, j)
        * sum(
            binomial(
                d + (i + 1) * (q - 1) - j * q + m,
                d + (i + 1) * (q - 1) - j * q,
            )
            for i in range(j - 1)
        )
        for j in range(2, m + 2)
    )
    return binomial(m + d, d) - correction


def dim_gamma(q: int, d: int, m: int) -> int:
    """Double sum equal to sum_i rho(q, d - 1, i): projectively reduced
    monomials of degree d partitioned by their last variable."""
    _check_range(q, d, m)
    return sum(
        (-1) ** j * binomial(i, j) * binomial(i + d - 1 - j * q, d - 1 - j * q)
        for i in range(m + 1)
        for j in range(i + 1)
    )


def dim_delta(q: int, d: int, m: int) -> int:
    """Like alpha but with the inner sum truncated at floor(e/q); the two
    agree because the dropped summands are zero under the binomial
    conventions."""
    _check_range(q, d, m)
    return sum(
        sum(
            (-1) ** j * binomial(m + 1, j) * binomial(e - j * q + m, m)
            for j in range(e // q + 1)
        )
        for e in _degree_classes(q, d)
    )


@dataclass(frozen=True)
class DimReport:
    q: int
    d: int
    m: int
    alpha: int
    beta: int
    gamma: int
    delta: int
    rank: int | None
    agree: bool

    def as_dict(self) -> dict:
        out = {
            "q": self.q,
            "d": self.d,
            "m": self.m,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "gamma": str(self.gamma),
            "delta": str(self.delta),
            "agree": self.agree,
        }
        if self.rank is not None:
            out["rank"] = str(self.rank)
        return out


def dim_report(
    q: int, d: int, m: int, with_rank: bool = False, rank_guard: int = POINT_GUARD
) -> DimReport:
    """All four formulas (and optionally the generator matrix rank) plus
    their agreement flag."""
    _check_range(q, d, m)
    a = dim_alpha(q, d, m)
    b = dim_beta(q, d, m)
    g = dim_gamma(q, d, m)
    dl = dim_delta(q, d, m)
    r: int | None = None
    if with_rank:
        if p_k(q, m) > rank_guard:
            raise GuardExceeded("rank", f"length {p_k(q, m)}", rank_guard)
        from .codes import prm_generator_matrix
        from .gf import GF

        r = prm_generator_matrix(GF.from_q(q), d, m).rank()
    agree = a == b == g == dl and (r is None or r == g)
    return DimReport(q, d, m, a, b, g, dl, r, agree)

