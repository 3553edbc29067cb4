"""Exact integer combinatorics shared by every closed-form formula.

All functions take and return plain Python ints (arbitrary precision) and
are total over the integers: out-of-range arguments give 0 rather than
raising, matching the conventions the dimension and counting formulas rely
on.  In particular binomial(a, b) is the generalized coefficient
a(a-1)...(a-b+1)/b! for b >= 0 and 0 for b < 0, so binomial(a, b) = 0
exactly when b < 0 or b > a >= 0, and binomial(-1, 2) = 1 is a perfectly
good value.  The symmetry binomial(a, b) == binomial(a, a - b) holds only
when a >= 0 or a < b < 0; callers that need the "zero for negative top"
reading must use the bottom index that actually goes negative.

The exception is ts_decompose, the one check of a code's parameters
(q >= 2, order in range, m >= 1), which raises on invalid input.  It lives
here because the dimension formulas, the generator matrices and the
minimum-weight layer all need it, and this module imports nothing from the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial


def binomial(a: int, b: int) -> int:
    """Generalized binomial coefficient over the integers."""
    if b < 0:
        return 0
    num = 1
    for i in range(b):
        num *= a - i
        if num == 0:
            return 0
    return num // factorial(b)


def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Number of b-dimensional subspaces of a vector space of dimension a
    over a q-element field; 0 unless 0 <= b <= a."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if not 0 <= b <= a:
        return 0
    out = 1
    for i in range(1, b + 1):
        # each partial product is itself a Gaussian binomial, so // is exact
        out = out * (q ** (a - b + i) - 1) // (q ** i - 1)
    return out


def p_k(q: int, k: int) -> int:
    """1 + q + ... + q^k, the point count of k-dimensional projective space
    over a q-element field; 0 for k < 0."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if k < 0:
        return 0
    return (q ** (k + 1) - 1) // (q - 1)


@dataclass(frozen=True)
class TSDecomp:
    t: int
    s: int


def ts_decompose(order: int, q: int, kind: str, m: int) -> TSDecomp:
    """Unique (t, s) with order - 1 = t(q-1) + s for "prm", or
    order = t(q-1) + s for "rm", and 0 <= s < q - 1.  The one check of a
    code's parameters: q >= 2, the order in [1, m(q-1)+1] for "prm" or
    [0, m(q-1)] for "rm", and m >= 1."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if kind not in ("prm", "rm"):
        raise ValueError(f"kind must be 'rm' or 'prm', got {kind!r}")
    lo = 1 if kind == "prm" else 0
    if not lo <= order <= m * (q - 1) + lo:
        raise ValueError(f"order {order} outside [{lo}, {m * (q - 1) + lo}]")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    v = order - lo
    return TSDecomp(v // (q - 1), v % (q - 1))
