"""Independent brute-force ground truth for any generator matrix.

The whole message space is enumerated exhaustively under a guard on q^k.
The performance commitment is the traversal: messages are walked in q-ary
reflected Gray order, so consecutive messages differ in one symbol and the
running codeword is updated by adding one pre-scaled generator row, O(n)
per codeword instead of O(k*n).  On top of that, the trailing block of
message symbols is expanded once into a dense table so the per-codeword
work (field add, nonzero count, histogram) runs vectorized in numpy; the
leading symbols are Gray-walked.  Partitioning the space differently would
merge to the same distribution, so results are deterministic and
independent of the split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import Codeword, GeneratorMatrix
from .errors import ORACLE_GUARD, GuardExceeded
from .gf import GF
from .linalg import vadd as _vadd

_BLOCK = 4096


@dataclass(frozen=True)
class WeightDistribution:
    family: str
    q: int
    order: int
    m: int
    counts: dict[int, int]      # weight -> number of codewords
    total: int                  # q^k

    def as_dict(self) -> dict:
        return {str(w): str(c) for w, c in sorted(self.counts.items())}


def _gray_transitions(radix: int, length: int):
    """Reflected mixed-radix Gray walk: yields (position, old, new) with a
    single +-1 digit change per step, radix^length - 1 steps in all."""
    if length == 0:
        return
    a = [0] * length
    o = [1] * length
    f = list(range(length + 1))
    while True:
        j = f[0]
        f[0] = 0
        if j == length:
            return
        old = a[j]
        new = old + o[j]
        a[j] = new
        if new == 0 or new == radix - 1:
            o[j] = -o[j]
            f[j] = f[j + 1]
            f[j + 1] = j + 1
        yield j, old, new


def _scaled_rows(field: GF, rows) -> list[list[np.ndarray]]:
    """scaled[i][s] = s * rows[i] as a numpy vector, for every scalar s."""
    out = []
    for row in rows:
        out.append(
            [
                np.array([field.mul(s, x) for x in row], dtype=np.int64)
                for s in range(field.q)
            ]
        )
    return out


def _enumerate_blocks(g: GeneratorMatrix, guard: int):
    """Yield (q^lo, n) arrays jointly covering every codeword exactly once."""
    field, rows, n = g.field, g.rows, g.n
    q, k = field.q, g.k
    if q ** k > guard:
        raise GuardExceeded("oracle", f"{q}^{k} codewords", guard)
    lo = 0
    while lo < k and q ** (lo + 1) <= _BLOCK:
        lo += 1
    scaled = _scaled_rows(field, rows)
    block = np.zeros((1, n), dtype=np.int64)
    for i in range(k - lo, k):
        block = np.concatenate([_vadd(field, block, scaled[i][s]) for s in range(q)])
    yield block
    prefix = np.zeros(n, dtype=np.int64)
    for j, old, new in _gray_transitions(q, k - lo):
        delta = field.sub(new, old)
        prefix = _vadd(field, prefix, scaled[j][delta])
        yield _vadd(field, block, prefix)


def weight_distribution(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> WeightDistribution:
    """Exact codeword count at every Hamming weight."""
    hist = np.zeros(g.n + 1, dtype=np.int64)
    for block in _enumerate_blocks(g, guard):
        w = np.count_nonzero(block, axis=1)
        hist += np.bincount(w, minlength=g.n + 1)
    counts = {w: int(c) for w, c in enumerate(hist) if c}
    return WeightDistribution(
        g.family, g.field.q, g.order, g.m, counts, g.field.q ** g.k
    )


def brute_min_distance(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> int:
    dist = weight_distribution(g, guard)
    nonzero = [w for w in dist.counts if w > 0]
    if not nonzero:
        raise ValueError("the zero code has no minimum distance")
    return min(nonzero)


def brute_min_weight_words(
    g: GeneratorMatrix, guard: int = ORACLE_GUARD
) -> set[Codeword]:
    """The full set of codewords attaining the minimum nonzero weight."""
    dmin = brute_min_distance(g, guard)
    out: set[Codeword] = set()
    for block in _enumerate_blocks(g, guard):
        w = np.count_nonzero(block, axis=1)
        for row in block[w == dmin]:
            out.add(tuple(int(x) for x in row))
    return out
