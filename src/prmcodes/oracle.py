"""Independent brute-force ground truth for any generator matrix.

The whole message space is enumerated exhaustively under a guard on q^k.
The performance commitment is the traversal: messages are walked in q-ary
reflected Gray order, so consecutive messages differ in one symbol and the
running codeword is updated by adding one pre-scaled generator row, O(n)
per codeword instead of O(k*n).  On top of that, the trailing block of
message symbols is expanded once into a dense table so the per-codeword
work (field add, nonzero count, histogram) runs vectorized in numpy; the
leading symbols are Gray-walked.

The walk is quotiented by scalars: the nonzero multiples lambda*c of a
codeword all have its weight, and a message whose leading symbols are not
all zero has exactly one multiple whose first nonzero leading symbol is 1.
So only those messages are walked, each row standing for its q - 1
multiples, and the trailing block (leading symbols all zero) is walked
once in full: 1 + (q^(k-lo) - 1)/(q - 1) blocks instead of q^(k-lo).
Partitioning the space differently would merge to the same distribution,
so results are deterministic and independent of the split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import Codeword, GeneratorMatrix
from .errors import ORACLE_GUARD, GuardExceeded
from .gf import GF

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


def _enumerate_blocks(g: GeneratorMatrix, guard: int):
    """Yield (multiplier, block) pairs, each block a (q^lo, n) array.  A row
    of a block with multiplier M stands for its multiples by the scalars
    1..M: itself when M = 1, every nonzero multiple when M = q - 1.  So
    covered, every codeword appears exactly once."""
    field, rows, n = g.field, g.rows, g.n
    q, k = field.q, g.k
    if q ** k > guard:
        raise GuardExceeded("oracle", f"{q}^{k} codewords", guard)
    lo = 0
    while lo < k and q ** (lo + 1) <= _BLOCK:
        lo += 1
    # scaled[i, s] = s * rows[i]
    rows = np.array(rows, dtype=np.int64).reshape(k, n)
    scaled = field.vmul(np.arange(q)[None, :, None], rows[:, None, :])
    block = np.zeros((1, n), dtype=np.int64)
    for i in range(k - lo, k):
        block = field.vadd(scaled[i][:, None, :], block[None, :, :]).reshape(-1, n)
    yield 1, block
    # messages whose first nonzero leading symbol is a 1 at position i,
    # one per scalar orbit, with the leading symbols after i Gray-walked
    for i in range(k - lo):
        prefix = scaled[i, 1]
        yield q - 1, field.vadd(block, prefix)
        for j, old, new in _gray_transitions(q, k - lo - 1 - i):
            prefix = field.vadd(prefix, scaled[i + 1 + j, field.sub(new, old)])
            yield q - 1, field.vadd(block, prefix)


def weight_distribution(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> WeightDistribution:
    """Exact codeword count at every Hamming weight."""
    hist = np.zeros(g.n + 1, dtype=np.int64)
    for mult, block in _enumerate_blocks(g, guard):
        w = np.count_nonzero(block, axis=1)
        hist += mult * np.bincount(w, minlength=g.n + 1)
    counts = {w: int(c) for w, c in enumerate(hist) if c}
    total = g.field.q ** g.k
    assert sum(counts.values()) == total
    return WeightDistribution(g.family, g.field.q, g.order, g.m, counts, total)


def brute_min_distance(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> int:
    dist = weight_distribution(g, guard)
    nonzero = [w for w in dist.counts if w > 0]
    if not nonzero:
        raise ValueError("the zero code has no minimum distance")
    return min(nonzero)


def brute_min_weight_words(
    g: GeneratorMatrix, guard: int = ORACLE_GUARD
) -> set[Codeword]:
    """The full set of codewords attaining the minimum nonzero weight, in
    one walk: each block's rows at the running minimum are kept, and the
    kept rows are dropped whenever a lower weight appears.  Rows kept from
    an orbit block are expanded into their scalar multiples at the end."""
    dmin = g.n
    kept: list[tuple[int, np.ndarray]] = []
    for mult, block in _enumerate_blocks(g, guard):
        w = np.count_nonzero(block, axis=1)
        w[w == 0] = g.n + 1
        low = int(w.min())
        if low < dmin:
            dmin, kept = low, []
        if low == dmin:
            kept.append((mult, block[w == dmin]))
    if not kept:
        raise ValueError("the zero code has no minimum distance")
    return {
        tuple(row)
        for mult, rows in kept
        for lam in range(1, mult + 1)
        for row in g.field.vmul(lam, rows).tolist()
    }
