"""Independent brute-force ground truth for any generator matrix.

The whole message space is enumerated exhaustively under a guard on q^k.
The performance commitment is the traversal: the trailing message symbols
are expanded once into a dense block of q^lo codewords, and the leading
symbols are walked in q-ary reflected Gray order, so consecutive prefixes
differ in one symbol and the running prefix codeword is updated by adding
one pre-scaled generator row.  Weighing a block then needs no field
addition: block[r] + prefix is nonzero at column j exactly when
block[r, j] != -prefix[j].  So the block is stored once as bit planes,
bit b of every symbol, packed 64 columns to a uint64 word, and each prefix
costs one packing of the n-vector -prefix; the weight of every row is the
popcount of the OR over planes of block XOR -prefix.  The compare is the
same for every field, since it tests symbol equality only.

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


def _prefixes(field, scaled, lead: int):
    """Yield (multiplier, prefix) pairs: the zero prefix with multiplier 1,
    then, for each i < lead, the prefixes whose first nonzero leading
    symbol is a 1 at position i, the leading symbols after i Gray-walked,
    with multiplier q - 1.  scaled[i, s] is s times generator row i."""
    q = field.q
    yield 1, np.zeros(scaled.shape[-1], dtype=np.int64)
    for i in range(lead):
        prefix = scaled[i, 1]
        yield q - 1, prefix
        for j, old, new in _gray_transitions(q, lead - 1 - i):
            prefix = field.vadd(prefix, scaled[i + 1 + j, field.sub(new, old)])
            yield q - 1, prefix


def _pack(vals: np.ndarray, bits: int) -> np.ndarray:
    """The bit planes of vals along its last axis, 64 columns a word, as
    uint64 laid out (bits, W, ...) with W = ceil(n / 64): plane b holds bit
    b of each element, and the words are zero past column n."""
    n = vals.shape[-1]
    out = np.zeros((bits, *vals.shape[:-1], -(-n // 64) * 8), dtype=np.uint8)
    for b in range(bits):
        out[b, ..., : -(-n // 8)] = np.packbits((vals >> b) & 1, axis=-1)
    return np.ascontiguousarray(np.moveaxis(out.view(np.uint64), -1, 1))


def _weights(planes: np.ndarray, negp: np.ndarray) -> np.ndarray:
    """Hamming weight of every row of block + prefix, from the (bits, W, R)
    planes of the block and the (bits, W) planes of -prefix: a column is
    nonzero exactly where some bit of block and -prefix differs."""
    differ = np.bitwise_or.reduce(planes ^ negp[..., None], axis=0)
    return np.bitwise_count(differ).sum(axis=0, dtype=np.intp)


def _walk(g: GeneratorMatrix, guard: int):
    """(block, steps): the trailing block of q^lo codewords, in the
    smallest unsigned dtype that holds a symbol, and a generator of
    (multiplier, prefix, weights) triples, where weights[r] is the Hamming
    weight of block[r] + prefix.  A row with multiplier M stands for its
    multiples by the scalars 1..M: itself when M = 1, every nonzero
    multiple when M = q - 1.  So covered, every codeword appears exactly
    once."""
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
    symbol = np.min_scalar_type(q - 1)       # uint8 for q <= 256
    block = np.zeros((1, n), dtype=symbol)
    for i in range(k - lo, k):
        block = field.vadd(scaled[i][:, None, :], block[None, :, :])
        block = block.reshape(-1, n).astype(symbol)
    bits = (q - 1).bit_length()
    planes = _pack(block, bits)
    minus_one = field.p - 1
    steps = (
        (mult, prefix, _weights(planes, _pack(field.vmul(minus_one, prefix), bits)))
        for mult, prefix in _prefixes(field, scaled, k - lo)
    )
    return block, steps


def weight_distribution(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> WeightDistribution:
    """Exact codeword count at every Hamming weight."""
    hist = np.zeros(g.n + 1, dtype=np.int64)
    _, steps = _walk(g, guard)
    for mult, _, w in steps:
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
    block, steps = _walk(g, guard)
    for mult, prefix, w in steps:
        w[w == 0] = g.n + 1
        low = int(w.min())
        if low < dmin:
            dmin, kept = low, []
        if low == dmin:
            words = g.field.vadd(block[w == dmin].astype(np.int64), prefix)
            kept.append((mult, words))
    if not kept:
        raise ValueError("the zero code has no minimum distance")
    return {
        tuple(row)
        for mult, rows in kept
        for lam in range(1, mult + 1)
        for row in g.field.vmul(lam, rows).tolist()
    }
