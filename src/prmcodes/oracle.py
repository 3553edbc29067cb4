"""Independent brute-force ground truth for any generator matrix.

The whole message space is enumerated exhaustively under a guard on q^k.
The performance commitment is the traversal: the trailing message symbols
are expanded once into a dense block of q^lo codewords, and the leading
symbols are walked in chunks of P prefixes, each chunk's prefix codewords
built at once from the mixed-radix digits of a counter and pre-scaled
generator rows.  Weighing then needs no field addition:
block[r] + prefix is nonzero at column j exactly when
block[r, j] != -prefix[j].  So the block is stored once as bit planes,
bit b of every symbol, packed 64 columns to a uint64 word, and each chunk
costs one packing of its P negated prefixes; the (P, R) weights of every
prefix against every row are the popcount of the OR over planes of
block XOR -prefix, in one pass whose P is chosen so that a chunk compares
about 2^16 words.  The compare is the same for every field, since it
tests symbol equality only.

The walk is quotiented by scalars: the nonzero multiples lambda*c of a
codeword all have its weight, and a message whose leading symbols are not
all zero has exactly one multiple whose first nonzero leading symbol is 1.
So only those messages are walked, each row standing for its q - 1
multiples, and the trailing block (leading symbols all zero) is walked
once in full: 1 + (q^(k-lo) - 1)/(q - 1) blocks instead of q^(k-lo).
Partitioning the space differently would merge to the same distribution,
so results are deterministic and independent of the split.  Both walkers
raise unless the multipliers times the rows walked add up to q^k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import Codeword, GeneratorMatrix
from .errors import ORACLE_GUARD, GuardExceeded
from .gf import GF

_BLOCK = 4096
_CHUNK_WORDS = 1 << 16     # P * W * R uint64 words compared in one chunk


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


def _pack(vals: np.ndarray, bits: int) -> np.ndarray:
    """The bit planes of vals along its last axis, 64 columns a word, as
    uint64 laid out (bits, W, ...) with W = ceil(n / 64): plane b holds bit
    b of each element, and the words are zero past column n."""
    n = vals.shape[-1]
    out = np.zeros((bits, *vals.shape[:-1], -(-n // 64) * 8), dtype=np.uint8)
    for b in range(bits):
        out[b, ..., : -(-n // 8)] = np.packbits((vals >> b) & 1, axis=-1)
    return np.ascontiguousarray(np.moveaxis(out.view(np.uint64), -1, 1))


def _prefixes(field, scaled, lead: int, size: int):
    """Yield (multiplier, prefixes) pairs, prefixes a (P, n) array of at
    most size prefix codewords: the zero prefix with multiplier 1, then, for
    each i < lead, the prefixes whose first nonzero leading symbol is a 1 at
    position i, with multiplier q - 1.  The leading symbols after i are the
    mixed-radix digits of a counter, so each group is cut into chunks of
    consecutive counts.  scaled[i, s] is s times generator row i."""
    q, n = field.q, scaled.shape[-1]
    yield 1, np.zeros((1, n), dtype=np.int64)
    for i in range(lead):
        tail = lead - 1 - i
        for start in range(0, q ** tail, size):
            count = np.arange(start, min(start + size, q ** tail))
            prefixes = np.broadcast_to(scaled[i, 1], (len(count), n))
            for j in range(tail):
                digit = count // q ** (tail - 1 - j) % q
                prefixes = field.vadd(prefixes, scaled[i + 1 + j, digit])
            yield q - 1, prefixes


def _weights(planes: np.ndarray, negp: np.ndarray) -> np.ndarray:
    """The (P, R) Hamming weights of block[r] + prefix[p], from the
    (bits, W, R) planes of the block and the (bits, W, P) planes of
    -prefix: a column is nonzero exactly where some bit of block and
    -prefix differs."""
    differ = planes[0][:, None, :] ^ negp[0][..., None]
    for b in range(1, len(planes)):
        differ |= planes[b][:, None, :] ^ negp[b][..., None]
    return np.bitwise_count(differ).sum(axis=0, dtype=np.intp)


def _check_coverage(g: GeneratorMatrix, covered: int) -> None:
    """Raise unless the walk's multipliers times its rows cover all q^k
    codewords."""
    q, k = g.field.q, g.k
    if covered != q ** k:
        raise RuntimeError(f"oracle walk covered {covered} of {q}^{k} codewords")


def _walk(g: GeneratorMatrix, guard: int):
    """(block, steps): the trailing block of q^lo codewords, in the
    smallest unsigned dtype that holds a symbol, and a generator of
    (multiplier, prefixes, weights) triples, one per chunk of P prefixes,
    where weights[p, r] is the Hamming weight of block[r] + prefixes[p].
    A row with multiplier M stands for its multiples by the scalars 1..M:
    itself when M = 1, every nonzero multiple when M = q - 1.  So covered,
    every codeword appears exactly once."""
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
    size = max(1, _CHUNK_WORDS // planes[0].size)
    minus_one = field.p - 1
    steps = (
        (mult, prefixes, _weights(planes, _pack(field.vmul(minus_one, prefixes), bits)))
        for mult, prefixes in _prefixes(field, scaled, k - lo, size)
    )
    return block, steps


def weight_distribution(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> WeightDistribution:
    """Exact codeword count at every Hamming weight."""
    hist = np.zeros(g.n + 1, dtype=np.int64)
    _, steps = _walk(g, guard)
    for mult, _, w in steps:
        hist += mult * np.bincount(w.ravel(), minlength=g.n + 1)
    total = int(hist.sum())        # the sum over chunks of multiplier * P * R
    _check_coverage(g, total)
    counts = {w: int(c) for w, c in enumerate(hist) if c}
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
    one walk: each chunk's (prefix, row) pairs at the running minimum are
    kept as codewords, and the kept words are dropped whenever a lower
    weight appears.  Words kept from an orbit chunk are expanded into their
    scalar multiples at the end."""
    dmin = g.n
    covered = 0
    kept: list[tuple[int, np.ndarray]] = []
    block, steps = _walk(g, guard)
    for mult, prefixes, w in steps:
        covered += mult * w.size
        w[w == 0] = g.n + 1
        low = int(w.min())
        if low < dmin:
            dmin, kept = low, []
        if low == dmin:
            pi, ri = np.nonzero(w == dmin)
            words = g.field.vadd(block[ri].astype(np.int64), prefixes[pi])
            kept.append((mult, words))
    _check_coverage(g, covered)
    if not kept:
        raise ValueError("the zero code has no minimum distance")
    return {
        tuple(row)
        for mult, rows in kept
        for lam in range(1, mult + 1)
        for row in g.field.vmul(lam, rows).tolist()
    }
