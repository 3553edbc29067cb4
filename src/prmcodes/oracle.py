"""Independent brute-force ground truth for any generator matrix.

The whole message space of a code, or of its dual code (see below), is
enumerated exhaustively under a guard on the number of words walked.
The performance commitment is the traversal: the trailing message symbols
are expanded once into a dense block of q^lo codewords, and the leading
symbols are walked in batches of prefixes, each batch's prefix codewords
built at once from the mixed-radix digits of a counter and pre-scaled
generator rows.  Weighing then needs no field addition:
block[r] + prefix is nonzero at column j exactly when
block[r, j] != -prefix[j].  So the block is stored once as bit planes,
bit b of every symbol, its n columns packed into the narrowest unsigned
word that holds them (uint8, uint16 or uint32 for n <= 32) or into
ceil(n / 64) uint64 words.  A batch of at most 2^16 int64 prefix symbols
(or one chunk, if that is more) is negated and packed once, and each
chunk of P of its prefixes is weighed in one pass: the (P, R) weights of
every prefix against every row are the popcount of the OR over planes of
block XOR -prefix, with P chosen so that a chunk compares at most 2^16
(prefix, row, word) triples, or P = 1.  The compare is the same for
every field, since it tests symbol equality only.

The walk is quotiented by scalars: the nonzero multiples lambda*c of a
codeword all have its weight, and a message whose leading symbols are not
all zero has exactly one multiple whose first nonzero leading symbol is 1.
So only those messages are walked, each row standing for its q - 1
multiples, and the trailing block (leading symbols all zero) is walked
once in full: 1 + (q^(k-lo) - 1)/(q - 1) blocks instead of q^(k-lo).
Partitioning the space differently would merge to the same distribution,
so results are deterministic and independent of the split.  Both walkers
raise unless the multipliers times the rows walked add up to q^k.

`distribution` is what the verifier calls.  A code C whose q^k words are
over the guard, but whose dual code has q^(n-k) words within it, is not
walked itself (`route` decides).  The dual code, spanned by the rows of a
parity-check matrix H, is walked instead, and the MacWilliams identity
(MacWilliams & Sloane, ch. 5) turns its distribution B into C's:
A_i = q^-(n-k) sum_j B_j K_i(j), with the Krawtchouk numbers K_i(j), in
integers.  H comes from exact elimination on G, not from a duality
theorem about the codes, so the route stays independent of the formulas
it checks.  It raises, under python -O too, unless G H^T = 0, every
division is exact and the counts add up to q^k.  `weight_distribution`
stays the primal walk and the reference in tests.

The verifier reads one `distribution` per code.  `brute_min_weight_words`
(one walk that keeps the words at the running minimum weight, returned as
one `codes.distinct_words` array) is called only to name a minimum-weight
word that a wrong witness set lacks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from . import linalg
from .codes import GeneratorMatrix, distinct_words
from .errors import ORACLE_GUARD, GuardExceeded

_BLOCK = 4096
# at most P * W * R (prefix, row, word) triples compared in one chunk, and
# P * n prefix symbols packed in one batch
_CHUNK_WORDS = 1 << 16


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

    @property
    def dmin(self) -> int:
        """The minimum nonzero weight; ValueError for the zero code."""
        dmin = min((w for w in self.counts if w > 0), default=None)
        if dmin is None:
            raise ValueError("the zero code has no minimum distance")
        return dmin


def _pack(vals: np.ndarray, bits: int) -> np.ndarray:
    """The bit planes of vals along its last axis, laid out (bits, W, ...):
    plane b holds bit b of each element, the n columns packed into the
    narrowest unsigned word that holds them (uint8, uint16 or uint32, with
    W = 1), or into W = ceil(n / 64) uint64 words for n > 32.  The words
    are zero past column n."""
    n = vals.shape[-1]
    word = next((w for w in (1, 2, 4) if 8 * w >= n), 8)      # bytes a word
    out = np.zeros((bits, *vals.shape[:-1], -(-n // (8 * word)) * word), dtype=np.uint8)
    for b in range(bits):
        out[b, ..., : -(-n // 8)] = np.packbits((vals >> b) & 1, axis=-1)
    return np.ascontiguousarray(np.moveaxis(out.view(f"u{word}"), -1, 1))


def _prefixes(field, scaled, lead: int, size: int):
    """Yield (multiplier, prefixes) pairs, prefixes a (P, n) array of at
    most size prefix codewords: the zero prefix with multiplier 1, then, for
    each i < lead, the prefixes whose first nonzero leading symbol is a 1 at
    position i, with multiplier q - 1.  The leading symbols after i are the
    mixed-radix digits of a counter, so each group is cut into batches of
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
    -prefix differs.  With one word a weight is its popcount, at most 64,
    as uint8; over several words the counts are summed in intp."""
    differ = planes[0][:, None, :] ^ negp[0][..., None]
    for b in range(1, len(planes)):
        differ |= planes[b][:, None, :] ^ negp[b][..., None]
    counts = np.bitwise_count(differ)
    if len(counts) == 1:
        return counts[0]
    return counts.sum(axis=0, dtype=np.intp)


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
    field, n = g.field, g.n
    q, k = field.q, g.k
    if q ** k > guard:
        raise GuardExceeded("oracle", f"{q}^{k} codewords", guard)
    lo = 0
    while lo < k and q ** (lo + 1) <= _BLOCK:
        lo += 1
    # scaled[i, s] = s * rows[i]
    scaled = field.vmul(np.arange(q)[None, :, None], g.rows[:, None, :])
    symbol = np.min_scalar_type(q - 1)       # uint8 for q <= 256
    block = np.zeros((1, n), dtype=symbol)
    for i in range(k - lo, k):
        block = field.vadd(scaled[i][:, None, :], block[None, :, :])
        block = block.reshape(-1, n).astype(symbol)
    bits = (q - 1).bit_length()
    planes = _pack(block, bits)
    size = max(1, _CHUNK_WORDS // planes[0].size)          # prefixes per chunk
    batch = size * max(1, _CHUNK_WORDS // (size * n))      # prefixes per packing
    minus_one = field.p - 1

    def steps():
        for mult, prefixes in _prefixes(field, scaled, k - lo, batch):
            negp = _pack(field.vmul(minus_one, prefixes), bits)
            for start in range(0, len(prefixes), size):
                stop = start + size
                yield mult, prefixes[start:stop], _weights(planes, negp[..., start:stop])

    return block, steps()


def weight_distribution(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> WeightDistribution:
    """Exact codeword count at every Hamming weight, from a walk of all q^k
    codewords."""
    hist = np.zeros(g.n + 1, dtype=np.int64)
    _, steps = _walk(g, guard)
    for mult, _, w in steps:
        hist += mult * np.bincount(w.ravel(), minlength=g.n + 1)
    total = int(hist.sum())        # the sum over chunks of multiplier * P * R
    _check_coverage(g, total)
    counts = {w: int(c) for w, c in enumerate(hist) if c}
    return WeightDistribution(g.family, g.field.q, g.order, g.m, counts, total)


def route(q: int, k: int, n: int, guard: int) -> str:
    """The walk `distribution` takes for a code of dimension k and length
    n: "primal" when its q^k codewords fit the guard, else "dual" when the
    q^(n-k) words of its dual code do.  GuardExceeded names the smaller
    walk when neither fits."""
    if q ** k <= guard:
        return "primal"
    if q ** (n - k) <= guard:
        return "dual"
    raise GuardExceeded("oracle", f"{q}^{min(k, n - k)} codewords", guard)


def parity_check(g: GeneratorMatrix) -> np.ndarray:
    """H, an (n - r) x n int64 array whose rows span the dual code, r the
    rank of G: with G in reduced row echelon form [I | A] on its pivot
    columns, H = [-A^T | I] on the pivot and the free columns.  Its rows
    are independent by the identity block, so it raises unless G H^T = 0,
    which then makes span H the whole dual code."""
    field, n = g.field, g.n
    red, pivots = linalg.rref(field, g.rows)
    free = sorted(set(range(n)) - set(pivots))
    h = np.zeros((len(free), n), dtype=np.int64)
    h[:, pivots] = field.vmul(field.p - 1, red[: len(pivots), free].T)
    h[np.arange(len(free)), free] = 1
    if linalg.mat_mul(field, g.rows, h.T).any():
        raise RuntimeError("parity-check rows are not orthogonal to the generator rows")
    return h


@functools.cache
def _krawtchouk(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """table[j][i] = K_i(j), the coefficient of z^i in
    (1 + (q-1) z)^(n-j) (1 - z)^j: column 0 is C(n, i) (q-1)^i, and each
    next column follows from (1 + (q-1) z) P_(j+1) = (1 - z) P_j."""
    col = [comb(n, i) * (q - 1) ** i for i in range(n + 1)]
    table = [tuple(col)]
    for _ in range(n):
        nxt = [1]
        for i in range(1, n + 1):
            nxt.append(col[i] - col[i - 1] - (q - 1) * nxt[i - 1])
        col = nxt
        table.append(tuple(col))
    return tuple(table)


def _dual_distribution(
    g: GeneratorMatrix, guard: int = ORACLE_GUARD, h: np.ndarray | None = None
) -> WeightDistribution:
    """C's weight distribution from an exhaustive walk of its dual code,
    spanned by h (parity_check(g) when not given):
    A_i = (sum_j B_j K_i(j)) / |dual|.  Raises unless every division is exact
    with a nonnegative quotient and the counts add up to q^k."""
    q, n = g.field.q, g.n
    if h is None:
        h = parity_check(g)
    dual = weight_distribution(replace(g, basis=(), rows=h), guard)
    table = _krawtchouk(n, q)
    counts = {}
    for i in range(n + 1):
        num = sum(b * table[j][i] for j, b in dual.counts.items())
        a, rem = divmod(num, dual.total)
        if rem or a < 0:
            raise RuntimeError(f"MacWilliams transform: A_{i} = {num}/{dual.total} is not a count")
        if a:
            counts[i] = a
    total = sum(counts.values())
    if total != q ** g.k:
        raise RuntimeError(f"MacWilliams transform gives {total} codewords, not {q}^{g.k}")
    return WeightDistribution(g.family, q, g.order, g.m, counts, total)


def distribution(
    g: GeneratorMatrix, guard: int = ORACLE_GUARD, h: np.ndarray | None = None
) -> WeightDistribution:
    """Exact codeword count at every Hamming weight, from a walk of the
    code itself or, when only the dual code fits the guard, of the dual,
    spanned by h when a caller already holds parity_check(g)."""
    if route(g.field.q, g.k, g.n, guard) == "primal":
        return weight_distribution(g, guard)
    return _dual_distribution(g, guard, h)


def brute_min_distance(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> int:
    return weight_distribution(g, guard).dmin


def brute_min_weight_words(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> np.ndarray:
    """The distinct codewords attaining the minimum nonzero weight, as one
    (N, n) array in the order of codes.distinct_words, from one walk: each
    chunk's (prefix, row) pairs at the running minimum are kept, and the
    kept words dropped whenever a lower weight appears.  Words kept from an
    orbit chunk are expanded into their scalar multiples at the end."""
    n = g.n
    covered, dmin = 0, n + 1          # n + 1: no nonzero weight seen yet
    kept: list[tuple[int, np.ndarray]] = []
    block, steps = _walk(g, guard)
    for mult, prefixes, w in steps:
        covered += mult * w.size      # the sum over chunks of multiplier * P * R
        low = int(w.min(initial=n + 1, where=w > 0))
        if low < dmin:
            dmin, kept = low, []
        if low == dmin <= n:
            pi, ri = np.nonzero(w == dmin)
            kept.append((mult, g.field.vadd(block[ri].astype(np.int64), prefixes[pi])))
    _check_coverage(g, covered)
    if dmin > n:
        raise ValueError("the zero code has no minimum distance")
    words = [g.field.vmul(lam, rows) for mult, rows in kept for lam in range(1, mult + 1)]
    return distinct_words(np.concatenate(words), g.field.q)
