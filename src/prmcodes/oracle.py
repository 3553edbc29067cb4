"""Independent brute-force ground truth for any generator matrix.

The whole message space of a code, or of its dual code (see below), is
enumerated exhaustively under a guard on the number of words walked.
The performance commitment is the traversal, on the smallest unsigned
symbols that hold an element (uint8 for q <= 256, and the field's flat
uint8 tables) from the scaled generator rows to the packed bit planes:
the trailing message symbols are expanded once into a dense block of q^lo
codewords, and every prefix codeword of the leading symbols that the walk
visits (one per scalar orbit, see below) is built once, each word of
either one field addition from words built before.  Weighing then needs
no field addition: block[r] + prefix is nonzero at column j exactly when
block[r, j] != -prefix[j].  So the block is stored once as bit planes,
bit b of every symbol, its n columns packed into the narrowest unsigned
word that holds them (uint8, uint16 or uint32 for n <= 32) or into
ceil(n / 64) uint64 words, each plane one flat np.packbits over the rows
padded to whole words.  The prefixes come in batches of at most
max(q^lo rows, 2^16 symbols) (or one chunk, if that is more), which may
cross orbit groups; a batch is negated and packed once, and each chunk of
P of its prefixes is weighed in one pass: the (P, R) weights of every
prefix against every row are the popcount of the OR over planes of block
XOR -prefix, with P chosen so that a chunk compares at most 2^16
(prefix, row, word) triples, or P = 1.  The compare is the same for
every field, since it tests symbol equality only.  While n <= 255 a
weight fits in uint8, summed over words there when a row takes several,
and `weight_distribution` counts the weights two at a time: adjacent
weights a, b read as one uint16 key a + 256 b, one bincount over half as
many keys into a joint table of (n + 1) * 256 pairs, folded once per
walk.  The first chunk, and the intp weights of a longer code, are
counted one at a time, so a walk of one chunk builds no table.

The walk is quotiented by scalars: the nonzero multiples lambda*c of a
codeword all have its weight, and a message whose leading symbols are not
all zero has exactly one multiple whose first nonzero leading symbol is 1.
So only those messages are walked, each row standing for its q - 1
multiples, and the trailing block (leading symbols all zero) is walked
once in full: 1 + (q^(k-lo) - 1)/(q - 1) blocks instead of q^(k-lo).
Grouped by the position i of that 1, their prefixes are row i plus the
span of the leading rows after it: slices of the span of the last few
leading rows, or that span plus one word (`_orbit_prefixes`).
Partitioning the space differently would merge to the same distribution,
so results are deterministic and independent of the split.  Both walkers
raise unless the multipliers times the rows walked add up to q^k.

`min_weight` is what the verifier calls: d_min and A_dmin of a code, from
the first route of three that fits the guard (`route` decides).

1. The smaller of the two walks, the code's own q^k codewords (taken on a
   tie) or the q^(n-k) words of its dual code, as `distribution` does.
   The dual code, spanned by the rows of the parity-check matrix H =
   `g.h` (built and checked in `codes`, from linear algebra on G alone),
   is walked, and the MacWilliams identity (MacWilliams & Sloane, ch. 5)
   turns its distribution B into C's: A_i = q^-(n-k) sum_j B_j K_i(j),
   with the Krawtchouk numbers K_i(j), in integers, walked up i by their
   recurrence for each weight j of the dual.  The route raises,
   under python -O too, unless every division is exact and the counts
   add up to q^k.
   `weight_distribution` stays the primal walk and the reference in
   tests.
2. When neither walk fits, the information-set route of Brouwer and
   Zimmermann (K.-H. Zimmermann, TU Hamburg-Harburg report 3-96, 1996;
   M. Grassl, "Searching for linear codes with large minimum distance",
   2006).  Reduced row echelon forms G_j of column-permuted G have
   disjoint sets of r_j fresh pivots.  Level p weighs the codewords of
   the weight-p messages of each G_j, one per scalar orbit, as pairs of
   half-message words through the walk's chunk loop and running-minimum
   scan.  Stopping rule: a codeword no level <= p gave has weight at
   least sum_j max(0, p + 1 - (k - r_j)), so once that bound exceeds U,
   the least weight seen, every word of weight U has been seen:
   d_min = U, and A_dmin counts the distinct words and their multiples.
   Guard unit: codewords covered, q - 1 per orbit representative, as the
   walk's q^k counts them.  The work up to the level where the bound
   first exceeds the least row weight of the G_j is predicted and
   checked before that level is walked; a refusal names the least need
   of the three routes.  It raises, under python -O too, unless the bound
   exceeds U where it stops, every word kept is a codeword of weight U
   (H c^T = 0), and the orbit representatives weighed add up to the work
   of the levels walked.

`distribution` keeps the full weight distribution for the walk routes
and the `distribution` command.  `brute_min_weight_words` (one walk that
keeps the words at the running minimum weight, returned as one
`codes.distinct_words` array) is called only to name a minimum-weight
word that a wrong witness set lacks, when the primal walk fits; the
information-set route keeps those words itself, by the same scan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, prod

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
    are zero past column n.  Each row is padded to whole words, so each
    plane is one flat np.packbits of the padded rows."""
    *lead, n = vals.shape
    word = next((w for w in (1, 2, 4) if 8 * w >= n), 8)      # bytes a word
    width = -(-n // (8 * word)) * 8 * word                      # bits a padded row
    rows = vals.reshape(prod(lead), n)
    padded = np.zeros((len(rows), width), dtype=vals.dtype)
    out = np.empty((bits, len(rows), width // 8), dtype=np.uint8)
    for b in range(bits):
        np.bitwise_and(rows, 1 << b, out=padded[:, :n])
        out[b] = np.packbits(padded).reshape(len(rows), width // 8)
    planes = out.view(f"u{word}").transpose(0, 2, 1)
    return np.ascontiguousarray(planes).reshape(bits, width // (8 * word), *lead)


def _span(field, scaled: np.ndarray) -> np.ndarray:
    """The q^r words sum_i c_i rows[i] of r rows, word number sum_i c_i q^i,
    from scaled[i, s] = s * rows[i]: the nonzero multiples of each row in
    turn are added to every word so far, one field addition a word."""
    words = np.zeros((1, scaled.shape[-1]), dtype=scaled.dtype)
    for row in scaled:
        more = field.vadd(row[1:, None, :], words[None]).astype(words.dtype, copy=False)
        words = np.concatenate([words, more.reshape(-1, words.shape[1])])
    return words


def _orbit_prefixes(field, scaled: np.ndarray, lead: int, cap: int):
    """Yield, in runs of at most cap rows, the prefix codewords whose first
    nonzero leading symbol is 1, in groups i = 0 .. lead-1: group i is row
    i plus each word of the span of rows i+1 .. lead-1, in counter order
    with row i+1 most significant.  scaled[i, s] is s times row i.

    The span of the last t rows, t the most with t < lead and q^t <= cap,
    is built once, as tail.  Group i is the part of the span of rows
    i .. lead-1 whose coefficient of row i is 1, so each of the last t
    groups is a slice of tail.  The group before them, j = lead-1-t, is
    row j plus tail, and each earlier group is tail plus, in turn, each of
    its heads: row i plus a word of the span of rows i+1 .. j, in counter
    order, one run a head.  So each word of tail or of a run costs one
    field addition, and a head, one for every q^t prefixes, about two."""
    if not lead:
        return
    q = field.q
    t = 0
    while t + 1 < lead and q ** (t + 1) <= cap:
        t += 1
    j = lead - 1 - t
    tail = _span(field, scaled[lead - 1:j:-1])

    def add(head):
        return field.vadd(head, tail).astype(tail.dtype, copy=False)

    for i in range(j):
        yield from map(add, field.vadd(scaled[i, 1], _span(field, scaled[j:i:-1])))
    yield add(scaled[j, 1])
    for i in range(j + 1, lead):
        size = q ** (lead - 1 - i)
        yield tail[size:2 * size]


def _batches(runs, size: int):
    """The rows of the runs in order, cut into arrays of size rows, the
    last one shorter."""
    held, count = [], 0
    for run in runs:
        while len(run):
            part, run = run[:size - count], run[size - count:]
            held.append(part)
            count += len(part)
            if count == size:
                yield np.concatenate(held)
                held, count = [], 0
    if held:
        yield np.concatenate(held)


def _weights(planes: np.ndarray, negp: np.ndarray, n: int) -> np.ndarray:
    """The (P, R) Hamming weights of block[r] + prefix[p], from the
    (bits, W, R) planes of the block and the (bits, W, P) planes of
    -prefix, both of length n: a column is nonzero exactly where some bit
    of block and -prefix differs.  With one word a weight is its popcount,
    at most 64, as uint8.  Over several words the counts are summed in
    uint8 while n <= 255, since no weight exceeds n, and in intp otherwise."""
    differ = planes[0][:, None, :] ^ negp[0][..., None]
    for b in range(1, len(planes)):
        differ |= planes[b][:, None, :] ^ negp[b][..., None]
    counts = np.bitwise_count(differ)
    if len(counts) == 1:
        return counts[0]
    return counts.sum(axis=0, dtype=np.uint8 if n <= 255 else np.intp)


def _chunks(mult: int, prefixes: np.ndarray, negp: np.ndarray, planes: np.ndarray):
    """Yield (mult, prefixes, weights) for each chunk of P of the prefixes,
    where weights[p, r] is the Hamming weight of block[r] + prefixes[p],
    from the (bits, W, R) planes of the block and the (bits, W, P) planes
    negp of -prefixes.  P is chosen so that a chunk compares at most
    _CHUNK_WORDS (prefix, row, word) triples, or P = 1."""
    size = max(1, _CHUNK_WORDS // planes[0].size)
    for start in range(0, len(prefixes), size):
        stop = start + size
        yield mult, prefixes[start:stop], _weights(planes, negp[..., start:stop], prefixes.shape[1])


def _check_coverage(g: GeneratorMatrix, covered: int) -> None:
    """Raise unless the walk's multipliers times its rows cover all q^k
    codewords."""
    q, k = g.field.q, g.k
    if covered != q ** k:
        raise RuntimeError(f"oracle walk covered {covered} of {q}^{k} codewords")


def _walk(g: GeneratorMatrix, guard: int):
    """(block, steps): the trailing block of q^lo codewords, in the
    smallest unsigned dtype that holds a symbol, and a generator of
    (multiplier, prefixes, weights) triples, one per chunk of P prefixes
    (in the symbol dtype), where weights[p, r] is the Hamming weight of
    block[r] + prefixes[p].  A row with multiplier M stands for its
    multiples by the scalars 1..M: itself when M = 1, every nonzero
    multiple when M = q - 1.  So covered, every codeword appears exactly
    once.  The block and the prefixes are built once, one field addition
    a word, from the generator rows scaled by every symbol; the prefixes
    after the zero word come in batches of at most max(q^lo rows,
    _CHUNK_WORDS symbols), or one chunk if that is more, each negated and
    packed once, and a batch or chunk may cross orbit groups."""
    field, n = g.field, g.n
    q, k = field.q, g.k
    if q ** k > guard:
        raise GuardExceeded("oracle", f"{q}^{k} codewords", guard)
    lo = 0
    while lo < k and q ** (lo + 1) <= _BLOCK:
        lo += 1
    symbol = np.min_scalar_type(q - 1)       # uint8 for q <= 256
    # scaled[i, s] = s * rows[i]
    scaled = field.vmul(np.arange(q, dtype=symbol)[None, :, None],
                        g.rows.astype(symbol)[:, None, :]).astype(symbol, copy=False)
    block = _span(field, scaled[k - lo:])
    bits = (q - 1).bit_length()
    planes = _pack(block, bits)
    size = max(1, _CHUNK_WORDS // planes[0].size)           # prefixes per chunk
    cap = max(len(block), _CHUNK_WORDS // n)                # prefixes per run
    batch = size * max(1, cap // size)                      # whole chunks per batch

    def steps():
        zero = np.zeros((1, n), dtype=symbol)
        yield from _chunks(1, zero, _pack(zero, bits), planes)
        for prefixes in _batches(_orbit_prefixes(field, scaled, k - lo, cap), batch):
            # -a = a in characteristic 2
            negp = prefixes if field.p == 2 else field.vmul(field.p - 1, prefixes)
            yield from _chunks(q - 1, prefixes, _pack(negp, bits), planes)

    return block, steps()


def _count_pairs(table: np.ndarray, tail: np.ndarray, mult: int, w: np.ndarray) -> None:
    """Add mult times the uint8 weights w: each adjacent pair a, b as the
    key a + 256 b to table, and an odd last weight to tail."""
    even = len(w) & ~1
    pairs = np.bincount(w[:even].view("<u2"))
    table[: len(pairs)] += pairs if mult == 1 else mult * pairs
    if even < len(w):
        tail[w[-1]] += mult


def _histogram(chunks, n: int) -> np.ndarray:
    """The (n + 1) int64 sum of mult * bincount(weights) over the (mult,
    weights) chunks.  While n <= 255, the uint8 weights (the walk's) of
    every chunk after the first are read two at a time as uint16 keys
    a + 256 b, counted by one bincount over half as many keys into a joint
    table of (n + 1) * 256 pairs, and folded once at the end; a chunk's odd
    last weight goes to the tail.  The first chunk, weights of a wider
    dtype and every weight of a code longer than 255 are counted one at a
    time into the tail: a walk of one chunk, as most small codes are,
    builds no table, and casting wide weights to uint8 costs more than the
    pairs save."""
    table = None
    tail = np.zeros(n + 1, dtype=np.int64)
    for i, (mult, w) in enumerate(chunks):
        w = w.ravel()
        if i and n <= 255 and w.dtype == np.uint8:
            if table is None:
                table = np.zeros((n + 1) * 256, dtype=np.int64)
            _count_pairs(table, tail, mult, w)
        else:
            counts = np.bincount(w, minlength=n + 1)
            tail += counts if mult == 1 else mult * counts
    if table is None:
        return tail
    # the row sums of the joint table count each b, its column sums each a
    joint = table.reshape(n + 1, 256)
    return joint.sum(axis=1) + joint.sum(axis=0)[: n + 1] + tail


def weight_distribution(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> WeightDistribution:
    """Exact codeword count at every Hamming weight, from a walk of all q^k
    codewords, its weights counted two at a time while n <= 255."""
    _, steps = _walk(g, guard)
    hist = _histogram(((mult, w) for mult, _, w in steps), g.n)
    total = int(hist.sum())        # the sum over chunks of multiplier * P * R
    _check_coverage(g, total)
    counts = {w: int(c) for w, c in enumerate(hist) if c}
    return WeightDistribution(counts, total)


def route(q: int, k: int, n: int, guard: int) -> str:
    """The route `min_weight` takes for a code of dimension k and length n:
    the smaller walk when it fits the guard, "primal" over the q^k
    codewords (ties included) or "dual" over the q^(n-k) words of the dual
    code, else "information-set", which checks its own predicted work
    against the guard."""
    if q ** min(k, n - k) > guard:
        return "information-set"
    return "primal" if k <= n - k else "dual"


def _krawtchouk(n: int, q: int, j: int):
    """Column j of the Krawtchouk numbers, K_0(j) .. K_n(j) in turn: the
    coefficients of (1 + (q-1) z)^(n-j) (1 - z)^j, by the three-term
    recurrence in i (MacWilliams & Sloane, ch. 5) from K_-1 = 0, K_0 = 1:
    (i+1) K_(i+1) = ((q-1)(n-i) + i - q j) K_i - (q-1)(n-i+1) K_(i-1),
    the division exact."""
    prev, cur = 0, 1
    for i in range(n + 1):
        yield cur
        prev, cur = cur, (((q - 1) * (n - i) + i - q * j) * cur
                          - (q - 1) * (n - i + 1) * prev) // (i + 1)


def _dual_distribution(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> WeightDistribution:
    """C's weight distribution from an exhaustive walk of its dual code,
    spanned by g.h: A_i = (sum_j B_j K_i(j)) / |dual|.  Raises unless every
    division is exact with a nonnegative quotient and the counts add up to
    q^k."""
    q, n = g.field.q, g.n
    dual = weight_distribution(replace(g, basis=(), rows=g.h), guard)
    counts = {}
    for i, ks in enumerate(zip(*[_krawtchouk(n, q, j) for j in dual.counts])):
        num = sum(b * k for b, k in zip(dual.counts.values(), ks))
        a, rem = divmod(num, dual.total)
        if rem or a < 0:
            raise RuntimeError(f"MacWilliams transform: A_{i} = {num}/{dual.total} is not a count")
        if a:
            counts[i] = a
    total = sum(counts.values())
    if total != q ** g.k:
        raise RuntimeError(f"MacWilliams transform gives {total} codewords, not {q}^{g.k}")
    return WeightDistribution(counts, total)


def distribution(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> WeightDistribution:
    """Exact codeword count at every Hamming weight, from a walk of the
    code itself or of its dual (spanned by g.h), whichever is smaller.
    GuardExceeded names the smaller walk when neither fits."""
    q, k, n = g.field.q, g.k, g.n
    way = route(q, k, n, guard)
    if way == "information-set":
        raise GuardExceeded("oracle", f"{q}^{min(k, n - k)} codewords", guard)
    if way == "primal":
        return weight_distribution(g, guard)
    return _dual_distribution(g, guard)


def brute_min_distance(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> int:
    return weight_distribution(g, guard).dmin


def _lightest(field, chunks, u: int, kept: list) -> tuple[int, list, int]:
    """(u, kept, covered) after the (block, mult, prefixes, weights)
    chunks, given the least nonzero weight u so far and the (mult, words)
    kept at it: u becomes the least nonzero weight seen, kept the words
    block[r] + prefixes[p] at that weight, gathered per chunk and dropped
    whenever a lower weight appears, each with its chunk's mult, and
    covered is the sum over chunks of mult * P * R."""
    covered, kept = 0, list(kept)
    for block, mult, prefixes, w in chunks:
        covered += mult * w.size
        # the largest value of the weights' dtype stands for "no nonzero
        # weight"; it is a weight only at n = 255, where the match below
        # finds it
        low = int(w.min(initial=np.iinfo(w.dtype).max, where=w > 0))
        if low < u:
            u, kept = low, []
        if low == u:
            pi, ri = np.nonzero(w == u)
            if len(pi):
                kept.append((mult, field.vadd(block[ri].astype(np.int64),
                                              prefixes[pi].astype(np.int64))))
    return u, kept, covered


def _multiples(field, kept: list) -> np.ndarray:
    """The distinct words of the kept (mult, rows), each row times the
    scalars 1..mult, in the order of codes.distinct_words."""
    return distinct_words(np.concatenate(
        [field.vmul(lam, rows) for mult, rows in kept for lam in range(1, mult + 1)]), field.q)


def brute_min_weight_words(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> np.ndarray:
    """The distinct codewords attaining the minimum nonzero weight, as one
    (N, n) array in the order of codes.distinct_words, from one walk whose
    words at the running minimum `_lightest` keeps.  Words kept from an
    orbit chunk are expanded into their scalar multiples at the end."""
    block, steps = _walk(g, guard)
    # no weight exceeds n, and no word is kept until one is seen
    _, kept, covered = _lightest(g.field, ((block, *step) for step in steps), g.n, [])
    _check_coverage(g, covered)
    if not kept:
        raise ValueError("the zero code has no minimum distance")
    return _multiples(g.field, kept)


# -- the information-set route ------------------------------------------------


@dataclass(frozen=True)
class MinWeight:
    """d_min and A_dmin of a code, with every minimum-weight codeword as one
    `codes.distinct_words` array when the route keeps them (the
    information-set route does, the walks do not)."""

    dmin: int
    count: int
    words: np.ndarray | None = None


def _information_sets(g: GeneratorMatrix) -> list[tuple[np.ndarray, int]]:
    """(G_j, r_j) of each systematic generator matrix, in the code's column
    order.  G_j is G in reduced row echelon form after a column permutation
    that puts first the fresh columns, those where no earlier G_i has a
    pivot; r_j of its k pivots are fresh, so these pivot sets are disjoint.
    The codeword m G_j of a message m equals m on the k pivots.  The sets
    end when the fresh columns have rank 0."""
    field = g.field
    fresh = np.ones(g.n, dtype=bool)
    sets = []
    while fresh.any():
        order = np.concatenate([np.flatnonzero(fresh), np.flatnonzero(~fresh)])
        red, pivots = linalg.rref(field, g.rows[:, order])
        r = int(np.searchsorted(pivots, np.count_nonzero(fresh)))
        if not r:
            break
        rows = np.empty_like(red)
        rows[:, order] = red
        sets.append((rows, r))
        fresh[order[pivots[:r]]] = False
    return sets


def _bound(k: int, ranks: list[int], p: int) -> int:
    """A lower bound on the weight of a codeword that no G_j gives from a
    message of weight <= p: its message under G_j has weight >= p + 1, so
    at least p + 1 - (k - r_j) of its nonzero symbols lie on G_j's fresh
    pivots, and those pivot sets are disjoint."""
    return sum(max(0, p + 1 - (k - r)) for r in ranks)


def _side_words(field, part: np.ndarray, top: int):
    """(words, lead, after) over the rows of part, for each weight
    a <= min(top, len(part)): words[a] holds the words sum_i c_i part[i] of
    all messages c of weight a, in the smallest unsigned dtype that holds a
    symbol, grouped by their first nonzero position j in ascending order,
    so words[a][after[a][j]:] are those that start after j; lead[a], for
    a >= 1, holds the words whose symbol at j is 1, one of each scalar
    orbit.  The group at j is c part[j], c = 1..q-1, plus each word of
    weight a - 1 after j: one field addition per j.  The one word of
    weight 0 starts after every j."""
    q, (size, n) = field.q, part.shape
    symbol = np.min_scalar_type(q - 1)
    scaled = field.vmul(np.arange(1, q)[None, :, None], part[:, None, :])
    words, lead, after = [np.zeros((1, n), dtype=symbol)], [None], [np.zeros(size, dtype=np.intp)]
    for _ in range(min(top, size)):
        groups = [field.vadd(scaled[j][:, None, :], words[-1][after[-1][j]:][None]).astype(symbol)
                  for j in range(size)]
        words.append(np.concatenate([grp.reshape(-1, n) for grp in groups]))
        lead.append(np.concatenate([grp[0] for grp in groups]))
        after.append(np.cumsum([grp.shape[0] * grp.shape[1] for grp in groups]))
    return words, lead, after


def _packed(field, arrays: list[np.ndarray], negate: bool = False) -> list:
    """(words, planes) for each array, the planes of all of them, or of
    their negatives, packed in one pass."""
    words = np.concatenate(arrays)
    if negate:
        words = field.vmul(field.p - 1, words)
    symbol = np.min_scalar_type(field.q - 1)
    planes = _pack(words.astype(symbol, copy=False), (field.q - 1).bit_length())
    bounds = np.cumsum([0] + [len(x) for x in arrays]).tolist()
    return [(x, planes[..., lo:hi]) for x, lo, hi in zip(arrays, bounds, bounds[1:])]


def _level_pairs(field, rows: np.ndarray, top: int):
    """For p = 2..top, yield the (prefixes, -prefix planes, block, block
    planes) pairs whose sums block[r] + prefixes[i] are the codewords of
    G_j (rows) from the weight-p messages, one per scalar orbit: those
    whose first nonzero symbol is 1.

    A message is split into its first k // 2 symbols and the rest.  When
    both parts are nonzero, a left word of weight a with a leading 1 goes
    with every right word of weight p - a.  When one part is zero and the
    other's leading 1 is at its row j, row j goes with that part's words of
    weight p - 1 that start after j, one slice.  So no word of weight p is
    built, and each half's words are built and packed once."""
    k, n = rows.shape
    half = k // 2
    (left, lead, lafter), (right, _, rafter) = (
        _side_words(field, part, top - 1) for part in (rows[:half], rows[half:]))
    prefixes = _packed(field, [*lead[1:], rows[:half], rows[half:]], negate=True)
    lead, lrows, rrows = [None, *prefixes[:-2]], *prefixes[-2:]
    blocks = _packed(field, [*right, *left[1:]])
    right, left = blocks[:len(right)], [None, *blocks[len(right):]]
    for p in range(2, top + 1):
        pairs = [(*lead[a], *right[p - a])
                 for a in range(max(1, p - (k - half)), min(p - 1, half) + 1)]
        for (heads, negp), words, after in ((lrows, left, lafter), (rrows, right, rafter)):
            if p - 1 < len(words):
                block, planes = words[p - 1]
                pairs.extend((heads[j:j + 1], negp[..., j:j + 1], block[start:], planes[..., start:])
                             for j, start in enumerate(after[p - 1]) if start < len(block))
        yield pairs


def information_set_min_weight(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> MinWeight:
    """d_min, A_dmin and the minimum-weight words of g by the
    Brouwer-Zimmermann method (Zimmermann 1996; Grassl 2006), the words
    checked against g.h.

    Level 1 is the rows of every G_j, and U_1, their least weight, bounds
    d_min.  Level p > 1 weighs the weight-p messages of the G_j, one per
    scalar orbit, through the walk's `_chunks` and `_lightest`, and the
    walk stops at the first level p where U, the least weight seen, is
    below _bound(p): every codeword of weight U has then been seen.  The
    guard counts codewords covered, q - 1 for each orbit representative.
    The work up to the level where _bound first exceeds U_1 is predicted
    and checked before any level past 1, and only the G_j whose fresh
    pivots count at that level go past level 1.  GuardExceeded names the
    smaller of that work and the smaller walk.  It raises, under python -O
    too, unless the bound exceeds U where it stops, every word kept is a
    codeword of weight U, and the orbit representatives weighed add up to
    the work of the levels walked."""
    field, n, k = g.field, g.n, g.k
    q = field.q
    sets = _information_sets(g)
    level1 = np.concatenate([rows for rows, _ in sets])
    row_weights = np.count_nonzero(level1, axis=1)
    u = int(row_weights.min())
    top = next((p for p in range(1, k) if _bound(k, [r for _, r in sets], p) > u), k)
    chosen = [(rows, r) for rows, r in sets if _bound(k, [r], top)]
    ranks = [r for _, r in chosen]

    def work(levels: int) -> int:
        """Codewords covered by level 1 of every G_j and levels 2..levels
        of the chosen ones."""
        return (q - 1) * (len(level1) + len(chosen) * sum(
            comb(k, w) * (q - 1) ** (w - 1) for w in range(2, levels + 1)))

    need = work(top)
    if need > guard:
        walk = q ** min(k, n - k)
        shown = f"{need}" if need < walk else f"{q}^{min(k, n - k)}"
        raise GuardExceeded("oracle", f"{shown} codewords", guard)
    kept = [(q - 1, level1[row_weights == u])]
    covered, p = (q - 1) * len(level1), 1
    levels = zip(*(_level_pairs(field, rows, top) for rows, _ in chosen))
    while _bound(k, ranks, p) <= u and p < top:
        p += 1
        chunks = ((block, *chunk) for pairs in next(levels)
                  for prefixes, negp, block, planes in pairs
                  for chunk in _chunks(q - 1, prefixes, negp, planes))
        u, kept, walked = _lightest(field, chunks, u, kept)
        covered += walked
    if _bound(k, ranks, p) <= u and p < k:
        raise RuntimeError(f"information sets stopped at level {p}, "
                           f"bound {_bound(k, ranks, p)} <= best weight {u}")
    if covered != work(p):
        raise RuntimeError(f"information sets covered {covered} of {work(p)} codewords")
    found = np.concatenate([rows for _, rows in kept])
    if linalg.mat_mul(field, found, g.h.T).any() or (np.count_nonzero(found, axis=1) != u).any():
        raise RuntimeError(f"an information-set word is not a codeword of weight {u}")
    words = _multiples(field, kept)
    return MinWeight(u, len(words), words)


def min_weight(g: GeneratorMatrix, guard: int = ORACLE_GUARD) -> MinWeight:
    """d_min and A_dmin of g from the route `route` picks: the smaller walk
    when it fits the guard, else the information-set route, which also
    keeps the words."""
    if route(g.field.q, g.k, g.n, guard) == "information-set":
        return information_set_min_weight(g, guard)
    dist = distribution(g, guard)
    return MinWeight(dist.dmin, dist.counts[dist.dmin])
