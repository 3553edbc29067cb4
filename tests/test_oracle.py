import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import product
from math import comb

import numpy as np
import pytest

from prmcodes import codes, linalg, oracle
from prmcodes.codes import prm_generator_matrix, rm_generator_matrix
from prmcodes.errors import GuardExceeded
from prmcodes.gf import GF
from prmcodes.minwt import prm_min_distance, prm_min_weight_count
from prmcodes.oracle import (
    brute_min_distance,
    brute_min_weight_words,
    distribution,
    weight_distribution,
)

from lemmas import krawtchouk_table, pack_by_row, word_set

F2, F3, F4 = GF(2), GF(3), GF(2, 2)


def _orbit_order(radix, length):
    """The zero tuple, then every tuple whose first nonzero symbol is 1,
    grouped by the position of that 1 and in counter order in a group."""
    tuples = [t for t in product(range(radix), repeat=length)
              if not any(t) or next(x for x in t if x) == 1]
    return sorted(tuples, key=lambda t: (next((i for i, x in enumerate(t) if x), -1), t))


@pytest.mark.parametrize("radix,length", list(product(range(2, 6), range(6))))
def test_prefixes_are_orbit_representatives_once(monkeypatch, radix, length):
    # with unit generator rows a prefix codeword is its own leading tuple:
    # the zero tuple once with multiplier 1, then every tuple whose first
    # nonzero symbol is 1 exactly once with multiplier q - 1, in the order
    # of its orbit group and of the counter in a group.  The runs of the
    # builder are at most cap rows, whatever cap is, and cut into batches
    # of size rows
    F = GF.from_q(radix)
    eye = np.eye(length, dtype=np.uint8)
    scaled = F.vmul(np.arange(radix, dtype=np.uint8)[None, :, None], eye[:, None, :])
    want = _orbit_order(radix, length)
    for cap, size in [(1, 1), (1, 2), (radix, 2), (radix, 3), (radix ** 2, 5), (radix ** length, 7)]:
        runs = list(oracle._orbit_prefixes(F, scaled, length, cap))
        assert all(run.dtype == np.uint8 and 1 <= len(run) <= cap for run in runs), cap
        batches = list(oracle._batches(runs, size))
        assert all(len(batch) == size for batch in batches[:-1]), (cap, size)
        assert all(1 <= len(batch) <= size for batch in batches), (cap, size)
        got = [tuple(row) for batch in batches for row in batch.tolist()]
        assert got == want[1:], (cap, size)
    # the walk of a code with one more unit row, its block that row's q
    # multiples: batches of a few prefixes split the first orbit group
    # once it holds q^2 tuples, and chunks of two and three prefixes cross
    # groups
    eye = np.eye(length + 1, dtype=np.int64)
    g = codes.GeneratorMatrix("rm", F, 1, length + 1, eye, (), eye)
    batches, crossed = [], False
    cut = oracle._batches
    monkeypatch.setattr(oracle, "_batches",
                        lambda runs, size: (batches.append(len(b)) or b for b in cut(runs, size)))
    monkeypatch.setattr(oracle, "_BLOCK", radix)
    for per_chunk in (2, 3):
        monkeypatch.setattr(oracle, "_CHUNK_WORDS", per_chunk * radix)
        block, steps = oracle._walk(g, radix ** g.k)
        assert len(block) == radix
        seen = []
        for mult, prefixes, w in steps:
            assert prefixes.dtype == np.uint8 and w.shape == (len(prefixes), radix)
            assert not prefixes[:, length:].any()
            heads = [tuple(row[:length]) for row in prefixes.tolist()]
            for t in heads:
                assert mult == (1 if not any(t) else radix - 1), (t, mult)
            groups = {next((i for i, x in enumerate(t) if x), -1) for t in heads}
            crossed |= len(groups) > 1
            seen.extend(heads)
        assert seen == want, per_chunk
        assert length < 3 or batches[0] < radix ** (length - 1), batches
        batches.clear()
    assert crossed or length < 2


def test_simplex_distribution():
    dist = weight_distribution(prm_generator_matrix(F2, 1, 2))
    assert dist.counts == {0: 1, 4: 7}
    assert dist.total == 8
    assert dist.as_dict() == {"0": "1", "4": "7"}


def test_prm222_distribution():
    dist = weight_distribution(prm_generator_matrix(F2, 2, 2))
    assert dist.counts[0] == 1
    assert min(w for w in dist.counts if w) == 2
    assert dist.counts[2] == 21
    assert sum(dist.counts.values()) == 64


def test_zero_dimensional_code():
    g = prm_generator_matrix(F2, 1, 2)
    empty = replace(g, basis=(), rows=np.zeros((0, g.n), dtype=np.int64))
    dist = weight_distribution(empty)
    assert dist.counts == {0: 1}
    with pytest.raises(ValueError, match="^the zero code has no minimum distance$"):
        dist.dmin
    with pytest.raises(ValueError):
        brute_min_distance(empty)
    with pytest.raises(ValueError):
        brute_min_weight_words(empty)


def test_field_without_tables():
    # GF(1031) is above the lookup-table limit: the constant code of length
    # 1031 has the zero word and 1030 nonzero constants of full weight
    g = rm_generator_matrix(GF(1031), 0, 1)
    assert weight_distribution(g).counts == {0: 1, 1031: 1030}
    assert len(brute_min_weight_words(g)) == 1030


def test_guard():
    g = prm_generator_matrix(F2, 2, 2)   # 64 codewords
    with pytest.raises(GuardExceeded):
        weight_distribution(g, guard=63)
    assert weight_distribution(g, guard=64).total == 64


def test_distribution_invariant_under_row_operations():
    rng = random.Random(1)
    for F, d, m in [(F2, 2, 2), (F3, 2, 2), (F4, 2, 2)]:
        g = prm_generator_matrix(F, d, m)
        base = weight_distribution(g)
        k = g.k
        for _ in range(3):
            while True:
                A = [[rng.randrange(F.q) for _ in range(k)] for _ in range(k)]
                if linalg.rank(F, A) == k:
                    break
            rebased = replace(g, rows=linalg.mat_mul(F, A, g.rows))
            assert weight_distribution(rebased).counts == base.counts


def test_scalar_orbits_divide_counts():
    for F, d, m in [(F3, 2, 2), (F4, 2, 2), (GF(5), 2, 2)]:
        dist = weight_distribution(prm_generator_matrix(F, d, m))
        for w, c in dist.counts.items():
            if w:
                assert c % (F.q - 1) == 0, (F.q, w, c)


def test_min_words():
    g = prm_generator_matrix(F3, 2, 2)
    assert brute_min_distance(g) == 6 == prm_min_distance(3, 2, 2)
    words = brute_min_weight_words(g)
    assert len(words) == 156 == prm_min_weight_count(3, 2, 2)
    assert all(sum(1 for x in w if x) == 6 for w in words)
    grm = rm_generator_matrix(F2, 1, 2)
    assert brute_min_distance(grm) == 2
    assert len(brute_min_weight_words(grm)) == 6


def test_min_words_walk_once(monkeypatch):
    import prmcodes.oracle as oracle

    def walked_twice(*args, **kwargs):
        raise AssertionError("brute_min_weight_words walks the code a second time")

    monkeypatch.setattr(oracle, "weight_distribution", walked_twice)
    monkeypatch.setattr(oracle, "brute_min_distance", walked_twice)
    words = brute_min_weight_words(prm_generator_matrix(F3, 2, 2))
    assert len(words) == 156 == prm_min_weight_count(3, 2, 2)
    assert all(sum(1 for x in w if x) == 6 for w in words)


def _naive_codewords(g):
    F = g.field
    for msg in product(range(F.q), repeat=g.k):
        cw = [0] * g.n
        for c, row in zip(msg, g.rows.tolist()):
            if c:
                cw = [F.add(v, F.mul(c, x)) for v, x in zip(cw, row)]
        yield tuple(cw)


# (field, d, m) of the prm codes whose walks are checked against other
# enumerations
WALK_CASES = [(F2, 2, 2), (F3, 2, 2), (F4, 2, 2), (GF(5), 3, 1), (GF(3, 2), 3, 1),
              (F3, 1, 4), (F2, 1, 8), (F4, 1, 3), (GF(3, 2), 1, 2), (GF(5), 1, 3)]


def test_matches_direct_python_enumeration(monkeypatch):
    # cross-check the vectorized enumeration against a naive one, with the
    # default block (the trailing block holds the whole code) and with a
    # block of q rows, so the orbit walk and its chunks do the work; the
    # chunks take the default size, one prefix, and seven prefixes, which
    # divides no power of q here, so the last chunk of an orbit group is
    # partial; the fields sit on both sides of vadd: XOR for GF(2) and
    # GF(4), table gathers for GF(3), GF(5) and GF(9), and span 1 to 4 bit
    # planes; the first five codes have lengths 7, 13, 21, 6 and 10, so
    # their planes are one uint8, uint16 or uint32 word, and the last five
    # have lengths 121, 511, 85, 91 and 156, so their planes span several
    # uint64 words, and length 511 has weights past 255
    block, chunk = oracle._BLOCK, oracle._CHUNK_WORDS
    for F, d, m in WALK_CASES:
        g = prm_generator_matrix(F, d, m)
        naive = {}
        for cw in _naive_codewords(g):
            naive.setdefault(sum(1 for x in cw if x), set()).add(cw)
        counts = {w: len(words) for w, words in naive.items()}
        dmin = min(w for w in naive if w)
        words = 1 if g.n <= 32 else -(-g.n // 64)
        per_prefix = words * F.q               # W * R words with a block of q rows
        for small, per_chunk in [(False, chunk), (True, chunk), (True, 1), (True, 7 * per_prefix)]:
            monkeypatch.setattr(oracle, "_BLOCK", F.q if small else block)
            monkeypatch.setattr(oracle, "_CHUNK_WORDS", per_chunk)
            case = (F.q, d, m, small, per_chunk)
            assert weight_distribution(g).counts == counts, case
            assert word_set(brute_min_weight_words(g)) == naive[dmin], case


def _two_walk_min_words(g):
    """The minimum-weight words of g from two walks: d_min from
    weight_distribution, then every row of a second walk at that weight,
    expanded into the multiples its multiplier stands for."""
    dmin = min(w for w in weight_distribution(g).counts if w)
    block, steps = oracle._walk(g, g.field.q ** g.k)
    words = set()
    for mult, prefixes, w in steps:
        for p, r in zip(*np.nonzero(w == dmin)):
            word = g.field.vadd(block[r].astype(np.int64), prefixes[p])
            words.update(tuple(g.field.vmul(lam, word).tolist()) for lam in range(1, mult + 1))
    return words


def test_min_words_equals_distribution_and_two_walks(monkeypatch):
    # one walk gives the words that d_min from weight_distribution and a
    # second walk give, with the default block and chunk, a block of q rows, one-prefix chunks, and
    # batches of several chunks, the last one partial
    runs = [(F.q, d, m, block, chunk) for F, d, m in WALK_CASES
            for block, chunk in [(oracle._BLOCK, oracle._CHUNK_WORDS),
                                 (F.q, oracle._CHUNK_WORDS), (F.q, 1)]]
    for q, d, m, block, chunk in runs + BATCH_CASES:
        g = prm_generator_matrix(GF.from_q(q), d, m)
        monkeypatch.setattr(oracle, "_BLOCK", block)
        monkeypatch.setattr(oracle, "_CHUNK_WORDS", chunk)
        assert word_set(brute_min_weight_words(g)) == _two_walk_min_words(g), (q, d, m, block, chunk)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 1031])
def test_packed_weights_equal_nonzero_counts(q):
    # the compare kernel against a field add and a nonzero count, on random
    # blocks and chunks of one or several prefixes, with lengths on both
    # sides of every word width and weights past 255
    rng = np.random.default_rng(q)
    F = GF.from_q(q)
    bits = (q - 1).bit_length()
    for n in (1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 300):
        block = rng.integers(0, q, size=(40, n)).astype(np.min_scalar_type(q - 1))
        block[0] = 0
        prefixes = rng.integers(0, q, size=(5, n))
        prefixes[0, : n // 2] = F.vmul(F.p - 1, block[1, : n // 2].astype(np.int64))
        prefixes[1] = 0
        prefixes[2] = F.vmul(F.p - 1, block[2].astype(np.int64))
        planes = oracle._pack(block, bits)
        width = next((w for w in (8, 16, 32) if n <= w), 64)
        assert planes.dtype == np.dtype(f"uint{width}"), (q, n)
        assert planes.shape == (bits, -(-n // width), len(block)), (q, n)
        for pre in (prefixes, prefixes[:1], prefixes[1:2]):
            want = np.count_nonzero(F.vadd(block[None].astype(np.int64), pre[:, None]), axis=2)
            negp = oracle._pack(F.vmul(F.p - 1, pre), bits)
            got = oracle._weights(planes, negp, n)
            assert got.tolist() == want.tolist(), (q, n, len(pre))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_multiword_weights_are_uint8_up_to_255(q):
    # over several uint64 words the popcounts are summed in uint8 while
    # n <= 255, and in intp at n = 256, where row 1 against the zero
    # prefix has weight 256
    rng = np.random.default_rng(q)
    F = GF.from_q(q)
    bits = (q - 1).bit_length()
    for n, dtype in [(65, np.uint8), (85, np.uint8), (128, np.uint8), (255, np.uint8), (256, np.intp)]:
        block = rng.integers(0, q, size=(40, n))
        block[0] = 0
        block[1] = rng.integers(1, q, size=n)
        prefixes = rng.integers(0, q, size=(5, n))
        prefixes[1] = 0
        prefixes[2] = F.vmul(F.p - 1, block[2])
        planes = oracle._pack(block.astype(np.min_scalar_type(q - 1)), bits)
        want = np.count_nonzero(F.vadd(block[None], prefixes[:, None]), axis=2)
        got = oracle._weights(planes, oracle._pack(F.vmul(F.p - 1, prefixes), bits), n)
        assert got.dtype == dtype and got.tolist() == want.tolist(), (q, n)
        assert want.max() == n


@pytest.mark.parametrize("block,chunk", [(4096, 1 << 16), (1, 1 << 16), (2, 1 << 16), (2, 8)],
                         ids=["one-chunk", "zero-block", "block-q", "chunks-of-one"])
def test_simplex_code_of_length_255(monkeypatch, block, chunk):
    # prm(2,7,1) is the simplex code of length 255: 255 nonzero words, all
    # of weight 128, weighed in uint8 over four uint64 words.  A block of
    # one row makes a first chunk of the zero word alone, where the
    # running-minimum scan sees no nonzero weight at its sentinel 255 = n,
    # and so does the zero code of that length; chunks of one prefix are
    # counted in pairs
    g = prm_generator_matrix(F2, 1, 7)
    assert (g.n, g.k) == (255, 8)
    naive = list(_naive_codewords(g))
    counts = Counter(sum(1 for x in cw if x) for cw in naive)
    assert counts == {0: 1, 128: 255}
    monkeypatch.setattr(oracle, "_BLOCK", block)
    monkeypatch.setattr(oracle, "_CHUNK_WORDS", chunk)
    assert weight_distribution(g).counts == counts
    assert word_set(brute_min_weight_words(g)) == {cw for cw in naive if any(cw)}
    with pytest.raises(ValueError, match="^the zero code has no minimum distance$"):
        brute_min_weight_words(replace(g, basis=(), rows=np.zeros((0, 255), dtype=np.int64)))


@pytest.mark.parametrize("q,d,m", [(2, 2, 2), (3, 2, 2), (4, 2, 2), (5, 3, 1), (9, 3, 1)])
@pytest.mark.parametrize("small", [False, True], ids=["default-block", "block-q"])
def test_orbit_walk_work(monkeypatch, q, d, m, small):
    # every codeword is covered once, but each scalar orbit is walked once
    if small:
        monkeypatch.setattr(oracle, "_BLOCK", q)
    g = prm_generator_matrix(GF.from_q(q), d, m)
    k = g.k
    lo = max(i for i in range(k + 1) if q ** i <= oracle._BLOCK)
    _, steps = oracle._walk(g, q ** k)
    pairs = []
    for mult, prefixes, w in steps:
        assert w.shape == (len(prefixes), q ** lo)
        pairs.append((mult, w.size))
    assert sum(mult * rows for mult, rows in pairs) == q ** k
    assert sum(rows for _, rows in pairs) == q ** lo * (1 + (q ** (k - lo) - 1) // (q - 1))


# (q, d, m, block, chunk words): a block of R = q^lo rows, at least twice
# the length n, so that one packed batch of prefixes holds several compare
# chunks and the last chunk of a batch is partial
BATCH_CASES = [(2, 2, 3, 32, 96), (3, 2, 2, 27, 54), (4, 2, 2, 64, 200)]


@pytest.mark.parametrize("q,d,m,block,chunk", BATCH_CASES)
def test_batches_of_several_chunks_match_naive_enumeration(monkeypatch, q, d, m, block, chunk):
    g = prm_generator_matrix(GF.from_q(q), d, m)
    naive = {}
    for cw in _naive_codewords(g):
        naive.setdefault(sum(1 for x in cw if x), set()).add(cw)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    monkeypatch.setattr(oracle, "_CHUNK_WORDS", chunk)
    _, steps = oracle._walk(g, q ** g.k)
    sizes = [len(prefixes) for _, prefixes, _ in steps]
    assert len(set(sizes)) > 1, sizes           # some chunk is partial
    assert weight_distribution(g).counts == {w: len(c) for w, c in naive.items()}
    assert word_set(brute_min_weight_words(g)) == naive[min(w for w in naive if w)]


@pytest.mark.parametrize("q,d,m,block,chunk",
                         BATCH_CASES + [(2, 1, 6, 16, 64), (2, 1, 8, 4096, 1 << 16), (5, 2, 2, 25, 7)])
def test_no_step_weighs_more_than_a_chunk(monkeypatch, q, d, m, block, chunk):
    # a step's weights count (prefix, row) pairs: at most _CHUNK_WORDS of
    # them, or one prefix against the R rows when R alone is wider
    monkeypatch.setattr(oracle, "_BLOCK", block)
    monkeypatch.setattr(oracle, "_CHUNK_WORDS", chunk)
    g = prm_generator_matrix(GF.from_q(q), d, m)
    block_rows, steps = oracle._walk(g, q ** g.k)
    for _, prefixes, w in steps:
        assert w.shape == (len(prefixes), len(block_rows))
        assert w.size <= max(len(block_rows), chunk), (w.shape, chunk)


@pytest.mark.parametrize("q,d,m,block,chunk", BATCH_CASES)
def test_steps_do_not_share_buffers(monkeypatch, q, d, m, block, chunk):
    # the steps hold on to nothing a later step overwrites: a list of them
    # gives the histogram of consuming them one at a time
    monkeypatch.setattr(oracle, "_BLOCK", block)
    monkeypatch.setattr(oracle, "_CHUNK_WORDS", chunk)
    g = prm_generator_matrix(GF.from_q(q), d, m)

    def histogram(steps):
        hist = np.zeros(g.n + 1, dtype=np.int64)
        for mult, _, w in steps:
            hist += mult * np.bincount(w.ravel(), minlength=g.n + 1)
        return hist.tolist()

    one_at_a_time = histogram(oracle._walk(g, q ** g.k)[1])
    listed = list(oracle._walk(g, q ** g.k)[1])
    assert histogram(listed) == one_at_a_time
    assert sum(one_at_a_time) == q ** g.k


@pytest.mark.parametrize("drop", [0, -1], ids=["first-chunk", "last-chunk"])
def test_walk_that_drops_a_chunk_raises(monkeypatch, drop):
    # the coverage checks are explicit raises, so they hold under python -O
    walk = oracle._walk

    def dropping(g, guard):
        block, steps = walk(g, guard)
        steps = list(steps)
        del steps[drop]
        return block, iter(steps)

    monkeypatch.setattr(oracle, "_BLOCK", 3)
    monkeypatch.setattr(oracle, "_walk", dropping)
    g = prm_generator_matrix(F3, 2, 2)
    with pytest.raises(RuntimeError, match=r"covered \d+ of 3\^6 codewords"):
        weight_distribution(g)
    with pytest.raises(RuntimeError, match=r"covered \d+ of 3\^6 codewords"):
        brute_min_weight_words(g)


# chunk shapes (P, R) of 0, 1, odd and even weights
CHUNK_SHAPES = [(0, 5), (1, 1), (3, 7), (1, 2187), (2, 2048)]


@pytest.mark.parametrize("mult", [1, 8], ids=["mult-1", "mult-q-1"])
@pytest.mark.parametrize("n", [8, 63, 85, 255, 256, 511])
def test_pair_count_equals_bincount(n, mult):
    # after a walk's first chunk, the one-word walk's uint8 weights are
    # counted in pairs while n <= 255, wider weights one at a time; the
    # chunks hold the weights 0 and n
    rng = np.random.default_rng(n)
    for dtype in (np.uint8, np.intp) if n <= 255 else (np.intp,):
        first = (1, np.array([[n, 0, 1]], dtype=dtype))
        chunks = [first]
        for shape in CHUNK_SHAPES:
            w = rng.integers(0, n + 1, size=shape).astype(dtype)
            w.flat[:2] = (0, n)[: w.size]
            chunks.append((mult, w))

        def want(chunks):
            return sum(m * np.bincount(w.ravel(), minlength=n + 1) for m, w in chunks).tolist()

        for chunk in chunks:
            assert oracle._histogram([first, chunk], n).tolist() == want([first, chunk])
        got = oracle._histogram(chunks, n)
        assert got.dtype == np.int64 and got.tolist() == want(chunks), dtype


def test_pair_count_that_drops_the_odd_weight_raises(monkeypatch):
    # prm(3,3,2) is walked against a block of 2187 rows as the zero prefix,
    # then one chunk of all 13 orbit prefixes: that chunk's 28431 uint8
    # weights are counted in pairs and its odd last weight on its own, with
    # multiplier 2.  A pair count that loses that weight is caught by the
    # coverage check, under python -O too
    count_pairs = oracle._count_pairs
    monkeypatch.setattr(oracle, "_count_pairs",
                        lambda table, tail, mult, w: count_pairs(table, tail, mult, w[:-1]))
    with pytest.raises(RuntimeError, match=r"covered 59047 of 3\^10 codewords"):
        weight_distribution(prm_generator_matrix(F3, 3, 2))


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_flat_packer_equals_packing_by_row(bits):
    # one flat np.packbits a plane over rows padded to whole words gives
    # the bytes of packing each row on its own: on every word width and
    # its edges, on zero rows, one row, many rows and two leading axes,
    # for uint8 symbols and the uint16 symbols of fields past 256
    rng = np.random.default_rng(bits)
    for n in (1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 300):
        for shape in [(0, n), (1, n), (37, n), (3, 5, n)]:
            for dtype in (np.uint8, np.uint16):
                vals = rng.integers(0, 1 << bits, size=shape).astype(dtype)
                want, got = pack_by_row(vals, bits), oracle._pack(vals, bits)
                assert got.dtype == want.dtype and got.shape == want.shape, (n, shape, dtype)
                assert got.tobytes() == want.tobytes(), (n, shape, dtype)


def test_walk_peak_memory():
    # the walk of prm(2,5,2), 2^21 codewords of length 63 against a block
    # of 4096 rows, peaks at 1.1 MiB: the uint8 block and its packed plane,
    # one compare chunk and one pair count.  The block alone in int64 would
    # take 2 MiB
    g = prm_generator_matrix(F2, 2, 5)
    tracemalloc.start()
    try:
        dist = weight_distribution(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.total == 2 ** 21
    assert peak <= 1.5 * 2 ** 20


# -- the MacWilliams dual route ---------------------------------------------------


def _small_codes(limit):
    """(g, case) of every prm and rm code with q <= 5 and m <= 3 whose q^k
    and q^(n-k) both stay within the limit."""
    for q in (2, 3, 4, 5):
        F = GF.from_q(q)
        for m in (1, 2, 3):
            for family, orders in (("prm", range(1, m * (q - 1) + 2)),
                                   ("rm", range(m * (q - 1) + 1))):
                for order in orders:
                    make = prm_generator_matrix if family == "prm" else rm_generator_matrix
                    g = make(F, order, m)
                    if max(q ** g.k, q ** (g.n - g.k)) <= limit:
                        yield g, (family, q, m, order)


def test_dual_route_equals_primal_walk():
    cases = 0
    for g, case in _small_codes(1 << 18):
        assert oracle._dual_distribution(g).counts == weight_distribution(g).counts, case
        cases += 1
    assert cases == 50


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_krawtchouk_table_equals_the_sum(q):
    # the full table is the reference of the columns the dual route reads
    for n in (0, 1, 7, 13):
        table = krawtchouk_table(n, q)
        for j in range(n + 1):
            for i in range(n + 1):
                want = sum((-1) ** l * (q - 1) ** (i - l) * comb(j, l) * comb(n - j, i - l)
                           for l in range(i + 1))
                assert table[j][i] == want, (n, q, i, j)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_krawtchouk_columns_equal_the_table(q):
    for n in range(65):
        table = krawtchouk_table(n, q)
        assert [list(oracle._krawtchouk(n, q, j)) for j in range(n + 1)] == table, n


def test_parity_check_spans_the_dual():
    for g, case in _small_codes(1 << 12):
        h = codes.parity_check(g)
        assert h.shape == (g.n - g.k, g.n), case
        assert linalg.rank(g.field, h.tolist()) == g.n - g.k, case
        assert not linalg.mat_mul(g.field, g.rows, h.T).any(), case


@pytest.mark.parametrize("q,codes_with_n_up_to_729",
                         [(2, 54), (3, 48), (4, 34), (5, 44), (7, 39), (8, 45), (9, 51)])
def test_affine_parity_check_equals_elimination(q, codes_with_n_up_to_729):
    # the H read off the inverse evaluation map against the H of the
    # elimination, [-A^T | I] from the reduced row echelon form [I | A] of
    # G, on every rm code over GF(q) with n <= 729: the same shape and the
    # same reduced row echelon form.  The forms are compared with the free
    # columns first, where the elimination H is already reduced; equal
    # forms in one column order mean equal row spaces, and so equal forms
    # in every order
    F = GF.from_q(q)
    cases = [(m, nu) for m in range(1, 10) if q ** m <= 729 for nu in range(m * (q - 1) + 1)]
    assert len(cases) == codes_with_n_up_to_729
    for m, nu in cases:
        g, case = rm_generator_matrix(F, nu, m), (q, m, nu)
        n = g.n
        red, pivots = linalg.rref(F, g.rows)
        free = sorted(set(range(n)) - set(pivots))
        want = np.zeros((len(free), n), dtype=np.int64)
        want[:, pivots] = F.vmul(F.p - 1, red[: len(pivots), free].T)
        want[np.arange(len(free)), free] = 1
        h = codes.parity_check(g)
        assert h.shape == want.shape == (n - g.k, n), case
        order = free + pivots
        got, want = linalg.rref(F, h[:, order]), linalg.rref(F, want[:, order])
        assert got[1] == want[1] and np.array_equal(got[0], want[0]), case


@pytest.mark.parametrize("F,nu,m", [(F2, 2, 3), (F3, 3, 2), (F4, 5, 2), (GF(3, 2), 7, 1)])
@pytest.mark.parametrize("entry", [(0, -1), (-1, -1), (1, -2)], ids=["first-row", "last-row", "inner"])
def test_wrong_inverse_evaluation_entry_raises(monkeypatch, F, nu, m, entry):
    # an affine code's H is read off V_1^-1, the right half of the reduced
    # form of [V_1 | I]; one wrong entry there fails V_1 V_1^-1 = I, an
    # explicit raise that holds under python -O too.  Each code takes the
    # dual route, so distribution raises as well
    real = linalg.rref

    def corrupted(field, rows):
        red, pivots = real(field, rows)
        red[entry] = field.add(int(red[entry]), 1)
        return red, pivots

    monkeypatch.setattr(linalg, "rref", corrupted)
    g = rm_generator_matrix(F, nu, m)
    assert oracle.route(F.q, g.k, g.n, 1 << 24) == "dual"
    message = r"^V_1 times the inverse read off \[V_1 \| I\] is not the identity$"
    with pytest.raises(RuntimeError, match=message):
        codes.parity_check(g)
    with pytest.raises(RuntimeError, match="is not the identity"):
        distribution(g)


def test_changed_affine_generator_row_raises():
    # rm(3,2,3) has k = 8 of n = 9: H is the one row of (V^-1)^T at the
    # exponent vector (2, 2).  G with one symbol changed, one row replaced
    # by another of V, or one row and its basis entry repeated is no longer
    # the evaluation of k distinct exponent vectors, and parity_check raises
    # instead of returning an H
    g = rm_generator_matrix(F3, 3, 2)
    changed = g.rows.copy()
    changed[1, 0] = F3.add(int(changed[1, 0]), 1)
    top = codes._evaluate(F3, codes.power_table(F3, 2), [(2, 2)], g.points)
    repeated = np.concatenate([g.rows[:-1], g.rows[:1]])
    for bad in (replace(g, rows=changed),
                replace(g, rows=np.concatenate([g.rows[:-1], top])),
                replace(g, basis=g.basis[:-1] + g.basis[:1], rows=repeated)):
        with pytest.raises(RuntimeError, match="not the evaluations of k distinct exponent vectors"):
            codes.parity_check(bad)
    assert codes.parity_check(g).shape == (1, 9)


def test_distribution_routes_and_refusal():
    # prm(3,3,5) has 3^36 codewords and a dual of 3^4; the full space
    # prm(3,3,7) has a dual with one word
    g = prm_generator_matrix(F3, 5, 3)
    assert oracle.route(3, g.k, g.n, 1 << 24) == "dual"
    dist = distribution(g)
    assert dist.counts[3] == 1040 and dist.total == 3 ** 36
    full = distribution(prm_generator_matrix(F3, 7, 3))
    assert full.counts == {i: comb(40, i) * 2 ** i for i in range(41)}
    # the simplex code prm(2,2,1) has 2^3 codewords and a dual of 2^4: the
    # smaller side is walked, and a tie goes to the primal walk
    small = prm_generator_matrix(F2, 1, 2)
    assert oracle.route(2, small.k, small.n, 64) == "primal"
    assert distribution(small, 64) == weight_distribution(small, 64)
    assert oracle.route(3, 20, 40, 3 ** 20) == "primal"
    assert oracle.route(2, 6, 7, 64) == "dual"
    # neither walk fits: the refusal names the smaller one
    with pytest.raises(GuardExceeded, match=r"^oracle guard: 3\^20 codewords > 16777216$"):
        distribution(prm_generator_matrix(F3, 3, 3))
    with pytest.raises(GuardExceeded, match=r"^oracle guard: 2\^3 codewords > 7$"):
        distribution(prm_generator_matrix(F2, 1, 2), 7)     # 2^3 words, dual 2^4


def test_corrupted_parity_check_row_raises(monkeypatch):
    # one wrong entry in the echelon form G is reduced to puts a row of H
    # outside the dual code; the check is an explicit raise, so it holds
    # under python -O too
    real = linalg.rref

    def corrupted(field, rows):
        red, pivots = real(field, rows)
        free = next(j for j in range(len(red[0])) if j not in pivots)
        red[0][free] = field.add(red[0][free], 1)
        return red, pivots

    monkeypatch.setattr(linalg, "rref", corrupted)
    g = prm_generator_matrix(F3, 5, 3)
    with pytest.raises(RuntimeError, match="not orthogonal"):
        oracle._dual_distribution(g)
    with pytest.raises(RuntimeError, match="not orthogonal"):
        distribution(g)


@pytest.mark.parametrize("j,i", [(0, 1), (0, 0), (27, 5)], ids=["K1(0)", "K0(0)", "K5(27)"])
def test_wrong_krawtchouk_entry_raises(monkeypatch, j, i):
    # prm(3,3,5): the dual walk gives B_0 = 1 and B_27 = 80, so an entry off
    # by one in column 0 or 27 breaks a division or the total
    real = oracle._krawtchouk

    def wrong(n, q, col):
        for row, k in enumerate(real(n, q, col)):
            yield k + (col == j and row == i)

    monkeypatch.setattr(oracle, "_krawtchouk", wrong)
    with pytest.raises(RuntimeError, match="MacWilliams transform"):
        oracle._dual_distribution(prm_generator_matrix(F3, 5, 3))


# -- the information-set route ------------------------------------------------------


def test_information_sets_equal_the_walk():
    # every code whose two walks fit 2^14 also fits its information-set
    # route there; both give the same d_min, A_dmin and word set.  Those
    # are short codes over prime fields and GF(4), so rm(3,4,1) (length
    # 81, two uint64 words a plane) and prm(9,1,3) (GF(9)) come too.
    wide = [(rm_generator_matrix(F3, 1, 4), ("rm", 3, 4, 1)),
            (prm_generator_matrix(GF(3, 2), 3, 1), ("prm", 9, 1, 3))]
    cases = 0
    for g, case in [*_small_codes(1 << 14), *wide]:
        isd = oracle.information_set_min_weight(g, 1 << 14)
        words = brute_min_weight_words(g)
        assert (isd.dmin, isd.count) == (np.count_nonzero(words[0]), len(words)), case
        assert word_set(isd.words) == word_set(words), case
        cases += 1
    assert cases == 48


def test_information_set_refusal_at_its_need():
    # prm(3,2,2): 3^6 codewords, a dual of 3^7, and G_j of ranks 6, 6, 1;
    # its rows weigh at least 6, so the bound 2(p + 1) first exceeds 6 at
    # p = 3, where the rank-1 set does not count: 2 * (18 rows + 2 sets *
    # (C(6,2) 2 + C(6,3) 4)) = 476 codewords
    g = prm_generator_matrix(F3, 2, 2)
    assert oracle.route(3, g.k, g.n, 476) == "information-set"
    result = oracle.min_weight(g, 476)
    assert (result.dmin, result.count) == (6, 156)
    with pytest.raises(GuardExceeded, match=r"^oracle guard: 476 codewords > 475$"):
        oracle.min_weight(g, 475)


def test_corrupted_information_set_row_raises(monkeypatch):
    # one symbol of a lightest row of G_2 set to 0: that row, lighter than
    # d_min, is kept, and the check against H raises (an explicit raise,
    # so under python -O too)
    real = oracle._information_sets

    def corrupted(g):
        sets = real(g)
        rows, r = sets[1]
        rows = rows.copy()
        i = int(np.argmin(np.count_nonzero(rows, axis=1)))
        rows[i, np.flatnonzero(rows[i])[-1]] = 0
        return [sets[0], (rows, r), *sets[2:]]

    monkeypatch.setattr(oracle, "_information_sets", corrupted)
    with pytest.raises(RuntimeError, match="not a codeword of weight 5"):
        oracle.information_set_min_weight(prm_generator_matrix(F3, 2, 2), 476)


@pytest.mark.parametrize("family,q,m,order", [
    ("prm", 2, 2, 2), ("prm", 3, 2, 2), ("rm", 2, 3, 2), ("rm", 3, 2, 2), ("prm", 4, 1, 2)])
def test_level_pairs_are_the_orbit_representatives_once(family, q, m, order):
    # the sums block[r] + prefixes[i] over a level's pairs are the codewords
    # m G of the weight-p messages whose first nonzero symbol is 1, each
    # exactly once (sorted lists, so a word weighed twice fails too), and
    # each pair's packed planes weigh those sums
    F = GF.from_q(q)
    make = prm_generator_matrix if family == "prm" else rm_generator_matrix
    rows = linalg.rref(F, make(F, order, m).rows)[0]
    k, n = rows.shape
    messages = np.array(list(product(range(q), repeat=k)), dtype=np.int64)
    lead = messages[np.arange(len(messages)), np.argmax(messages != 0, axis=1)]
    words = np.zeros((len(messages), n), dtype=np.int64)
    for i in range(k):
        words = F.vadd(words, F.vmul(messages[:, i:i + 1], rows[i]))
    weights = np.count_nonzero(messages, axis=1)
    levels = 0
    for p, pairs in enumerate(oracle._level_pairs(F, rows, k), start=2):
        sums = []
        for prefixes, negp, block, planes in pairs:
            pair = F.vadd(prefixes[:, None, :], block[None].astype(np.int64))
            assert (oracle._weights(planes, negp, n) == np.count_nonzero(pair, axis=2)).all()
            sums += map(tuple, pair.reshape(-1, n).tolist())
        expected = words[(weights == p) & (lead == 1)]
        assert sorted(sums) == sorted(map(tuple, expected.tolist())), p
        levels += 1
    assert levels == k - 1


def test_information_set_route_that_drops_a_pair_raises(monkeypatch):
    # the last pair of level 2 of each G_j left out: the coverage check is
    # an explicit raise, so it holds under python -O too
    real = oracle._level_pairs

    def dropping(field, rows, top):
        levels = real(field, rows, top)
        yield next(levels)[:-1]
        yield from levels

    monkeypatch.setattr(oracle, "_level_pairs", dropping)
    with pytest.raises(RuntimeError, match=r"information sets covered \d+ of 476 codewords"):
        oracle.information_set_min_weight(prm_generator_matrix(F3, 2, 2), 476)
