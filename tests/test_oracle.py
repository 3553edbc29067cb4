import random
from dataclasses import replace
from itertools import product

import pytest

from prmcodes import linalg
from prmcodes.codes import prm_generator_matrix, rm_generator_matrix
from prmcodes.errors import GuardExceeded
from prmcodes.gf import GF
from prmcodes.minwt import prm_min_distance, prm_min_weight_count
from prmcodes.oracle import (
    _gray_transitions,
    brute_min_distance,
    brute_min_weight_words,
    weight_distribution,
)

F2, F3, F4 = GF(2), GF(3), GF(2, 2)


@pytest.mark.parametrize("radix,length", [(2, 5), (3, 4), (4, 3), (5, 2), (2, 1), (3, 0)])
def test_gray_walk_visits_every_tuple_once(radix, length):
    state = [0] * length
    seen = {tuple(state)}
    for pos, old, new in _gray_transitions(radix, length):
        assert state[pos] == old
        assert abs(new - old) == 1
        assert 0 <= new < radix
        state[pos] = new
        t = tuple(state)
        assert t not in seen
        seen.add(t)
    assert len(seen) == radix ** length


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
    empty = replace(g, basis=(), rows=())
    dist = weight_distribution(empty)
    assert dist.counts == {0: 1}
    with pytest.raises(ValueError):
        brute_min_distance(empty)
    with pytest.raises(ValueError):
        brute_min_weight_words(empty)


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
            rebased = replace(
                g, rows=tuple(tuple(r) for r in linalg.mat_mul(F, A, g.rows))
            )
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


def test_matches_direct_python_enumeration():
    # cross-check the vectorized enumeration against a naive one
    for F, d, m in [(F2, 2, 2), (F3, 2, 2), (F4, 2, 2)]:
        g = prm_generator_matrix(F, d, m)
        naive = {}
        for msg in product(range(F.q), repeat=g.k):
            cw = [0] * g.n
            for c, row in zip(msg, g.rows):
                if c:
                    cw = [F.add(v, F.mul(c, x)) for v, x in zip(cw, row)]
            w = sum(1 for x in cw if x)
            naive[w] = naive.get(w, 0) + 1
        assert weight_distribution(g).counts == naive
