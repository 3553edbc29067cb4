"""The verify sweep as a table of checks: one row per planned check, skip
details that name their guard, and FAIL details with a counterexample."""

import re
from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from prmcodes import codes, linalg, minwt, oracle, sweeps
from prmcodes.errors import ORACLE_GUARD, GuardExceeded
from prmcodes.gf import GF
from prmcodes.sweeps import SweepConfig, run_verify, table_rows

from lemmas import word_set

F2, F3 = GF(2), GF(3)


def planned_keys(cfg):
    """(family, q, m, order, check) of every check the (t, s) rule plans:
    five per projective tuple plus fibers when s != 0 or tau when s = 0 and
    t >= 1, and distance and count for every affine order of each (q, m)."""
    keys = []
    for q in cfg.qs:
        for m in range(cfg.m_lo, cfg.m_hi + 1):
            hi = cfg.d_hi if cfg.d_hi is not None else m * (q - 1) + 1
            for d in range(cfg.d_lo, hi + 1):
                t, s = divmod(d - 1, q - 1)
                checks = ["dims", "rank", "distance", "count", "witness-set"]
                if s:
                    checks.append("fibers")
                elif t >= 1:
                    checks.append("tau")
                keys += [("prm", q, m, d, c) for c in checks]
            for nu in range(m * (q - 1) + 1):
                keys += [("rm", q, m, nu, c) for c in ("distance", "count")]
    return keys


@pytest.mark.parametrize(
    "cfg, skipped",
    [
        # prm(3,2,2) is over the guard on all three routes; prm(3,3,3), over
        # both walks, takes the information-set route
        (SweepConfig(qs=(3,), m_lo=2, m_hi=2, guard=100), 3),
        (SweepConfig(qs=(3,), m_lo=3, m_hi=3, d_lo=3, d_hi=3), 0),
    ],
    ids=["q3-m2-guard100", "q3-m3-d3"],
)
def test_one_row_per_planned_check(cfg, skipped):
    rep = run_verify(cfg)
    rows = Counter((r.family, r.q, r.m, r.d, r.check) for r in rep.results)
    want = planned_keys(cfg)
    assert len(want) == len(set(want))
    assert rows == Counter(want)
    assert rep.counts()["SKIPPED"] == skipped
    assert rep.ok


@pytest.mark.parametrize("qs,bad", [((6,), 6), ((2, 12), 12), ((1024, 10), 10)])
def test_q_must_be_a_prime_power(qs, bad):
    # the table needs no field, so the sweep itself must refuse
    for cfg in (SweepConfig(qs=qs, m_hi=1), SweepConfig(qs=qs, m_hi=1, with_rank=True)):
        with pytest.raises(ValueError, match=f"^{bad} is not a prime power$"):
            table_rows(cfg)
        with pytest.raises(ValueError, match=f"^{bad} is not a prime power$"):
            run_verify(cfg)


@pytest.mark.parametrize("guard", ["guard", "witness_guard", "rank_len_guard"])
def test_guards_must_be_positive(guard):
    with pytest.raises(ValueError, match="^guards must be positive$"):
        run_verify(SweepConfig(qs=(2,), m_lo=1, m_hi=1, **{guard: 0}))


def test_rank_guard_skips_name_the_rank_guard(monkeypatch):
    # prm(2,3,1) has length 15: below that limit its G is never built, and
    # every row that reads G or the oracle names the rank guard
    built = []
    real = codes.prm_generator_matrix

    def recording(field, d, m):
        built.append((d, m))
        return real(field, d, m)

    monkeypatch.setattr(codes, "prm_generator_matrix", recording)
    for limit in (10, 14, 15):
        built.clear()
        cfg = SweepConfig(qs=(2,), m_lo=3, m_hi=3, d_lo=1, d_hi=1, rank_len_guard=limit)
        rep = run_verify(cfg)
        prm = {r.check: r for r in rep.results if r.family == "prm"}
        assert all(r.status == "PASS" for r in rep.results if r.family == "rm")
        if limit == 15:
            assert built == [(1, 3)]
            assert all(r.status == "PASS" for r in rep.results)
            continue
        assert built == []
        assert prm["dims"].status == "PASS"
        for check in ("rank", "distance", "count", "witness-set"):
            assert prm[check].status == "SKIPPED"
            assert prm[check].detail == f"rank guard: length 15 > {limit}"


def test_oracle_guard_skips_say_needed_and_limit():
    # prm(3,2,2) has 3^6 codewords and a dual of 3^7, and the
    # information-set route needs 476: the refusal names the least of the
    # three; at guard 26 the dual walk of prm(3,2,3), 3^3 words, is over
    # the guard and still needs less than that route
    rep = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2, guard=100))
    skipped = [r for r in rep.results if r.status == "SKIPPED"]
    assert {(r.family, r.d) for r in skipped} == {("prm", 2)}
    for r in skipped:
        assert r.detail == "oracle guard: 476 codewords > 100", r.detail
    witness = [r for r in skipped if r.check == "witness-set"]
    assert witness                     # refused with the oracle, not left out
    walks = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2, d_lo=3, d_hi=3, guard=26))
    (row,) = [r for r in walks.results if r.family == "prm" and r.check == "distance"]
    assert row.detail == "oracle guard: 3^3 codewords > 26"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: codes.affine_points(F2, 3, guard=5),
         r"point guard: 2\^3 affine points > 5"),
        (lambda: codes.projective_points(F2, 2, guard=5),
         r"point guard: 7 projective points > 5"),
        (lambda: oracle.weight_distribution(codes.prm_generator_matrix(F2, 2, 2), guard=63),
         r"oracle guard: 2\^6 codewords > 63"),
        (lambda: sweeps._rank(sweeps.Code(SweepConfig(rank_len_guard=3), F2, "prm", 2, 2)),
         r"rank guard: length 7 > 3"),
        (lambda: minwt.enumerate_witness_codewords(F3, 2, 2, guard=100),
         r"witness guard: 312 classes > 100"),
        (lambda: minwt.enumerate_witness_codewords(F3, 3, 2, guard=51),
         r"witness guard: 52 classes > 51"),
        (lambda: minwt.support_fiber_check(F3, 2, 2, guard=5),
         r"fiber guard: 312 classes > 5"),
        (lambda: minwt.tau_bijection_check(F2, 2, 2, guard=5),
         r"tau guard: 21 classes > 5"),
    ],
    ids=["affine", "projective", "oracle", "rank", "witness", "witness-t1", "fiber", "tau"],
)
def test_guard_messages_name_guard_needed_and_limit(call, message):
    with pytest.raises(GuardExceeded) as exc:
        call()
    assert re.fullmatch(message, str(exc.value)), str(exc.value)


def _corrupt_witness_set(monkeypatch, side):
    """Make the witness enumeration drop its least word or add a full-weight
    one; returns the list that will hold the changed word."""
    real = minwt.enumerate_witness_codewords
    changed = []

    def corrupted(field, d, m, guard):
        words = word_set(real(field, d, m, guard))
        if side == "no witness":
            word = min(words)
            words.discard(word)
        else:
            word = (1,) * len(next(iter(words)))      # full weight, never minimum here
            words.add(word)
        changed.append(word)
        return np.array(sorted(words), dtype=np.uint8)

    monkeypatch.setattr(minwt, "enumerate_witness_codewords", corrupted)
    return changed


@pytest.mark.parametrize("side", ["no witness", "not minimum weight"])
def test_witness_set_fail_names_a_codeword(monkeypatch, side):
    changed = _corrupt_witness_set(monkeypatch, side)
    rep = run_verify(SweepConfig(qs=(2,), m_lo=2, m_hi=2, d_lo=2, d_hi=2))
    (bad,) = [r for r in rep.results if r.status == "FAIL"]
    assert bad.check == "witness-set"
    assert f"{side}: {','.join(map(str, changed[0]))}" in bad.detail


@pytest.mark.parametrize("side", ["no witness", "not minimum weight"])
def test_witness_set_fail_on_the_dual_route(monkeypatch, side):
    # with the guard below 2^6 the code prm(2,2,2) is walked through its
    # dual (2^1 words), so the row checks membership and count: an added
    # word is named, a dropped one shows in the two sizes
    changed = _corrupt_witness_set(monkeypatch, side)
    rep = run_verify(SweepConfig(qs=(2,), m_lo=2, m_hi=2, d_lo=2, d_hi=2, guard=8))
    assert [r.check for r in rep.results if r.status == "SKIPPED"] == []
    (bad,) = [r for r in rep.results if r.status == "FAIL"]
    assert bad.check == "witness-set"
    if side == "no witness":
        assert bad.detail == "witness set size 20, oracle count 21"
    else:
        assert bad.detail == ("witness set size 22, oracle count 21; "
                              f"not minimum weight: {','.join(map(str, changed[0]))}")


@pytest.mark.parametrize("guard", [ORACLE_GUARD, 8], ids=["primal", "dual"])
def test_witness_set_counts_distinct_words(monkeypatch, guard):
    # the enumeration drops its least word of prm(2,2,2) (A_dmin = 21) and
    # repeats another, so it still returns 21 rows: the row counts 20
    # distinct words on both routes and, on the primal one, names the
    # dropped word
    real = minwt.enumerate_witness_codewords
    dropped = []

    def corrupted(field, d, m, guard):
        words = real(field, d, m, guard)
        least = min(range(len(words)), key=lambda i: words[i].tolist())
        dropped.append(words[least].tolist())
        kept = np.delete(words, least, axis=0)
        return np.concatenate([kept, kept[:1]])

    monkeypatch.setattr(minwt, "enumerate_witness_codewords", corrupted)
    rep = run_verify(SweepConfig(qs=(2,), m_lo=2, m_hi=2, d_lo=2, d_hi=2, guard=guard))
    (bad,) = [r for r in rep.results if r.status == "FAIL"]
    assert bad.check == "witness-set"
    sizes = "witness set size 20, oracle count 21"
    if guard == ORACLE_GUARD:
        assert bad.detail == f"{sizes}; no witness: {','.join(map(str, dropped[0]))}"
    else:
        assert bad.detail == sizes


@pytest.mark.parametrize("guard", [ORACLE_GUARD, 32], ids=["primal", "dual"])
def test_witness_set_rejects_a_non_codeword(monkeypatch, guard):
    # a word of weight d_min outside the code fails H c^T = 0 even though
    # the count is kept: prm(2,3,2) (2^10 words, dual 2^5, walked itself at
    # the default guard and through its dual at guard 32) has 105 words of
    # weight 4 among the 1365 vectors of that weight, so swap one for a
    # weight-4 vector that is not a codeword
    real = minwt.enumerate_witness_codewords
    swapped = []

    def corrupted(field, d, m, guard):
        words = word_set(real(field, d, m, guard))
        outside = next(w for w in product((0, 1), repeat=15)
                       if sum(w) == 4 and w not in words)
        words.discard(min(words))
        words.add(outside)
        swapped.append(outside)
        return np.array(sorted(words), dtype=np.uint8)

    monkeypatch.setattr(minwt, "enumerate_witness_codewords", corrupted)
    rep = run_verify(SweepConfig(qs=(2,), m_lo=3, m_hi=3, d_lo=2, d_hi=2, guard=guard))
    (bad,) = [r for r in rep.results if r.status == "FAIL"]
    assert bad.check == "witness-set"
    assert bad.detail == ("witness set size 105, oracle count 105; "
                          f"not minimum weight: {','.join(map(str, swapped[0]))}")


def test_affine_codes_over_both_walks_are_refused_before_g_is_built(monkeypatch):
    # rm(2,8,nu) for nu = 2..5 has 2^37..2^219 words and a dual of
    # 2^219..2^37: neither walk fits, and the information-set route, which
    # reduces G, is held to the rank-length guard, here below the length
    # 256, so its matrix is never evaluated
    built = []
    real = codes.rm_generator_matrix

    def recording(field, nu, m):
        built.append(nu)
        return real(field, nu, m)

    monkeypatch.setattr(codes, "rm_generator_matrix", recording)
    rep = run_verify(SweepConfig(qs=(2,), m_lo=8, m_hi=8, d_lo=1, d_hi=1, rank_len_guard=255))
    rm = {(r.d, r.check): r for r in rep.results if r.family == "rm"}
    assert sorted(built) == [0, 1, 6, 7, 8]
    for nu in (2, 3, 4, 5):
        for check in ("distance", "count"):
            assert rm[nu, check].status == "SKIPPED"
            assert rm[nu, check].detail == "rank guard: length 256 > 255"
    assert all(rm[nu, check].status == "PASS" for nu in (0, 1, 6, 7, 8)
               for check in ("distance", "count"))


def test_incidence_rows_fail_when_a_subspace_is_dropped(monkeypatch):
    real = minwt._flats

    def dropped(field, m, t):
        flats = real(field, m, t)
        next(flats)
        return flats

    monkeypatch.setattr(minwt, "_flats", dropped)
    rep = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2))
    rows = {(r.d, r.check): r for r in rep.results if r.check in ("fibers", "tau")}
    assert {key: r.status for key, r in rows.items()} == {
        (2, "fibers"): "FAIL", (3, "tau"): "FAIL", (4, "fibers"): "FAIL", (5, "tau"): "FAIL",
    }
    # the fiber check at t = 0 has the one subspace E = V(0), at t = 1 thirteen
    assert rows[2, "fibers"].detail.startswith("|J|=0/1872 ")
    assert rows[4, "fibers"].detail.startswith("|J|=15552/16848 ")
    for d, expected in ((3, 52), (5, 13)):
        found, want = re.match(r"pairs=(\d+)/(\d+) ", rows[d, "tau"].detail).groups()
        assert int(want) == expected and int(found) < expected


def test_rows_fail_when_a_class_block_is_dropped(monkeypatch):
    # the witness set and both incidence checks read one class walk: drop
    # its first block and the fiber rows (s != 0) and tau rows (s = 0) of
    # GF(3), m = 2 count too few classes, and the witness sets of s = 0
    # lose the words L_t [V(W)] of one W, which no other block gives.  At
    # s != 0 the dropped words come back from other blocks: L_t L' is
    # also walked with L' as the first form.
    real = minwt._class_words

    def dropped(*args):
        blocks = real(*args)
        next(blocks)
        return blocks

    monkeypatch.setattr(minwt, "_class_words", dropped)
    rep = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2))
    failed = {(r.d, r.check) for r in rep.results if r.status == "FAIL"}
    assert failed == {(1, "witness-set"), (3, "witness-set"), (5, "witness-set"),
                      (2, "fibers"), (3, "tau"), (4, "fibers"), (5, "tau")}
    assert rep.counts()["SKIPPED"] == 0


def _incidence_rows(monkeypatch, attr, fake):
    """The fiber and tau rows of the GF(3), m = 2 sweep with one minwt
    attribute replaced; every other row still PASSes."""
    monkeypatch.setattr(minwt, attr, fake)
    rep = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2))
    incidence = ("fibers", "tau")
    assert all(r.status == "PASS" for r in rep.results if r.check not in incidence)
    return {(r.d, r.check): r for r in rep.results if r.check in incidence}


def test_fiber_rows_fail_on_a_wrong_class_weight(monkeypatch):
    # forgetting the q translates L_{t+1} + a L_t of each class cuts every
    # count to a third over GF(3); the support count is read off the walk
    # and agrees
    rows = _incidence_rows(monkeypatch, "_class_size", lambda q, t: (q - 1) * q ** (2 * t))
    assert (rows[2, "fibers"].status, rows[2, "fibers"].detail) == (
        "FAIL", "|J|=624/1872 fibers=(8,)/24 count=156/156")
    assert (rows[4, "fibers"].status, rows[4, "fibers"].detail) == (
        "FAIL", "|J|=5616/16848 fibers=(72,)/216 count=156/156")
    assert rows[3, "tau"].status == rows[5, "tau"].status == "PASS"


def test_fiber_rows_fail_when_two_translates_are_walked(monkeypatch):
    # over GF(3), m = 2 the coefficient table that the L_{t+1} range reads
    # gives X0 + X1 on P^2 (table row 12) and Y0 + Y1 on P^1 (row 4) no
    # coefficient at column 1, while their values stay true.  So for each
    # L_t = X1 + c X2 on P^2 (t = 0), and L_t = Y1 on P^1 (t = 1), that form
    # passes the range beside X0 - c X2, or Y0, of which it is the
    # translate by L_t.  Those classes are walked twice and |J| overshoots;
    # the form values are real, so the witness sets and the tau rows still
    # PASS.
    real = minwt._form_values

    def one_more_translate(field, coeffs, pts):
        vals = real(field, coeffs, pts)
        q, n = field.q, coeffs.shape[1]
        if n >= 2:
            coeffs[q ** (n - 1) + q ** (n - 2), 1] = 0
        return vals

    rows = _incidence_rows(monkeypatch, "_form_values", one_more_translate)
    for d in (2, 4):
        assert rows[d, "fibers"].status == "FAIL"
        found, want = map(int, re.match(r"\|J\|=(\d+)/(\d+) ", rows[d, "fibers"].detail).groups())
        assert found > want
    assert rows[3, "tau"].status == rows[5, "tau"].status == "PASS"


def test_incidence_rows_fail_when_a_class_is_walked_twice(monkeypatch):
    # 2 * X2 (table row 2) joins X2 as a first form or hyperplane: every
    # class with L_t in the scalar orbit of X2 is walked twice, and so is
    # every hyperplane V(X2) of an E
    real = minwt._leading_one

    def one_more(q, m):
        mask = real(q, m).copy()
        mask[2] = True
        return mask

    rows = _incidence_rows(monkeypatch, "_leading_one", one_more)
    for d in (2, 4):
        assert rows[d, "fibers"].status == "FAIL"
        found, want = map(int, re.match(r"\|J\|=(\d+)/(\d+) ", rows[d, "fibers"].detail).groups())
        assert found > want
    for d in (3, 5):
        assert rows[d, "tau"].status == "FAIL"
        assert "injective=False" in rows[d, "tau"].detail


def _corrupt_form_table(monkeypatch, change):
    real = minwt._form_values

    def corrupted(field, coeffs, pts):
        vals = real(field, coeffs, pts)
        change(vals, field.q)
        return vals

    monkeypatch.setattr(minwt, "_form_values", corrupted)


def test_verify_fails_on_a_wrong_form_value(monkeypatch):
    # q=3, m=2: in the form table of each P^(m-t), the last coordinate
    # (table row 1) reads 2 instead of 1 at the first point (0, ..., 0, 1).
    # The witness-set row of prm(3,2,2) (t=0, s=1, the table of P^2) and
    # both fiber rows read that row and FAIL.  The tau rows stay PASS: they
    # read only whether a value is zero, and 2 is as nonzero as 1 (a flip
    # to zero is a later test).
    def change(vals, q):
        vals[1, 0] = (vals[1, 0] + 1) % q

    _corrupt_form_table(monkeypatch, change)
    rep = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2))
    rows = {(r.d, r.check): r for r in rep.results if r.family == "prm"}
    assert rows[2, "witness-set"].status == "FAIL"
    assert rows[2, "witness-set"].detail.startswith("witness set size 196, oracle count 156; ")
    assert rows[2, "fibers"].status == rows[4, "fibers"].status == "FAIL"
    assert rows[2, "fibers"].detail == (
        "|J|=1872/1872 fibers=(6, 12, 18, 24)/24 count=180/156")
    assert rows[3, "tau"].status == rows[5, "tau"].status == "PASS"
    assert rep.counts()["SKIPPED"] == 0


def test_tau_rows_fail_on_a_copied_form_row(monkeypatch):
    # q=3, m=2: on P^1, the flats of prm(3,2,3) (t=1), the row of Y0 + Y1
    # (row 4) holds the values of Y0 (row 3), so two hyperplanes of each E
    # give the same support E minus H.  At t = m = 2 each E is a point, a
    # copy of P^0, whose table holds the forms 0, Y0 and 2 Y0 and walks
    # Y0 alone: no walked row can be copied there, and prm(3,2,5) PASSes
    # (a flat walked twice is the next test).
    def change(vals, q):
        if len(vals) > 4:
            vals[4] = vals[3]

    _corrupt_form_table(monkeypatch, change)
    rep = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2))
    rows = {(r.d, r.check): r for r in rep.results if r.check == "tau"}
    assert (rows[3, "tau"].status, rows[3, "tau"].detail) == (
        "FAIL", "pairs=52/52 injective=False count=104/104")
    assert rows[5, "tau"].status == "PASS"


def test_incidence_rows_fail_when_a_flat_is_walked_twice(monkeypatch):
    # the first flat of each walk comes twice: its supports are counted
    # again, the 4 hyperplanes of a copy of P^1 (t=1) or the one point of
    # P^0 (t=2), so the tau rows lose injectivity and |J| overshoots
    real = minwt._flats

    def repeated(field, m, t):
        flats = real(field, m, t)
        first = next(flats)
        yield first
        yield first
        yield from flats

    rows = _incidence_rows(monkeypatch, "_flats", repeated)
    assert rows[3, "tau"].detail == "pairs=56/52 injective=False count=112/104"
    assert rows[5, "tau"].detail == "pairs=14/13 injective=False count=28/26"
    for d in (2, 4):
        assert rows[d, "fibers"].status == "FAIL"
        found, want = map(int, re.match(r"\|J\|=(\d+)/(\d+) ", rows[d, "fibers"].detail).groups())
        assert found > want


def test_tau_rows_fail_on_a_value_flipped_to_zero(monkeypatch):
    # q=3, m=2: in the form table of each P^(m-t), the last coordinate
    # (row 1) reads 0 instead of 1 at the first point (0, ..., 0, 1).  On
    # P^1 (t=1) no two supports E minus H coincide, so injectivity holds,
    # but the supports that hold or lose that point are the wrong size:
    # prm(3,2,3) needs q^(m-t) = 3 points.  At t = m = 2 every E is a copy
    # of P^0, whose one point is that point: all 13 words read 0, so their
    # supports are empty (size 0 of 1) and equal.
    def change(vals, q):
        vals[1, 0] = 0

    _corrupt_form_table(monkeypatch, change)
    rep = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2))
    rows = {(r.d, r.check): r for r in rep.results if r.check == "tau"}
    assert rows[3, "tau"].detail == "pairs=52/52 injective=True count=104/104 size=2/3"
    assert rows[5, "tau"].detail == "pairs=13/13 injective=False count=26/26 size=0/1"
    assert {r.status for r in rows.values()} == {"FAIL"}


def test_dual_route_builds_the_parity_check_once(monkeypatch):
    # under guard 8 prm(2,2,2) (2^6 words, dual 2^1), rm(2,2,1) (2^3,
    # dual 2^1) and rm(2,2,2) (2^4, dual 2^0) are walked through their
    # duals: the walk and the witness membership check of prm(2,2,2) read
    # one H
    calls = []
    real = codes.parity_check

    def counting(g):
        calls.append((g.family, g.order))
        return real(g)

    monkeypatch.setattr(codes, "parity_check", counting)
    rep = run_verify(SweepConfig(qs=(2,), m_lo=2, m_hi=2, d_lo=2, d_hi=2, guard=8))
    assert rep.ok and rep.counts()["SKIPPED"] == 0
    assert calls == [("prm", 2), ("rm", 1), ("rm", 2)]


def test_primal_route_walks_each_projective_code_once(monkeypatch):
    # every code of q=3, m=2 fits the default oracle guard, so each is
    # walked once: the distance, count and witness-set rows of a projective
    # code share the walk that gives both its distribution and its words
    calls = []
    real = oracle._walk

    def recording(g, guard):
        calls.append((g.family, g.order))
        return real(g, guard)

    monkeypatch.setattr(oracle, "_walk", recording)
    rep = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2))
    assert rep.ok and rep.counts()["SKIPPED"] == 0
    assert sorted(calls) == [("prm", d) for d in range(1, 6)] + [("rm", nu) for nu in range(5)]


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("guard", [ORACLE_GUARD, 8], ids=["primal", "dual"])
def test_witness_set_fails_on_a_wrong_oracle_count(monkeypatch, guard, delta):
    # an oracle that miscounts the 21 words of weight 3 of prm(2,2,2) fails
    # the count row and the witness-set row; the witness set itself is
    # right, so the row gives the two sizes and names no word
    real = oracle.distribution

    def miscounted(g, guard):
        dist = real(g, guard)
        counts = dict(dist.counts)
        counts[dist.dmin] += delta
        return replace(dist, counts=counts)

    monkeypatch.setattr(oracle, "distribution", miscounted)
    rep = run_verify(SweepConfig(qs=(2,), m_lo=2, m_hi=2, d_lo=2, d_hi=2, guard=guard))
    rows = {r.check: r for r in rep.results if r.family == "prm"}
    assert {c for c, r in rows.items() if r.status != "PASS"} == {"count", "witness-set"}
    assert rows["count"].status == rows["witness-set"].status == "FAIL"
    assert rows["count"].detail == f"oracle={21 + delta} formula=21 alt=21"
    assert rows["witness-set"].detail == f"witness set size 21, oracle count {21 + delta}"


def test_a_pass_sweep_does_no_work_twice(monkeypatch):
    # H is built once per projective code, and gives its rank too, and once
    # per affine code walked through its dual (rm(3,2,nu) for nu = 2..4,
    # k = 6, 8, 9 of n = 9); no PASS row walks a code for its
    # minimum-weight words
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            code = args[0]          # a generator matrix, or the field for rank
            calls[name, getattr(code, "family", None), getattr(code, "order", None)] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(codes, "parity_check", counting("parity_check", codes.parity_check))
    monkeypatch.setattr(linalg, "rank", counting("rank", linalg.rank))
    monkeypatch.setattr(oracle, "brute_min_weight_words",
                        counting("brute_min_weight_words", oracle.brute_min_weight_words))
    rep = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2))
    assert rep.ok and rep.counts()["SKIPPED"] == 0
    assert calls == Counter([("parity_check", "prm", d) for d in range(1, 6)]
                            + [("parity_check", "rm", nu) for nu in (2, 3, 4)])


def test_a_refused_code_predicts_its_work_once(monkeypatch):
    # prm(3,2,2) is over the guard on all three routes; its distance, count
    # and witness-set rows re-raise one refusal
    calls = Counter()
    real = oracle._information_sets

    def counting(g):
        calls[g.family, g.order] += 1
        return real(g)

    monkeypatch.setattr(oracle, "_information_sets", counting)
    rep = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2, d_lo=2, d_hi=2, guard=100))
    assert [r.detail for r in rep.results if r.status == "SKIPPED"] == [
        "oracle guard: 476 codewords > 100"] * 3
    assert calls == {("prm", 2): 1}


def test_information_sets_stopped_a_level_early_fail(monkeypatch):
    # a bound one level ahead stops prm(3,2,2) at p = 2: it sees d_min = 6
    # but only 120 of the 156 words of that weight
    real = oracle._bound
    monkeypatch.setattr(oracle, "_bound", lambda k, ranks, p: real(k, ranks, p + 1))
    rep = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2, d_lo=2, d_hi=2, guard=476))
    rows = {r.check: r for r in rep.results if r.family == "prm"}
    assert {c for c, r in rows.items() if r.status != "PASS"} == {"count", "witness-set"}
    assert rows["count"].detail == "oracle=120 formula=156 alt=156"
    assert rows["witness-set"].detail == "witness set size 156, oracle count 120"
