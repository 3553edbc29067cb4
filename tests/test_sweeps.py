"""The verify sweep as a table of checks: one row per planned check, skip
details that name their guard, and FAIL details with a counterexample."""

import re
from collections import Counter

import pytest

from prmcodes import codes, dimension, minwt, oracle
from prmcodes.errors import GuardExceeded
from prmcodes.gf import GF
from prmcodes.sweeps import SweepConfig, run_verify

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
    "cfg",
    [
        SweepConfig(qs=(3,), m_lo=2, m_hi=2, guard=100),
        SweepConfig(qs=(3,), m_lo=3, m_hi=3, d_lo=3, d_hi=3),
    ],
    ids=["q3-m2-guard100", "q3-m3-d3"],
)
def test_one_row_per_planned_check(cfg):
    rep = run_verify(cfg)
    rows = Counter((r.family, r.q, r.m, r.d, r.check) for r in rep.results)
    want = planned_keys(cfg)
    assert len(want) == len(set(want))
    assert rows == Counter(want)
    assert any(r.status == "SKIPPED" for r in rep.results)
    assert rep.ok


def test_rank_guard_skips_name_the_rank_guard():
    cfg = SweepConfig(qs=(2,), m_lo=3, m_hi=3, d_lo=1, d_hi=1, rank_len_guard=10)
    rep = run_verify(cfg)
    prm = {r.check: r for r in rep.results if r.family == "prm"}
    assert prm["dims"].status == "PASS"
    for check in ("rank", "distance", "count", "witness-set"):
        assert prm[check].status == "SKIPPED"
        assert prm[check].detail == "rank guard: length 15 > 10"
    assert all(r.status == "PASS" for r in rep.results if r.family == "rm")


def test_oracle_guard_skips_say_needed_and_limit():
    rep = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2, guard=100))
    skipped = [r for r in rep.results if r.status == "SKIPPED"]
    assert skipped
    for r in skipped:
        assert re.fullmatch(r"oracle guard: 3\^\d+ codewords > 100", r.detail), r.detail
    witness = [r for r in skipped if r.check == "witness-set"]
    assert witness                     # refused with the walk, not left out


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: codes.affine_points(F2, 3, guard=5),
         r"point guard: 2\^3 affine points > 5"),
        (lambda: codes.projective_points(F2, 2, guard=5),
         r"point guard: 7 projective points > 5"),
        (lambda: oracle.weight_distribution(codes.prm_generator_matrix(F2, 2, 2), guard=63),
         r"oracle guard: 2\^6 codewords > 63"),
        (lambda: dimension.dim_report(2, 2, 2, with_rank=True, rank_guard=3),
         r"rank guard: length 7 > 3"),
        (lambda: minwt.enumerate_witness_codewords(F3, 2, 2, guard=100),
         r"witness guard: 624 form tuples x 3 scalar sets > 100"),
        (lambda: minwt.support_fiber_check(F3, 2, 2, guard=5),
         r"fiber guard: \d+ incidence tuples > 5"),
        (lambda: minwt.tau_bijection_check(F2, 2, 2, guard=5),
         r"tau guard: 21 flag pairs > 5"),
    ],
    ids=["affine", "projective", "oracle", "rank", "witness", "fiber", "tau"],
)
def test_guard_messages_name_guard_needed_and_limit(call, message):
    with pytest.raises(GuardExceeded) as exc:
        call()
    assert re.fullmatch(message, str(exc.value)), str(exc.value)


@pytest.mark.parametrize("side", ["no witness", "not minimum weight"])
def test_witness_set_fail_names_a_codeword(monkeypatch, side):
    real = minwt.enumerate_witness_codewords
    changed = []

    def corrupted(field, d, m, guard):
        words = set(real(field, d, m, guard))
        if side == "no witness":
            word = min(words)
            words.discard(word)
        else:
            word = (1,) * len(next(iter(words)))      # full weight, never minimum here
            words.add(word)
        changed.append(word)
        return words

    monkeypatch.setattr(minwt, "enumerate_witness_codewords", corrupted)
    rep = run_verify(SweepConfig(qs=(2,), m_lo=2, m_hi=2, d_lo=2, d_hi=2))
    (bad,) = [r for r in rep.results if r.status == "FAIL"]
    assert bad.check == "witness-set"
    assert f"{side}: {','.join(map(str, changed[0]))}" in bad.detail
