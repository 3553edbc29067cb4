import json
from pathlib import Path

import pytest

from prmcodes import dimension, minwt
from prmcodes.cli import main
from prmcodes.sweeps import SweepConfig, run_verify, table_rows


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "X0^3*X1^2*X2", "--q", "3", "--m", "2")
    assert code == 0
    assert out.strip() == "X0*X1^2*X2^3"
    code, out, _ = run(
        capsys, "reduce", "X0^3*X1^2*X2", "--q", "3", "--m", "2", "--format", "json"
    )
    assert json.loads(out)["reduced"] == "X0*X1^2*X2^3"


def test_reduce_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "reduce", "X0 + ?", "--q", "3", "--m", "2")
    assert code == 2
    assert "column" in err


def test_genmat_csv(capsys):
    code, out, _ = run(capsys, "genmat", "--family", "prm", "--q", "2", "--d", "1", "--m", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4                       # header + 3 rows
    assert all(len(l.split(",")) == 7 for l in lines)


def test_genmat_json_and_order_flag(capsys):
    code, out, _ = run(
        capsys, "genmat", "--family", "rm", "--q", "2", "--order", "1", "--m", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "rm" and len(payload["rows"]) == 3


def test_genmat_missing_order(capsys):
    # the order is given exactly once, by --d or --order
    for orders in ([], ["--d", "1", "--order", "2"]):
        with pytest.raises(SystemExit) as e:
            main(["genmat", "--family", "prm", "--q", "2", "--m", "1", *orders])
        assert e.value.code == 2
        assert "order" in capsys.readouterr().err


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--q", "2", "--m", "2", "--d", "1:3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,m,d,length,alpha,beta,gamma,delta,distance,minwt_count,agree"
    assert lines[1] == "2,2,1,7,3,3,3,3,4,7,True"
    assert lines[2] == "2,2,2,7,6,6,6,6,2,21,True"
    assert lines[3] == "2,2,3,7,7,7,7,7,1,7,True"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_exits_1_on_disagreement(capsys, monkeypatch, fmt):
    monkeypatch.setattr(dimension, "dim_alpha", lambda q, d, m: 999)
    code, out, _ = run(capsys, "table", "--q", "2", "--m", "2", "--d", "1", "--format", fmt)
    assert code == 1
    if fmt == "csv":
        assert out.split("\n")[1] == "2,2,1,7,999,3,3,3,4,7,False"
    else:
        (row,) = json.loads(out)
        assert row["alpha"] == "999" and row["agree"] is False


def test_table_deterministic(capsys):
    _, out1, _ = run(capsys, "table", "--q", "2,3", "--m", "1:2")
    _, out2, _ = run(capsys, "table", "--q", "2,3", "--m", "1:2")
    assert out1 == out2


def test_table_d_range_over_maximum_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--q", "2", "--m", "2", "--d", "1:99")
    assert code == 2
    assert "maximum" in err


@pytest.mark.parametrize("command", ["verify", "table"])
@pytest.mark.parametrize("flags, message", [
    (["--q", "2,2", "--m", "1", "--d", "1"], "error: q values 2,2 repeat a field"),
    (["--q", "2", "--m", "3:1"], "error: m range 3:1 is empty"),
    (["--q", "2", "--m", "1", "--d", "3:2"], "error: d range 3:2 is empty"),
], ids=["repeated-q", "empty-m-range", "empty-d-range"])
def test_sweep_that_would_repeat_or_plan_nothing_is_usage_error(capsys, command, flags, message):
    # a repeated q would give every one of its checks two rows, an empty
    # m range would report 0 passed with nothing checked, and an empty d
    # range would report the rm rows alone
    code, out, err = run(capsys, command, *flags)
    assert code == 2
    assert out == ""
    assert err.strip() == message


def test_table_rejects_q_not_a_prime_power(capsys):
    code, out, err = run(capsys, "table", "--q", "6", "--m", "1:1")
    assert code == 2
    assert out == ""
    assert "error: 6 is not a prime power" in err


def test_witness_seeded_deterministic(capsys):
    code, out1, _ = run(capsys, "witness", "--q", "2", "--d", "2", "--m", "2", "--seed", "1")
    assert code == 0
    # text form: polynomial line, then the codeword as CSV
    poly_line, cw_line = out1.strip().split("\n")
    cw = [int(x) for x in cw_line.split(",")]
    assert len(cw) == 7 and sum(1 for x in cw if x) == 2
    _, out2, _ = run(capsys, "witness", "--q", "2", "--d", "2", "--m", "2", "--seed", "1")
    assert out1 == out2
    code, out3, _ = run(
        capsys, "witness", "--q", "2", "--d", "2", "--m", "2", "--seed", "1",
        "--format", "json",
    )
    assert json.loads(out3)["weight"] == 2


@pytest.mark.parametrize("q, d, m, top", [(2, 5, 2, 3), (2, 2, 0, 1), (2, 0, 2, 3)],
                         ids=["five-forms-in-three-dims", "m0", "d0"])
def test_witness_order_outside_range_is_usage_error(capsys, q, d, m, top):
    # beyond the top order a witness needs more independent forms than the
    # space holds, and rejection sampling for them would never end
    code, out, err = run(capsys, "witness", "--q", str(q), "--d", str(d), "--m", str(m))
    assert code == 2
    assert out == ""
    assert err == f"error: order {d} outside [1, {top}]\n"


@pytest.mark.parametrize("argv", [
    ["count-minwt", "--q", "2", "--d", "1", "--m", "0"],
    ["check-fibers", "--q", "3", "--d", "1", "--m", "0"],
    ["genmat", "--family", "rm", "--order", "0", "--q", "2", "--m", "0"],
    ["witness", "--q", "2", "--d", "1", "--m", "0"],
], ids=["count-minwt", "check-fibers", "genmat-rm", "witness"])
def test_m_zero_is_usage_error(capsys, argv):
    # the order is in range at m = 0, so the one parameter check names m
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: m must be positive, got 0\n"


def test_count_minwt(capsys):
    code, out, _ = run(
        capsys, "count-minwt", "--q", "3", "--d", "2", "--m", "2", "--oracle"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["formula_count"] == payload["brute_count"] == "156"
    assert payload["agree"] is True
    # prm(3,3,5) is over the guard, so the oracle count comes from its dual
    code, out, _ = run(
        capsys, "count-minwt", "--q", "3", "--d", "5", "--m", "3", "--oracle"
    )
    assert code == 0
    assert json.loads(out)["brute_count"] == "1040"
    # at guard 476 both walks of prm(3,2,2) are over it, and the count
    # comes from its information sets
    code, out, _ = run(
        capsys, "count-minwt", "--q", "3", "--d", "2", "--m", "2", "--oracle", "--guard", "476"
    )
    assert code == 0
    assert json.loads(out)["brute_count"] == "156"


def test_count_minwt_exits_1_on_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(minwt, "prm_min_weight_count_alt", lambda q, d, m: 999)
    code, out, _ = run(
        capsys, "count-minwt", "--q", "3", "--d", "2", "--m", "2", "--oracle"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["alt_count"] == "999" and payload["agree"] is False


def test_check_fibers_dispatch(capsys):
    code, out, _ = run(capsys, "check-fibers", "--q", "3", "--d", "2", "--m", "2")
    assert code == 0
    assert json.loads(out)["j_size"] == 1872
    # s = 0 dispatches to the flag-pair bijection report
    code, out, _ = run(capsys, "check-fibers", "--q", "2", "--d", "2", "--m", "2")
    assert code == 0
    assert json.loads(out)["pair_count"] == 21


def test_distribution(capsys):
    code, out, _ = run(
        capsys, "distribution", "--family", "prm", "--q", "2", "--order", "2", "--m", "2"
    )
    assert code == 0
    assert json.loads(out) == {"0": "1", "2": "21", "4": "35", "6": "7"}


def test_distribution_through_the_dual_code(capsys):
    # prm(3,3,5) has 3^36 codewords, over the default guard; its dual has 3^4
    code, out, _ = run(
        capsys, "distribution", "--family", "prm", "--q", "3", "--order", "5", "--m", "3"
    )
    assert code == 0
    counts = {int(w): int(c) for w, c in json.loads(out).items()}
    assert counts[0] == 1 and min(w for w in counts if w) == 3
    assert counts[3] == 1040
    assert sum(counts.values()) == 3 ** 36


def test_verify_passes_on_defaults(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--m", "1:2")
    assert code == 0
    assert "FAIL" not in out
    assert "0 failed" in out


def test_verify_text_matches_golden(capsys):
    # every row of a default sweep, byte for byte
    golden = Path(__file__).with_name("golden") / "verify_q2-3_m1-2.txt"
    code, out, _ = run(capsys, "verify", "--q", "2,3", "--m", "1:2")
    assert code == 0
    assert out == golden.read_text()


def test_verify_exit_matches_report(capsys):
    cfg = SweepConfig(qs=(2,), m_hi=2)
    rep = run_verify(cfg)
    assert rep.ok
    assert all(r.status in ("PASS", "SKIPPED") for r in rep.results)


def test_verify_detects_corrupted_formula(capsys, monkeypatch):
    monkeypatch.setattr(dimension, "dim_alpha", lambda q, d, m: 999)
    rep = run_verify(SweepConfig(qs=(2,), m_hi=2))
    bad = [r for r in rep.results if r.status == "FAIL"]
    assert bad and not rep.ok
    assert bad[0].check == "dims"
    assert "alpha=999" in bad[0].detail           # counterexample values reported
    code, out, _ = run(capsys, "verify", "--q", "2", "--m", "1:2")
    assert code == 1
    assert "FAIL" in out


def test_verify_skips_over_guard(capsys):
    rep = run_verify(SweepConfig(qs=(3,), m_lo=2, m_hi=2, guard=100))
    skipped = [r for r in rep.results if r.status == "SKIPPED"]
    assert skipped
    assert rep.ok                                  # skips never count as failures


def test_verify_json_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--q", "2", "--m", "1:1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["counts"]["FAIL"] == 0


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["table", "--q", "nonsense"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["bogus-command"])
    assert e.value.code == 2


def test_guard_and_seed_only_where_read(capsys):
    genmat = ["genmat", "--family", "prm", "--q", "2", "--d", "1", "--m", "2"]
    for extra in (["--guard", "5"], ["--seed", "1"]):
        with pytest.raises(SystemExit) as e:
            main(genmat + extra)
        assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["verify", "--q", "2", "--m", "1", "--seed", "1"])
    assert e.value.code == 2
    code, _, err = run(
        capsys, "distribution", "--family", "prm", "--q", "3", "--order", "2",
        "--m", "2", "--guard", "5",
    )
    assert code == 2
    assert "oracle guard: 3^6 codewords > 5" in err


@pytest.mark.parametrize("command", [
    ["count-minwt", "--q", "3", "--d", "2", "--m", "2"],
    ["check-fibers", "--q", "3", "--d", "2", "--m", "2"],
    ["distribution", "--family", "prm", "--q", "2", "--order", "2", "--m", "2"],
], ids=lambda c: c[0])
def test_format_only_where_read(capsys, tmp_path, command):
    # these three print JSON only: --format is a usage error, --out is kept
    with pytest.raises(SystemExit) as e:
        main(command + ["--format", "json"])
    assert e.value.code == 2
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, *command, "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())


@pytest.mark.parametrize("command", [
    ["verify", "--q", "2", "--m", "1", "--guard"],
    ["count-minwt", "--q", "3", "--d", "2", "--m", "2", "--oracle", "--guard"],
    ["distribution", "--family", "prm", "--q", "3", "--order", "2", "--m", "2", "--guard"],
    ["verify", "--q", "2", "--m", "1", "--witness-guard"],
    ["check-fibers", "--q", "3", "--d", "2", "--m", "2", "--witness-guard"],
], ids=lambda c: f"{c[0]}{c[-1]}")
@pytest.mark.parametrize("guard", ["0", "-5", "x"])
def test_non_positive_guard_is_usage_error(capsys, command, guard):
    with pytest.raises(SystemExit) as e:
        main(command + [guard])
    assert e.value.code == 2
    assert f"expected a positive int, got {guard!r}" in capsys.readouterr().err


def test_table_csv_with_rank_column(capsys):
    code, out, _ = run(capsys, "table", "--q", "2", "--m", "2", "--with-rank")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].endswith(",minwt_count,rank,agree")
    assert lines[1] == "2,2,1,7,3,3,3,3,4,7,3,True"


def test_table_with_rank_matches_golden(capsys):
    # q <= 9 and m <= 4 over every order, with the rank of G: 338 rows
    code, out, _ = run(capsys, "table", "--q", "2,3,4,5,7,8,9", "--m", "1:4", "--with-rank")
    assert code == 0
    assert out == (Path(__file__).with_name("golden") / "dimension_table.csv").read_text()


def test_table_with_rank_names_the_rank_guard(capsys):
    code, out, _ = run(capsys, "table", "--q", "2", "--m", "9", "--d", "1:2", "--with-rank")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "2,9,1,1023,10,10,10,10,512,1023,rank guard: length 1023 > 400,True"
    assert len(lines) == 3 and all("rank guard: length 1023 > 400" in l for l in lines[1:])


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "mat.csv"
    code, out, _ = run(
        capsys, "genmat", "--family", "prm", "--q", "2", "--d", "1", "--m", "2",
        "--out", str(path),
    )
    assert code == 0
    assert out == ""
    assert len(path.read_text().strip().split("\n")) == 4


def test_table_rows_library_shape():
    rows = table_rows(SweepConfig(qs=(2,), m_lo=2, m_hi=2, with_rank=True))
    assert [r["d"] for r in rows] == [1, 2, 3]
    assert all(r["rank"] == r["gamma"] for r in rows)
    assert all(r["agree"] for r in rows)
    with pytest.raises(ValueError, match="^d range ends at 4, above the maximum 3 for q=2, m=2$"):
        table_rows(SweepConfig(qs=(2,), m_lo=2, m_hi=2, d_lo=4, d_hi=4))


@pytest.mark.parametrize(
    "q, d, m, kw, dim, rank",
    [
        (2, 2, 2, {"with_rank": True}, 6, 6),
        (3, 5, 2, {"with_rank": True}, 13, 13),
        (9, 3, 2, {}, 10, None),
        (2, 2, 2, {"with_rank": True, "rank_len_guard": 3}, 6, "rank guard: length 7 > 3"),
    ],
    ids=["q2-d2-m2", "q3-d5-m2", "q9-d3-m2-no-rank", "rank-guard"],
)
def test_table_row_cases(q, d, m, kw, dim, rank):
    # all four formulas agree, with the rank of G where it is built and the
    # named guard where the code is too long; the flag reads True throughout
    (row,) = table_rows(SweepConfig(qs=(q,), m_lo=m, m_hi=m, d_lo=d, d_hi=d, **kw))
    assert [row[k] for k in ("alpha", "beta", "gamma", "delta")] == [dim] * 4
    assert row.get("rank") == rank
    assert row["agree"] is True


def test_table_json_counts_are_strings(capsys):
    code, out, _ = run(capsys, "table", "--q", "2", "--m", "2", "--d", "2", "--with-rank",
                       "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["alpha"] == "6" and row["rank"] == "6" and row["agree"] is True


# the commands whose output is built from points, matrices and codewords;
# tests/golden/text_edge.txt holds each one's argv line and its output
TEXT_EDGE_COMMANDS = [
    ["genmat", "--family", "prm", "--q", "4", "--d", "3", "--m", "2", "--format", "csv"],
    ["genmat", "--family", "prm", "--q", "4", "--d", "3", "--m", "2", "--format", "json"],
    ["genmat", "--family", "rm", "--q", "3", "--order", "2", "--m", "2", "--format", "csv"],
    ["genmat", "--family", "rm", "--q", "3", "--order", "2", "--m", "2", "--format", "json"],
    ["witness", "--q", "3", "--d", "2", "--m", "2", "--seed", "1", "--format", "json"],
    ["distribution", "--family", "prm", "--q", "3", "--order", "2", "--m", "2"],
    ["count-minwt", "--q", "3", "--d", "2", "--m", "2", "--oracle"],
    ["check-fibers", "--q", "3", "--d", "2", "--m", "2"],
    ["check-fibers", "--q", "2", "--d", "3", "--m", "3"],
    ["verify", "--q", "2", "--m", "2:2", "--guard", "4", "--format", "json"],
]


def test_text_edge_matches_golden(capsys):
    # a numpy scalar or array repr leaking into CSV or JSON shows up here
    golden = Path(__file__).with_name("golden") / "text_edge.txt"
    parts = []
    for argv in TEXT_EDGE_COMMANDS:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        parts.append(f"$ prmcodes {' '.join(argv)}\n{out}")
    assert "".join(parts) == golden.read_text()
