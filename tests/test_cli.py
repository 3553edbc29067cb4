import json

import pytest

from prmcodes import dimension
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
    code, _, err = run(capsys, "genmat", "--family", "prm", "--q", "2", "--m", "2")
    assert code == 2
    assert "order" in err


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--q", "2", "--m", "2", "--d", "1:3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,m,d,length,alpha,beta,gamma,delta,distance,minwt_count,agree"
    assert lines[1] == "2,2,1,7,3,3,3,3,4,7,True"
    assert lines[2] == "2,2,2,7,6,6,6,6,2,21,True"
    assert lines[3] == "2,2,3,7,7,7,7,7,1,7,True"


def test_table_deterministic(capsys):
    _, out1, _ = run(capsys, "table", "--q", "2,3", "--m", "1:2")
    _, out2, _ = run(capsys, "table", "--q", "2,3", "--m", "1:2")
    assert out1 == out2


def test_table_empty_range_ok(capsys):
    code, out, _ = run(capsys, "table", "--q", "2", "--m", "2", "--d", "3:2")
    assert code == 0
    assert out.strip() == "q,m,d,length,alpha,beta,gamma,delta,distance,minwt_count,agree"


def test_table_d_range_over_maximum_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--q", "2", "--m", "2", "--d", "1:99")
    assert code == 2
    assert "maximum" in err


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


def test_count_minwt(capsys):
    code, out, _ = run(
        capsys, "count-minwt", "--q", "3", "--d", "2", "--m", "2", "--oracle"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["formula_count"] == payload["brute_count"] == "156"
    assert payload["agree"] is True


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


def test_verify_passes_on_defaults(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--m", "1:2")
    assert code == 0
    assert "FAIL" not in out
    assert "0 failed" in out


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


def test_table_csv_with_rank_column(capsys):
    code, out, _ = run(capsys, "table", "--q", "2", "--m", "2", "--with-rank")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].endswith(",minwt_count,rank,agree")
    assert lines[1] == "2,2,1,7,3,3,3,3,4,7,3,True"


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
