"""Command-line surface.

Subcommands: table, verify, genmat, reduce, witness, count-minwt,
check-fibers, distribution.  Every command takes --out PATH, and the five
with a CSV or text form also take --format {json,csv}; count-minwt,
check-fibers and distribution print JSON only.  --guard N (codewords an
oracle route may cover, a positive int) is taken by verify, count-minwt
and distribution, the commands that walk a code or its dual code (verify
and count-minwt also take the information-set route);
--witness-guard N (classes the witness and incidence walk may visit, a
positive int) by verify and check-fibers; --seed N only by witness.  genmat
takes its order exactly once, as --d or as --order.  Guard defaults live
in errors.py.  Exit codes: 0 success, 1 verification failure, 2 usage
error.  Every command is deterministic given its flags; the witness
command derives its randomness from --seed (default 0).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import codes, minwt, oracle, sweeps
from .errors import ORACLE_GUARD, WITNESS_GUARD
from .gf import GF
from .poly import PolyParseError, format_poly, parse_poly, reduce_projective


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if sep else lo_i
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO:HI, got {text!r}")
    return lo_i, hi_i


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive int, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive int, got {text!r}")
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common_flags(sp: argparse.ArgumentParser, with_format: bool = True) -> None:
    if with_format:
        sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.add_argument("--out", default=None, help="write output to a file")


def _guard_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--guard", type=_positive_int, default=ORACLE_GUARD,
                    help="max codewords an oracle route may cover")


def _witness_guard_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--witness-guard", type=_positive_int, default=WITNESS_GUARD,
                    help="max classes the witness and incidence walk may visit")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prmcodes",
        description="Reed-Muller and projective Reed-Muller codes over GF(q): "
        "tables, matrices, witnesses, counts, and verification sweeps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table", help="dimension/distance/count table")
    sp.set_defaults(run=cmd_table)
    sp.add_argument("--q", type=_parse_ints, default=(2, 3))
    sp.add_argument("--m", type=_parse_range, default=(1, 2))
    sp.add_argument("--d", type=_parse_range, default=None)
    sp.add_argument("--with-rank", action="store_true")
    _common_flags(sp)

    sp = sub.add_parser("verify", help="full cross-verification sweep")
    sp.set_defaults(run=cmd_verify)
    sp.add_argument("--q", type=_parse_ints, default=(2, 3))
    sp.add_argument("--m", type=_parse_range, default=(1, 2))
    sp.add_argument("--d", type=_parse_range, default=None)
    _witness_guard_flag(sp)
    _guard_flag(sp)
    _common_flags(sp)

    sp = sub.add_parser("genmat", help="emit a generator matrix")
    sp.set_defaults(run=cmd_genmat)
    sp.add_argument("--family", choices=("rm", "prm"), required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    order = sp.add_mutually_exclusive_group(required=True)
    order.add_argument("--d", type=int, dest="order", help="order (projective family)")
    order.add_argument("--order", type=int, help="order (either family)")
    _common_flags(sp)

    sp = sub.add_parser("reduce", help="projectively reduce a polynomial")
    sp.set_defaults(run=cmd_reduce)
    sp.add_argument("poly")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    _common_flags(sp)

    sp = sub.add_parser("witness", help="a random minimum-weight witness")
    sp.set_defaults(run=cmd_witness)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    _common_flags(sp)

    sp = sub.add_parser("count-minwt", help="minimum-weight codeword counts")
    sp.set_defaults(run=cmd_count_minwt)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--oracle", action="store_true", help="also brute force")
    _guard_flag(sp)
    _common_flags(sp, with_format=False)

    sp = sub.add_parser("check-fibers", help="incidence consistency report")
    sp.set_defaults(run=cmd_check_fibers)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    _witness_guard_flag(sp)
    _common_flags(sp, with_format=False)

    sp = sub.add_parser("distribution", help="exhaustive weight distribution")
    sp.set_defaults(run=cmd_distribution)
    sp.add_argument("--family", choices=("rm", "prm"), required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    _guard_flag(sp)
    _common_flags(sp, with_format=False)

    return ap


def _cfg(args, **kw) -> sweeps.SweepConfig:
    d = args.d if args.d is not None else (1, None)
    return sweeps.SweepConfig(
        qs=args.q, m_lo=args.m[0], m_hi=args.m[1], d_lo=d[0], d_hi=d[1], **kw
    )


def cmd_table(args) -> int:
    rows = sweeps.table_rows(_cfg(args, with_rank=args.with_rank))
    if args.format == "csv":
        _emit(sweeps.table_csv(rows, args.with_rank), args.out)
    else:
        for row in rows:
            for key in ("alpha", "beta", "gamma", "delta", "minwt_count", "rank"):
                if key in row:
                    row[key] = str(row[key])
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    return 0 if all(row["agree"] for row in rows) else 1


def cmd_verify(args) -> int:
    rep = sweeps.run_verify(
        _cfg(args, guard=args.guard, witness_guard=args.witness_guard)
    )
    if args.format == "json":
        _emit(json.dumps(rep.as_dict(), indent=2) + "\n", args.out)
    else:
        _emit(rep.to_text(), args.out)
    return 0 if rep.ok else 1


def cmd_genmat(args) -> int:
    g = codes.generator_matrix(args.family, GF.from_q(args.q), args.order, args.m)
    if args.format == "csv":
        _emit(codes.matrix_csv(g), args.out)
    else:
        _emit(json.dumps(codes.matrix_json(g), indent=2) + "\n", args.out)
    return 0


def cmd_reduce(args) -> int:
    F = GF.from_q(args.q)
    f = parse_poly(args.poly, F, args.m + 1)
    reduced = reduce_projective(f)
    if args.format == "json":
        _emit(json.dumps({"input": args.poly, "reduced": format_poly(reduced)}) + "\n",
              args.out)
    else:
        _emit(format_poly(reduced) + "\n", args.out)
    return 0


def cmd_witness(args) -> int:
    F = GF.from_q(args.q)
    rng = random.Random(args.seed)
    w = minwt.random_prm_witness(F, args.d, args.m, rng)
    f = minwt.prm_witness_poly(w, F, args.d, args.m)
    cw = codes.ev_vector(f, codes.projective_points(F, args.m))
    if args.format == "json":
        payload = {
            "poly": format_poly(f),
            "forms": [list(x) for x in w.forms],
            "omegas": list(w.omegas),
            "codeword": list(cw),
            "weight": codes.weight(cw),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(format_poly(f) + "\n" + ",".join(str(x) for x in cw) + "\n", args.out)
    return 0


def cmd_count_minwt(args) -> int:
    F = GF.from_q(args.q)
    rep = minwt.count_report(F, args.d, args.m, with_oracle=args.oracle,
                             guard=args.guard)
    _emit(json.dumps(rep.as_dict(), indent=2) + "\n", args.out)
    return 0 if rep.agree else 1


def cmd_check_fibers(args) -> int:
    F = GF.from_q(args.q)
    ts = minwt.ts_decompose(args.d, args.q, "prm", args.m)
    if ts.s != 0:
        rep = minwt.support_fiber_check(F, args.d, args.m, args.witness_guard)
    else:
        rep = minwt.tau_bijection_check(F, args.d, args.m, args.witness_guard)
    _emit(json.dumps(rep.as_dict(), indent=2) + "\n", args.out)
    return 0 if rep.ok else 1


def cmd_distribution(args) -> int:
    g = codes.generator_matrix(args.family, GF.from_q(args.q), args.order, args.m)
    dist = oracle.distribution(g, args.guard)
    _emit(json.dumps(dist.as_dict(), indent=2) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except PolyParseError as exc:
        print(f"parse error at {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
