#!/usr/bin/env python3
"""Regenerate the full dimension agreement table.

Sweeps every prime power q <= 9 and m <= 4 over all valid orders, checks
that the four published dimension formulas agree (and, for short codes,
that they match the generator matrix rank), and writes one CSV.

    python scripts/dimension_table.py [--out table.csv]
"""

import argparse
import sys

from prmcodes.sweeps import SweepConfig, table_csv, table_rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None)
    ap.add_argument("--with-rank", action="store_true")
    args = ap.parse_args()

    cfg = SweepConfig(qs=(2, 3, 4, 5, 7, 8, 9), m_lo=1, m_hi=4, with_rank=args.with_rank)
    rows = table_rows(cfg)
    text = table_csv(rows, args.with_rank)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"{len(rows)} rows -> {args.out}")
    else:
        sys.stdout.write(text)
    disagreements = [r for r in rows if not r["agree"]]
    if disagreements:
        print(f"{len(disagreements)} disagreements!", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
