#!/usr/bin/env python3
"""Run a wide verification sweep (about 2 s of exhaustive checking).

Three stages: small fields to m = 3 with default guards (about 0.4 s on
one core of a shared 2-vCPU x86-64 host), then GF(4) and GF(5) to m = 2
with a tighter witness guard of 2*10^5 (about 0.9 s there), then GF(2) at
m = 4 and 5 with default guards (about 0.3 s there), every row of it a
PASS.  Every fiber check fits its guard, since it walks one pair of forms
per class.  The oracle rows of a code over the guard walk its dual code
instead (see oracle.distribution), so the only rows refused are the six
oracle rows of prm(3,3,3) and prm(5,2,4), where the code and its dual are
both over the guard.  That gives 462 PASS and 6 SKIPPED.  Everything else
(formula agreement, ranks, oracle distances and counts, witness sets, the
incidence checks) runs to completion.

The rows go to stdout, which is pinned in tests/golden/full_verify.txt;
each stage's wall seconds and PASS/FAIL/SKIPPED split go to stderr.

    python scripts/full_verify.py
"""

import sys
import time

from prmcodes.sweeps import SweepConfig, run_verify

STAGES = [
    SweepConfig(qs=(2, 3), m_lo=1, m_hi=3),
    SweepConfig(qs=(4, 5), m_lo=1, m_hi=2, witness_guard=2 * 10 ** 5),
    SweepConfig(qs=(2,), m_lo=4, m_hi=5),
]


def main() -> int:
    ok = True
    for cfg in STAGES:
        span = f"m <= {cfg.m_hi}" if cfg.m_lo == 1 else f"{cfg.m_lo} <= m <= {cfg.m_hi}"
        header = f"# q in {cfg.qs}, {span}"
        print(header, flush=True)
        start = time.perf_counter()
        rep = run_verify(cfg)
        seconds = time.perf_counter() - start
        sys.stdout.write(rep.to_text())
        sys.stdout.flush()
        c = rep.counts()
        print(f"{header}: {seconds:.1f} s, {c['PASS']} PASS, {c['FAIL']} FAIL, "
              f"{c['SKIPPED']} SKIPPED", file=sys.stderr)
        ok = ok and rep.ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
