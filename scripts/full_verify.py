#!/usr/bin/env python3
"""Run a wide verification sweep and the coverage grid (about 2.8 s of
exhaustive checking on one core of a shared 2-vCPU x86-64 host; the
stage times below are from there).

Seven stages.  The first three are the wide sweep:

1. q = 2, 3 to m = 3 at default guards (about 0.1 s);
2. q = 4, 5 to m = 2 at a witness guard of 2*10^5 (about 0.2 s);
3. q = 2 at m = 4 and 5 at default guards (about 0.1 s).

Every fiber check there fits its guard.  The oracle rows of a code walk
the code or its dual code, whichever is smaller (see oracle.min_weight),
and prm(3,3,3) and prm(5,2,4), where both are over the guard, take the
information-set route (174880 and 6910804 codewords).  That gives 468
PASS and 0 SKIPPED.

The last four are the coverage grid, one (q, m) each, where the guards
start to bite:

4. q = 2, m = 6 at default guards: 46 PASS, 9 SKIPPED (oracle), about
   0.6 s;
5. q = 3, m = 4 at a witness guard of 2*10^5: 53 PASS, 18 SKIPPED
   (16 oracle, and the fiber rows of d = 4 and 6 at 377520 classes),
   about 0.7 s;
6. q = 4, m = 3 at a witness guard of 2*10^5: 61 PASS, 18 SKIPPED
   (oracle), about 0.4 s;
7. q = 7, m = 2 at a witness guard of 2*10^5: 70 PASS, 33 SKIPPED
   (oracle), about 0.6 s.

The witness guard also bounds the fiber and tau walks.  An oracle skip
names the least need of the three routes: the smaller walk as q^e, or
the information-set work as a count of codewords.  The grid gives 230
PASS and 78 SKIPPED, and no row of either part FAILs.

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
    SweepConfig(qs=(2,), m_lo=6, m_hi=6),
    SweepConfig(qs=(3,), m_lo=4, m_hi=4, witness_guard=2 * 10 ** 5),
    SweepConfig(qs=(4,), m_lo=3, m_hi=3, witness_guard=2 * 10 ** 5),
    SweepConfig(qs=(7,), m_lo=2, m_hi=2, witness_guard=2 * 10 ** 5),
]


def main() -> int:
    ok = True
    for cfg in STAGES:
        if cfg.m_lo == cfg.m_hi:
            span = f"m = {cfg.m_hi}"
        elif cfg.m_lo == 1:
            span = f"m <= {cfg.m_hi}"
        else:
            span = f"{cfg.m_lo} <= m <= {cfg.m_hi}"
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
