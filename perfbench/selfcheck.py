#!/usr/bin/env python3
"""Checks on the benchmark's own logic, on configurations small enough to
finish in about a minute.  Exits 1 on the first failed check.

    python3 perfbench/selfcheck.py

- every metric and workload name in BENCHMARK.json is well formed and used
  once, and the workloads are the ones run.py knows;
- a tiny configuration of each workload (q <= 3 and m <= 2 for verify) runs
  end to end, untraced and traced, with no failed check;
- the units of a verify sweep give exactly the rows of the one call they
  split;
- two seeds give identical counts and identical weight distributions;
- per-layer self times sum to no more than the traced wall time (run.py
  raises if not);
- the correctness gate counts a corrupted formula, a wrong distribution, a
  row skipped with no guard exceeded, and two units that disagree on a check
  they both make as failures.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from prmcodes import dimension, sweeps  # noqa: E402
from prmcodes.sweeps import SweepConfig  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = {
    "verify": workloads.Verify((SweepConfig(qs=(2, 3), m_lo=1, m_hi=2),)),
    "oracle-walk": workloads.OracleWalk((("prm", 3, 2, 5), ("rm", 4, 2, 3))),
}


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def check_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    check(not bad, f"metric names match {NAME.pattern} {bad or ''}")
    check(len(names) == len(set(names)), "metric names are used once")
    listed = [w["name"] for w in spec["workloads"]]
    check(sorted(listed) == sorted(workloads.WORKLOADS), "BENCHMARK.json lists the workloads run.py runs")


def check_tiny() -> None:
    for label, wl in TINY.items():
        per_seed = []
        for seed in (1, 2):
            units = wl.units(seed)
            metrics, one_pass, repeats, failures = run.measure_traced(wl, units, f"selfcheck-{label}-seed{seed}")
            failures += one_pass.failures + [f for t in repeats for f in t.failures]
            check(not failures, f"{label} seed {seed}: no failed check {failures[:3]}")
            counts = {k: v for k, v in metrics.items() if isinstance(v, int)}
            distributions = None
            if isinstance(wl, workloads.OracleWalk):
                _, outs = run.timed_pass(wl, units)
                distributions = sorted((c, d.counts) for (c, _), (_, d) in zip(units, outs))
            per_seed.append((one_pass.counts(), counts, distributions))
        check(per_seed[0] == per_seed[1], f"{label}: seeds 1 and 2 give identical counts and distributions")
        metrics, one_pass, repeats, failures = run.measure(wl, wl.units(3), 1.0)
        failures += one_pass.failures + [f for t in repeats for f in t.failures]
        check(not failures and metrics["checks_pass"] == per_seed[0][0][1] and metrics["wall_s"] > 0,
              f"{label}: the untraced run passes the same checks {failures[:3]}")


def check_split() -> None:
    wl = TINY["verify"]
    rows = set()
    for unit in wl.units(1):
        rows |= {(r.family, r.q, r.m, r.d, r.check, r.status) for r in wl.run(unit).results}
    whole = {(r.family, r.q, r.m, r.d, r.check, r.status) for r in wl.run(wl.cfgs[0]).results}
    check(rows == whole, "verify: the units give the rows of the one call they split")


def check_gate() -> None:
    wl = TINY["verify"]
    cfg = wl.cfgs[0]
    beta = dimension.dim_beta
    dimension.dim_beta = lambda q, d, m: beta(q, d, m) + (d == 2)
    try:
        tally = wl.check(cfg, wl.run(cfg))
    finally:
        dimension.dim_beta = beta
    d2 = sum(1 for key in workloads.plan_verify(cfg) if key[3:] == (2, "dims"))
    check(len(tally.failures) == d2 > 0, "a corrupted dimension formula fails the dims rows of d = 2")

    report = wl.run(cfg)
    skipped = next(i for i, r in enumerate(report.results) if r.check == "witness-set")
    report.results[skipped] = replace(report.results[skipped], status="SKIPPED")
    tally = wl.check(cfg, report)
    check(len(tally.failures) == 1 and tally.unverified == 1,
          "a row skipped with no guard exceeded is a failure")

    tight = replace(cfg, guard=2 ** 4)
    tally = wl.check(tight, sweeps.run_verify(tight))
    check(not tally.failures and tally.refusals["oracle"] > 0 and tally.missing > 0,
          "checks refused by the oracle guard are unverified, not failed")

    a, b = workloads.Tally(), workloads.Tally()
    a.settle(("rm", 2, 1, 0, "count"), "PASS", None)
    b.settle(("rm", 2, 1, 0, "count"), "SKIPPED", "oracle")
    merged = workloads.Tally().merge(a).merge(b)
    check(merged.planned == 1 and len(merged.failures) == 1,
          "a check two units both make counts once, and they must agree on it")

    ow = TINY["oracle-walk"]
    unit = ow.units(1)[0]
    out = ow.run(unit)
    out[1].counts[max(out[1].counts)] += 1
    tally = ow.check(unit, out)
    check(len(tally.failures) == 2, "a wrong distribution fails its total and distribution checks")


if __name__ == "__main__":
    check_names()
    check_gate()
    check_split()
    check_tiny()
