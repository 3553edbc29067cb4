#!/usr/bin/env python3
"""Benchmark of prmcodes: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload verify-q23 --seed 1 --seconds 35 --trace 0

Drives the library from this one single-threaded process on the workloads
in workloads.py, each a list of units (single calls into the library).
Untraced (--trace 0) it runs the units round after round while the next one
fits in --seconds, and takes as the pass time the sum over units of each
unit's fastest run.  Traced (--trace 1) it runs one untraced and one traced
pass, derives per-layer self times and exact work counters from the spans,
writes the spans to .perfbench_out/, and adds GF scalar-op timings.

Human-readable lines go first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Every planned check
of every unit run is one attempted operation; a FAIL, a wrong output, a
check left out with no guard to account for it, or a check whose outcome
changes from one run of its unit to the next is a failed one.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 11
GF_SAMPLES = 7
GF_CALLS = 20000

# a fresh interpreter imports the library and builds the fields it is given
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import prmcodes.sweeps; "
    "from prmcodes.gf import GF; "
    "[GF(*map(int, f.split('^'))).mul(1, 1) for f in sys.argv[2:]]"
)


def setup_command(qs) -> list[str]:
    from workloads import prime_power

    fields = [f"{p}^{e}" for p, e in map(prime_power, qs)]
    return [sys.executable, "-c", SETUP_PROBE, str(SRC), *fields]


def time_setup(cmd) -> float:
    """Wall time of a fresh process that imports and builds the fields."""
    t0 = perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT)
    return perf_counter() - t0


def timed(wl, unit):
    t0 = perf_counter()
    out = wl.run(unit)
    return perf_counter() - t0, out


def timed_pass(wl, units):
    """One pass over every unit: (seconds, outputs)."""
    t0 = perf_counter()
    outs = [wl.run(u) for u in units]
    return perf_counter() - t0, outs


def check_pass(wl, units, outs):
    from workloads import Tally

    tally = Tally()
    for u, out in zip(units, outs, strict=True):
        tally.merge(wl.check(u, out))
    return tally


def gf_op_ns() -> dict[str, float]:
    """Median ns per call of the public GF methods, call loop included."""
    from workloads import make_field

    out = {}
    for q in (4, 5, 9):
        f = make_field(q)
        pairs = [(a, b) for a in range(q) for b in range(q)]
        args = {
            "add": pairs, "sub": pairs, "mul": pairs,
            "inv": [(a,) for a in range(1, q)],
            "pow": [(a, n) for a in range(q) for n in (2, q - 2, q + 1)],
        }
        for op, arglist in args.items():
            fn = getattr(f, op)
            batch = arglist * (GF_CALLS // len(arglist) + 1)
            samples = []
            for _ in range(GF_SAMPLES):
                t0 = perf_counter()
                for a in batch:
                    fn(*a)
                samples.append((perf_counter() - t0) / len(batch) * 1e9)
            out[f"gf.{op}_ns.q{q}"] = statistics.median(samples)
    return out


def rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, traced_wall: float, tally) -> dict[str, float]:
    import workloads

    self_s = tracer.self_times()
    covered = sum(self_s.values())
    if covered > traced_wall:
        raise RuntimeError(f"self times {covered} s exceed the traced wall {traced_wall} s")
    calls = tracer.calls()
    c = tracer.counts
    walks, words = c["oracle.walks"], c["minwt.witness.words"]
    m = {
        "oracle.walks": walks,
        "oracle.codewords": c["oracle.codewords"],
        "oracle.self_s": self_s["oracle"],
        "oracle.codewords_per_s": rate(c["oracle.codewords"], self_s["oracle"]),
        "oracle.walks_per_code": rate(walks, len(tracer.codes_walked)),
        "minwt.witness.self_s": self_s["minwt.witness"],
        "minwt.witness.form_tuples": c["minwt.witness.form_tuples"],
        "minwt.witness.words": words,
        "minwt.witness.tuples_per_word": rate(c["minwt.witness.form_tuples"], words),
        "minwt.witness.tuples_per_s": rate(c["minwt.witness.form_tuples"], self_s["minwt.witness"]),
        "minwt.fiber.self_s": self_s["minwt.fiber"],
        "minwt.fiber.tuples": c["minwt.fiber.tuples"],
        "minwt.fiber.tuples_per_s": rate(c["minwt.fiber.tuples"], self_s["minwt.fiber"]),
        "minwt.tau.self_s": self_s["minwt.tau"],
        "minwt.tau.pairs": c["minwt.tau.pairs"],
        "minwt.formulas.self_s": self_s["minwt.formulas"],
        "minwt.formulas.calls": calls["minwt.formulas"],
        "codes.genmat.self_s": self_s["codes.genmat"],
        "codes.genmat.entries": c["codes.genmat.entries"],
        "codes.genmat.entries_per_s": rate(c["codes.genmat.entries"], self_s["codes.genmat"]),
        "linalg.rank.self_s": self_s["linalg.rank"],
        "linalg.rank.entries": c["linalg.rank.entries"],
        "dimension.formulas.self_s": self_s["dimension.formulas"],
        "dimension.formulas.calls": calls["dimension.formulas"],
        "sweeps.self_s": traced_wall - covered,
        "sweeps.checks_missing": tally.missing,
        "checks_unverified": tally.unverified,
        "checks_fail": len(tally.failures),
    }
    for guard, name in workloads.GUARD_METRICS.items():
        m[name] = tally.refusals[guard]
    return m


def measure(wl, units, seconds: float):
    """Cycle through the units, each checked, while the next one fits in
    `seconds` (every unit at least once).  A pass takes the sum over units
    of each unit's fastest time: sharing the core only ever adds time.
    Set-up is timed SETUP_SAMPLES times, spread evenly over the run."""
    from workloads import Tally

    cmd = setup_command(wl.qs)
    setup = []
    times = [[] for _ in units]
    first = [None] * len(units)
    repeats, failures = [], []
    start = perf_counter()
    i = 0
    while i < len(units) or perf_counter() + times[i % len(units)][-1] <= start + seconds:
        if len(setup) < SETUP_SAMPLES and perf_counter() >= start + len(setup) * seconds / SETUP_SAMPLES:
            setup.append(time_setup(cmd))
            continue
        j = i % len(units)
        t, out = timed(wl, units[j])
        times[j].append(t)
        tally = wl.check(units[j], out)
        if first[j] is None:
            first[j] = tally
        else:
            repeats.append(tally)
            if tally.outcomes != first[j].outcomes:
                failures.append(f"unit {j}: checks differ from its first run")
        i += 1
    runs = [len(ts) for ts in times]
    print(f"units: {len(units)}  runs per unit: {min(runs)}-{max(runs)}  "
          f"sum of medians: {sum(map(statistics.median, times)):.3f} s  "
          f"sum of first runs: {sum(ts[0] for ts in times):.3f} s")
    setup += [time_setup(cmd) for _ in range(SETUP_SAMPLES - len(setup))]
    wall = sum(map(min, times))
    one_pass = functools.reduce(Tally.merge, first, Tally())
    passed = one_pass.passed
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks_pass": passed,
        "pass_per_s": passed / wall,
    }
    return metrics, one_pass, repeats, failures


def measure_traced(wl, units, run_id: str):
    """One untraced and one traced pass; per-layer metrics from the spans."""
    import spans

    wall, outs = timed_pass(wl, units)
    tallies = [check_pass(wl, units, outs)]
    tracer = spans.Tracer(run_id)
    with tracer:
        traced_wall, outs = timed_pass(wl, units)
    tallies.append(check_pass(wl, units, outs))
    metrics = layer_metrics(tracer, traced_wall, tallies[-1])
    metrics["trace.overhead_s"] = traced_wall - wall
    metrics.update(gf_op_ns())
    tracer.write(OUT / f"spans-{run_id}.jsonl")
    failures = list(tracer.mismatches)
    if tallies[1].outcomes != tallies[0].outcomes:
        failures.append("traced pass checks differ from the untraced pass")
    return metrics, tallies[0], tallies[1:], failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "prmcodes" / "__init__.py").is_file():
        print(f"prmcodes sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    wl = workloads.WORKLOADS[args.workload]
    work = wl.units(args.seed)
    if args.trace:
        metrics, first, repeats, failures = measure_traced(wl, work, f"{args.workload}-seed{args.seed}")
    else:
        metrics, first, repeats, failures = measure(wl, work, args.seconds)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    failures += first.failures + [f for t in repeats for f in t.failures]
    print(f"workload {args.workload} seed {args.seed}: planned {first.planned}, "
          f"pass {first.passed}, unverified {first.unverified} "
          f"(missing {first.missing}; refused by guard {dict(sorted(first.refusals.items()))}), "
          f"fail {len(first.failures)}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": first.planned + sum(t.planned for t in repeats),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
