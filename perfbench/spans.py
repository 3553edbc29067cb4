"""Spans and work counters recorded around calls into prmcodes.

The tracer replaces module attributes that the sweeps call (and that call
each other, such as brute_min_weight_words -> weight_distribution) with
wrappers that record a span per call, in this process only, and restores
them afterwards.  Spans stay in memory and are written out at the end.
Work counters come from call arguments, outputs and closed forms, never
from timing, so they repeat exactly.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

from prmcodes import codes, dimension, linalg, minwt, oracle

import workloads


def _walk(tr: "Tracer", args, out) -> None:
    g = args[0]
    tr.counts["oracle.walks"] += 1
    tr.counts["oracle.codewords"] += g.field.q ** g.k
    tr.codes_walked.add((g.family, g.field.q, g.m, g.order))


def _witness(tr: "Tracer", args, out) -> None:
    field, d, m = args[:3]
    tuples, subsets = workloads.witness_work(field.q, d, m)
    tr.counts["minwt.witness.form_tuples"] += tuples * subsets
    tr.counts["minwt.witness.words"] += len(out)


def _fiber(tr: "Tracer", args, out) -> None:
    tr.counts["minwt.fiber.tuples"] += out.j_size
    if out.j_size != out.j_expected:
        tr.mismatches.append(f"fiber q={out.q} m={out.m} d={out.d}: |J| {out.j_size} != {out.j_expected}")


def _tau(tr: "Tracer", args, out) -> None:
    tr.counts["minwt.tau.pairs"] += out.pair_count


def _genmat(tr: "Tracer", args, out) -> None:
    tr.counts["codes.genmat.entries"] += out.k * out.n


def _rank(tr: "Tracer", args, out) -> None:
    rows = args[1]
    tr.counts["linalg.rank.entries"] += len(rows) * (len(rows[0]) if rows else 0)


# (module, attribute, layer the span's self time is charged to, counter)
TARGETS = [
    # brute_min_weight_words walks once itself, on top of the
    # weight_distribution calls nested inside it
    (oracle, "weight_distribution", "oracle", _walk),
    (oracle, "brute_min_distance", "oracle", None),
    (oracle, "brute_min_weight_words", "oracle", _walk),
    (minwt, "enumerate_witness_codewords", "minwt.witness", _witness),
    (minwt, "support_fiber_check", "minwt.fiber", _fiber),
    (minwt, "tau_bijection_check", "minwt.tau", _tau),
    *[(minwt, name, "minwt.formulas", None) for name in (
        "ts_decompose", "prm_min_distance", "prm_min_weight_count",
        "prm_min_weight_count_alt", "rm_min_distance", "rm_min_weight_count")],
    (codes, "prm_generator_matrix", "codes.genmat", _genmat),
    (codes, "rm_generator_matrix", "codes.genmat", _genmat),
    (linalg, "rank", "linalg.rank", _rank),
    *[(dimension, f"dim_{x}", "dimension.formulas", None)
      for x in ("alpha", "beta", "gamma", "delta")],
]


class Tracer:
    """Records (name, start, end, parent) spans of one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []        # [name, layer, start, end, parent index]
        self.counts: Counter = Counter()
        self.codes_walked: set[tuple] = set()
        self.mismatches: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, layer: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, layer, perf_counter(), None, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, out)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, layer, count in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{module.__name__.split('.')[-1]}.{attr}", layer, fn, count))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def self_times(self) -> Counter:
        """Seconds per layer not covered by the layer's child spans."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for (_, layer, start, end, _), inner in zip(self.spans, child):
            out[layer] += end - start - inner
        return out

    def calls(self) -> Counter:
        return Counter(layer for _, layer, *_ in self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, layer, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "layer": layer,
                                     "start": start, "end": end, "parent": parent}) + "\n")
