"""Span recording around the library's public functions, and the per-layer metrics.

The tracer replaces functions on the module where the program looks them up
(`onebitlink.harness.quantize_1bit`, `onebitlink.detect.chol_logdet`, ...)
with wrappers that record one span per call: name, start, end, parent span
and an optional note taken from the arguments or the result. Spans stay in
memory; the caller writes them out at the end. Only one thread may run while
a tracer is installed, because the parent is the innermost open span.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter

import numpy as np

# (module, attribute, span name, note): the note maps (args, result) to what the
# metrics need from a call, such as its vector and candidate counts
WRAPPED = (
    ("onebitlink.harness", "run_sweep", "harness.run_sweep", None),
    ("onebitlink.harness", "draw_channel", "channel.draw", None),
    ("onebitlink.harness", "make_precoder", "channel.precoder", None),
    ("onebitlink.harness", "quantize_1bit", "txchain.quantize", None),
    ("onebitlink.harness", "cov_xd", "txchain.cov_xd", None),
    ("onebitlink.harness", "bussgang_gain", "txchain.bussgang_gain", None),
    ("onebitlink.harness", "cov_xq_unconditional", "txchain.cov_xq_unconditional", None),
    ("onebitlink.harness", "build_candidate_kernels", "detect.build_kernels", None),
    ("onebitlink.harness", "build_candidate_table", "detect.build_table",
     lambda a, out: out.n_candidates),
    ("onebitlink.harness", "ml_detect_batch", "detect.ml",
     lambda a, out: (np.atleast_2d(a[0]).shape[0], a[1].n_candidates)),
    ("onebitlink.harness", "blmmse_combiner", "detect.blmmse", None),
    ("onebitlink.harness", "slice_min_distance_batch", "detect.slice",
     lambda a, out: np.asarray(a[0]).shape[0]),
    ("onebitlink.detect", "symbol_kernel", "stats.kernel", None),
    ("onebitlink.detect", "assemble_stats", "stats.assemble", None),
    ("onebitlink.detect", "chol_logdet", "core.chol", lambda a, out: int(out.jitter > 0)),
    ("onebitlink.oracle", "validate_instance", "oracle.validate", None),
    ("onebitlink.oracle", "closed_form_moments", "oracle.closed_form", None),
    ("onebitlink.oracle", "quantize_1bit", "oracle.quantize",
     lambda a, out: np.asarray(a[0]).shape[0]),
)

# highest of these percentiles with at least ten samples beyond it is the tail
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


class SpanCoverageError(RuntimeError):
    """A span the workload must fire fired zero times."""


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    A span is the list [name, start, end, parent index or -1, note or None].
    """

    def __init__(self, wrapped=WRAPPED):
        self.spans = []
        self._open = []
        self._wrapped = wrapped
        self._saved = []

    def __enter__(self):
        for module_name, attr, name, note in self._wrapped:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name, note))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _wrapper(self, fn, name, note):
        spans, opened = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, opened[-1] if opened else -1, None]
            opened.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                opened.pop()
            if note is not None:
                span[4] = note(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def by_name(self, name):
        return [s for s in self.spans if s[0] == name]

    def self_times(self, name):
        """Duration minus the time covered by direct children, per span of `name`."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans) if s[0] == name]


def check_coverage(tracer: Tracer, required) -> None:
    """Raise SpanCoverageError naming every required span that never fired."""
    fired = {s[0] for s in tracer.spans}
    missing = [name for name in required if name not in fired]
    if missing:
        raise SpanCoverageError(
            "required spans fired zero times: " + ", ".join(missing)
            + " (a wrapped function is no longer looked up where the tracer wraps it)")


def _durations(tracer, name):
    return [s[2] - s[1] for s in tracer.by_name(name)]


def _timing(metrics, name, unit, scale, samples):
    """p50, tail percentile and sample count of per-call timings."""
    n = len(samples)
    p50 = tail = 0.0
    if n:
        p50 = float(np.percentile(samples, 50.0)) * scale
        tail_q = next((q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= 10), 50.0)
        tail = float(np.percentile(samples, tail_q)) * scale
    metrics[f"{name}.p50"] = (p50, unit)
    metrics[f"{name}.tail"] = (tail, unit)
    metrics[f"{name}.n"] = (n, "count")


def _same_every_call(name, values):
    """Counts must repeat exactly from one workload call to the next."""
    if len(set(values)) != 1:
        raise RuntimeError(f"count {name} differs between identical calls: {values}")
    return values[0]


def layer_metrics(tracers, untraced_s, traced_s) -> dict:
    """Per-layer metrics from one tracer per traced workload call.

    Per-call timings pool the samples of every call; counts are per workload
    call and must be identical across calls; self times are medians over calls.
    """
    pooled = lambda name: [d for t in tracers for d in _durations(t, name)]
    notes = lambda t, name: [s[4] for s in t.by_name(name)]
    m = {}

    _timing(m, "channel.draw_ms", "ms", 1e3, pooled("channel.draw"))
    _timing(m, "channel.precoder_ms", "ms", 1e3, pooled("channel.precoder"))
    _timing(m, "txchain.quantize_ms", "ms", 1e3, pooled("txchain.quantize"))
    bussgang = []
    for t in tracers:
        parts = [_durations(t, n) for n in
                 ("txchain.cov_xd", "txchain.bussgang_gain", "txchain.cov_xq_unconditional")]
        if len({len(p) for p in parts}) != 1:
            raise RuntimeError("cov_xd, bussgang_gain and cov_xq_unconditional "
                               "are no longer called once each per dither point")
        bussgang.extend(sum(triple) for triple in zip(*parts))
    _timing(m, "txchain.bussgang_ms", "ms", 1e3, bussgang)
    _timing(m, "stats.kernel_us", "us", 1e6, pooled("stats.kernel"))
    _timing(m, "stats.assemble_us", "us", 1e6, pooled("stats.assemble"))
    _timing(m, "core.chol_us", "us", 1e6, pooled("core.chol"))
    _timing(m, "detect.table_self_ms", "ms", 1e3,
            [d for t in tracers for d in t.self_times("detect.build_table")])
    ml_per_vector = [(s[2] - s[1]) / s[4][0] for t in tracers for s in t.by_name("detect.ml")]
    _timing(m, "detect.ml_us_per_vector", "us", 1e6, ml_per_vector)
    _timing(m, "detect.blmmse_ms", "ms", 1e3, pooled("detect.blmmse"))
    slice_per_vector = [(s[2] - s[1]) / s[4] for t in tracers for s in t.by_name("detect.slice")]
    _timing(m, "detect.slice_us_per_vector", "us", 1e6, slice_per_vector)
    _timing(m, "oracle.closed_form_ms", "ms", 1e3, pooled("oracle.closed_form"))
    _timing(m, "oracle.quantize_ms", "ms", 1e3, pooled("oracle.quantize"))

    counts = {
        "stats.kernels": [len(t.by_name("stats.kernel")) for t in tracers],
        "detect.tables": [len(t.by_name("detect.build_table")) for t in tracers],
        "detect.candidates": [sum(notes(t, "detect.build_table")) for t in tracers],
        "detect.vectors": [sum(n for n, _ in notes(t, "detect.ml"))
                           + sum(notes(t, "detect.slice")) for t in tracers],
        "core.chol_jitter_events": [sum(notes(t, "core.chol")) for t in tracers],
        "oracle.draws": [sum(notes(t, "oracle.quantize")) for t in tracers],
    }
    counts = {k: _same_every_call(k, v) for k, v in counts.items()}
    for k in ("stats.kernels", "detect.tables", "detect.vectors",
              "core.chol_jitter_events", "oracle.draws"):
        m[k] = (counts[k], "count")
    m["detect.candidates_per_table"] = (
        counts["detect.candidates"] / counts["detect.tables"] if counts["detect.tables"] else 0,
        "count")

    # exhaustive base: every candidate of the table is scored for every vector
    base = sum(n * c for t in tracers for n, c in notes(t, "detect.ml"))
    ml_s = sum(pooled("detect.ml"))
    m["detect.ml_ns_per_candidate"] = (ml_s / base * 1e9 if base else 0.0, "ns")

    sweep_total = [sum(_durations(t, "harness.run_sweep")) for t in tracers]
    sweep_self = [sum(t.self_times("harness.run_sweep")) for t in tracers]
    m["harness.self_s"] = (statistics.median(sweep_self), "s")
    m["harness.self_share"] = (
        statistics.median(s / d for s, d in zip(sweep_self, sweep_total))
        if all(sweep_total) else 0.0, "ratio")
    m["oracle.mc_self_s"] = (
        statistics.median(sum(t.self_times("oracle.validate")) for t in tracers), "s")
    m["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(untraced_s), "s")
    return m
