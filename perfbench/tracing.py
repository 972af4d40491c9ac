"""Spans around the library's layer boundaries, recorded from outside.

``install`` replaces the module attributes of the layers' public functions
with wrappers that open a span per call, so nothing in the library changes.
Only functions that run about once per class or less are wrapped; the
per-product kernels (``MoebiusMap.__mul__``, ``dist``, ``cyclic_reduce``)
are left alone so the tracing overhead stays within the run-to-run spread.

Spans live in memory as rows (id, name, start, end, parent, workload, run)
and are written out once, when the benchmark ends.  A layer's self time is
its spans' durations minus the part covered by their direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

from sepstab import (gallery, groups, hyperbolic, pingpong, sampling,
                     separability, stability, whitehead)

SPAN_COLUMNS = ("id", "name", "start", "end", "parent", "workload", "run")

# separability reason strings -> the path that decided the class
_PATHS = {
    "peak-reduced form omits a generator": "omits_generator",
    "single-syllable class lies in one factor": "omits_generator",
    "class omits a factor, so it lies in the factor generated by the "
    "others": "omits_generator",
    "connected, cutpoint-free graph at minimal length": "graph_certificate",
    "every component strongly connected without strong cutpoints":
        "graph_certificate",
    "minimal-length orbit element omits a generator": "level_set",
    "no minimal-length orbit element omits a generator": "level_set",
}


class Tracer:
    """In-memory span and count recorder for one benchmark process.

    A span is a row [name, start, end, parent row, run]; the open spans
    form a stack.  A probe burst may open and close a span from a signal
    handler at any bytecode, so a row is its own handle: nothing is
    computed from the list's length between two statements.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.run = ""
        self.spans = []          # every row, in opening order
        self.stack = []          # open rows
        self.counts = Counter()  # boundary counts, keyed by (run, name)

    def open(self, name: str) -> list:
        row = [name, time.perf_counter(), None,
               self.stack[-1] if self.stack else None, self.run]
        self.spans.append(row)
        self.stack.append(row)
        return row

    def close(self, row: list):
        row[2] = time.perf_counter()
        self.stack.pop()

    def reentrant(self, name: str) -> bool:
        return bool(self.stack) and self.stack[-1][0] == name

    def count(self, key: str, n=1):
        self.counts[(self.run, key)] += n

    @contextlib.contextmanager
    def span(self, name: str):
        row = self.open(name)
        try:
            yield
        finally:
            self.close(row)

    def layer_totals(self, run: str):
        """{name: (calls, self seconds)} over the spans of one run."""
        rows = [r for r in self.spans if r[4] == run]
        child = defaultdict(float)
        for _, start, end, parent, _ in rows:
            if parent is not None:
                child[id(parent)] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for row in rows:
            name, start, end = row[:3]
            out[name][0] += 1
            out[name][1] += (end - start) - child[id(row)]
        return {k: tuple(v) for k, v in out.items()}

    def run_counts(self, run: str):
        return {k: v for (r, k), v in self.counts.items() if r == run}

    def write(self, path):
        ids = {id(row): i for i, row in enumerate(self.spans)}
        with open(path, "w") as fh:
            json.dump({"columns": SPAN_COLUMNS,
                       "rows": [[i, name, start, end,
                                 None if parent is None else ids[id(parent)],
                                 self.workload, run]
                                for i, (name, start, end, parent, run)
                                in enumerate(self.spans)]}, fh)


def _wrap(tracer: Tracer, name: str, fn, after=None):
    """Span per call; a call made from inside a span of the same name (a
    conjugated representation evaluates through its base) is not a new
    span.  ``after(result, args)`` records counts at the boundary."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.reentrant(name):
            return fn(*args, **kwargs)
        row = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(row)
        if after is not None:
            after(result, args)
        return result
    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn, per_item: str):
    """Span per resumption of a generator, so the consumer's work between
    items is not charged to it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            row = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(row)
            tracer.count(per_item)
            yield item
    return wrapper


def reduced_words(n_letters: int, max_len: int) -> int:
    """Reduced words of length 1..max_len: sum of n (n-1)^(k-1)."""
    return sum(n_letters * (n_letters - 1) ** (k - 1)
               for k in range(1, max_len + 1))


def qg_products(n: int, window: int) -> int:
    """Möbius products of one ``_qg_pairs_local`` call on n letters:
    sum over offsets i of min(window, n - i)."""
    if n <= window:
        return n * (n + 1) // 2
    return window * (n - window) + window * (window + 1) // 2


# (owner, attribute, span name) of every wrapped boundary
_TARGETS = (
    (groups, "canonical_spelling", "groups.canonical_spelling"),
    (separability, "is_separable", "separability.is_separable"),
    (separability, "peak_reduce", "separability.peak_reduce"),
    (whitehead, "whitehead_graph_combinatorial", "whitehead.graph"),
    (whitehead, "is_strongly_connected", "whitehead.strong"),
    (whitehead, "strong_cutpoints", "whitehead.cutpoints"),
    (hyperbolic.Representation, "evaluate", "hyperbolic.evaluate"),
    (stability, "stability_margin", "stability.sweep"),
    (stability, "qg_fit", "stability.qg_fit"),
    (sampling, "sample_mu", "sampling.sample_mu"),
    (sampling, "whitehead_graph_sampled", "sampling.graph_sampled"),
    (pingpong, "ping_pong_verify", "pingpong.verify"),
    (gallery, "build", "gallery.build"),
)


def install(tracer: Tracer):
    """Wrap the layer boundaries; returns a function that undoes it."""
    def on_separable(verdict, args):
        tracer.count("separability." + verdict.status)
        path = _PATHS.get(verdict.reason)
        if path:
            tracer.count("separability.path." + path)

    def on_qg_fit(result, args):
        tracer.count("stability.qg_fit.pairs", len(args[0]))

    def on_sweep(report, args):
        p = report.params
        products = 0
        for r in report.records:
            if "non_loxodromic" in r.flags:
                continue
            products += qg_products(r.length * p.powers, p.window)
            if r.worst_qg_half is not None:
                products += qg_products(r.length * max(1, p.powers // 2),
                                        p.window)
        tracer.count("stability.qg.products", products)

    def on_sample_mu(mu, args):
        rep, _, depth = args
        tracer.count("sampling.sample_mu.pairs", len(mu.sampled_pairs))
        tracer.count("sampling.sample_mu.tried",
                     1 + reduced_words(rep.group.n_letters, depth))

    def on_graph_sampled(graph, args):
        tracer.count("sampling.edges", sum(
            e.support for c in graph.components for e in c.edges))
        tracer.count("sampling.graph_sampled.pairs",
                     len(args[2].sampled_pairs))

    after = {"separability.is_separable": on_separable,
             "stability.qg_fit": on_qg_fit,
             "stability.sweep": on_sweep,
             "sampling.sample_mu": on_sample_mu,
             "sampling.graph_sampled": on_graph_sampled}
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in _TARGETS]
    saved.append((groups, "enumerate_elements", groups.enumerate_elements))
    for owner, attr, name in _TARGETS:
        setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr),
                                   after.get(name)))

    items = _wrap_generator(tracer, "groups.enumerate",
                            groups.enumerate_elements,
                            "groups.enumerate.classes")

    @functools.wraps(groups.enumerate_elements)
    def enumerate_elements(group, max_len):
        tracer.count("groups.enumerate.words_walked",
                     reduced_words(group.n_letters, max_len))
        return items(group, max_len)
    groups.enumerate_elements = enumerate_elements

    def uninstall():
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return uninstall


def layer_metrics(tracer: Tracer, run: str, speed: float) -> dict:
    """The per-layer metrics of one traced pass, by name; seconds are
    scaled to reference speed by the pass's probe factor ``speed``."""
    totals = tracer.layer_totals(run)
    counts = tracer.run_counts(run)

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1] * speed

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    classes = counts.get("groups.enumerate.classes", 0)
    walked = counts.get("groups.enumerate.words_walked", 0)
    sep_calls = calls("separability.is_separable")
    products = counts.get("stability.qg.products", 0)
    mu_calls = calls("sampling.sample_mu")
    mu_pairs = counts.get("sampling.sample_mu.pairs", 0)
    sampled_calls = calls("sampling.graph_sampled")
    return {
        "groups.enumerate.classes": classes,
        "groups.enumerate.self_s": self_s("groups.enumerate"),
        "groups.enumerate.us_per_class": per(self_s("groups.enumerate"),
                                             classes, 1e6),
        "groups.enumerate.words_walked": walked,
        "groups.enumerate.yield": per(classes, walked),
        "groups.canonical_spelling.calls": calls("groups.canonical_spelling"),
        "groups.canonical_spelling.self_s":
            self_s("groups.canonical_spelling"),
        "separability.is_separable.calls": sep_calls,
        "separability.is_separable.self_s":
            self_s("separability.is_separable"),
        "separability.is_separable.ms_per_call":
            per(self_s("separability.is_separable"), sep_calls, 1e3),
        "separability.peak_reduce.self_s": self_s("separability.peak_reduce"),
        "separability.separable": counts.get("separability.separable", 0),
        "separability.not_separable":
            counts.get("separability.not_separable", 0),
        "separability.unknown": counts.get("separability.unknown", 0),
        "separability.unknown_frac":
            per(counts.get("separability.unknown", 0), sep_calls),
        "separability.path.omits_generator":
            counts.get("separability.path.omits_generator", 0),
        "separability.path.graph_certificate":
            counts.get("separability.path.graph_certificate", 0),
        "separability.path.level_set":
            counts.get("separability.path.level_set", 0),
        "whitehead.graph.calls": calls("whitehead.graph"),
        "whitehead.graph.self_s": self_s("whitehead.graph"),
        "whitehead.strong.self_s": self_s("whitehead.strong"),
        "whitehead.cutpoints.calls": calls("whitehead.cutpoints"),
        "whitehead.cutpoints.self_s": self_s("whitehead.cutpoints"),
        "hyperbolic.evaluate.calls": calls("hyperbolic.evaluate"),
        "hyperbolic.evaluate.self_s": self_s("hyperbolic.evaluate"),
        "stability.sweep.self_s": self_s("stability.sweep"),
        "stability.qg.products": products,
        "stability.qg.ns_per_product":
            per(self_s("stability.sweep"), products, 1e9),
        "stability.qg_fit.calls": calls("stability.qg_fit"),
        "stability.qg_fit.self_s": self_s("stability.qg_fit"),
        "stability.qg_fit.pairs": counts.get("stability.qg_fit.pairs", 0),
        "sampling.sample_mu.calls": mu_calls,
        "sampling.sample_mu.self_s": self_s("sampling.sample_mu"),
        "sampling.sample_mu.ms_per_class":
            per(self_s("sampling.sample_mu"), mu_calls, 1e3),
        "sampling.sample_mu.pairs": mu_pairs,
        "sampling.sample_mu.yield":
            per(mu_pairs / 2, counts.get("sampling.sample_mu.tried", 0)),
        "sampling.graph_sampled.self_s": self_s("sampling.graph_sampled"),
        "sampling.graph_sampled.ms_per_class":
            per(self_s("sampling.graph_sampled"), sampled_calls, 1e3),
        "sampling.edge_yield":
            per(counts.get("sampling.edges", 0),
                counts.get("sampling.graph_sampled.pairs", 0)),
        "pingpong.verify.self_s": self_s("pingpong.verify"),
        "gallery.build.self_s": self_s("gallery.build"),
    }
