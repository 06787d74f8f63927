"""Spans and counters around the library's layers, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper wherever the
library's modules hold it, so a name one module imported from another (for
example `catalog.exterior`, which is `series.exterior`) is wrapped too.
Layer functions get a span (name, start, end, parent span, request id);
per-term functions get a call counter only, because a span per term would
cost more than the term.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter

from eulerchow import catalog, cli, monoid, oracle, schubert, series, verify
from workloads import VERIFY_CHECKS

MODULES = (monoid, series, schubert, catalog, oracle, verify, cli)


def _terms(f) -> int:
    return len(f.coefficients)


def _count_pushforward(counts, name, args, result):
    counts[name + ".terms_in"] += _terms(args[1])
    counts[name + ".terms_out"] += _terms(result)


def _count_convolve(counts, name, args, result):
    counts[name + ".terms_pairs"] += _terms(args[0]) * _terms(args[1])
    counts[name + ".terms_out"] += _terms(result)


def _count_exterior(counts, name, args, result):
    counts[name + ".terms_out"] += _terms(result[0])


def _count_terms_out(counts, name, args, result):
    counts[name + ".terms_out"] += _terms(result)


def _count_dumps(counts, name, args, result):
    counts[name + ".bytes"] += len(result.encode("utf-8"))


def _count_loads(counts, name, args, result):
    counts[name + ".bytes"] += len(args[0].encode("utf-8"))


def _count_failed_checks(counts, name, args, result):
    counts["verify.checks_failed"] += sum(not r.passed for r in result)


# (owner, attribute, span name, counting hook)
SPANS = (
    (cli, "main", "cli.main", None),
    (catalog, "euler_chow", "catalog.euler_chow", None),
    (catalog, "split_bundle_series", "catalog.split_bundle_series", None),
    (catalog, "grassmannian13_series", "catalog.grassmannian13_series", None),
    (catalog, "flag012_divisor_by_recurrence",
     "catalog.flag012_divisor_by_recurrence", None),
    (series, "exterior", "series.exterior", _count_exterior),
    (series, "pushforward", "series.pushforward", _count_pushforward),
    (series, "convolve", "series.convolve", _count_convolve),
    (series.RationalSeries, "expand", "series.RationalSeries.expand",
     _count_terms_out),
    (series, "pullback", "series.pullback", None),
    (series, "first_difference", "series.first_difference", None),
    (series, "dumps", "series.dumps", _count_dumps),
    (series, "loads", "series.loads", _count_loads),
    (schubert, "basis", "schubert.basis", None),
    (schubert, "symbols_of_dimension", "schubert.symbols_of_dimension", None),
    (schubert, "trace_phi", "schubert.trace_phi", None),
    (schubert, "inclusion_i", "schubert.inclusion_i", None),
    (schubert, "inclusion_j", "schubert.inclusion_j", None),
    (oracle, "naive_convolve", "oracle.naive_convolve", None),
    (oracle, "naive_pushforward", "oracle.naive_pushforward", None),
    (monoid.GradedMonoid, "enumerate_up_to", "monoid.enumerate_up_to", None),
) + tuple((verify, name, f"verify.{name}", _count_failed_checks)
          for name in VERIFY_CHECKS)

# (owner, attribute, counter name): per-term functions, counted only.
COUNTERS = (
    (monoid.GradedMonoid, "grade", "monoid.grade"),
    (monoid.GradedMonoid, "validate", "monoid.validate"),
    (monoid.MonoidMorphism, "apply", "monoid.apply"),
)


class Tracer:
    """Records spans and counts while installed; single-threaded use."""

    def __init__(self):
        self.spans: list = []       # (name, start, end, parent, request)
        self.counts: Counter = Counter()
        self.request: int | None = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        sites = [(owner, attr)]
        if not isinstance(owner, type):
            # every module-level name bound to the same function object
            sites = [(m, name) for m in MODULES
                     for name, value in vars(m).items() if value is original]
        for site, name in sites:
            self._undo.append((site, name, getattr(site, name)))
            setattr(site, name, wrapper)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in SPANS:
            self._replace(owner, attr,
                          self._span(name, getattr(owner, attr), hook))
        for owner, attr, name in COUNTERS:
            self._replace(owner, attr,
                          self._counter(name, owner.__dict__[attr]))
        self._replace(series.FormalSeries, "__post_init__",
                      self._series_init(series.FormalSeries.__post_init__))

    def uninstall(self):
        while self._undo:
            site, name, value = self._undo.pop()
            setattr(site, name, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            counts[calls] += 1
            if hook is not None:
                hook(counts, name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args):
            counts[calls] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _series_init(self, fn):
        counts = self.counts

        def wrapper(f):
            counts["series.FormalSeries.init.calls"] += 1
            counts["series.FormalSeries.init.terms"] += len(f.coefficients)
            return fn(f)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return dict(out)

    def total_times(self) -> dict[str, float]:
        """Seconds per span name, child spans included."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def write_spans(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
