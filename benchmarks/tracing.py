"""In-memory span tracing around the package's public functions.

Spans are recorded from outside the package: `install` replaces a public
function in the module that calls it with a wrapper that records a span, and
puts the original back on exit.  Each span keeps a name, a start and end time
in integer nanoseconds and the index of the span that was open when it began.
Spans stay in memory until `summarise` or `write_spans` reads them at the end
of a run, so tracing does no I/O while work is being timed.

Self time is a span's duration minus the durations of its direct children.
Calls are single-threaded, so children never overlap and this subtraction is
exact in integer nanoseconds; the self times of all spans under one root add
up to the root's duration.
"""

from __future__ import annotations

import contextlib
import time
from math import comb
from typing import Callable, Iterator


class Tracer:
    """Span recorder; spans are parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = {}
        self._open: list[int] = [-1]

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(0)
        self._open.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """Return fn recording one span per call.

        on_call(tracer, args, kwargs, result) runs after the span has closed,
        so counting work done by a call adds nothing to any span.
        """

        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[int]:
        """Per-span self time in nanoseconds."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def summarise(self) -> dict[str, dict]:
        """Per span name: calls, total and self nanoseconds, and every duration."""
        stats: dict[str, dict] = {}
        for name, start, end, own in zip(self.names, self.starts, self.ends, self.self_times()):
            entry = stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += own
            entry["durations_ns"].append(end - start)
        return stats

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for index, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{index}\t{name}\t{start}\t{end}\t{parent}\n")


def _count_subsets(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    readings, tau = args[0], args[1]
    n = len(readings)
    tracer.count("fusion.gbi_bayes_weights.subsets", comb(n, n - tau))


def _count_patterns(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    params = args[1]
    tracer.count("oracle.posterior_mean_exact.patterns", comb(params.n, params.tau))


def _count_recipe(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.count("optimal.recipe_runs")


def _count_selection(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    if result.closed_form_used:
        tracer.count("optimal.recipe_kept")


def _count_rows(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.count("scenario.sample_batch.rows", args[1])


# (module attribute the caller looks up, span name, counter hook)
_TARGETS = (
    ("metrics", "make_trial", "scenario.make_trial", None),
    ("fusion", "fuse_marzullo", "fusion.fuse_marzullo", None),
    ("fusion", "fuse_bi_with_flag", "fusion.fuse_bi_with_flag", None),
    ("fusion", "fuse_gbi_oneopt", "fusion.fuse_gbi_oneopt", None),
    ("fusion", "gbi_bayes_weights", "fusion.gbi_bayes_weights", _count_subsets),
    ("fusion", "fuse_gbi", "fusion.fuse_gbi", None),
    ("fusion", "fuse_linear", "fusion.fuse_linear", None),
    ("optimal", "sample_batch", "scenario.sample_batch", _count_rows),
    ("optimal", "estimate_moments", "optimal.estimate_moments", None),
    ("optimal", "fit_linear_empirical", "optimal.fit_linear_empirical", None),
    ("optimal", "solve_linear_two_agent", "optimal.solve_linear_two_agent", _count_recipe),
    ("optimal", "empirical_objective", "optimal.empirical_objective", None),
    ("cli", "select_linear_coefficients", "optimal.select_linear_coefficients", _count_selection),
    ("cli", "evaluate", "metrics.evaluate", None),
    ("cli", "combine_objective", "metrics.combine_objective", None),
    ("cli", "make_trial", "scenario.make_trial", None),
    ("cli", "posterior_mean_exact", "oracle.posterior_mean_exact", _count_patterns),
    ("cli", "fuse_gbi", "fusion.fuse_gbi", None),
)


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[Callable]:
    """Wrap the package's public functions where their callers look them up.

    Yields the traced `gbi_bayes_weights`: `cli.run_oracle_check` binds its
    weight function as a default argument, so it must be passed explicitly.
    """
    from intervalfusion import cli, fusion, metrics, optimal

    modules = {"cli": cli, "fusion": fusion, "metrics": metrics, "optimal": optimal}
    saved = []
    try:
        for module_name, attr, span_name, hook in _TARGETS:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, hook))
        yield fusion.gbi_bayes_weights
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
