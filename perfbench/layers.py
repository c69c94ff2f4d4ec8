"""Benchmark-side tracing: timers wrapped around public calls.

Nothing inside ``src/`` is instrumented.  A traced run swaps a few
public entry points (``ExperimentExecutor.run``, ``ExecutorConfig.build``)
for timing wrappers for the duration of one campaign, times the
standalone set-up layers directly, and timestamps the runners'
``progress=`` callback.  Untraced runs never install any of this, so
their end-to-end numbers carry no tracing cost; the traced run reports
the difference as ``trace.overhead_frac``.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Spans:
    """Wall-clock durations and counts, grouped by layer name."""

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)

    def add(self, name: str, seconds: float) -> None:
        self.durations[name].append(seconds)

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` recorded as one span of ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))


@contextmanager
def wrapped(owner, attr: str, on_return):
    """Replace ``owner.attr`` by a wrapper calling ``on_return(seconds,
    result)`` after every call; the original is restored on exit.

    ``owner`` is a class or module.  Only attributes defined on
    ``owner`` itself may be wrapped, so restoring cannot shadow an
    inherited one.
    """
    if attr not in vars(owner):
        raise AttributeError(f"{owner!r} does not define {attr!r}")
    original = vars(owner)[attr]

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        on_return(time.perf_counter() - start, result)
        return result

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class ProgressClock:
    """A ``progress=`` callback recording when results arrive."""

    def __init__(self):
        self.start = time.perf_counter()
        self.first: float | None = None

    def __call__(self, done: int, total: int) -> None:
        if self.first is None:
            self.first = time.perf_counter() - self.start

    @property
    def first_result_s(self) -> float:
        return self.first if self.first is not None else 0.0


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (1..99) by ``statistics.quantiles``."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
