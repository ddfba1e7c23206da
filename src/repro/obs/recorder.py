"""Span/metric recorders behind the :mod:`repro.obs` facade.

Two implementations share one duck-typed interface:

* :class:`NullRecorder` — the default.  Every operation is a no-op that
  returns a shared singleton, so instrumented hot paths pay one dynamic
  dispatch and nothing else (no allocation, no clock read, no locking).
* :class:`Recorder` — the real collector.  Spans nest through a
  per-thread stack (``threading.local``) and finished spans and metric
  updates are appended under a lock.  Everything is recorded in one
  process; nothing in the package ships recorders across processes.

Timestamps come from :func:`time.perf_counter_ns` (monotonic).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.obs.metrics import CounterStore, GaugeStore, HistogramStore


@dataclass
class SpanRecord:
    """One finished span (times in nanoseconds, perf_counter origin)."""

    span_id: int
    parent_id: int  # -1 for roots
    name: str
    cat: str
    start_ns: int
    dur_ns: int
    pid: int
    tid: int
    attrs: Mapping[str, Any] | None = None

    @property
    def dur_s(self) -> float:
        return self.dur_ns / 1e9


class _NoopSpan:
    """Context manager that does nothing; one shared instance per process."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class NullRecorder:
    """The disabled-mode recorder: every call is a constant-time no-op."""

    enabled = False

    def span(
        self, name: str, cat: str = "", attrs: Mapping[str, Any] | None = None
    ) -> _NoopSpan:
        return NOOP_SPAN

    def count(self, name: str, n: float = 1.0) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None


NULL_RECORDER = NullRecorder()


class _Span:
    """A live span: context manager created by :meth:`Recorder.span`."""

    __slots__ = ("_recorder", "name", "cat", "attrs", "span_id", "parent_id", "_start")

    def __init__(
        self,
        recorder: "Recorder",
        name: str,
        cat: str,
        attrs: Mapping[str, Any] | None,
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.span_id = -1
        self.parent_id = -1
        self._start = 0

    def __enter__(self) -> "_Span":
        rec = self._recorder
        stack = rec._stack()
        self.span_id = next(rec._ids)
        self.parent_id = stack[-1] if stack else -1
        stack.append(self.span_id)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter_ns()
        rec = self._recorder
        stack = rec._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        record = SpanRecord(
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            cat=self.cat,
            start_ns=self._start,
            dur_ns=end - self._start,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=self.attrs,
        )
        with rec._lock:
            rec.spans.append(record)


@dataclass
class Recorder:
    """Collects spans, counters, gauges and histograms (thread-safe)."""

    spans: list[SpanRecord] = field(default_factory=list)
    counters: CounterStore = field(default_factory=CounterStore)
    gauges: GaugeStore = field(default_factory=GaugeStore)
    histograms: HistogramStore = field(default_factory=HistogramStore)

    enabled = True

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self.start_ns = time.perf_counter_ns()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------ #
    # recording API (mirrors the repro.obs module-level functions)
    # ------------------------------------------------------------------ #
    def span(
        self, name: str, cat: str = "", attrs: Mapping[str, Any] | None = None
    ) -> _Span:
        return _Span(self, name, cat, attrs)

    def count(self, name: str, n: float = 1.0) -> None:
        with self._lock:
            self.counters.add(name, n)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges.set(name, value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.histograms.observe(name, value)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def elapsed_s(self) -> float:
        """Wall time since the recorder was created."""
        return (time.perf_counter_ns() - self.start_ns) / 1e9

    def iter_spans(self) -> Iterator[SpanRecord]:
        with self._lock:
            yield from list(self.spans)
