"""In-memory spans around calls into the package's public functions.

Only traced runs import this module and install its wrappers; untraced runs
measure the unmodified package.  A span is ``(id, name, start_ns, end_ns,
parent_id, rid, value)``: ``parent_id`` is the span open in the same
synchronous call chain (``-1`` at top level), ``rid`` the serve request id
(or ``""``) and ``value`` a count taken from the call (rows, requests) or
``0``.  Spans stay in memory, in flat columns that allocate no object per
span (extra allocations would make the traced program's garbage collector
run more often), and are written out once, when the run ends.

Each :class:`Target` names one function or method by module and qualified
name.  A target that no longer exists (a later change deleted or renamed
it) is skipped and listed as missing; the metrics built on it are reported
as missing instead of failing the run.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

_NS = time.perf_counter_ns

#: Id of the serve request being handled in the current task, or "".
_rid: contextvars.ContextVar[str] = contextvars.ContextVar("span_rid", default="")


class Recorder:
    """Spans, observations and end-of-run probes of one traced process."""

    def __init__(self) -> None:
        self.ids, self.codes = array("q"), array("i")
        self.starts, self.ends, self.parents = array("q"), array("q"), array("q")
        self.counts = array("d")
        self.rids: list[str] = []
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        #: open synchronous spans, innermost last (synchronous calls nest)
        self.stack: list[int] = []
        self.open: set[int] = set()  # codes of the open synchronous spans
        self.values: dict[str, list[float]] = {}
        self.missing: list[str] = []
        self.probes: dict[str, Callable[[], float]] = {}
        #: start (ns) of each detached span still open, by request id
        self.entered: dict[str, int] = {}
        self._next = 0

    def code(self, name: str) -> int:
        if name not in self._code:
            self._code[name] = len(self.names)
            self.names.append(name)
        return self._code[name]

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def add(self, sid, code, t0, t1, parent, rid, value) -> None:
        self.ids.append(sid)
        self.codes.append(code)
        self.starts.append(t0)
        self.ends.append(t1)
        self.parents.append(parent)
        self.rids.append(rid)
        self.counts.append(value)

    def observe(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def span(self, name: str, value: float = 0):
        """Context manager for a span the benchmark opens itself."""
        return _BenchSpan(self, name, value)

    def payload(self) -> dict:
        probes = {}
        for name, fn in self.probes.items():
            try:
                probes[name] = float(fn())
            except (ArithmeticError, AttributeError):
                pass
        names = self.names
        spans = [
            [sid, names[code], t0, t1, parent, rid, value]
            for sid, code, t0, t1, parent, rid, value in zip(
                self.ids, self.codes, self.starts, self.ends, self.parents,
                self.rids, self.counts,
            )
        ]
        return {
            "spans": spans,
            "values": self.values,
            "missing": sorted(set(self.missing)),
            "probes": probes,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.payload(), fh, separators=(",", ":"))


class _BenchSpan:
    def __init__(self, rec: Recorder, name: str, value: float) -> None:
        self.rec, self.code, self.value = rec, rec.code(name), value

    def __enter__(self):
        rec = self.rec
        self.sid = rec.new_id()
        self.parent = rec.stack[-1] if rec.stack else -1
        rec.stack.append(self.sid)
        self.t0 = _NS()
        return self

    def __exit__(self, *exc) -> None:
        t1 = _NS()
        self.rec.stack.pop()
        self.rec.add(self.sid, self.code, self.t0, t1, self.parent, "", self.value)


@dataclass(frozen=True)
class Target:
    """One public function or method to time.

    ``rid(args, result)`` gives the span's request id (default: the id of
    the request whose handling is running); ``value(args, result)`` a count
    stored on the span; ``after(recorder, args, result, start_ns)`` records
    anything else.  Coroutines get detached spans: they never become the
    parent of spans that run while they await, because other requests'
    work interleaves there.
    """

    span: str
    module: str
    qualname: str
    rid: Callable | None = None
    value: Callable | None = None
    after: Callable | None = None
    #: also wrap the overriding methods of subclasses (abstract entry points)
    subclasses: bool = False
    #: batch-level work: spans opened inside carry no request id
    clear_rid: bool = False


def _sync_wrapper(rec: Recorder, t: Target, fn):
    code = rec.code(t.span)
    stack, open_ = rec.stack, rec.open
    rid_of, value_of, after, clear = t.rid, t.value, t.after, t.clear_rid

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if code in open_:  # a nested call of the same entry point
            return fn(*args, **kwargs)
        sid = rec.new_id()
        parent = stack[-1] if stack else -1
        stack.append(sid)
        open_.add(code)
        rid_token = _rid.set("") if clear else None
        t0 = _NS()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _NS()
            stack.pop()
            open_.discard(code)
            if rid_token is not None:
                _rid.reset(rid_token)
        rec.add(
            sid, code, t0, t1, parent,
            rid_of(args, result) if rid_of else _rid.get(),
            value_of(args, result) if value_of else 0,
        )
        if after is not None:
            after(rec, args, result, t0)
        return result

    return wrapper


def _async_wrapper(rec: Recorder, t: Target, fn):
    code = rec.code(t.span)

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        sid = rec.new_id()
        parent = rec.stack[-1] if rec.stack else -1
        rid = t.rid(args, None) if t.rid else ""
        token = _rid.set(rid)
        t0 = _NS()
        rec.entered[rid] = t0
        try:
            result = await fn(*args, **kwargs)
        finally:
            t1 = _NS()
            _rid.reset(token)
            rec.entered.pop(rid, None)
        rec.add(sid, code, t0, t1, parent, rid, 0)
        return result

    return wrapper


def _rebind_everywhere(old, new) -> None:
    """Point every loaded ``repro`` module's name for ``old`` at ``new``.

    Modules that did ``from x import f`` hold their own reference, so
    patching only the defining module would miss their calls.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _wrap_method(rec: Recorder, t: Target, cls: type, attr: str) -> None:
    raw = inspect.getattr_static(cls, attr)
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(_sync_wrapper(rec, t, raw.__func__)))
    elif isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_sync_wrapper(rec, t, raw.__func__)))
    elif inspect.iscoroutinefunction(raw):
        setattr(cls, attr, _async_wrapper(rec, t, raw))
    else:
        setattr(cls, attr, _sync_wrapper(rec, t, raw))


def _subclasses(cls: type) -> list[type]:
    out, stack = [], [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            out.append(sub)
            stack.append(sub)
    return out


def install(rec: Recorder, targets: list[Target]) -> None:
    """Wrap every target that exists; record the others as missing."""
    for t in targets:
        try:
            owner = importlib.import_module(t.module)
            *path, attr = t.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            getattr(owner, attr)
        except (ImportError, AttributeError):
            rec.missing.append(t.span)
            continue
        if isinstance(owner, type):
            _wrap_method(rec, t, owner, attr)
            if t.subclasses:
                for cls in _subclasses(owner):
                    if attr in vars(cls):
                        _wrap_method(rec, t, cls, attr)
        else:
            old = getattr(owner, attr)
            new = _sync_wrapper(rec, t, old)
            setattr(owner, attr, new)
            _rebind_everywhere(old, new)


# ---------------------------------------------------------------------- #
# the targets of each workload
# ---------------------------------------------------------------------- #
EVALUATE_MANY = Target("engine.evaluate_many", "repro.engine.executor",
                       "EvaluationEngine.evaluate_many")
SCHEDULE = Target("algorithms.schedule", "repro.algorithms.base",
                  "ConvAlgorithm.schedule", subclasses=True)

GRID_TARGETS = [
    EVALUATE_MANY,
    SCHEDULE,
    Target("engine.cache_key", "repro.engine.keys", "cache_key"),
    Target("engine.cache_get", "repro.engine.cache", "MemoCache.get"),
    Target("engine.cache_put", "repro.engine.cache", "MemoCache.put"),
    Target("analytical.from_cells", "repro.simulator.analytical.grid",
           "PhaseTable.from_cells",
           value=lambda args, table: getattr(table, "n_rows", 0)),
    Target("analytical.evaluate_phase_table", "repro.simulator.analytical.grid",
           "evaluate_phase_table"),
]

TRACE_TARGETS = [
    Target("algorithms.run_vectorized", "repro.algorithms.base",
           "ConvAlgorithm.run_vectorized", subclasses=True),
    Target("timing.run", "repro.simulator.timing", "TraceTimingModel.run"),
    Target("timing.replay_line_stream", "repro.simulator.cache_fast",
           "replay_line_stream"),
]


def _batch_after(rec: Recorder, args, responses, t0: int) -> None:
    """Batch wait of each request, and the service cache's hit ratio."""
    service, requests = args[0], args[1]
    for req in requests:
        entered = rec.entered.get(req.id)
        if entered is not None:
            rec.observe("serve.batch_wait_ms", (t0 - entered) / 1e6)
    if "engine.cache_hit_ratio" not in rec.probes:
        try:
            stats = service.engine.cache.stats
        except AttributeError:  # the service no longer exposes its cache
            return
        rec.probes["engine.cache_hit_ratio"] = lambda: stats.hits / stats.lookups


SERVE_TARGETS = [
    Target("serve.parse", "repro.serve.protocol", "ServeRequest.from_json",
           rid=lambda args, req: req.id),
    Target("serve.submit", "repro.serve.server", "ServeApp.submit",
           rid=lambda args, _: args[1].id),
    Target("serve.admit", "repro.serve.middleware", "AdmissionController.admit"),
    Target("serve.handle_batch", "repro.serve.service",
           "PredictionService.handle_batch", value=lambda args, _: len(args[1]),
           after=_batch_after, clear_rid=True),
    Target("serve.serialize", "repro.serve.protocol", "ServeResponse.to_json",
           rid=lambda args, _: args[0].id),
    # the ledger records a batch's requests after the batch, under no id
    Target("serve.ledger_record", "repro.serve.middleware",
           "ServingLedger.record", rid=lambda args, _: ""),
    Target("selection.select_many", "repro.selection.predictor",
           "AlgorithmSelector.select_many", value=lambda args, _: len(args[1])),
    Target("selection.build_dataset", "repro.selection.dataset", "build_dataset"),
    Target("selection.fit", "repro.selection.predictor", "AlgorithmSelector.fit"),
    EVALUATE_MANY,
    SCHEDULE,
]


# ---------------------------------------------------------------------- #
# analysis (in the orchestrator, on the dumped spans)
# ---------------------------------------------------------------------- #
class SpanSet:
    """Dumped spans with durations, self times and root lookups."""

    def __init__(self, payload: dict) -> None:
        self.values: dict[str, list[float]] = payload.get("values", {})
        self.missing: set[str] = set(payload.get("missing", []))
        self.probes: dict[str, float] = payload.get("probes", {})
        self.rows = [tuple(s) for s in payload["spans"]]
        self.by_id = {s[0]: s for s in self.rows}
        children_ns: dict[int, int] = {}
        for _, _, t0, t1, parent, _, _ in self.rows:
            if parent in self.by_id:
                children_ns[parent] = children_ns.get(parent, 0) + (t1 - t0)
        self.dur_ns = {s[0]: s[3] - s[2] for s in self.rows}
        #: a span's duration minus the part its direct children cover
        #: (children of a synchronous span run inside it, one at a time)
        self.self_ns = {
            sid: d - children_ns.get(sid, 0) for sid, d in self.dur_ns.items()
        }
        self._by_name: dict[str, list[tuple]] = {}
        for s in self.rows:
            self._by_name.setdefault(s[1], []).append(s)

    @classmethod
    def load(cls, path) -> "SpanSet":
        with open(path) as fh:
            return cls(json.load(fh))

    def named(self, name: str) -> list[tuple]:
        return self._by_name.get(name, [])

    def root_of(self, s: tuple) -> tuple:
        while s[4] in self.by_id:
            s = self.by_id[s[4]]
        return s

    def per_root(self, root: str, name: str, field: str = "dur") -> list[float]:
        """Per ``root`` span: total ``dur``/``self`` ns or ``value`` of ``name``."""
        totals = {s[0]: 0.0 for s in self.named(root)}
        for s in self.named(name):
            top = self.root_of(s)
            if top[1] == root:
                if field == "value":
                    totals[top[0]] += s[6]
                else:
                    table = self.self_ns if field == "self" else self.dur_ns
                    totals[top[0]] += table[s[0]]
        return list(totals.values())
