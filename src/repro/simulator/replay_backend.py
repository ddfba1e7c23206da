"""Replay backend registry: NumPy always, Numba-compiled when installed.

The trace-replay hot spots (the true-LRU set update and the per-memory-op
cost fold) have two interchangeable implementations:

* ``numpy`` — the set-partitioned / vectorized engines, always available;
* ``compiled`` — the single-pass Numba kernels in
  :mod:`repro.simulator._compiled`, registered only when the optional
  ``[compiled]`` extra (Numba) is importable.

Both are **bit-identical** by contract — same :class:`TimingResult`
floats, same cache tags/dirty/LRU ticks, same victim streams — so
``auto`` (the default everywhere) freely selects the fastest registered
backend.  Selection is observable: :mod:`repro.simulator.timing` bumps a
``timing.replay_backend.<name>`` counter for the backend that actually
ran, so profiles are self-describing.

The registry is deliberately tiny: a backend is two callables sharing
fixed signatures (`replay_sets`, `memory_cost_fold`) plus a name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import SimulationError
from repro.simulator import _compiled

#: Valid backend arguments (`auto` resolves to the fastest registered).
BACKEND_CHOICES = ("auto", "compiled", "numpy")


class MemoryCostParams(NamedTuple):
    """Scalar pricing constants for the per-memory-op cost fold."""

    datapath: float
    nonunit_factor: float
    startup_cycles: float
    l2_latency: float
    mlp: float
    dram_latency: float
    prefetch_factor: float
    line_bytes: int
    bytes_per_cycle: float
    vector_at_l2: bool


@dataclass(frozen=True)
class ReplayBackend:
    """One interchangeable implementation of the replay hot loops.

    ``replay_sets(tags, dirty, lru, sets, lines, stores, tick0)``
    mutates the cache state arrays in place, giving access ``k`` the
    LRU tick ``tick0 + 1 + k``, and returns per-access
    ``(hits, writebacks, victims)``.  ``memory_cost_fold(vl, elem_bytes,
    stride, indexed, l1_misses, l2_misses, params, start)`` prices each
    memory op and returns ``start`` with every op's cost added strictly
    left to right (``acc = start``, then ``acc = acc + cost`` per op), so
    folding consecutive chunks of ops, each from the previous chunk's
    result, is bit-identical to one fold over all of them from ``0.0``.
    """

    name: str
    replay_sets: Callable
    memory_cost_fold: Callable


def exact_sum(costs: np.ndarray, start: float) -> float:
    """Strict left-to-right fold of ``costs`` continuing from ``start``.

    ``np.add.accumulate`` is sequential by definition (unlike
    ``np.sum``'s pairwise reduction), so this reproduces a per-event
    ``res.field += cost`` accumulation bit for bit.
    """
    if costs.size == 0:
        return float(start)
    return float(np.add.accumulate(np.concatenate(([start], costs)))[-1])


# --------------------------------------------------------------------- #
# numpy backend — the set-partitioned / vectorized engines
# --------------------------------------------------------------------- #
#: Subtracted from the LRU key of the way holding the accessed line, so a
#: hit is the row minimum (a multiple of every associativity).
_HIT_KEY = np.int64(1 << 62)


def _replay_sets_numpy(
    tags: np.ndarray,
    dirty: np.ndarray,
    lru: np.ndarray,
    sets: np.ndarray,
    lines: np.ndarray,
    stores: np.ndarray,
    tick0: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Set-partitioned true-LRU replay: all touched sets advance per step.

    Each set's reference stream is independent under set-associative
    LRU, so one NumPy step advances every still-active set by one access
    — Python-level work per access drops by the number of touched sets.
    An access to the line its set touched last hits the MRU way and only
    ORs in its store flag and refreshes the tick, so each run of them is
    folded into the run's head before stepping: the head carries the OR of
    the run's store flags and the tick of the run's last access.

    Every step reads and writes slices, not gathers:

    * the run heads are laid out step-major — touched sets are ranked by
      head count, so the sets still active at step ``t`` are a prefix of
      the ranking and step ``t``'s inputs (line, store flag, tick) and
      outputs (old tag, old dirty bit) are one contiguous slice each,
      scattered back to stream order once after the loop;
    * the touched sets' tag/dirty/LRU rows are gathered way-major in rank
      order once, so a step works on ``[:, :k]`` views, and written back
      once at the end;
    * the LRU rows hold keys ``tick << s | way`` (``s`` = log2 assoc) and
      invalid ways ``way - assoc``, so "first invalid way, else the first
      least-recent way" is the key minimum over the ways; subtracting
      ``2**62`` from the way that holds the line makes a hit the minimum
      instead, so one reduction per step yields the way (its low bits)
      and whether it hit (below ``-assoc``).  A tick from ``2**(61 - s)``
      on would not fit and raises :class:`SimulationError` instead.
    """
    n = lines.size
    hits = np.ones(n, dtype=bool)  # a run's folded accesses all hit
    writebacks = np.zeros(n, dtype=bool)
    victims = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return hits, writebacks, victims
    num_sets, assoc = tags.shape
    shift = (assoc - 1).bit_length()
    if (tick0 + n) >> (61 - shift):
        raise SimulationError(
            f"LRU tick {tick0 + n} does not fit the NumPy replay's keys "
            f"(limit 2**{61 - shift})"
        )
    # stable partition by set: a radix sort for up to 2**16 sets
    order = np.argsort(
        sets.astype(np.min_scalar_type(num_sets - 1)), kind="stable"
    )
    by_set = lines[order]
    head = np.ones(n, dtype=bool)
    np.not_equal(by_set[1:], by_set[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    m = heads.size
    first = order[heads]  # stream positions of the run heads
    last = order[np.append(heads[1:], n) - 1]  # and of each run's last access
    per_set = np.bincount(sets[first], minlength=num_sets)
    touched = np.flatnonzero(per_set)  # ascending, as the heads are sorted
    counts = per_set[touched]
    by_count = np.argsort(-counts, kind="stable")
    rows = touched[by_count]  # touched sets, most heads first
    u = rows.size
    # step t advances the sets with more than t heads: a prefix of rows
    active = u - np.cumsum(np.bincount(counts))[:-1]
    bounds = np.zeros(active.size + 1, dtype=np.int64)
    np.cumsum(active, out=bounds[1:])
    # head j of the set ranked r goes to slot bounds[j] + r
    rank = np.empty(u, dtype=np.int64)
    rank[by_count] = np.arange(u)
    step = np.arange(m) - np.repeat(np.cumsum(counts) - counts, counts)
    dest = bounds[step] + np.repeat(rank, counts)
    pos = np.empty(m, dtype=np.int64)
    pos[dest] = first
    addr = np.empty(m, dtype=np.int64)
    addr[dest] = by_set[heads]
    store = np.empty(m, dtype=bool)
    store[dest] = np.logical_or.reduceat(stores[order], heads)
    tick = np.empty(m, dtype=np.int64)
    tick[dest] = (last + (tick0 + 1)) << shift

    tg = np.ascontiguousarray(tags[rows].T)
    dt = np.ascontiguousarray(dirty[rows].T)
    lr = np.ascontiguousarray(lru[rows].T)
    way = np.arange(assoc)[:, None]
    key = np.where(tg == -1, way - assoc, (lr << shift) | way)
    tags_f, dirty_f, key_f = tg.ravel(), dt.ravel(), key.ravel()
    old_tag = np.empty(m, dtype=np.int64)
    old_dirty = np.empty(m, dtype=bool)
    row = np.arange(u)
    edges = bounds.tolist()
    for t, k in enumerate(active.tolist()):
        a, b = edges[t], edges[t + 1]
        line = addr[a:b]
        best = np.minimum.reduce(
            key[:, :k] - (tg[:, :k] == line) * _HIT_KEY, axis=0
        )
        w = best & (assoc - 1)
        slot = w * u
        slot += row[:k]
        od = dirty_f[slot]
        old_dirty[a:b] = od
        old_tag[a:b] = tags_f[slot]
        tags_f[slot] = line
        od &= best < -assoc  # a hit keeps its dirty bit
        od |= store[a:b]
        dirty_f[slot] = od
        key_f[slot] = tick[a:b] | w
    tags[rows] = tg.T
    dirty[rows] = dt.T
    # ways still invalid were never written and keep their LRU values
    lru[rows] = np.where(tg == -1, lr, key >> shift).T

    hit = old_tag == addr  # a miss evicts some other line
    wb = ~hit & (old_tag != -1) & old_dirty
    hits[pos] = hit
    writebacks[pos] = wb
    victims[pos[wb]] = old_tag[wb]
    return hits, writebacks, victims


def _memory_cost_fold_numpy(
    vl: np.ndarray,
    elem_bytes: np.ndarray,
    stride: np.ndarray,
    indexed: np.ndarray,
    l1_misses: np.ndarray,
    l2_misses: np.ndarray,
    params: MemoryCostParams,
    start: float,
) -> float:
    """Price every memory op in one vectorized pass, then fold from
    ``start``."""
    unit = ~indexed & (np.abs(stride) == elem_bytes)
    eff_dp = np.where(
        unit, float(params.datapath), params.datapath / params.nonunit_factor
    )
    chime = np.ceil(vl / np.maximum(1.0, eff_dp))
    penalty = (l1_misses * params.l2_latency) / params.mlp
    penalty = penalty + (l2_misses * params.dram_latency) / (
        params.mlp * params.prefetch_factor
    )
    if params.vector_at_l2:
        # decoupled VPU: every vector access pays the L2 round trip
        # (hit or miss), partially pipelined
        round_trips = np.maximum(1.0, (vl * elem_bytes) / params.line_bytes)
        penalty = penalty + (round_trips * params.l2_latency) / params.mlp
    # line fills also consume DRAM bandwidth
    penalty = np.maximum(
        penalty, (l2_misses * params.line_bytes) / params.bytes_per_cycle
    )
    return exact_sum((params.startup_cycles + chime) + penalty, start)


# --------------------------------------------------------------------- #
# compiled backend — thin wrappers over the njit kernels
# --------------------------------------------------------------------- #
def _replay_sets_compiled(tags, dirty, lru, sets, lines, stores, tick0):
    n = lines.size
    hits = np.zeros(n, dtype=bool)
    writebacks = np.zeros(n, dtype=bool)
    victims = np.full(n, -1, dtype=np.int64)
    if n:
        _compiled.replay_sets_kernel(
            tags, dirty, lru, sets, lines, stores, tick0,
            hits, writebacks, victims,
        )
    return hits, writebacks, victims


def _memory_cost_fold_compiled(
    vl, elem_bytes, stride, indexed, l1_misses, l2_misses,
    params: MemoryCostParams, start: float,
):
    if vl.size == 0:
        return float(start)
    return float(
        _compiled.memory_cost_fold_kernel(
            np.ascontiguousarray(vl, dtype=np.int64),
            np.ascontiguousarray(elem_bytes, dtype=np.int64),
            np.ascontiguousarray(stride, dtype=np.int64),
            np.ascontiguousarray(indexed, dtype=bool),
            np.ascontiguousarray(l1_misses, dtype=np.int64),
            np.ascontiguousarray(l2_misses, dtype=np.int64),
            float(params.datapath),
            float(params.nonunit_factor),
            float(params.startup_cycles),
            float(params.l2_latency),
            float(params.mlp),
            float(params.dram_latency),
            float(params.prefetch_factor),
            int(params.line_bytes),
            float(params.bytes_per_cycle),
            bool(params.vector_at_l2),
            float(start),
        )
    )


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
NUMPY_BACKEND = ReplayBackend(
    "numpy",
    _replay_sets_numpy,
    _memory_cost_fold_numpy,
)

_REGISTRY: dict[str, ReplayBackend] = {"numpy": NUMPY_BACKEND}

if _compiled.HAVE_NUMBA:
    _REGISTRY["compiled"] = ReplayBackend(
        "compiled",
        _replay_sets_compiled,
        _memory_cost_fold_compiled,
    )


def available_backends() -> tuple[str, ...]:
    """Names of the registered (directly runnable) backends."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(name: str | None = "auto") -> ReplayBackend:
    """Map a backend argument to an implementation.

    ``auto`` (or ``None``) prefers ``compiled`` when Numba is installed
    and falls back to ``numpy`` otherwise — both are bit-identical, so
    the choice only affects speed.  Asking for ``compiled`` explicitly
    without Numba raises a :class:`SimulationError` naming the extra.
    """
    if name is None or name == "auto":
        return _REGISTRY.get("compiled", NUMPY_BACKEND)
    backend = _REGISTRY.get(name)
    if backend is None:
        if name == "compiled":
            raise SimulationError(
                "replay backend 'compiled' needs Numba — install the "
                "[compiled] extra (pip install repro[compiled]) or use "
                "backend='auto'/'numpy'"
            )
        raise SimulationError(
            f"unknown replay backend {name!r}; choose from {BACKEND_CHOICES} "
            f"(registered: {available_backends()})"
        )
    return backend
