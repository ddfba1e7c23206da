"""Batched replay of the LRU cache hierarchy (set-partitioned/compiled).

:mod:`repro.simulator.cache` holds the cache state; a real conv layer
touches 10^7+ lines, so walking them one Python call at a time would make
per-line calls the bottleneck of trace-driven timing.  This module replays
whole access streams instead, dispatching the hot loop through the
backend registry in :mod:`repro.simulator.replay_backend`:

* ``numpy`` (always available) — the classic trace-driven
  set-partitioning (Dinero-like): each set's reference stream is
  independent under set-associative LRU, so the global line stream is
  partitioned by set index and all touched sets advance one access per
  NumPy step;
* ``compiled`` (``[compiled]`` extra) — a single-pass Numba kernel over
  the stream, no per-step Python at all;
* ``auto`` — the fastest registered backend.

Every backend mutates the
:class:`~repro.simulator.cache.SetAssociativeCache` tags/dirty/LRU/tick
and stats and the :class:`~repro.simulator.cache.CacheHierarchy` DRAM
counters exactly as a per-access walk would — including the LRU tick
values — so batches compose and backends can be interleaved on one
hierarchy.  The per-access walk lives in ``tests/trace_oracle.py``;
equivalence is locked by ``tests/test_replay_equivalence.py`` and the
hypothesis suite in ``tests/test_property_cache_fast.py``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.simulator.cache import CacheHierarchy, SetAssociativeCache
from repro.simulator.replay_backend import resolve_backend

#: How many offending addresses a misaligned-access error names.
_MISALIGNED_EXAMPLES = 4


def _check_alignment(cache: SetAssociativeCache, lines: np.ndarray) -> None:
    """Raise a :class:`SimulationError` describing *all* misaligned accesses.

    The message carries the total count and the first few offending
    addresses (not just the first), so a bad address generator is
    diagnosable from one failure.  With 1-byte lines, address -1 is
    aligned but is the tag that marks a way invalid, so it is refused too.
    """
    misaligned = (lines & (cache.line_bytes - 1)) != 0
    bad_count = int(np.count_nonzero(misaligned))
    if not bad_count:
        if cache.line_bytes == 1 and (lines == -1).any():
            raise SimulationError(
                f"{cache.name}: line address -1 is the invalid-way tag"
            )
        return
    examples = ", ".join(
        f"{int(addr):#x}" for addr in lines[misaligned][:_MISALIGNED_EXAMPLES]
    )
    suffix = ", ..." if bad_count > _MISALIGNED_EXAMPLES else ""
    raise SimulationError(
        f"{cache.name}: {bad_count} of {lines.size} accesses not "
        f"line-aligned to {cache.line_bytes} bytes (first offenders: "
        f"{examples}{suffix})"
    )


def simulate_cache_stream(
    cache: SetAssociativeCache,
    lines: np.ndarray,
    stores: np.ndarray,
    *,
    backend: str = "auto",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay one access per ``(lines[k], stores[k])``, in stream order.

    Mutates ``cache`` (tags, dirty bits, LRU ticks, tick counter, stats)
    exactly as one write-allocate, write-back, true-LRU access per line
    would.  Returns per-access arrays ``(hits, writebacks, victims)``:
    ``victims[k]`` is the dirty line address evicted by access ``k`` and is
    only meaningful where ``writebacks[k]`` is True (it is -1 elsewhere, but
    a victim line can legitimately be address 0 — test ``writebacks``, not
    ``victims``).

    ``backend`` selects the hot-loop implementation (bit-identical
    either way).
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    stores = np.ascontiguousarray(stores, dtype=bool)
    n = lines.size
    if n == 0:
        return (
            np.zeros(0, dtype=bool),
            np.zeros(0, dtype=bool),
            np.full(0, -1, dtype=np.int64),
        )
    _check_alignment(cache, lines)
    line_shift = cache.line_bytes.bit_length() - 1
    sets = (lines >> line_shift) & (cache.num_sets - 1)
    tick0 = cache._tick
    hits, writebacks, victims = resolve_backend(backend).replay_sets(
        cache._tags, cache._dirty, cache._lru, sets, lines, stores, tick0
    )
    cache._tick = tick0 + n
    stats = cache.stats
    nhits = int(np.count_nonzero(hits))
    stats.accesses += n
    stats.hits += nhits
    stats.misses += n - nhits
    stats.writebacks += int(np.count_nonzero(writebacks))
    return hits, writebacks, victims


def replay_line_stream(
    hierarchy: CacheHierarchy,
    lines: np.ndarray,
    stores: np.ndarray,
    op_ids: np.ndarray,
    num_ops: int,
    *,
    backend: str = "auto",
) -> tuple[np.ndarray, np.ndarray]:
    """Replay vector line accesses through both hierarchy levels.

    ``lines``/``stores`` describe vector line accesses in stream order and
    ``op_ids[k]`` names the memory op (0..num_ops-1) access ``k`` belongs
    to.  Updates both cache levels and the hierarchy's DRAM counters
    exactly as a per-line walk would (an L1 miss first writes back its
    dirty victim into the L2, then fills from it), and returns per-op
    ``(l1_misses, l2_misses)`` count arrays of length ``num_ops``.
    ``backend`` is forwarded to :func:`simulate_cache_stream` for each
    cache level.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    stores = np.ascontiguousarray(stores, dtype=bool)
    op_ids = np.ascontiguousarray(op_ids, dtype=np.int64)
    with obs.span("timing.cache_replay", cat="timing", lines=int(lines.size)):
        if hierarchy.vector_at_l2:
            # decoupled VPU: vector accesses go straight to the L2
            hits2, wbs2, _ = simulate_cache_stream(
                hierarchy.l2, lines, stores, backend=backend
            )
            miss2 = ~hits2
            dram_fills = int(np.count_nonzero(miss2))
            dram_wbs = int(np.count_nonzero(wbs2))
            hierarchy.dram_lines += dram_fills
            hierarchy.dram_writeback_lines += dram_wbs
            obs.count("cache.l2.misses", dram_fills)
            obs.count("cache.dram.fill_lines", dram_fills)
            obs.count("cache.dram.writeback_lines", dram_wbs)
            l2_per_op = np.bincount(op_ids[miss2], minlength=num_ops)
            return np.zeros(num_ops, dtype=np.int64), l2_per_op
        hits1, wbs1, victims1 = simulate_cache_stream(
            hierarchy.l1, lines, stores, backend=backend
        )
        miss1 = ~hits1
        obs.count("cache.l1.misses", int(np.count_nonzero(miss1)))
        l1_per_op = np.bincount(op_ids[miss1], minlength=num_ops)
        # Reconstruct the L2 reference stream in its original global order:
        # each L1 miss emits (dirty victim writeback, then the line fill); an
        # L1 hit emits nothing.
        emitted = wbs1.astype(np.int64) + miss1.astype(np.int64)
        ends = np.cumsum(emitted)
        total = int(ends[-1]) if emitted.size else 0
        if total == 0:
            return l1_per_op, np.zeros(num_ops, dtype=np.int64)
        l2_lines = np.empty(total, dtype=np.int64)
        l2_stores = np.empty(total, dtype=bool)
        wb_pos = (ends - emitted)[wbs1]
        l2_lines[wb_pos] = victims1[wbs1]
        l2_stores[wb_pos] = True
        fill_pos = ends[miss1] - 1
        l2_lines[fill_pos] = lines[miss1]
        l2_stores[fill_pos] = stores[miss1]
        hits2, wbs2, _ = simulate_cache_stream(
            hierarchy.l2, l2_lines, l2_stores, backend=backend
        )
        # only line fills count toward DRAM fetches and per-op L2 misses;
        # writeback probes update stats/state but are not attributed
        fill_miss = ~hits2[fill_pos]
        dram_fills = int(np.count_nonzero(fill_miss))
        dram_wbs = int(np.count_nonzero(wbs2))
        hierarchy.dram_lines += dram_fills
        hierarchy.dram_writeback_lines += dram_wbs
        obs.count("cache.l2.misses", dram_fills)
        obs.count("cache.dram.fill_lines", dram_fills)
        obs.count("cache.dram.writeback_lines", dram_wbs)
        l2_per_op = np.bincount(op_ids[miss1][fill_miss], minlength=num_ops)
        return l1_per_op, l2_per_op
