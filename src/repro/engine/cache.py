"""The engine's in-memory LRU memos: records and schedules.

:class:`MemoCache` holds analytical-model records: one tier, an
:class:`~collections.OrderedDict` bounded by ``capacity``, keyed by the
engine's ``(algorithm, spec JSON, hw JSON, calibration)`` tuples
(:mod:`repro.engine.keys`).  A cold full Paper II grid recomputes in well
under a second, so nothing is persisted across processes.
:class:`ScheduleMemo` holds the schedules those records are computed from.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field

from repro.algorithms.base import ConvAlgorithm
from repro.errors import EngineError
from repro.nn.layer import ConvSpec
from repro.simulator.analytical.grid import PhaseRows
from repro.simulator.analytical.model import LayerCycles
from repro.simulator.analytical.phases import Phase
from repro.simulator.hwconfig import HardwareConfig

#: Bound of each engine's schedule memo; the paper grid needs 412 entries
#: (28 layers x 4 algorithms x 4 vector lengths, less the layers Winograd
#: does not apply to).
_SCHEDULE_MEMO_SIZE = 4096

#: A schedule-memo entry: the candidate schedules when there is a choice
#: between several (else ``None``), and each candidate's rows.
_Entry = tuple[Sequence[list[Phase]] | None, tuple[PhaseRows, ...]]


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`MemoCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class MemoCache:
    """Bounded LRU of :class:`LayerCycles` records."""

    capacity: int = 8192
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise EngineError(f"cache capacity must be >= 1, got {self.capacity}")
        self._memory: OrderedDict[Hashable, LayerCycles] = OrderedDict()

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._memory

    def get(self, key: Hashable) -> LayerCycles | None:
        """Cached record for ``key``, or None (accounted as a miss)."""
        record = self._memory.get(key)
        if record is None:
            self.stats.misses += 1
            return None
        self._memory.move_to_end(key)
        self.stats.hits += 1
        return record

    def put(self, key: Hashable, record: LayerCycles) -> None:
        """Store a record, evicting the least recently used past capacity."""
        self.stats.stores += 1
        if key in self._memory:  # a new key is inserted at the end already
            self._memory.move_to_end(key)
        self._memory[key] = record
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def put_many(self, keys: list[Hashable], records: list[LayerCycles]) -> None:
        """Store ``records[i]`` under ``keys[i]``, for distinct keys that are
        not cached yet.

        One insert of them all, then one eviction pass: for such keys the
        entries, their order and the statistics are those of one
        :meth:`put` per record.
        """
        memory = self._memory
        memory.update(zip(keys, records))
        self.stats.stores += len(keys)
        excess = len(memory) - self.capacity
        if excess > 0:
            self.stats.evictions += excess
            for _ in range(excess):
                memory.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (the statistics are kept)."""
        self._memory.clear()


class ScheduleMemo:
    """Bounded LRU of schedules and their PhaseTable rows, per engine.

    An entry is keyed on the algorithm instance, the layer's canonical
    JSON (:func:`~repro.engine.keys.canonical_json`), and the values of
    the hardware fields the algorithm declares its schedule reads
    (:attr:`~repro.algorithms.base.ConvAlgorithm.schedule_reads`), and
    holds each candidate schedule's :class:`PhaseRows` (and the candidates
    themselves when the algorithm chooses between several).  Cells
    that differ only in fields the schedule does not read — the L2 size,
    for most algorithms — share one entry; Direct, which reads the L2 size
    only to choose between its two tilings, makes that choice per cell
    (:meth:`~repro.algorithms.base.ConvAlgorithm.choose_candidates`).
    The engine asks once per distinct entry of a batch, so ``hits`` and
    ``misses`` count entries, not cells.

    The memo lives in the engine only.  ``ConvAlgorithm.schedule`` and
    ``layer_cycles`` stay memo-free, an independent oracle for the
    parity suites and benchmark checks.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def entry(
        self, algo: ConvAlgorithm, spec: ConvSpec, spec_json: str, hw: HardwareConfig
    ) -> _Entry:
        """The candidates and candidate rows of ``algo`` on ``spec``, for
        the configs that agree with ``hw`` on ``algo.schedule_reads``.

        ``spec_json`` is ``canonical_json(spec)``.  The candidates are
        ``None`` when there is only one.  Raises what
        ``algo.check_applicable(spec)`` raises.  A memoized algorithm is
        checked only when its entry is built: applicability reads the spec
        alone, and an entry exists only for an (algorithm, spec) pair that
        passed the check.  An algorithm with undeclared reads is never
        memoized: its entry is ``schedule(spec, hw)``, for ``hw`` alone.
        """
        reads = algo.schedule_reads
        if reads is None:
            algo.check_applicable(spec)
            return None, (PhaseRows.from_phases(algo.schedule(spec, hw)),)
        key = (algo, spec_json, *[getattr(hw, name) for name in reads])
        # pop + re-insert touches the entry with one key comparison
        entry = self._entries.pop(key, None)
        if entry is None:
            algo.check_applicable(spec)
            self.misses += 1
            candidates = algo.schedule_candidates(spec, hw)
            rows = tuple(PhaseRows.from_phases(c) for c in candidates)
            # the schedules themselves are kept only when there is a choice
            entry = (candidates if len(candidates) > 1 else None, rows)
            if len(self._entries) >= _SCHEDULE_MEMO_SIZE:
                self._entries.popitem(last=False)
        else:
            self.hits += 1
        self._entries[key] = entry
        return entry
