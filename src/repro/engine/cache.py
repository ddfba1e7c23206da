"""In-memory LRU memo cache for analytical-model records.

One tier: an :class:`~collections.OrderedDict` bounded by ``capacity``,
keyed by the engine's ``(algorithm, spec JSON, hw JSON, calibration)``
tuples (:mod:`repro.engine.keys`).  A cold full Paper II grid recomputes
in well under a second, so nothing is persisted across processes.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.errors import EngineError
from repro.simulator.analytical.model import LayerCycles


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

    def clear(self) -> None:
        """Drop every entry (the statistics are kept)."""
        self._memory.clear()
