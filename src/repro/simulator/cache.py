"""Trace-driven set-associative cache state.

The timing simulator replays vector memory operations against this hierarchy
to obtain per-level hit/miss counts.  The model is a classic write-allocate,
write-back, true-LRU set-associative cache — the same organization the
paper's gem5 configurations use for L1/L2.

This module holds the state: per-set tag, dirty and last-use arrays (LRU
is a logical clock, not list shuffling) plus hit/miss counters.
:mod:`repro.simulator.cache_fast` replays whole access streams against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.utils.validation import check_positive, check_power_of_two


@dataclass
class CacheStats:
    """Hit/miss/writeback counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """State of one write-allocate, write-back, true-LRU cache level."""

    def __init__(
        self, name: str, size_bytes: int, assoc: int, line_bytes: int
    ) -> None:
        check_positive("size_bytes", size_bytes)
        check_power_of_two("assoc", assoc)
        check_power_of_two("line_bytes", line_bytes)
        if size_bytes % (assoc * line_bytes) != 0:
            raise ConfigError(
                f"cache size {size_bytes} not divisible by assoc*line "
                f"({assoc}*{line_bytes})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (assoc * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError(
                f"cache with {self.num_sets} sets is not a power of two; "
                f"choose size/assoc/line accordingly"
            )
        self.stats = CacheStats()
        # tags[set, way] = line address (or -1); lru[set, way] = last-use tick
        self._tags = np.full((self.num_sets, assoc), -1, dtype=np.int64)
        self._dirty = np.zeros((self.num_sets, assoc), dtype=bool)
        self._lru = np.zeros((self.num_sets, assoc), dtype=np.int64)
        self._tick = 0

    def flush(self) -> None:
        """Invalidate all lines and reset dirty bits (stats are kept)."""
        self._tags[:] = -1
        self._dirty[:] = False
        self._lru[:] = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SetAssociativeCache({self.name}, {self.size_bytes}B, "
            f"{self.assoc}-way, sets={self.num_sets})"
        )


class CacheHierarchy:
    """A two-level hierarchy with a DRAM backing counter.

    ``vector_at_l2`` models the Paper I decoupled RISC-VV organization where
    the vector unit reads/writes through the L2 directly (via a tiny vector
    buffer), so vector accesses skip the L1.
    """

    def __init__(
        self,
        l1: SetAssociativeCache,
        l2: SetAssociativeCache,
        vector_at_l2: bool = False,
    ) -> None:
        if l1.line_bytes != l2.line_bytes:
            raise ConfigError("L1 and L2 must share a line size in this model")
        self.l1 = l1
        self.l2 = l2
        self.vector_at_l2 = vector_at_l2
        self.dram_lines = 0  # lines fetched from DRAM
        self.dram_writeback_lines = 0

    @property
    def line_bytes(self) -> int:
        return self.l1.line_bytes

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()

    @staticmethod
    def from_config(config) -> "CacheHierarchy":
        """Build the hierarchy described by a :class:`HardwareConfig`."""
        from repro.simulator.hwconfig import VectorUnitStyle

        l1 = SetAssociativeCache(
            "L1", config.l1_bytes, config.l1_assoc, config.line_bytes
        )
        l2 = SetAssociativeCache(
            "L2", config.l2_bytes, config.l2_assoc, config.line_bytes
        )
        return CacheHierarchy(
            l1, l2, vector_at_l2=(config.style is VectorUnitStyle.DECOUPLED)
        )
