"""Tests for the set-associative LRU cache and hierarchy.

Behaviour is driven through the per-access reference walk in
``tests/trace_oracle.py``; ``tests/test_property_cache_fast.py`` checks
that the batched replay in ``src/`` matches that walk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.simulator.cache import CacheHierarchy, CacheStats, SetAssociativeCache
from repro.simulator.cache_fast import simulate_cache_stream
from repro.simulator.hwconfig import HardwareConfig
from tests.trace_oracle import (
    MemoryOp,
    cache_access,
    cache_lookup,
    hierarchy_access_line,
    hierarchy_access_memop,
    resident_lines,
)


def make_cache(size=1024, assoc=2, line=64, name="L1"):
    return SetAssociativeCache(name, size, assoc, line)


class TestCacheGeometry:
    def test_sets_computed(self):
        c = make_cache(1024, 2, 64)
        assert c.num_sets == 8

    def test_size_not_divisible(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache("c", 1000, 2, 64)

    def test_non_power_of_two_sets(self):
        with pytest.raises(ConfigError, match="power of two"):
            SetAssociativeCache("c", 3 * 64 * 2, 2, 64)

    def test_unaligned_access_rejected(self):
        c = make_cache()
        with pytest.raises(SimulationError, match="not line-aligned"):
            simulate_cache_stream(c, np.array([7]), np.array([False]))


class TestCacheBehaviour:
    def test_miss_then_hit(self):
        c = make_cache()
        hit, _ = cache_access(c, 0, False)
        assert not hit
        hit, _ = cache_access(c, 0, False)
        assert hit
        assert c.stats.accesses == 2 and c.stats.hits == 1 and c.stats.misses == 1

    def test_same_line_different_bytes(self):
        c = make_cache()
        cache_access(c, 0, False)
        assert cache_lookup(c, 0)

    def test_lru_eviction_order(self):
        c = make_cache(size=2 * 64, assoc=2, line=64)  # 1 set, 2 ways
        a, b, d = 0, 64, 128  # all map to set 0
        cache_access(c, a, False)
        cache_access(c, b, False)
        cache_access(c, a, False)  # a is now MRU
        cache_access(c, d, False)  # evicts b (LRU)
        assert cache_lookup(c, a) and cache_lookup(c, d) and not cache_lookup(c, b)

    def test_dirty_writeback_on_eviction(self):
        c = make_cache(size=2 * 64, assoc=2, line=64)
        cache_access(c, 0, True)  # dirty
        cache_access(c, 64, False)
        _, victim = cache_access(c, 128, False)  # evicts line 0 (dirty)
        assert victim == 0
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = make_cache(size=2 * 64, assoc=2, line=64)
        cache_access(c, 0, False)
        cache_access(c, 64, False)
        _, victim = cache_access(c, 128, False)
        assert victim is None

    def test_capacity_bound(self):
        c = make_cache(size=1024, assoc=2, line=64)
        for i in range(100):
            cache_access(c, i * 64, False)
        assert resident_lines(c) <= 1024 // 64

    def test_flush(self):
        c = make_cache()
        cache_access(c, 0, True)
        c.flush()
        assert not cache_lookup(c, 0)
        assert resident_lines(c) == 0

    def test_full_working_set_hits_after_warmup(self):
        c = make_cache(size=1024, assoc=4, line=64)
        lines = [i * 64 for i in range(16)]  # exactly capacity
        for l in lines:
            cache_access(c, l, False)
        c.stats = CacheStats()
        for l in lines:
            assert cache_access(c, l, False)[0]
        assert c.stats.hit_rate == 1.0

    def test_thrash_working_set_misses(self):
        """Cyclic sweep of 2x capacity with LRU never hits."""
        c = make_cache(size=1024, assoc=16, line=64)  # fully assoc, 16 lines
        lines = [i * 64 for i in range(32)]
        for _ in range(3):
            for l in lines:
                cache_access(c, l, False)
        c.stats = CacheStats()
        for l in lines:
            assert not cache_access(c, l, False)[0]

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_hit_after_immediate_reaccess(self, line_ids):
        """Invariant: re-accessing the line just touched always hits."""
        c = make_cache(size=2048, assoc=4, line=64)
        for lid in line_ids:
            cache_access(c, lid * 64, False)
            assert cache_access(c, lid * 64, False)[0]

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_stats_consistency(self, line_ids):
        c = make_cache(size=1024, assoc=2, line=64)
        for lid in line_ids:
            cache_access(c, lid * 64, lid % 3 == 0)
        s = c.stats
        assert s.hits + s.misses == s.accesses == len(line_ids)
        assert 0.0 <= s.miss_rate <= 1.0
        assert resident_lines(c) <= 16


class TestHierarchy:
    def test_l1_miss_goes_to_l2(self):
        h = CacheHierarchy(make_cache(512, 2, 64, "L1"), make_cache(4096, 4, 64, "L2"))
        res = hierarchy_access_line(h, 0, False)
        assert res["l1_hit"] is False and res["l2_hit"] is False
        assert h.dram_lines == 1
        res = hierarchy_access_line(h, 0, False)
        assert res["l1_hit"] is True

    def test_l2_catches_l1_evictions(self):
        h = CacheHierarchy(make_cache(128, 2, 64, "L1"), make_cache(4096, 4, 64, "L2"))
        # sweep more than L1 (2 lines) but less than L2
        for addr in range(0, 64 * 8, 64):
            hierarchy_access_line(h, addr, False)
        before = h.dram_lines
        for addr in range(0, 64 * 8, 64):
            res = hierarchy_access_line(h, addr, False)
            assert res["l1_hit"] or res["l2_hit"]
        assert h.dram_lines == before

    def test_decoupled_vector_bypasses_l1(self):
        h = CacheHierarchy(
            make_cache(512, 2, 64, "L1"), make_cache(4096, 4, 64, "L2"),
            vector_at_l2=True,
        )
        res = hierarchy_access_line(h, 0, False, vector=True)
        assert res["l1_hit"] is None and res["l2_hit"] is False
        assert h.l1.stats.accesses == 0

    def test_decoupled_scalar_still_uses_l1(self):
        h = CacheHierarchy(
            make_cache(512, 2, 64, "L1"), make_cache(4096, 4, 64, "L2"),
            vector_at_l2=True,
        )
        res = hierarchy_access_line(h, 0, False, vector=False)
        assert res["l1_hit"] is False

    def test_mismatched_line_sizes_rejected(self):
        with pytest.raises(ConfigError):
            CacheHierarchy(
                SetAssociativeCache("L1", 512, 2, 32),
                SetAssociativeCache("L2", 4096, 4, 64),
            )

    def test_access_memop_counts_misses(self):
        h = CacheHierarchy(make_cache(512, 2, 64, "L1"), make_cache(4096, 4, 64, "L2"))
        op = MemoryOp("vle", 0, 4, 32, 4, is_store=False)  # 2 lines
        l1m, l2m = hierarchy_access_memop(h, op)
        assert l1m == 2 and l2m == 2
        l1m, l2m = hierarchy_access_memop(h, op)
        assert l1m == 0 and l2m == 0

    def test_from_config_styles(self):
        integrated = CacheHierarchy.from_config(HardwareConfig.paper2_rvv(512, 1.0))
        assert not integrated.vector_at_l2
        decoupled = CacheHierarchy.from_config(HardwareConfig.paper1_riscvv(512, 1.0))
        assert decoupled.vector_at_l2

    def test_dirty_l1_victim_lands_in_l2(self):
        h = CacheHierarchy(make_cache(128, 2, 64, "L1"), make_cache(4096, 4, 64, "L2"))
        hierarchy_access_line(h, 0, True)  # dirty in L1 (and allocated in L2)
        hierarchy_access_line(h, 64 * 16, False)
        hierarchy_access_line(h, 64 * 32, False)  # evicts line 0 from L1 -> L2 update
        assert cache_lookup(h.l2, 0)
