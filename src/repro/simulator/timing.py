"""Trace-driven timing: replay an instruction trace on a hardware config.

This is the cycle-approximate engine; it traces scaled and full-size paper
layers alike.  It mirrors the structure of the paper's gem5 setup:

* an in-order scalar pipeline issuing one instruction per cycle;
* a vector unit executing each vector instruction in
  ``ceil(active_elements / datapath)`` cycles (the "chime"), with a fixed
  per-instruction issue cost — the gem5 fork used by Paper II models constant
  latency per vector instruction, which the issue cost stands in for;
* vector memory operations charged their chime plus exposed miss latency
  from the two-level LRU cache hierarchy (misses overlap up to the DRAM
  model's MLP; prefetching hides most of the DRAM latency when enabled).

Replay reads the trace's counts and memory columns without decoding
events.  A vector instruction costs ``max(issue, ceil(vl / denom))``
cycles, an integer, so compute cycles are one sum of count x cost over the
trace's distinct ``(vl, SEW)`` keys, and scalar cycles are the scalar
instruction count; both equal a per-instruction ``+=`` fold bit for bit.
Memory ops are replayed in trace order in chunks of at most
:data:`REPLAY_CHUNK_ROWS` rows, split at row boundaries: a chunk's line
stream runs through the set-partitioned cache walk in
:mod:`repro.simulator.cache_fast` (the hierarchy keeps its state from one
chunk to the next), then its ops are priced and folded left to right,
continuing from the running total of the chunks before it.  Replay's
temporaries thus follow the chunk, not the layer, and every result equals
the one-chunk replay's bit for bit.  The one-op-at-a-time reference
(``tests/trace_oracle.py``) must produce bit-identical
:class:`TimingResult` fields and cache state
(``tests/test_replay_equivalence.py``).

The cache walk and the memory-cost fold dispatch through the backend
registry (:mod:`repro.simulator.replay_backend`): ``numpy`` always,
``compiled`` (the Numba kernels of the ``[compiled]`` extra) when
installed, and ``auto`` (default) the fastest registered — all
bit-identical.  Every run bumps a ``timing.replay_backend.<name>`` obs
counter naming the backend that ran.

Absolute cycles are not expected to match gem5; orderings and scaling trends
are (and are what the tests assert).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.errors import SimulationError
from repro.isa.trace import InstructionTrace
from repro.simulator.cache import CacheHierarchy
from repro.simulator.cache_fast import replay_line_stream
from repro.simulator.hwconfig import HardwareConfig
from repro.simulator.memory import DramModel
from repro.simulator.replay_backend import (
    MemoryCostParams,
    ReplayBackend,
    resolve_backend,
)

#: Issue/dispatch cost of one vector instruction in the in-order pipeline.
VECTOR_ISSUE_CYCLES = 1.0
#: Extra startup cycles for a vector memory instruction (address setup).
VMEM_STARTUP_CYCLES = 2.0
#: Strided/indexed memory ops sustain fewer elements per cycle than unit
#: stride; penalize their chime by this factor.
NONUNIT_CHIME_FACTOR = 4.0
#: Memory rows replay expands, walks and prices at a time, so its
#: temporaries follow this bound, not the layer (docs/PERF.md, "Trace
#: timing replay", has the measurement behind the value).
REPLAY_CHUNK_ROWS = 1 << 16


@dataclass
class TimingResult:
    """Cycle counts and breakdown from a trace replay."""

    cycles: float = 0.0
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    scalar_cycles: float = 0.0
    l1_misses: int = 0
    l2_misses: int = 0
    vector_instrs: int = 0
    memory_instrs: int = 0
    scalar_instrs: int = 0


class TraceTimingModel:
    """Replays traces against a config's cache hierarchy and DRAM model."""

    def __init__(self, config: HardwareConfig) -> None:
        self.config = config
        self.hierarchy = CacheHierarchy.from_config(config)
        self.dram = DramModel.from_config(config)

    def run(
        self,
        trace: InstructionTrace,
        flush: bool = False,
        *,
        backend: str = "auto",
    ) -> TimingResult:
        """Time a trace; ``flush=True`` starts from cold caches.

        ``trace`` must be a full-mode :class:`InstructionTrace`.
        ``backend`` picks the hot-loop implementation (``auto``/
        ``compiled``/``numpy``); all produce bit-identical results and
        leave the hierarchy in bit-identical state.
        """
        if not isinstance(trace, InstructionTrace):
            raise SimulationError(
                f"trace replay needs an InstructionTrace, got "
                f"{type(trace).__name__}"
            )
        if trace.mode != "full":
            raise SimulationError(
                "trace was recorded in 'counts' mode (statistics only, no "
                "events) and cannot be replayed for timing; run the machine "
                "with trace='full' to time this kernel"
            )
        impl = resolve_backend(backend)
        if flush:
            self.hierarchy.flush()
        # profiles are self-describing: name the backend that actually ran
        obs.count(f"timing.replay_backend.{impl.name}")
        with obs.span(
            "timing.run", cat="timing", backend=impl.name, events=len(trace)
        ):
            res = self._replay(trace, impl)
            obs.count("timing.l1_misses", res.l1_misses)
            obs.count("timing.l2_misses", res.l2_misses)
            obs.count("timing.vector_instrs", res.vector_instrs)
            obs.count("timing.memory_instrs", res.memory_instrs)
        return res

    def _replay(
        self, trace: InstructionTrace, impl: ReplayBackend
    ) -> TimingResult:
        cfg = self.config
        datapath = cfg.datapath_f32_per_cycle
        prefetch = cfg.software_prefetch or cfg.hardware_prefetch
        res = TimingResult()

        # vector instructions: count x chime per distinct (vl, SEW); every
        # term is an integer, so the sum is exact in any order
        with obs.span("timing.vector", cat="timing"):
            compute = 0
            for (_, vl, sew_bits), count in trace.vector_counts.items():
                chime = math.ceil(vl / max(1.0, datapath * 32 / sew_bits))
                compute += count * max(VECTOR_ISSUE_CYCLES, chime)
                res.vector_instrs += count
            res.compute_cycles = float(compute)
            # scalar instructions: one cycle each
            res.scalar_instrs = sum(trace.scalar_counts.values())
            res.scalar_cycles = float(res.scalar_instrs)

        # memory instructions, a chunk of rows at a time: the hierarchy
        # keeps its state between chunks and the fold continues from the
        # running total, so the result equals one pass over every row
        mem = trace.columns()
        num_ops = mem.vl.size
        res.memory_instrs = num_ops
        params = MemoryCostParams(
            datapath=float(datapath),
            nonunit_factor=NONUNIT_CHIME_FACTOR,
            startup_cycles=VMEM_STARTUP_CYCLES,
            l2_latency=float(cfg.l2_latency),
            mlp=float(self.dram.mlp),
            dram_latency=float(self.dram.latency_cycles),
            prefetch_factor=4.0 if prefetch else 1.0,
            line_bytes=int(cfg.line_bytes),
            bytes_per_cycle=float(self.dram.bytes_per_cycle),
            vector_at_l2=bool(self.hierarchy.vector_at_l2),
        )
        for lo in range(0, num_ops, REPLAY_CHUNK_ROWS):
            hi = min(lo + REPLAY_CHUNK_ROWS, num_ops)
            with obs.span("timing.memory", cat="timing", ops=hi - lo):
                lines, op_ids = trace.memory_line_stream(
                    self.hierarchy.line_bytes, lo, hi
                )
                l1_m, l2_m = replay_line_stream(
                    self.hierarchy, lines, mem.is_store[lo:hi][op_ids],
                    op_ids, hi - lo, backend=impl.name,
                )
                del lines, op_ids  # before the next chunk expands its own
                res.l1_misses += int(l1_m.sum())
                res.l2_misses += int(l2_m.sum())
                res.memory_cycles = impl.memory_cost_fold(
                    mem.vl[lo:hi], mem.elem_bytes[lo:hi], mem.stride[lo:hi],
                    mem.indexed[lo:hi], l1_m, l2_m, params, res.memory_cycles,
                )

        overlap = 0.6 if cfg.out_of_order else 1.0
        res.cycles = overlap * (
            res.compute_cycles + res.memory_cycles + res.scalar_cycles
        )
        return res

    def reset(self) -> None:
        """Cold caches, fresh stats, and a freshly derived DRAM model."""
        self.hierarchy = CacheHierarchy.from_config(self.config)
        self.dram = DramModel.from_config(self.config)
