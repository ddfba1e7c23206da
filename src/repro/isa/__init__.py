"""A functional, traceable RISC-V-Vector-like ISA substrate.

The paper's kernels are written in C with EPI/RVV intrinsics.  Pure Python
cannot express real vector instructions, so this subpackage provides the
closest synthetic equivalent: a :class:`~repro.isa.machine.VectorMachine`
with 32 vector registers, ``vsetvl`` strip-mining semantics (vector-length
agnostic, powers-of-two MVL up to 16384 bits), unit-stride/strided/indexed
memory operations and fused multiply-add — executing *functionally* on NumPy
buffers while recording an :class:`~repro.isa.trace.InstructionTrace`: every
memory instruction as a row in trace order, vector and scalar instructions
as counts.  The timing simulator (:mod:`repro.simulator.timing`) replays
the memory rows against a modelled cache hierarchy and prices the counts.

The vectorized convolution kernels in :mod:`repro.algorithms` are written
against this API with the same loop structure as the paper's pseudocode, so
instruction mixes and memory-access patterns match the original kernels.
"""

from repro.isa.types import ElementType, E8, E16, E32, E64, VType
from repro.isa.registers import VectorRegisterFile
from repro.isa.trace import InstructionTrace, TraceStats
from repro.isa.machine import VectorMachine, Buffer
from repro.isa.intrinsics import EpiIntrinsics

__all__ = [
    "ElementType",
    "E8",
    "E16",
    "E32",
    "E64",
    "VType",
    "VectorRegisterFile",
    "InstructionTrace",
    "TraceStats",
    "VectorMachine",
    "Buffer",
    "EpiIntrinsics",
]
