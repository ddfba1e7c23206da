"""Convolution-algorithm interface.

Each algorithm provides three faces:

* ``run(spec, x, w)`` — fast functional execution (NumPy), used for
  correctness testing and network inference;
* ``run_vectorized(spec, x, w, machine)`` — the kernel written against the
  RVV intrinsics of :mod:`repro.isa`, mirroring the paper's C code loop
  structure; executable (slowly) on small shapes and traced for the
  trace-driven timing validation;
* ``schedule(spec, hw)`` — the analytical-model description (phases and data
  streams) used by the co-design experiments on full-size layers.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.errors import NotApplicableError
from repro.isa.machine import VectorMachine
from repro.nn.layer import ConvSpec
from repro.simulator.analytical.phases import Phase
from repro.simulator.hwconfig import HardwareConfig


class ConvAlgorithm(abc.ABC):
    """Base class for convolution implementations."""

    #: Unique registry name, e.g. ``"im2col_gemm6"``.
    name: str = "abstract"
    #: Human-readable label used in experiment tables (papers' legend names).
    label: str = "abstract"
    #: The ``HardwareConfig`` fields :meth:`schedule_candidates` reads, or
    #: ``None`` when undeclared.  Two configs that agree on these fields
    #: get the same candidates, which is what lets the evaluation engine
    #: memoize them, so a subclass that changes what its schedule reads
    #: redeclares them (``tests/test_schedule_memo.py`` checks each
    #: declaration with a recording proxy).
    schedule_reads: tuple[str, ...] | None = None

    # ------------------------------------------------------------------ #
    # applicability
    # ------------------------------------------------------------------ #
    def applicability_reason(self, spec: ConvSpec) -> str | None:
        """None if applicable, else a human-readable reason."""
        return None

    def applicable(self, spec: ConvSpec) -> bool:
        return self.applicability_reason(spec) is None

    def check_applicable(self, spec: ConvSpec) -> None:
        reason = self.applicability_reason(spec)
        if reason is not None:
            raise NotApplicableError(f"{self.name} on {spec.describe()}: {reason}")

    # ------------------------------------------------------------------ #
    # the three faces
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def run(self, spec: ConvSpec, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Functional execution: (IC,IH,IW), (OC,IC,KH,KW) -> (OC,OH,OW)."""

    @abc.abstractmethod
    def run_vectorized(
        self, spec: ConvSpec, x: np.ndarray, w: np.ndarray, machine: VectorMachine
    ) -> np.ndarray:
        """Intrinsics-level execution on the functional vector machine."""

    @abc.abstractmethod
    def schedule(self, spec: ConvSpec, hw: HardwareConfig) -> list[Phase]:
        """Analytical-model schedule for a full-size layer."""

    def schedule_candidates(
        self, spec: ConvSpec, hw: HardwareConfig
    ) -> tuple[list[Phase], ...]:
        """Every schedule :meth:`schedule` can return for ``spec`` on
        configs that agree with ``hw`` on :attr:`schedule_reads`.

        :meth:`choose_candidate` picks one per config; ``schedule(spec,
        hw)`` equals ``candidates[choose_candidate(candidates, hw)]``.
        """
        return (self.schedule(spec, hw),)

    def choose_candidate(
        self, candidates: Sequence[list[Phase]], hw: HardwareConfig
    ) -> int:
        """Index of the candidate :meth:`schedule` returns on ``hw``."""
        return 0

    def choose_candidates(
        self,
        candidates: Sequence[Sequence[list[Phase]]],
        configs: Sequence[HardwareConfig],
        entry: np.ndarray,
        config: np.ndarray,
    ) -> np.ndarray:
        """:meth:`choose_candidate` for many cells at once.

        Cell ``i`` chooses among ``candidates[entry[i]]`` on
        ``configs[config[i]]``; the result holds each cell's index (int64),
        equal to what :meth:`choose_candidate` returns for it.
        """
        return np.zeros(len(entry), dtype=np.int64)

    # ------------------------------------------------------------------ #
    def conv_fn(self):
        """Adapter matching :data:`repro.nn.network.ConvFn`."""
        def fn(spec: ConvSpec, x: np.ndarray, w: np.ndarray) -> np.ndarray:
            return self.run(spec, x, w)
        fn.__name__ = f"conv_{self.name}"
        return fn

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
