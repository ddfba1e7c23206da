"""The prediction service core: price every candidate, answer the fastest.

:class:`PredictionService` is the transport-independent heart of
``repro-serve``.  One call — :meth:`handle_batch` — takes a micro-batch
of parsed :class:`~repro.serve.protocol.ServeRequest` objects and
returns one response per request.  For every request it prices each
Paper II algorithm applicable to the layer (legend order,
``fallback=False``) through the shared
:class:`~repro.engine.executor.EvaluationEngine` — the whole batch in a
single ``evaluate_many`` call — and answers with the record that has
the fewest cycles, ties broken in legend order exactly as
:func:`~repro.algorithms.registry.best_algorithm` breaks them.  The
response carries that record's cycles, seconds and DRAM bytes, so it is
bit-identical to direct evaluation and the engine's memo cache absorbs
repeat traffic.

Paper II §4.3 trains a random forest for this choice because one gem5
run per query is too slow; the analytical engine prices a batch's
candidates in milliseconds, so the service reads the choice off the
cycles directly, as Paper I does.  The forest stays in
:mod:`repro.selection` for the figures that measure it.

If any candidate of a request fails to evaluate, that request is
answered with ``status: "error"`` naming the failed cell: an answer is
either the optimum or an error, never a silent second-best.  Failed
cells are not cached, so a retry recomputes them.
"""

from __future__ import annotations

from repro import obs
from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm
from repro.engine.executor import CellError, EvalTask, EvaluationEngine
from repro.nn.layer import ConvSpec
from repro.serve.protocol import ServeRequest, ServeResponse
from repro.simulator.analytical.model import LayerCycles
from repro.simulator.hwconfig import HardwareConfig

#: The health-probe canary cell: tiny, applicable to every algorithm,
#: memoized after the first probe so repeat probes cost a cache hit.
_PROBE_SPEC = ConvSpec(ic=16, oc=16, ih=14, iw=14, kh=3, kw=3, stride=1)
_PROBE_HW = HardwareConfig.paper2_rvv(512, 1.0)


class PredictionService:
    """Cycle-optimal algorithm selection over engine-priced micro-batches."""

    def __init__(self, engine: EvaluationEngine | None = None) -> None:
        self.engine = engine if engine is not None else EvaluationEngine()
        self.served = 0

    def _best(
        self, pairs: list[tuple[ConvSpec, HardwareConfig]]
    ) -> list[tuple[str, LayerCycles, float] | CellError]:
        """``(algorithm, record, cycles)`` of the fastest candidate of each pair.

        A pair with a failed candidate gets that candidate's
        :class:`CellError` instead.
        """
        candidates = [
            [n for n in ALGORITHM_NAMES if get_algorithm(n).applicable(spec)]
            for spec, _ in pairs
        ]
        records = iter(
            self.engine.evaluate_many(
                [
                    EvalTask(name, spec, hw, fallback=False)
                    for (spec, hw), names in zip(pairs, candidates)
                    for name in names
                ],
                on_error="record",
            )
        )
        out: list[tuple[str, LayerCycles, float] | CellError] = []
        for names in candidates:
            priced = [(name, next(records)) for name in names]
            failed = [r for _, r in priced if isinstance(r, CellError)]
            if failed:
                out.append(failed[0])
                continue
            # an engine record holds its cycles (an O(1) read); min keeps
            # the first of equal keys: legend-order ties
            ok = [
                (n, r, r.cycles) for n, r in priced
                if isinstance(r, LayerCycles)
            ]
            out.append(min(ok, key=lambda p: p[2]))
        return out

    def handle_batch(
        self, requests: list[ServeRequest]
    ) -> list[ServeResponse]:
        """Select and price a micro-batch; one response per request."""
        if not requests:
            return []
        with obs.span("serve.batch", cat="serve", requests=len(requests)):
            responses: list[ServeResponse] = []
            best = self._best([(req.spec, req.hw) for req in requests])
            for req, pick in zip(requests, best):
                if isinstance(pick, CellError):
                    responses.append(
                        ServeResponse(
                            id=req.id, status="error", error=pick.describe()
                        )
                    )
                else:
                    algo, record, cycles = pick
                    responses.append(
                        ServeResponse(
                            id=req.id, status="ok", algorithm=algo,
                            cycles=cycles,
                            # LayerCycles.seconds, on the cycles read above
                            seconds=cycles / (req.hw.freq_ghz * 1e9),
                            dram_bytes=record.dram_bytes,
                        )
                    )
            self.served += len(responses)
            obs.count("serve.requests", len(responses))
            return responses

    def handle(self, request: ServeRequest) -> ServeResponse:
        """Single-request convenience wrapper over :meth:`handle_batch`."""
        return self.handle_batch([request])[0]

    def probe(self) -> bool:
        """Active health canary: answer a tiny fixed layer.

        Routers call this to confirm a replica can still reach its engine
        and cache.  The cell is fixed, so after the first probe its
        candidates are memo-cache hits; a False (or raising) probe is a
        health failure.
        """
        try:
            [pick] = self._best([(_PROBE_SPEC, _PROBE_HW)])
        except Exception:
            return False
        return not isinstance(pick, CellError)

    def snapshot(self) -> dict:
        """Health/stats payload (the ``GET /v1/stats`` body)."""
        return {
            "served": self.served,
            "cache": self.engine.cache.stats.as_dict(),
        }
