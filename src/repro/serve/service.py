"""The prediction service core: select an algorithm, price the layer.

:class:`PredictionService` is the transport-independent heart of
``repro-serve``.  One call — :meth:`handle_batch` — takes a micro-batch
of parsed :class:`~repro.serve.protocol.ServeRequest` objects and
returns one response per request:

1. **Selection** — the trained
   :class:`~repro.selection.predictor.AlgorithmSelector` picks the
   algorithm for the whole batch in a single forest pass
   (:meth:`~repro.selection.predictor.AlgorithmSelector.select_many`),
   memoized per distinct (layer, hardware) pair so repeat traffic costs
   a dict hit.  When the predictor raises — or a
   :mod:`repro.faults` plan injects ``serving.predictor_error`` — the
   request is served by the **fallback path** instead, and after
   ``max_selector_failures`` consecutive failures the circuit breaker
   opens and the predictor is bypassed entirely.
2. **Fallback** — either the configurable safe algorithm
   (``im2col_gemm6``, applicable to every layer; policy ``"safe"``) or
   the engine-backed oracle (evaluate every applicable candidate through
   the shared cache and take the cycle-optimal one; policy
   ``"oracle"``).  Both are deterministic and never raise for a valid
   layer, which is what keeps the error rate at zero with the breaker
   open.
3. **Evaluation** — every chosen (algorithm, layer, hardware) cell is
   priced through the shared :class:`~repro.engine.executor.
   EvaluationEngine` in one ``evaluate_many`` call, so responses are
   bit-identical to direct engine evaluation and the content-addressed
   :class:`~repro.engine.cache.MemoCache` absorbs repeat traffic.
"""

from __future__ import annotations

from repro import faults, obs
from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm
from repro.engine.executor import CellError, EvalTask, EvaluationEngine
from repro.errors import InjectedFaultError, ServeError
from repro.nn.layer import ConvSpec
from repro.selection.predictor import AlgorithmSelector
from repro.serve.middleware import CircuitBreaker
from repro.serve.protocol import ServeRequest, ServeResponse
from repro.simulator.hwconfig import HardwareConfig

#: Fallback policies: a fixed safe algorithm, or the engine-backed oracle.
FALLBACK_POLICIES = ("safe", "oracle")

#: The health-probe canary cell: tiny, applicable to every algorithm,
#: memoized after the first probe so repeat probes cost a cache hit.
_PROBE_SPEC = ConvSpec(ic=16, oc=16, ih=14, iw=14, kh=3, kw=3, stride=1)
_PROBE_HW = HardwareConfig.paper2_rvv(512, 1.0)


class PredictionService:
    """Algorithm selection + engine-backed evaluation over micro-batches."""

    def __init__(
        self,
        engine: EvaluationEngine | None = None,
        selector: AlgorithmSelector | None = None,
        safe_algorithm: str = "im2col_gemm6",
        fallback_policy: str = "safe",
        max_selector_failures: int = 3,
        selection_cache_size: int = 65536,
    ) -> None:
        if fallback_policy not in FALLBACK_POLICIES:
            raise ServeError(
                f"fallback_policy must be one of {FALLBACK_POLICIES}, "
                f"got {fallback_policy!r}"
            )
        get_algorithm(safe_algorithm)  # fail fast on unknown names
        if selection_cache_size < 0:
            raise ServeError("selection_cache_size must be >= 0")
        self.engine = engine if engine is not None else EvaluationEngine()
        self.selector = selector
        self.safe_algorithm = safe_algorithm
        self.fallback_policy = fallback_policy
        self.breaker = CircuitBreaker(max_selector_failures)
        self.selection_cache_size = selection_cache_size
        self._selection_cache: dict[
            tuple[ConvSpec, HardwareConfig], str
        ] = {}
        self._seq = 0  # request ordinal: the fault plane's token
        self.served = 0
        self.fallback_served = 0

    # ------------------------------------------------------------------ #
    # selection
    # ------------------------------------------------------------------ #
    def _oracle_algorithm(self, spec: ConvSpec, hw: HardwareConfig) -> str:
        """Cycle-optimal applicable algorithm, priced through the cache."""
        names = [
            n for n in ALGORITHM_NAMES if get_algorithm(n).applicable(spec)
        ]
        records = self.engine.evaluate_many(
            [EvalTask(n, spec, hw, fallback=False) for n in names]
        )
        by_cycles = {
            n: r.cycles for n, r in zip(names, records)
            if not isinstance(r, CellError)
        }
        if not by_cycles:
            return self.safe_algorithm
        best = min(by_cycles.values())
        # ties break in the papers' legend order (names preserves it)
        return next(n for n in names if by_cycles.get(n) == best)

    def _fallback_algorithm(self, spec: ConvSpec, hw: HardwareConfig) -> str:
        if self.fallback_policy == "oracle":
            return self._oracle_algorithm(spec, hw)
        return self.safe_algorithm

    def _select_batch(
        self, requests: list[ServeRequest]
    ) -> list[tuple[str, str]]:
        """``(algorithm, served_by)`` per request, breaker-aware."""
        plan = faults.active_plan()
        choices: list[tuple[str, str] | None] = [None] * len(requests)
        ask: list[int] = []  # indices that still need the predictor
        for i, req in enumerate(requests):
            seq = self._seq
            self._seq += 1
            if self.selector is None or self.breaker.open:
                choices[i] = ("", "fallback")
                continue
            if plan is not None and plan.predictor_fails(seq):
                faults.mark_injected("serving.predictor_error")
                self.breaker.record_failure()
                choices[i] = ("", "fallback")
                continue
            cached = self._selection_cache.get((req.spec, req.hw))
            if cached is not None:
                self.breaker.record_success()
                choices[i] = (cached, "predictor")
                continue
            ask.append(i)
        if ask:
            pairs = [(requests[i].spec, requests[i].hw) for i in ask]
            try:
                assert self.selector is not None
                picked = self.selector.select_many(pairs)
            except InjectedFaultError:  # pragma: no cover - defensive
                raise
            except Exception:
                # one failure per affected request: the breaker semantics
                # of ResilientServingSimulator, applied batch-wide
                for i in ask:
                    self.breaker.record_failure()
                    choices[i] = ("", "fallback")
            else:
                for i, algo in zip(ask, picked):
                    self.breaker.record_success()
                    key = (requests[i].spec, requests[i].hw)
                    if len(self._selection_cache) < self.selection_cache_size:
                        self._selection_cache[key] = algo
                    choices[i] = (algo, "predictor")
        out: list[tuple[str, str]] = []
        for i, choice in enumerate(choices):
            assert choice is not None
            algo, served_by = choice
            if served_by == "fallback":
                algo = self._fallback_algorithm(
                    requests[i].spec, requests[i].hw
                )
            out.append((algo, served_by))
        return out

    # ------------------------------------------------------------------ #
    # the one entry point
    # ------------------------------------------------------------------ #
    def handle_batch(
        self, requests: list[ServeRequest]
    ) -> list[ServeResponse]:
        """Select and price a micro-batch; one response per request."""
        if not requests:
            return []
        with obs.span("serve.batch", cat="serve", requests=len(requests)):
            choices = self._select_batch(requests)
            tasks = [
                EvalTask(algo, req.spec, req.hw, fallback=True)
                for (algo, _), req in zip(choices, requests)
            ]
            records = self.engine.evaluate_many(tasks, on_error="record")
            responses: list[ServeResponse] = []
            for req, (algo, served_by), record in zip(
                requests, choices, records
            ):
                if isinstance(record, CellError):
                    responses.append(
                        ServeResponse(
                            id=req.id, status="error",
                            algorithm=algo, served_by=served_by,
                            error=record.describe(),
                        )
                    )
                    continue
                if served_by == "fallback":
                    self.fallback_served += 1
                responses.append(
                    ServeResponse(
                        id=req.id, status="ok", algorithm=algo,
                        served_by=served_by, cycles=record.cycles,
                        seconds=record.seconds(req.hw.freq_ghz),
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
        """Active health canary: price the safe algorithm on a tiny layer.

        Routers call this to confirm a replica can still reach its engine
        and cache.  The cell is fixed, so after the first probe it is a
        memo-cache hit; a False (or raising) probe is a health failure.
        """
        try:
            record = self.engine.evaluate_many(
                [
                    EvalTask(
                        self.safe_algorithm, _PROBE_SPEC, _PROBE_HW,
                        fallback=True,
                    )
                ],
                on_error="record",
            )[0]
        except Exception:
            return False
        return not isinstance(record, CellError)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Health/stats payload (the ``GET /v1/stats`` body)."""
        return {
            "served": self.served,
            "fallback_served": self.fallback_served,
            "circuit_open": self.breaker.open,
            "selection_cache_entries": len(self._selection_cache),
            "cache": self.engine.cache.stats.as_dict(),
        }
