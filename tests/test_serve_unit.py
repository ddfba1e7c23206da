"""Unit tests for the ``repro.serve`` building blocks.

Protocol parsing, clocks, middleware (admission / ledger),
micro-batching, trace generation, the prediction service core and the
transport's connection lifecycle — each piece in isolation, so the
integration suite can focus on the assembled service.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.algorithms.registry import best_algorithm, layer_cycles
from repro.engine.executor import EvaluationEngine
from repro.errors import NotFittedError, ProtocolError, ServeError
from repro.nn.layer import ConvSpec
from repro.serve import (
    AdmissionController,
    AsyncServeServer,
    MicroBatcher,
    MonotonicClock,
    PredictionService,
    ServeApp,
    ServeRequest,
    ServeResponse,
    ServingLedger,
    TraceSpec,
    VirtualClock,
    error_response,
    generate_trace,
    replay,
    shed_response,
)
from repro.serving.simulator import RequestRecord, ServingStats
from repro.simulator.hwconfig import HardwareConfig

SPEC = ConvSpec(ic=64, oc=64, ih=56, iw=56, kh=3, kw=3, stride=1)
HW = HardwareConfig.paper2_rvv(512, 1.0)


# ---------------------------------------------------------------------- #
# protocol
# ---------------------------------------------------------------------- #
class TestProtocol:
    PAYLOAD = {
        "id": "r-9",
        "layer": {"ic": 64, "oc": 64, "ih": 56, "iw": 56,
                  "kh": 3, "kw": 3, "stride": 1},
        "hw": {"vlen_bits": 1024, "l2_mib": 2.0},
    }

    def test_round_trip(self):
        request = ServeRequest.from_dict(self.PAYLOAD)
        assert request.id == "r-9"
        assert request.spec.ic == 64 and request.spec.kh == 3
        assert request.hw.vlen_bits == 1024 and request.hw.l2_mib == 2.0
        again = ServeRequest.from_json(request.to_json())
        assert again.spec == request.spec
        assert again.hw == request.hw
        assert again.id == request.id

    def test_hw_overrides_beyond_the_preset(self):
        payload = dict(self.PAYLOAD, hw={"vlen_bits": 512, "l2_mib": 1.0,
                                         "freq_ghz": 2.5})
        request = ServeRequest.from_dict(payload)
        assert request.hw.freq_ghz == 2.5
        base = HardwareConfig.paper2_rvv(512, 1.0)
        assert request.hw.l1_kib == base.l1_kib  # untouched fields survive

    @pytest.mark.parametrize("mutate", [
        lambda p: p.update(bogus=1),                       # unknown top-level
        lambda p: p.pop("layer"),                          # no layer
        lambda p: p.update(layer="not-an-object"),
        lambda p: p["layer"].update(banana=3),             # unknown layer key
        lambda p: p.update(hw="not-an-object"),
        lambda p: p["hw"].update(cores=8),                 # unknown hw key
        lambda p: p.update(id=7),                          # non-string id
        lambda p: p["layer"].update(ic=-1),                # ConvSpec rejects
    ])
    def test_invalid_requests_raise_protocol_error(self, mutate):
        payload = json.loads(json.dumps(self.PAYLOAD))  # deep copy
        mutate(payload)
        with pytest.raises(ProtocolError):
            ServeRequest.from_dict(payload)

    def test_bad_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            ServeRequest.from_json("{nope")
        with pytest.raises(ProtocolError, match="not valid JSON"):
            ServeResponse.from_json("{nope")

    def test_response_round_trip_preserves_float_bits(self):
        response = ServeResponse(
            id="x", status="ok", algorithm="winograd",
            cycles=1.1e8 / 3.0,
            seconds=6.17e-05, dram_bytes=98304.0,
        )
        again = ServeResponse.from_json(response.to_json())
        assert again == response  # == on floats: bit-identical round trip

    @pytest.mark.parametrize("response", [
        ServeResponse(id="o", status="ok", algorithm="winograd",
                      cycles=1.1e8 / 3.0, seconds=6.17e-05,
                      dram_bytes=98304.0),
        shed_response(ServeRequest(spec=SPEC, hw=HW, id="s")),
        error_response("e", "boom"),
        ServeResponse(id="r", status="ok", algorithm="direct", cycles=7.0,
                      seconds=1e-9, replica="replica-2", attempts=3),
    ], ids=["ok", "shed", "error", "routed"])
    def test_to_dict_equals_asdict(self, response):
        assert response.to_dict() == dataclasses.asdict(response)
        assert list(response.to_dict()) == list(dataclasses.asdict(response))
        assert response.to_json() == json.dumps(
            dataclasses.asdict(response), sort_keys=True
        )

    def test_helpers(self):
        request = ServeRequest(spec=SPEC, hw=HW, id="h")
        assert shed_response(request).status == "shed"
        assert shed_response(request).id == "h"
        err = error_response("e", "boom")
        assert err.status == "error" and err.error == "boom"


# ---------------------------------------------------------------------- #
# clocks
# ---------------------------------------------------------------------- #
class TestClocks:
    def test_virtual_clock_advances_and_refuses_to_rewind(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        assert clock.advance_to(1.5) == 1.5
        assert clock.advance(0.5) == 2.0
        assert clock.advance_to(2.0) == 2.0  # standing still is fine
        with pytest.raises(ServeError, match="backwards"):
            clock.advance_to(1.0)
        with pytest.raises(ServeError):
            clock.advance(-0.1)

    def test_monotonic_clock_is_nondecreasing(self):
        clock = MonotonicClock()
        assert clock.now() <= clock.now()


# ---------------------------------------------------------------------- #
# middleware
# ---------------------------------------------------------------------- #
class TestAdmissionController:
    def test_sheds_at_queue_limit(self):
        ctl = AdmissionController(queue_limit=2)
        assert ctl.admit() and ctl.admit()
        assert not ctl.admit()  # depth == limit: shed
        assert (ctl.admitted, ctl.shed, ctl.depth) == (2, 1, 2)
        ctl.started(2)
        assert ctl.admit()

    def test_unlimited_admits_everything(self):
        ctl = AdmissionController(queue_limit=None)
        assert all(ctl.admit() for _ in range(100))
        assert ctl.shed == 0

    def test_started_underflow_is_an_error(self):
        ctl = AdmissionController(queue_limit=4)
        ctl.admit()
        with pytest.raises(ServeError):
            ctl.started(2)

    def test_negative_limit_rejected(self):
        with pytest.raises(ServeError):
            AdmissionController(queue_limit=-1)

    def test_extra_depth_backpressure_sheds_early(self):
        """Downstream (router) backlog counts against the queue limit."""
        ctl = AdmissionController(queue_limit=4)
        assert ctl.admit(extra_depth=2)
        assert ctl.admit(extra_depth=2)  # depth 1 + 2 extra = 3 < 4
        assert not ctl.admit(extra_depth=2)  # 2 + 2 = 4: shed
        assert ctl.admit(extra_depth=0)  # local depth alone is fine
        assert (ctl.admitted, ctl.shed, ctl.depth) == (3, 1, 3)
        with pytest.raises(ServeError):
            ctl.admit(extra_depth=-1)


class TestServingLedger:
    def test_stats_conservation_and_slo(self):
        ledger = ServingLedger(slo_s=0.5)
        ledger.record(0.0, 0.1, 0.3)   # latency 0.3: within SLO
        ledger.record(0.2, 0.4, 1.0)   # latency 0.8: breach
        ledger.record_shed(0.25)
        stats = ledger.stats(servers=2)
        assert stats.offered == 3
        assert stats.n_requests == 2 and stats.shed == 1
        assert stats.slo_breaches == 1
        assert stats.servers == 2

    def test_non_causal_timeline_is_an_error(self):
        ledger = ServingLedger()
        with pytest.raises(ServeError, match="non-causal"):
            ledger.record(1.0, 0.5, 2.0)  # start before arrival
        with pytest.raises(ServeError, match="non-causal"):
            ledger.record(0.0, 1.0, 0.5)  # finish before start

    def test_rejects_nonpositive_slo(self):
        with pytest.raises(ServeError):
            ServingLedger(slo_s=0.0)


def test_serving_stats_collect_empty_run():
    stats = ServingStats.collect([], servers=4)
    assert stats.n_requests == 0 and stats.offered == 0
    assert stats.p99 == 0.0 and stats.throughput_rps == 0.0


def test_serving_stats_collect_matches_manual_aggregate():
    records = [RequestRecord(0.0, 0.0, 1.0), RequestRecord(0.5, 1.0, 3.0)]
    stats = ServingStats.collect(records, servers=1, shed_arrivals=[0.7],
                                 slo_s=2.0)
    assert stats.horizon == 3.0
    assert stats.utilization == pytest.approx(1.0)  # 3 busy s over 3 s
    assert stats.offered == 3
    assert stats.slo_breaches == 1  # the 2.5 s latency


def test_live_timelines_start_at_the_app_start():
    """``/v1/stats`` rates divide by serving time, not by clock uptime."""
    clock = VirtualClock(start=39_076.0)  # a host that has been up 11 h

    async def scenario():
        app = ServeApp(
            PredictionService(EvaluationEngine()), max_batch=4,
            max_wait_s=10.0, clock=clock,
        )
        answers = []
        for i in range(4):  # the fourth arrival fills the batch
            answers.append(asyncio.ensure_future(
                app.submit(ServeRequest(spec=SPEC, hw=HW, id=f"u-{i}"))
            ))
            await asyncio.sleep(0)
            clock.advance(0.0025)
        await asyncio.gather(*answers)
        return app

    app = asyncio.run(scenario())
    stats = app.stats()
    assert [r.arrival for r in stats.records] == pytest.approx(
        [0.0, 0.0025, 0.005, 0.0075]
    )
    assert stats.horizon == pytest.approx(0.0075)
    assert stats.throughput_rps == pytest.approx(4 / 0.0075)
    serving = app.snapshot()["serving"]
    assert serving["throughput_rps"] == pytest.approx(4 / 0.0075)
    assert "fallbacks" not in serving


# ---------------------------------------------------------------------- #
# micro-batcher (asyncio)
# ---------------------------------------------------------------------- #
async def _turns_until_done(future, limit: int = 2) -> int | None:
    """Event-loop turns until ``future`` is done; None past ``limit``."""
    for turns in range(1, limit + 1):
        await asyncio.sleep(0)
        if future.done():
            return turns
    return None


class TestMicroBatcher:
    REQ = ServeRequest(spec=SPEC, hw=HW, id="b")

    def _echo_handler(self, calls):
        def handler(requests):
            calls.append(len(requests))
            return [ServeResponse(id=r.id) for r in requests]
        return handler

    def test_size_flush_coalesces_one_handler_call(self):
        calls: list[int] = []

        async def scenario():
            batcher = MicroBatcher(self._echo_handler(calls),
                                   max_batch=3, max_wait_s=60.0)
            futures = [batcher.submit(self.REQ) for _ in range(3)]
            return await asyncio.gather(*futures)

        responses = asyncio.run(scenario())
        assert calls == [3]  # one flush, no timer needed
        assert all(r.id == "b" for r in responses)

    def test_age_flush_fires_without_filling_the_batch(self):
        calls: list[int] = []

        async def scenario():
            batcher = MicroBatcher(self._echo_handler(calls),
                                   max_batch=100, max_wait_s=0.005)
            future = batcher.submit(self.REQ)
            return await asyncio.wait_for(future, timeout=2.0)

        response = asyncio.run(scenario())
        assert calls == [1] and response.id == "b"

    def test_default_flushes_a_lone_request_on_the_next_turn(self):
        calls: list[int] = []

        async def scenario():
            batcher = MicroBatcher(self._echo_handler(calls))
            future = batcher.submit(self.REQ)
            return await _turns_until_done(future), future

        turns, future = asyncio.run(scenario())
        assert turns is not None  # no 2 ms timer: done within two turns
        assert calls == [1] and future.result().id == "b"

    def test_default_batch_is_one_loop_turn_of_submissions(self):
        calls: list[int] = []

        async def scenario():
            batcher = MicroBatcher(self._echo_handler(calls), max_batch=4)
            first = [batcher.submit(self.REQ) for _ in range(6)]
            await asyncio.sleep(0)  # 4 flushed at the size, 2 at the turn
            later = batcher.submit(self.REQ)  # a later turn's own batch
            await asyncio.gather(*first, later)

        asyncio.run(scenario())
        assert calls == [4, 2, 1]

    def test_lone_request_through_a_default_app_needs_no_timer(self):
        async def scenario():
            app = ServeApp(PredictionService(EvaluationEngine()))
            future = asyncio.ensure_future(
                app.submit(ServeRequest(spec=SPEC, hw=HW, id="lone"))
            )
            return await _turns_until_done(future), future

        turns, future = asyncio.run(scenario())
        assert turns is not None
        assert future.result().status == "ok" and future.result().id == "lone"

    def test_handler_failure_propagates_to_every_future(self):
        async def scenario():
            def boom(requests):
                raise RuntimeError("handler exploded")
            batcher = MicroBatcher(boom, max_batch=2, max_wait_s=60.0)
            f1 = batcher.submit(self.REQ)
            f2 = batcher.submit(self.REQ)
            results = await asyncio.gather(f1, f2, return_exceptions=True)
            return results

        results = asyncio.run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_short_handler_reply_is_an_error(self):
        async def scenario():
            batcher = MicroBatcher(lambda reqs: [], max_batch=1,
                                   max_wait_s=60.0)
            return await asyncio.gather(batcher.submit(self.REQ),
                                        return_exceptions=True)

        (result,) = asyncio.run(scenario())
        assert isinstance(result, ServeError)

    def test_drain_flushes_pending(self):
        calls: list[int] = []

        async def scenario():
            batcher = MicroBatcher(self._echo_handler(calls),
                                   max_batch=100, max_wait_s=60.0)
            future = batcher.submit(self.REQ)
            await batcher.drain()
            return await future

        assert asyncio.run(scenario()).id == "b"
        assert calls == [1]

    def test_invalid_params_rejected(self):
        with pytest.raises(ServeError):
            MicroBatcher(lambda reqs: [], max_batch=0)
        with pytest.raises(ServeError):
            MicroBatcher(lambda reqs: [], max_wait_s=-1.0)

    @pytest.mark.parametrize("wait", [float("nan"), float("inf")])
    def test_non_finite_wait_rejected(self, wait):
        with pytest.raises(ServeError):
            MicroBatcher(lambda reqs: [], max_wait_s=wait)


# ---------------------------------------------------------------------- #
# load generation
# ---------------------------------------------------------------------- #
class TestLoadGen:
    def test_same_seed_same_trace(self):
        spec = TraceSpec(pattern="bursty", n_requests=200, rate_rps=50.0,
                         seed=11)
        a = generate_trace(spec)
        b = generate_trace(spec)
        assert [(t.arrival, t.request.to_json()) for t in a] == [
            (t.arrival, t.request.to_json()) for t in b
        ]

    def test_different_seeds_differ(self):
        a = generate_trace(TraceSpec(n_requests=50, seed=1))
        b = generate_trace(TraceSpec(n_requests=50, seed=2))
        assert [t.arrival for t in a] != [t.arrival for t in b]

    @pytest.mark.parametrize("pattern", ["uniform", "diurnal", "bursty"])
    def test_patterns_produce_increasing_arrivals(self, pattern):
        trace = generate_trace(
            TraceSpec(pattern=pattern, n_requests=100, rate_rps=200.0, seed=5)
        )
        arrivals = [t.arrival for t in trace]
        assert len(trace) == 100
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)
        assert [t.request.id for t in trace] == [f"r-{i}" for i in range(100)]

    def test_burst_compresses_the_middle_third(self):
        slow = generate_trace(
            TraceSpec(pattern="uniform", n_requests=300, rate_rps=100.0,
                      seed=4)
        )
        fast = generate_trace(
            TraceSpec(pattern="bursty", n_requests=300, rate_rps=100.0,
                      seed=4, burst_factor=10.0)
        )
        def span(trace, lo, hi):
            return trace[hi].arrival - trace[lo].arrival
        # identical gaps outside the window, 10x tighter inside it
        assert span(fast, 100, 199) == pytest.approx(
            span(slow, 100, 199) / 10.0
        )
        assert span(fast, 0, 99) == pytest.approx(span(slow, 0, 99))

    @pytest.mark.parametrize("bad", [
        dict(pattern="sinusoid"),
        dict(n_requests=0),
        dict(rate_rps=0.0),
        dict(burst_factor=0.5),
        dict(diurnal_amplitude=1.0),
        dict(diurnal_period_s=0.0),
    ])
    def test_spec_validation(self, bad):
        with pytest.raises(ServeError):
            TraceSpec(**bad)

    @pytest.mark.parametrize("bad", [
        dict(rate_rps=float("nan")),
        dict(rate_rps=float("inf")),  # drew all-zero arrivals
        dict(burst_factor=float("nan")),  # was silently ignored
        dict(burst_factor=float("inf")),
        dict(pattern="diurnal", diurnal_period_s=float("nan")),
        dict(pattern="diurnal", diurnal_period_s=float("inf")),
    ])
    def test_non_finite_spec_rejected(self, bad):
        with pytest.raises(ServeError):
            TraceSpec(**bad)

    def test_empty_workload_rejected(self):
        with pytest.raises(ServeError, match="workload"):
            generate_trace(TraceSpec(n_requests=1), workload=[])

    def test_replay_validates_parameters(self):
        service = PredictionService()
        trace = generate_trace(TraceSpec(n_requests=1))
        with pytest.raises(ServeError):
            replay(service, trace, servers=0)
        with pytest.raises(ServeError):
            replay(service, trace, max_batch=0)


# ---------------------------------------------------------------------- #
# HTTP error paths: bad bodies get an HTTP answer, never a hang-up
# ---------------------------------------------------------------------- #
class TestHttpErrorPaths:
    """Satellite fix (ISSUE 10): malformed JSON → 400, oversized → 413."""

    def _boot(self, tmp_path):
        from repro.engine.executor import EvaluationEngine
        from repro.serve import AsyncServeServer, ServeApp

        service = PredictionService(engine=EvaluationEngine())
        app = ServeApp(service, queue_limit=64, max_batch=8, max_wait_s=0.002)
        return AsyncServeServer(app, unix_path=tmp_path / "serve.sock")

    def _roundtrip(self, tmp_path, raw: bytes) -> tuple[int, dict]:
        async def scenario():
            server = self._boot(tmp_path)
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(tmp_path / "serve.sock")
                )
                writer.write(raw)
                if hasattr(writer, "write_eof"):
                    writer.write_eof()
                await writer.drain()
                data = await asyncio.wait_for(reader.read(), timeout=10.0)
                writer.close()
                return data
            finally:
                await server.stop()

        data = asyncio.run(scenario())
        assert data, "the server must answer, not drop the connection"
        head, body = data.decode().split("\r\n\r\n", 1)
        return int(head.split()[1]), json.loads(body)

    def test_malformed_json_body_is_400(self, tmp_path):
        body = b"{this is not json"
        raw = (
            b"POST /v1/select HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        status, payload = self._roundtrip(tmp_path, raw)
        assert status == 400
        assert "bad JSON" in payload["error"]

    def test_truncated_body_is_400_not_a_dropped_connection(self, tmp_path):
        # Content-Length promises 1000 bytes; the client sends 4 and EOFs
        raw = (
            b"POST /v1/select HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 1000\r\n\r\noops"
        )
        status, payload = self._roundtrip(tmp_path, raw)
        assert status == 400
        assert "truncated" in payload["error"]

    def test_negative_content_length_is_400(self, tmp_path):
        raw = (
            b"POST /v1/select HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: -5\r\n\r\n"
        )
        status, payload = self._roundtrip(tmp_path, raw)
        assert status == 400

    def test_oversized_body_is_413(self, tmp_path):
        from repro.serve.server import MAX_BODY_BYTES

        raw = (
            b"POST /v1/select HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
        )
        status, payload = self._roundtrip(tmp_path, raw)
        assert status == 413
        assert "too large" in payload["error"]


# ---------------------------------------------------------------------- #
# prediction service core
# ---------------------------------------------------------------------- #
#: Layers the service must price, Winograd-inapplicable shapes included:
#: non-3x3 kernels and stride 2.
layers = st.builds(
    ConvSpec,
    ic=st.integers(1, 48),
    oc=st.integers(1, 48),
    ih=st.integers(6, 40),
    iw=st.integers(6, 40),
    kh=st.sampled_from([1, 3, 5]),
    kw=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    index=st.integers(0, 30),
)


@st.composite
def hardware(draw) -> HardwareConfig:
    """The Paper II preset with every field a request may override."""
    hw = HardwareConfig.paper2_rvv(
        draw(st.sampled_from([128, 256, 512, 1024, 2048, 4096])),
        draw(st.sampled_from([0.5, 1.0, 2.0, 8.0, 64.0])),
    )
    return replace(
        hw,
        freq_ghz=draw(st.floats(0.5, 4.0)),
        l1_kib=draw(st.sampled_from([16, 32, 64])),
        l2_assoc=draw(st.sampled_from([4, 8, 16])),
        lmul=draw(st.sampled_from([1, 2, 4, 8])),
    )


@st.composite
def batches(draw) -> list[tuple[ConvSpec, HardwareConfig]]:
    """A micro-batch drawn from a few distinct pairs, so pairs repeat."""
    pool = draw(st.lists(st.tuples(layers, hardware()), min_size=1,
                         max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(pairs=batches())
def test_handle_batch_answers_the_optimum_bit_identically(pairs):
    """Every answer is ``best_algorithm``'s pick, priced as layer_cycles."""
    service = PredictionService(EvaluationEngine())
    requests = [ServeRequest(spec=s, hw=hw, id=f"p{i}")
                for i, (s, hw) in enumerate(pairs)]
    responses = service.handle_batch(requests)
    assert [r.id for r in responses] == [r.id for r in requests]
    for (spec, hw), response in zip(pairs, responses):
        best, _ = best_algorithm(spec, hw)
        direct = layer_cycles(best, spec, hw, fallback=False)
        assert response.status == "ok"
        assert response.algorithm == best
        assert response.cycles == direct.cycles  # bit-identical
        assert response.seconds == direct.seconds(hw.freq_ghz)
        assert response.dram_bytes == direct.dram_bytes


class TestPredictionService:
    def test_answers_the_cycle_optimal_algorithm(self):
        service = PredictionService()
        response = service.handle(ServeRequest(spec=SPEC, hw=HW, id="f"))
        best, cycles = best_algorithm(SPEC, HW)
        assert response.status == "ok"
        assert response.algorithm == best
        assert response.cycles == min(cycles.values())
        direct = layer_cycles(best, SPEC, HW, fallback=False)
        assert response.cycles == direct.cycles

    def test_failed_candidates_answer_errors_and_are_not_cached(self):
        service = PredictionService(EvaluationEngine())
        requests = [ServeRequest(spec=SPEC, hw=HW, id="e0"),
                    ServeRequest(spec=SPEC, hw=HW, id="e1"),
                    ServeRequest(spec=SPEC, hw=HardwareConfig.paper2_rvv(
                        1024, 2.0), id="e2")]
        with faults.inject("seed=3,cell.error=1.0"):
            failed = service.handle_batch(requests)
        assert [r.status for r in failed] == ["error"] * 3
        for r in failed:
            assert r.algorithm == "" and r.cycles == 0.0
            assert "failed: InjectedFaultError" in r.error
            assert "on layer" in r.error  # names the cell
        assert len(service.engine.cache) == 0  # nothing cached
        healed = service.handle_batch(requests)  # fault-free retry
        assert [r.status for r in healed] == ["ok"] * 3
        assert healed[0].algorithm == best_algorithm(SPEC, HW)[0]

    def test_probe_is_a_cached_canary(self):
        service = PredictionService()
        assert service.probe() is True
        hits_before = service.engine.cache.stats.hits
        assert service.probe() is True  # second probe: memo-cache hit
        assert service.engine.cache.stats.hits > hits_before

    def test_probe_reports_false_on_broken_engine(self):
        service = PredictionService()

        class Broken:
            def evaluate_many(self, tasks, **kwargs):
                raise RuntimeError("engine down")

        service.engine = Broken()
        assert service.probe() is False


# ---------------------------------------------------------------------- #
# selector API (the forest the selection figures measure)
# ---------------------------------------------------------------------- #
class TestSelectorBatchAPI:
    def test_unfitted_selector_raises(self):
        from repro.selection.predictor import AlgorithmSelector

        with pytest.raises(NotFittedError):
            AlgorithmSelector().select(SPEC, HW)


# ---------------------------------------------------------------------- #
# transport: connection lifecycle and HTTP list bodies
# ---------------------------------------------------------------------- #
REPO = Path(__file__).resolve().parents[1]
PAYLOAD = {"layer": {"ic": 64, "oc": 64, "ih": 56, "iw": 56,
                     "kh": 3, "kw": 3, "stride": 1},
           "hw": {"vlen_bits": 512, "l2_mib": 1.0}}


def _line(req_id: str) -> bytes:
    return (json.dumps(dict(PAYLOAD, id=req_id)) + "\n").encode()


def _connect(path: Path) -> socket.socket:
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        conn.connect(str(path))
    except OSError:
        conn.close()
        raise
    return conn


@pytest.fixture
def answer_writes(monkeypatch) -> list[int]:
    """Answer lines per ``StreamWriter.write`` call that carries answers."""
    writes: list[int] = []
    write = asyncio.StreamWriter.write

    def counting(self, data):
        if b'"status"' in data:  # answers carry a status; requests do not
            writes.append(data.count(b"\n"))
        return write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting)
    return writes


class TestTransport:
    def _boot(self, tmp_path, **app_kwargs):
        app = ServeApp(PredictionService(EvaluationEngine()),
                       queue_limit=64, max_wait_s=0.002, **app_kwargs)
        return AsyncServeServer(app, unix_path=tmp_path / "serve.sock")

    def test_ndjson_connection_keeps_no_answered_futures(self, tmp_path):
        n = 20

        def retained() -> int:
            """Answered futures and unwritten answer bytes still held."""
            gc.collect()
            held = 0
            for o in gc.get_objects():
                if (isinstance(o, asyncio.Future) and o.done()
                        and not o.cancelled() and o.exception() is None
                        and isinstance(o.result(), ServeResponse)):
                    held += 1
                elif isinstance(o, list) and any(
                    isinstance(x, bytes) and b'"status"' in x for x in o
                ):
                    held += 1
            return held

        async def scenario():
            server = self._boot(tmp_path, max_batch=8)
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(tmp_path / "serve.sock")
                )
                for i in range(n):  # one answered request at a time
                    writer.write(_line(f"g-{i}"))
                    await writer.drain()
                    assert json.loads(await reader.readline())["id"] == f"g-{i}"
                await asyncio.sleep(0.01)  # the last answer is written
                held = retained()  # connection still open
                writer.close()
                return held
            finally:
                await server.stop()

        assert asyncio.run(scenario()) == 0

    def test_pipelined_lines_are_answered_one_write_per_batch(
        self, tmp_path, answer_writes
    ):
        n = 24

        async def scenario():
            app = ServeApp(PredictionService(EvaluationEngine()), max_batch=8)
            server = AsyncServeServer(app, unix_path=tmp_path / "serve.sock")
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(tmp_path / "serve.sock")
                )
                # one client write: the server reads the lines together
                writer.write(b"".join(_line(f"p-{i}") for i in range(n)))
                writer.write_eof()
                ids = []
                while line := await asyncio.wait_for(reader.readline(), 30):
                    ids.append(json.loads(line)["id"])
                writer.close()
                return ids, app.batcher.batches_flushed
            finally:
                await server.stop()

        ids, flushed = asyncio.run(scenario())
        assert sorted(ids) == sorted(f"p-{i}" for i in range(n))
        assert sum(answer_writes) == n
        assert len(answer_writes) <= flushed < n  # not one write per answer

    def test_failed_batch_ends_the_connection_after_its_other_answers(
        self, tmp_path
    ):
        class Flaky(PredictionService):
            def handle_batch(self, requests):
                if any(r.id == "boom" for r in requests):
                    raise RuntimeError("handler exploded")
                return super().handle_batch(requests)

        errors = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context.get("exception"))
            )
            app = ServeApp(Flaky(EvaluationEngine()), max_batch=1)
            server = AsyncServeServer(app, unix_path=tmp_path / "serve.sock")
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(tmp_path / "serve.sock")
                )
                writer.write(_line("a") + _line("boom") + _line("c"))
                writer.write_eof()
                ids = []
                while line := await asyncio.wait_for(reader.readline(), 30):
                    ids.append(json.loads(line)["id"])
                writer.close()
                await asyncio.sleep(0.05)  # the handler task ends
                return ids
            finally:
                await server.stop()

        assert asyncio.run(scenario()) == ["a", "c"]
        assert [str(e) for e in errors] == ["handler exploded"]

    def test_unread_answers_stop_the_server_reading(
        self, tmp_path, answer_writes
    ):
        """A client that sends 20k lines and reads none of its answers.

        The server awaits ``drain`` before it reads on, so once its
        transport is over the high-water mark it takes no more lines:
        what it holds for the connection is bounded by its buffers, not
        by what the client sends, and every line it took is answered.
        Once the client reads, every id is answered exactly once.
        """
        n = 20_000

        async def scenario():
            app = ServeApp(PredictionService(EvaluationEngine()))
            server = AsyncServeServer(app, unix_path=tmp_path / "serve.sock")
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(tmp_path / "serve.sock")
                )
                writer.write(b"".join(_line(f"f-{i}") for i in range(n)))
                taken, steady = -1, 0
                deadline = time.monotonic() + 60.0
                while steady < 10:  # no line taken for 0.5 s
                    assert time.monotonic() < deadline, "server kept reading"
                    await asyncio.sleep(0.05)
                    now = app.admission.admitted
                    steady = steady + 1 if now == taken else 0
                    taken = now
                answered = sum(answer_writes)
                unsent = writer.transport.get_write_buffer_size()
                writer.write_eof()
                ids = []
                while line := await asyncio.wait_for(reader.readline(), 30):
                    ids.append(json.loads(line)["id"])
                writer.close()
                return taken, answered, unsent, ids
            finally:
                await server.stop()

        taken, answered, unsent, ids = asyncio.run(scenario())
        assert unsent > 0  # the backpressure reached the client
        assert answered == taken  # no request left waiting on the server
        assert taken <= n // 4
        assert len(ids) == n and set(ids) == {f"f-{i}" for i in range(n)}

    def test_stop_awaits_handlers_still_closing_their_writer(self, tmp_path):
        errors = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context["message"])
            )
            server = self._boot(tmp_path, max_batch=8)
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(tmp_path / "serve.sock")
                )
                writer.write(_line("c-1"))
                await writer.drain()
                writer.write_eof()
                assert json.loads(await reader.readline())["id"] == "c-1"
                writer.close()
            finally:
                await server.stop()  # right after the client hangs up
            current = asyncio.current_task()
            return [t for t in asyncio.all_tasks() if t is not current]

        assert asyncio.run(scenario()) == []
        assert errors == []  # no handler task ended cancelled

    def test_http_list_body_is_one_micro_batch(self, tmp_path):
        async def scenario():
            server = self._boot(tmp_path, max_batch=8)
            await server.start()
            try:
                body = json.dumps(
                    [dict(PAYLOAD, id=f"l-{i}") for i in range(8)]
                ).encode()
                reader, writer = await asyncio.open_unix_connection(
                    str(tmp_path / "serve.sock")
                )
                before = server.app.batcher.batches_flushed
                writer.write(
                    b"POST /v1/select HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                await writer.drain()
                data = await reader.read()
                writer.close()
                return server.app.batcher.batches_flushed - before, data
            finally:
                await server.stop()

        flushed, data = asyncio.run(scenario())
        answers = json.loads(data.decode().split("\r\n\r\n", 1)[1])
        assert flushed == 1
        assert [a["id"] for a in answers] == [f"l-{i}" for i in range(8)]
        assert {a["status"] for a in answers} == {"ok"}

    def test_http_list_body_sheds_excess_items_in_place(self, tmp_path):
        async def scenario():
            app = ServeApp(PredictionService(EvaluationEngine()),
                           queue_limit=2, max_batch=8, max_wait_s=0.002)
            server = AsyncServeServer(app, unix_path=tmp_path / "serve.sock")
            await server.start()
            try:
                items = [dict(PAYLOAD, id="a"), {"bogus": 1},
                         dict(PAYLOAD, id="b"), dict(PAYLOAD, id="c")]
                body = json.dumps(items).encode()
                reader, writer = await asyncio.open_unix_connection(
                    str(tmp_path / "serve.sock")
                )
                writer.write(
                    b"POST /v1/select HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                await writer.drain()
                data = await reader.read()
                writer.close()
                return data
            finally:
                await server.stop()

        data = asyncio.run(scenario())
        answers = json.loads(data.decode().split("\r\n\r\n", 1)[1])
        assert [(a["id"], a["status"]) for a in answers] == [
            ("a", "ok"), ("", "error"), ("b", "ok"), ("c", "shed"),
        ]

    def test_sigint_with_an_open_connection_exits_cleanly(self, tmp_path):
        sock = tmp_path / "serve.sock"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.server", "--socket",
             str(sock)],
            cwd=REPO, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            conn = None
            deadline = time.monotonic() + 60.0
            while conn is None:
                assert proc.poll() is None, proc.communicate()[1]
                assert time.monotonic() < deadline, "server never listened"
                try:
                    conn = _connect(sock)
                except (FileNotFoundError, ConnectionRefusedError):
                    time.sleep(0.02)
            conn.sendall(_line("s-1"))
            answer = json.loads(conn.makefile("r").readline())
            assert answer["status"] == "ok"
            proc.send_signal(signal.SIGINT)  # the connection stays open
            _, stderr = proc.communicate(timeout=30)
            conn.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert "Traceback" not in stderr, stderr

