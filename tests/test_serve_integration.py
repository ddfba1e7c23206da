"""End-to-end tests of the real serving service (``repro.serve``).

The acceptance contract of the serving PR:

* the service boots **in-process** and replays a seeded 10k-request
  bursty trace on the virtual clock;
* (a) every admitted response names the cycle-optimal algorithm and is
  **bit-identical** to direct engine evaluation of that (algorithm,
  layer, hardware) cell;
* (b) admitted p99 latency stays within the configured SLO at 2x
  capacity, with every shed request accounted for
  (``offered == admitted + shed``);
* all of it bit-deterministic across two consecutive runs.

The transport (NDJSON + HTTP over asyncio) is exercised against a real
unix socket at the bottom of the file.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.algorithms.registry import (
    ALGORITHM_NAMES,
    best_algorithm,
    get_algorithm,
    layer_cycles,
)
from repro.engine.executor import EvaluationEngine
from repro.serve import (
    AsyncServeServer,
    PredictionService,
    ServeApp,
    ServeRequest,
    TraceSpec,
    default_workload,
    generate_trace,
    replay,
    stats_dict,
)

pytestmark = pytest.mark.slow  # the CI tier-1 job skips the 10k replays


# ---------------------------------------------------------------------- #
# shared, computed once per module
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def workload():
    return default_workload()


@pytest.fixture(scope="module")
def service_times(workload):
    """Direct per-pair service times for every candidate algorithm."""
    out = {}
    for spec, hw in workload:
        for name in ALGORITHM_NAMES:
            record = layer_cycles(name, spec, hw, fallback=True)
            out[(name, spec, hw)] = record.seconds(hw.freq_ghz)
    return out


def fresh_service():
    return PredictionService(engine=EvaluationEngine())


def direct_cycles(response, request):
    """The bit-exact direct evaluation the response must reproduce."""
    record = layer_cycles(
        response.algorithm, request.spec, request.hw, fallback=True
    )
    return record.cycles, record.seconds(request.hw.freq_ghz), record.dram_bytes


# ---------------------------------------------------------------------- #
# the acceptance run: 10k bursty requests, virtual clock
# ---------------------------------------------------------------------- #
class TestBursty10k:
    SERVERS = 8
    QUEUE_LIMIT = 8
    MAX_BATCH = 64
    MAX_WAIT_S = 0.002
    N = 10_000
    SEED = 20240812

    def _slo_s(self, service_times) -> float:
        # Admission control's guarantee: an admitted request waits behind
        # at most QUEUE_LIMIT requests, each bounded by the slowest cell
        # in the workload, plus one micro-batch window.  A conservative
        # (single-server) bound; the 8 replicas only improve on it.
        worst = max(service_times.values())
        return self.MAX_WAIT_S + (self.QUEUE_LIMIT + 1) * worst

    def _trace(self, workload, service_times):
        # offered load = 2x the fleet's saturation throughput on
        # im2col_gemm6's mean service time
        mean_safe = sum(
            service_times[("im2col_gemm6", spec, hw)]
            for spec, hw in workload
        ) / len(workload)
        rate = 2.0 * self.SERVERS / mean_safe
        return generate_trace(
            TraceSpec(
                pattern="bursty", n_requests=self.N, rate_rps=rate,
                seed=self.SEED, burst_factor=4.0,
            ),
            workload,
        )

    def _replay(self, trace, service_times):
        service = fresh_service()
        result = replay(
            service, trace,
            servers=self.SERVERS, queue_limit=self.QUEUE_LIMIT,
            slo_s=self._slo_s(service_times),
            max_batch=self.MAX_BATCH, max_wait_s=self.MAX_WAIT_S,
        )
        return service, result

    def test_parity_slo_shedding_and_determinism(
        self, workload, service_times
    ):
        trace = self._trace(workload, service_times)
        by_id = {t.request.id: t.request for t in trace}
        service, result = self._replay(trace, service_times)
        stats = result.stats

        # -- conservation: every offered request is admitted or shed ----
        assert stats.offered == self.N
        assert stats.n_requests + stats.shed == self.N
        assert stats.n_requests == len(result.responses)
        assert stats.shed == len(result.shed_ids)
        assert stats.shed > 0, "2x-capacity overload must shed"

        # -- (a) the optimum, bit-identical to direct evaluation --------
        assert result.responses, "overload must still admit requests"
        memo = {}
        optimum = {}
        for response in result.responses:
            assert response.status == "ok"
            request = by_id[response.id]
            pair = (request.spec, request.hw)
            if pair not in optimum:
                optimum[pair] = best_algorithm(*pair)[0]
            assert response.algorithm == optimum[pair]
            key = (response.algorithm, request.spec, request.hw)
            if key not in memo:
                memo[key] = direct_cycles(response, request)
            cycles, seconds, dram = memo[key]
            assert response.cycles == cycles  # bit-identical, no tolerance
            assert response.seconds == seconds
            assert response.dram_bytes == dram

        # -- (b) admitted p99 within the configured SLO -----------------
        slo = self._slo_s(service_times)
        assert stats.slo_s == slo
        assert stats.p99 <= slo
        # latency accounting is causal: nonnegative waits and services
        assert all(r.queue_wait >= 0 and r.latency >= 0 for r in stats.records)

        # -- deterministic across two consecutive runs ------------------
        _, result2 = self._replay(trace, service_times)
        assert [r.to_json() for r in result.responses] == [
            r.to_json() for r in result2.responses
        ]
        assert result.shed_ids == result2.shed_ids
        assert stats_dict(result.stats) == stats_dict(result2.stats)

    def test_oracle_fallback_beats_or_matches_safe(
        self, workload, service_times
    ):
        """The engine-backed answer is the cycle-optimal algorithm, so it
        beats or matches ``im2col_gemm6``, the former safe fallback."""
        service = fresh_service()
        spec, hw = workload[0]
        response = service.handle(ServeRequest(spec=spec, hw=hw, id="o"))
        assert response.status == "ok"
        assert response.algorithm == best_algorithm(spec, hw)[0]
        best = min(
            service_times[(n, spec, hw)]
            for n in ALGORITHM_NAMES
            if get_algorithm(n).applicable(spec)
        )
        assert response.seconds == best
        assert response.seconds <= service_times[("im2col_gemm6", spec, hw)]


# ---------------------------------------------------------------------- #
# diurnal pattern: deterministic and conserving too
# ---------------------------------------------------------------------- #
def test_diurnal_trace_replay_is_deterministic(workload):
    trace = generate_trace(
        TraceSpec(pattern="diurnal", n_requests=1000, rate_rps=400.0, seed=3),
        workload,
    )
    a = replay(fresh_service(), trace, servers=4,
               queue_limit=16, slo_s=1.0, max_batch=32, max_wait_s=0.001)
    b = replay(fresh_service(), trace, servers=4,
               queue_limit=16, slo_s=1.0, max_batch=32, max_wait_s=0.001)
    assert a.stats.offered == 1000
    assert [r.to_json() for r in a.responses] == [
        r.to_json() for r in b.responses
    ]
    assert stats_dict(a.stats) == stats_dict(b.stats)


# ---------------------------------------------------------------------- #
# the live transport: NDJSON + HTTP over a real unix socket
# ---------------------------------------------------------------------- #
class TestAsyncTransport:
    def _request_payload(self, req_id="t-1"):
        return {
            "id": req_id,
            "layer": {"ic": 64, "oc": 64, "ih": 56, "iw": 56,
                      "kh": 3, "kw": 3, "stride": 1},
            "hw": {"vlen_bits": 512, "l2_mib": 1.0},
        }

    def _boot(self, tmp_path, **app_kwargs):
        service = PredictionService(engine=EvaluationEngine())
        app = ServeApp(service, max_batch=8, max_wait_s=0.002, **app_kwargs)
        return AsyncServeServer(app, unix_path=tmp_path / "serve.sock")

    def test_ndjson_roundtrip_parity_and_batching(self, tmp_path):
        async def scenario():
            server = self._boot(tmp_path, queue_limit=64)
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(tmp_path / "serve.sock")
                )
                for i in range(3):  # pipelined: lands in one micro-batch
                    writer.write(
                        (json.dumps(self._request_payload(f"t-{i}")) + "\n")
                        .encode()
                    )
                writer.write(b'{"not": "a request"}\n')
                await writer.drain()
                writer.write_eof()
                lines = []
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    lines.append(json.loads(line))
                writer.close()
                return lines, server.app
            finally:
                await server.stop()

        lines, app = asyncio.run(scenario())
        by_id = {line["id"]: line for line in lines}
        assert by_id[""]["status"] == "error"
        request = ServeRequest.from_dict(self._request_payload())
        direct = layer_cycles(
            by_id["t-0"]["algorithm"], request.spec, request.hw, fallback=True
        )
        for i in range(3):
            assert by_id[f"t-{i}"]["status"] == "ok"
            assert by_id[f"t-{i}"]["cycles"] == direct.cycles
        assert app.ledger.n_requests == 3
        assert app.batcher.batches_flushed >= 1

    def test_http_select_health_and_stats(self, tmp_path):
        async def scenario():
            server = self._boot(tmp_path, queue_limit=64, slo_s=5.0)
            await server.start()
            sock = str(tmp_path / "serve.sock")

            async def http(raw: bytes) -> tuple[int, dict]:
                reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(raw)
                await writer.drain()
                data = await reader.read()
                writer.close()
                head, body = data.decode().split("\r\n\r\n", 1)
                return int(head.split()[1]), json.loads(body)

            try:
                body = json.dumps(self._request_payload("h-1")).encode()
                post = (
                    b"POST /v1/select HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                status, selected = await http(post)
                s2, health = await http(b"GET /v1/health HTTP/1.1\r\n\r\n")
                s3, stats = await http(b"GET /v1/stats HTTP/1.1\r\n\r\n")
                s4, missing = await http(b"GET /nope HTTP/1.1\r\n\r\n")
                return (status, selected), (s2, health), (s3, stats), (s4, missing)
            finally:
                await server.stop()

        (status, selected), (s2, health), (s3, stats), (s4, missing) = (
            asyncio.run(scenario())
        )
        assert status == 200 and selected["status"] == "ok"
        request = ServeRequest.from_dict(self._request_payload())
        direct = layer_cycles(
            selected["algorithm"], request.spec, request.hw, fallback=True
        )
        assert selected["cycles"] == direct.cycles
        assert s2 == 200 and health["status"] == "ok"
        assert s3 == 200 and stats["serving"]["requests"] == 1
        assert stats["serving"]["offered"] == 1
        assert s4 == 404

    def test_queue_limit_zero_sheds_everything(self, tmp_path):
        async def scenario():
            server = self._boot(tmp_path, queue_limit=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(tmp_path / "serve.sock")
                )
                writer.write(
                    (json.dumps(self._request_payload("s-1")) + "\n").encode()
                )
                await writer.drain()
                writer.write_eof()
                line = await reader.readline()
                writer.close()
                return json.loads(line), server.app.stats()
            finally:
                await server.stop()

        response, stats = asyncio.run(scenario())
        assert response["status"] == "shed"
        assert stats.shed == 1 and stats.n_requests == 0
        assert stats.offered == 1
