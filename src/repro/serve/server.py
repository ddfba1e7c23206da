"""The ``repro-serve`` asyncio server: NDJSON and HTTP over one port.

:class:`ServeApp` glues the middleware to the service — per-request
admission against the micro-batcher's queue depth, SLO-accounted
timelines in a :class:`~repro.serve.middleware.ServingLedger` — and
:class:`AsyncServeServer` exposes it over a TCP port or a unix socket.
The transport sniffs the first line of each connection:

* an HTTP verb (``POST /v1/select``, ``GET /v1/health``,
  ``GET /v1/stats``) gets a one-shot ``HTTP/1.1`` response;
* anything else is treated as newline-delimited JSON — one
  :mod:`repro.serve.protocol` request per line, one response line each,
  pipelined (responses carry the request ``id``).  The connection's
  read loop parses, admits and submits each line as it reads it, so
  the lines of one read share a micro-batch; a connection's answers are
  written once per event-loop turn, and the loop reads no further while
  the client leaves its answers unread (``drain`` backpressure).

``main()`` is the ``repro-serve`` console entry point.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from collections import deque
from pathlib import Path
from typing import Any

from repro import faults
from repro.engine.executor import EvaluationEngine
from repro.errors import ProtocolError, ReproError, ServeError
from repro.serve.batcher import MicroBatcher
from repro.serve.clock import Clock, MonotonicClock
from repro.serve.middleware import AdmissionController, ServingLedger
from repro.serve.protocol import (
    ServeRequest,
    ServeResponse,
    error_response,
    shed_response,
)
from repro.serve.router import InProcessReplica, ReplicaRouter
from repro.serve.service import PredictionService
from repro.serving.simulator import ServingStats

_HTTP_VERBS = (b"GET ", b"POST ", b"PUT ", b"DELETE ", b"HEAD ")

#: Largest HTTP body the server accepts; anything bigger is a 413.
MAX_BODY_BYTES = 1 << 20


def stats_dict(stats: ServingStats) -> dict:
    """The JSON shape of a run's serving statistics."""
    return {
        "requests": stats.n_requests,
        "shed": stats.shed,
        "offered": stats.offered,
        "shed_rate": stats.shed_rate,
        "slo_s": stats.slo_s,
        "slo_breaches": stats.slo_breaches,
        "mean_latency_s": stats.mean_latency,
        "p50_s": stats.p50,
        "p99_s": stats.p99,
        "throughput_rps": stats.throughput_rps,
    }


class ServeApp:
    """Admission + ledger + micro-batcher around one backend.

    The backend is either a single :class:`PredictionService` or a
    :class:`~repro.serve.router.ReplicaRouter` pool — both answer
    ``handle_batch`` and ``snapshot``; the router additionally gets the
    real arrival instants so per-request deadline budgets run from
    arrival rather than from batch flush.  The ledger's timelines are
    seconds since the app was created, read on its clock.
    """

    def __init__(
        self,
        service: PredictionService | ReplicaRouter,
        queue_limit: int | None = None,
        slo_s: float | None = None,
        max_batch: int = 32,
        max_wait_s: float = 0.0,
        clock: Clock | None = None,
    ) -> None:
        self.service = service
        self.clock = clock or MonotonicClock()
        self._epoch = self.clock.now()  # the ledger's time origin
        self.admission = AdmissionController(queue_limit)
        self.ledger = ServingLedger(slo_s=slo_s)
        self.batcher = MicroBatcher(
            self._run_batch, max_batch=max_batch, max_wait_s=max_wait_s
        )
        self._arrivals: deque[float] = deque()

    # ------------------------------------------------------------------ #
    def _run_batch(self, requests: list[ServeRequest]) -> list[ServeResponse]:
        arrivals = [self._arrivals.popleft() for _ in requests]
        self.admission.started(len(requests))
        epoch = self._epoch
        start = self.clock.now() - epoch
        if isinstance(self.service, ReplicaRouter):
            responses = self.service.handle_timed_batch(
                list(zip(arrivals, requests))
            )
        else:
            responses = self.service.handle_batch(requests)
        finish = self.clock.now() - epoch
        for arrival in arrivals:
            arrival -= epoch
            self.ledger.record(arrival, max(arrival, start),
                               max(arrival, finish))
        return responses

    def submit(self, request: ServeRequest) -> asyncio.Future[ServeResponse]:
        """Admission-checked entry: the batch's future, or a done one if shed.

        A plain method, so a transport admits every line of a read in one
        loop turn; ``await app.submit(request)`` gives the response.
        """
        now = self.clock.now()
        if not self.admission.admit():
            self.ledger.record_shed(now - self._epoch)
            shed = asyncio.get_running_loop().create_future()
            shed.set_result(shed_response(request))
            return shed
        self._arrivals.append(now)
        return self.batcher.submit(request)

    def stats(self) -> ServingStats:
        servers = (
            len(self.service.replicas)
            if isinstance(self.service, ReplicaRouter)
            else 1
        )
        return self.ledger.stats(servers=servers)

    def snapshot(self) -> dict:
        payload = self.service.snapshot()
        payload["serving"] = stats_dict(self.stats())
        payload["queue_depth"] = self.admission.depth
        return payload


class AsyncServeServer:
    """NDJSON/HTTP transport for a :class:`ServeApp`."""

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = 8377,
        unix_path: str | Path | None = None,
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self.unix_path = Path(unix_path) if unix_path is not None else None
        self._server: asyncio.AbstractServer | None = None
        self._handlers: set[asyncio.Task] = set()  # open connections
        self._stopping = False

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=str(self.unix_path)
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.host, port=self.port
            )

    async def stop(self) -> None:
        """Drain the batcher, stop listening, then close open connections.

        ``wait_closed`` waits for open connections on Python 3.12+, so
        the connection handlers are cancelled and awaited first.
        """
        await self.app.batcher.drain()
        if self._server is not None:
            self._server.close()
            self._stopping = True
            handlers = list(self._handlers)
            for task in handlers:
                task.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    @property
    def endpoint(self) -> str:
        if self.unix_path is not None:
            return f"unix:{self.unix_path}"
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)  # left only once the writer is closed
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # stop() closes the connections still open; a handler task
            # that ends cancelled is logged as an error by asyncio
            if not self._stopping:
                raise
        finally:
            self._handlers.discard(task)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            first = await reader.readline()
            if not first:
                return
            if first.startswith(_HTTP_VERBS):
                await self._serve_http(first, reader, writer)
            else:
                await self._serve_ndjson(first, reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # ------------------------------------------------------------------ #
    # newline-delimited JSON
    # ------------------------------------------------------------------ #
    async def _serve_ndjson(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Answer NDJSON lines until EOF.

        Each line is parsed, admitted and submitted as the loop reads it,
        with no task per line.  An answer goes to the connection's outbox
        when its batch completes, and the outbox is written with one
        ``write`` per loop turn.  The loop awaits ``drain`` before it
        reads on, so a client that stops reading its answers stops the
        server reading its lines.  If a batch's handler raises, the
        connection ends with that error after its other answers.
        """
        loop = asyncio.get_running_loop()
        outbox: list[bytes] = []
        unanswered: set[asyncio.Future] = set()
        failures: list[BaseException] = []

        def write_outbox() -> None:
            if outbox:
                writer.write(b"".join(outbox))
                outbox.clear()

        def post(response: ServeResponse) -> None:
            if not outbox:
                loop.call_soon(write_outbox)
            outbox.append(response.to_json().encode() + b"\n")

        def answered(future: asyncio.Future) -> None:
            unanswered.discard(future)
            exc = future.exception()
            if exc is None:
                post(future.result())
            elif not failures:
                failures.append(exc)

        try:
            line = first
            while line:
                if line.strip():
                    try:
                        request = ServeRequest.from_json(line.decode())
                    except (ProtocolError, UnicodeDecodeError) as exc:
                        post(error_response("", str(exc)))
                    else:
                        future = self.app.submit(request)
                        unanswered.add(future)
                        future.add_done_callback(answered)
                        del future  # only ``unanswered`` holds it
                await writer.drain()
                line = await reader.readline()
        finally:
            if unanswered:
                await asyncio.wait(unanswered)
            write_outbox()
        if failures:
            raise failures[0]

    # ------------------------------------------------------------------ #
    # minimal HTTP/1.1
    # ------------------------------------------------------------------ #
    async def _serve_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            verb, path, _ = first.decode().split(None, 2)
        except ValueError:
            await self._http_reply(writer, 400, {"error": "bad request line"})
            return
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode().partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    await self._http_reply(
                        writer, 400, {"error": "bad content-length"}
                    )
                    return
        if length < 0:
            await self._http_reply(
                writer, 400, {"error": f"bad content-length {length}"}
            )
            return
        if length > MAX_BODY_BYTES:
            await self._http_reply(
                writer, 413,
                {"error": f"body too large ({length} > {MAX_BODY_BYTES} bytes)"},
            )
            return
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            await self._http_reply(writer, 400, {"error": "truncated body"})
            return

        if verb == "GET" and path in ("/v1/health", "/healthz"):
            await self._http_reply(writer, 200, self._health_payload())
        elif verb == "GET" and path == "/v1/stats":
            await self._http_reply(writer, 200, self.app.snapshot())
        elif verb == "POST" and path == "/v1/select":
            await self._http_select(writer, body)
        elif verb == "POST" and path.startswith("/v1/replicas/"):
            await self._http_admin(writer, path)
        else:
            await self._http_reply(
                writer, 404, {"error": f"no route {verb} {path}"}
            )

    def _health_payload(self) -> dict:
        service = self.app.service
        if isinstance(service, ReplicaRouter):
            return service.health_summary()
        return {"status": "ok"}

    async def _http_admin(
        self, writer: asyncio.StreamWriter, path: str
    ) -> None:
        """``POST /v1/replicas/<name>/{drain,rejoin}`` — pool admin."""
        service = self.app.service
        if not isinstance(service, ReplicaRouter):
            await self._http_reply(
                writer, 404, {"error": "not serving a replica pool"}
            )
            return
        parts = path.strip("/").split("/")
        if len(parts) != 4 or parts[3] not in ("drain", "rejoin"):
            await self._http_reply(
                writer, 404, {"error": f"no route POST {path}"}
            )
            return
        name, action = parts[2], parts[3]
        try:
            if action == "drain":
                service.drain(name)
            else:
                service.rejoin(name)
        except ServeError as exc:
            await self._http_reply(writer, 400, {"error": str(exc)})
            return
        await self._http_reply(
            writer, 200,
            {"replica": name, "state": service.health[name].state},
        )

    async def _http_select(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            await self._http_reply(writer, 400, {"error": f"bad JSON: {exc}"})
            return

        async def answer(item: Any) -> dict:
            try:
                request = ServeRequest.from_dict(item)
            except ProtocolError as exc:
                return error_response("", str(exc)).to_dict()
            return (await self.app.submit(request)).to_dict()

        # submitted together: a list body is admitted item by item and
        # shares micro-batches, as pipelined NDJSON lines do
        batch = payload if isinstance(payload, list) else [payload]
        out = await asyncio.gather(*(answer(item) for item in batch))
        await self._http_reply(
            writer, 200, out if isinstance(payload, list) else out[0]
        )

    @staticmethod
    async def _http_reply(
        writer: asyncio.StreamWriter, status: int, payload: object
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            413: "Payload Too Large",
        }.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
def build_router(args: argparse.Namespace) -> ReplicaRouter:
    """Assemble an N-replica pool behind one router from CLI arguments.

    Replicas share the engine (and its memo cache); each keeps its own
    counters, which is the failure-isolation boundary the router manages.
    """
    engine = EvaluationEngine()
    replicas = [
        InProcessReplica(f"replica-{i}", PredictionService(engine))
        for i in range(args.replicas)
    ]
    return ReplicaRouter(
        replicas,
        seed=args.router_seed,
        deadline_s=(
            args.deadline_ms / 1e3 if args.deadline_ms is not None else None
        ),
        max_retries=args.max_retries,
        hedge_after_s=(
            args.hedge_after_ms / 1e3
            if args.hedge_after_ms is not None
            else None
        ),
        probe_interval_s=(
            args.probe_interval_ms / 1e3
            if args.probe_interval_ms is not None
            else None
        ),
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve algorithm-selection queries over NDJSON/HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8377)
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on a unix socket instead of TCP",
    )
    parser.add_argument("--queue-limit", type=int, default=256)
    parser.add_argument(
        "--slo-ms", type=float, default=None,
        help="latency SLO for breach accounting (milliseconds)",
    )
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument(
        "--batch-wait-ms", type=float, default=0.0, metavar="MS",
        help="hold a micro-batch open up to MS for companions (0 = flush "
        "on the event loop's next turn)",
    )
    parser.add_argument(
        "--replicas", type=int, default=1, metavar="N",
        help="run N service replicas behind the health-aware router "
        "(1 = single service, no router)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline budget from arrival (router mode)",
    )
    parser.add_argument(
        "--hedge-after-ms", type=float, default=None, metavar="MS",
        help="hedge a second dispatch when the projected queue wait "
        "exceeds MS (router mode, priced replay)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="failed dispatches are retried on a different replica up "
        "to N times (router mode)",
    )
    parser.add_argument(
        "--probe-interval-ms", type=float, default=None, metavar="MS",
        help="active health-probe period per replica (router mode)",
    )
    parser.add_argument(
        "--router-seed", type=int, default=0,
        help="seed for the consistent-hash ring and recovery jitter",
    )
    return parser


async def _amain(args: argparse.Namespace) -> int:
    service: PredictionService | ReplicaRouter
    if args.replicas > 1:
        service = build_router(args)
    else:
        service = PredictionService()
    app = ServeApp(
        service,
        queue_limit=args.queue_limit,
        slo_s=args.slo_ms / 1e3 if args.slo_ms is not None else None,
        max_batch=args.max_batch,
        max_wait_s=args.batch_wait_ms / 1e3,
    )
    server = AsyncServeServer(
        app, host=args.host, port=args.port, unix_path=args.socket
    )
    # SIGINT is the clean shutdown; a second SIGINT interrupts a stuck one
    loop = asyncio.get_running_loop()
    interrupted = asyncio.Event()

    def on_sigint() -> None:
        loop.remove_signal_handler(signal.SIGINT)
        interrupted.set()

    loop.add_signal_handler(signal.SIGINT, on_sigint)
    await server.start()
    print(f"repro-serve listening on {server.endpoint}", file=sys.stderr)
    try:
        await interrupted.wait()
    finally:
        await server.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    """``repro-serve`` entry point (exit codes match repro-experiments)."""
    from repro.experiments.cli import ERROR_EXIT_CODES

    args = _parser().parse_args(argv)
    try:
        faults.active_plan()  # fail fast on a malformed REPRO_FAULTS
        if args.queue_limit is not None and args.queue_limit < 0:
            raise ServeError(
                f"--queue-limit must be >= 0, got {args.queue_limit}"
            )
        if args.replicas < 1:
            raise ServeError(f"--replicas must be >= 1, got {args.replicas}")
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        line = str(exc).splitlines()[0] if str(exc) else "(no detail)"
        print(f"error [{type(exc).__name__}]: {line}", file=sys.stderr)
        for cls, code in ERROR_EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 10


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
