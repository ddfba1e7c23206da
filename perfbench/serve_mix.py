"""serve-mix: NDJSON requests to a live ``repro-serve`` process.

The load generator is this process: one asyncio loop, no threads, and at
most two unix-socket connections (the reference machine has two vCPUs).
One server process -- the unmodified ``repro-serve`` entry point with
default flags, started by ``serve_launch.py`` -- serves both phases of a
run:

* **warm-up** -- every hot (layer, config) pair once, untimed: a
  long-running server has seen them, so their first-time selection and
  evaluation belong to set-up, not to the measured phases;
* **open loop** -- requests sent at seeded-Poisson due times at a fixed
  rate well inside capacity; each latency is timed from the request's due
  time, so a stall also charges the requests queued behind it;
* **closed loop** -- a fixed request list with a bounded window of
  outstanding requests; its throughput is the requests-per-second figure.

The closed loop is cut into parts; between parts every response is in
and the server process runs calibration blocks (:func:`common.calibrate`,
through ``serve_launch.py``), so ``run.py`` can report throughput at the
reference speed.  So does every launch right after its first response.
Blocks run in the client would not do: its speed does not follow the
server's.  Open-loop latencies stay wall-clock: at this low load they do
not follow the server's speed (per-part p50 held within 10 % while the
blocks' time varied 2x), so scaling them would only add noise.

About 9 in 10 requests repeat (layer, config) pairs of the Paper II grid and
about 1 in 10 carries a never-seen configuration.  Set-up is timed from the
server launch to the first response, over several fresh launches.  Every
response is checked after the run: status ``ok``, a matching id, and
``cycles`` equal to ``EvaluationEngine().evaluate`` of the returned
algorithm on that layer and configuration.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import common
import inputs

#: Open-loop arrival rate (requests/s).  Micro-batches stay small at this
#: rate, so a request costs the server far more than in the closed loop
#: (about 0.7 ms against 0.25 ms).  125/s keeps utilisation near 0.1: the
#: host has spells at half speed, and at 250/s (utilisation near 0.2-0.3)
#: one such spell raised a run's p50 by 75 % and its p90 by 110 %.
OPEN_RATE = 125.0
#: Closed-loop window: outstanding requests, split over the connections.
#: Twice the server's default max batch (32), so a full batch is always
#: queued and throughput does not hinge on how fast the client refills.
WINDOW = 64
#: Latency limit the closed-loop window keeps its p90 under.
LATENCY_LIMIT_MS = 50.0
#: Closed-loop requests per second of run time (a fixed list per run).
CLOSED_PER_S = 3000
CONNECTIONS = 2
#: Seconds a launch may take to answer its first request.
LAUNCH_TIMEOUT_S = 60.0
#: Seconds a phase may wait for its last response.
PHASE_TIMEOUT_S = 60.0
#: Parts the closed loop is cut into; between parts every response is in
#: and the server runs calibration blocks (:meth:`Server.calibrate`).  The
#: server's speed changes within a second, so the parts are short.
SEGMENTS = 48


class Server:
    """One ``repro.serve`` process on a unix socket under ``RUN_DIR``."""

    def __init__(self, tag: str, spans_path: str | None = None) -> None:
        common.RUN_DIR.mkdir(exist_ok=True)
        # relative to the checkout root: keeps the socket path short
        self.socket = str(common.RUN_DIR / f"{os.getpid()}-{tag}.sock")
        self.log_path = common.RUN_DIR / f"{os.getpid()}-{tag}.log"
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        cal_read, cal_write = os.pipe()
        argv = [sys.executable, str(common.BENCH_DIR / "serve_launch.py"), str(cal_write)]
        if spans_path is not None:
            argv += ["--spans", spans_path]
        self.log = open(self.log_path, "w")
        self.started = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                argv + ["--", "--socket", self.socket],
                cwd=common.ROOT, env=common.child_env(), pass_fds=(cal_write,),
                stdout=self.log, stderr=subprocess.STDOUT,
            )
        except BaseException:
            os.close(cal_read)
            self.log.close()
            raise
        finally:
            os.close(cal_write)
        self.cal_pipe = os.fdopen(cal_read, "r")
        self.rusage = None

    def calibrate(self) -> float:
        """Seconds of the calibration blocks the server process runs now.

        Call only while no request is in flight.
        """
        os.kill(self.proc.pid, signal.SIGUSR1)
        ready, _, _ = select.select([self.cal_pipe], [], [], LAUNCH_TIMEOUT_S)
        line = self.cal_pipe.readline() if ready else ""
        if not line:
            raise RuntimeError(f"server did not calibrate: {self.log_tail()}")
        return float(line)

    async def connect(self):
        """Connect once the socket accepts (polling; the launch is running)."""
        deadline = time.monotonic() + LAUNCH_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early: {self.log_tail()}")
            try:
                return await asyncio.open_unix_connection(
                    self.socket, limit=1 << 20
                )
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not start listening")
                await asyncio.sleep(0.005)

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then reap it with its rusage."""
        try:
            if self.proc.returncode is None:  # not reaped by an earlier poll
                os.kill(self.proc.pid, signal.SIGINT)
                deadline = time.monotonic() + 15.0
                while True:
                    pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
                    if pid:
                        self.rusage = rusage
                        self.proc.returncode = os.waitstatus_to_exitcode(status)
                        break
                    if time.monotonic() > deadline:
                        self.proc.kill()
                        deadline = time.monotonic() + 10.0
                    time.sleep(0.01)
        finally:
            self.log.close()
            self.cal_pipe.close()
            if os.path.exists(self.socket):
                os.unlink(self.socket)
        if self.proc.returncode in (0, 130):  # keep the log of a failure
            self.log_path.unlink(missing_ok=True)

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0

    def log_tail(self) -> str:
        self.log.flush()
        return Path(self.log_path).read_text()[-2000:]


class Connection:
    """One NDJSON connection; the reader task routes responses by id."""

    def __init__(self, gen: "LoadGen", reader, writer) -> None:
        self.gen, self.reader, self.writer = gen, reader, writer
        self.task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            now = time.perf_counter()
            self.gen.on_response(self, json.loads(line), now)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        await self.task


class LoadGen:
    """Open- and closed-loop request generation over a few connections."""

    def __init__(self) -> None:
        self.conns: list[Connection] = []
        self.sent_at: dict[str, float] = {}
        self.responses: dict[str, tuple[dict, float]] = {}
        self._waiting = 0
        self._done: asyncio.Event | None = None
        self._next = None  # closed loop: callable sending the next request

    async def open_conns(self, server: Server, first=None) -> None:
        for i in range(CONNECTIONS):
            if i == 0 and first is not None:
                reader, writer = first
            else:
                reader, writer = await server.connect()
            self.conns.append(Connection(self, reader, writer))

    def on_response(self, conn: Connection, resp: dict, now: float) -> None:
        rid = resp.get("id", "")
        if rid in self.responses or rid not in self.sent_at:
            return  # unknown or repeated ids leave their request unanswered
        self.responses[rid] = (resp, now)
        self._waiting -= 1
        if self._next is not None:
            self._next(conn)
        if self._waiting == 0 and self._done is not None:
            self._done.set()

    async def _wait_all(self) -> None:
        if self._waiting > 0:
            try:
                await asyncio.wait_for(self._done.wait(), PHASE_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass  # unanswered requests count as failed ops

    async def open_loop(self, reqs: list[dict], offsets: list[float]) -> dict:
        lines = [(json.dumps(r) + "\n").encode() for r in reqs]
        self._done = asyncio.Event()
        self._waiting = len(reqs)
        late: list[float] = []
        cpu0, wall0 = time.process_time(), time.perf_counter()
        start = wall0 + 0.01
        i, n = 0, len(reqs)
        while i < n:
            now = time.perf_counter()
            due = start + offsets[i]
            if due > now:
                await asyncio.sleep(due - now)
                now = time.perf_counter()
            while i < n and start + offsets[i] <= now:
                due = start + offsets[i]
                self.sent_at[reqs[i]["id"]] = due
                late.append(now - due)
                self.conns[i % len(self.conns)].writer.write(lines[i])
                i += 1
        await self._wait_all()
        cpu1, wall1 = time.process_time(), time.perf_counter()
        lat = [
            (self.responses[r["id"]][1] - self.sent_at[r["id"]]) * 1e3
            for r in reqs if r["id"] in self.responses
        ]
        return {
            "latency_ms": lat,
            "late_ms": [x * 1e3 for x in late],
            "busy_share": (cpu1 - cpu0) / (wall1 - wall0),
        }

    async def closed_loop(self, reqs: list[dict]) -> dict:
        lines = [(json.dumps(r) + "\n").encode() for r in reqs]
        self._done = asyncio.Event()
        self._waiting = len(reqs)
        cursor = [0]

        def send_next(conn: Connection) -> None:
            i = cursor[0]
            if i < len(reqs):
                cursor[0] = i + 1
                self.sent_at[reqs[i]["id"]] = time.perf_counter()
                conn.writer.write(lines[i])

        t0 = time.perf_counter()
        for k in range(min(WINDOW, len(reqs))):
            send_next(self.conns[k % len(self.conns)])
        self._next = send_next
        await self._wait_all()
        self._next = None
        got = [self.responses[r["id"]][1] for r in reqs if r["id"] in self.responses]
        t1 = max(got) if got else time.perf_counter()
        lat = [
            (self.responses[r["id"]][1] - self.sent_at[r["id"]]) * 1e3
            for r in reqs if r["id"] in self.responses
        ]
        return {"completed": len(got), "wall_s": t1 - t0, "latency_ms": lat}

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()
        # let the server see the EOFs before it is stopped
        await asyncio.sleep(0.05)


def parts(n: int) -> list[range]:
    """``range(n)`` cut into :data:`SEGMENTS` contiguous parts."""
    cuts = [round(n * k / SEGMENTS) for k in range(SEGMENTS + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


async def closed_phase(gen: LoadGen, server: Server, reqs: list[dict]) -> dict:
    """The closed loop, part by part: completed requests per reference second."""
    completed, wall_s, ref_s, lat = 0, 0.0, 0.0, []
    cal_before = server.calibrate()
    for part in parts(len(reqs)):
        res = await gen.closed_loop(reqs[part.start:part.stop])
        cal_after = server.calibrate()
        completed += res["completed"]
        wall_s += res["wall_s"]
        ref_s += common.at_reference(res["wall_s"], (cal_before + cal_after) / 2)
        cal_before = cal_after
        lat += res["latency_ms"]
    return {"throughput_per_s": completed / ref_s, "wall_throughput_per_s":
            completed / wall_s, "latency_ms": lat}


async def first_response(server: Server) -> tuple[float, tuple]:
    """Set-up time of a launch: spawn until the probe request is answered."""
    reader, writer = await server.connect()
    writer.write((json.dumps(inputs.PROBE_REQUEST) + "\n").encode())
    line = await asyncio.wait_for(reader.readline(), LAUNCH_TIMEOUT_S)
    setup_s = time.perf_counter() - server.started
    if json.loads(line or b"{}").get("status") != "ok":
        raise RuntimeError(f"probe request failed: {line!r}")
    return setup_s, (reader, writer)


async def _serve_run(seed: int, n_open: int, n_closed: int, spans_path=None) -> dict:
    """One server process through both phases; returns the raw figures."""
    open_reqs = inputs.serve_requests(seed, "open", n_open)
    offsets = inputs.poisson_offsets(seed, OPEN_RATE, n_open)
    closed_reqs = inputs.serve_requests(seed, "closed", n_closed)
    warm_reqs = inputs.hot_requests()
    server = Server("traced" if spans_path else "main", spans_path)
    gen = LoadGen()
    # the client's own collector pauses would show up as server latency
    gc.disable()
    try:
        setup_s, first = await first_response(server)
        setup_cal_s = server.calibrate()
        await gen.open_conns(server, first)
        await gen.closed_loop(warm_reqs)
        open_ = await gen.open_loop(open_reqs, offsets)
        closed = await closed_phase(gen, server, closed_reqs)
        await gen.close()
    finally:
        gc.enable()
        server.stop()
    return {
        "setup_s": setup_s,
        "setup_cal_s": setup_cal_s,
        "open": open_,
        "closed": closed,
        "requests": warm_reqs + open_reqs + closed_reqs,
        "responses": gen.responses,
        "peak_rss_mb": server.peak_rss_mb,
    }


async def _setup_only() -> tuple[float, float]:
    """(set-up seconds, calibration block seconds right after) of a launch."""
    server = Server("setup")
    try:
        setup_s, (_, writer) = await first_response(server)
        setup_cal_s = server.calibrate()
        writer.close()
        await writer.wait_closed()
        await asyncio.sleep(0.05)
    finally:
        server.stop()
    return setup_s, setup_cal_s


def check_responses(requests: list[dict], responses: dict, evaluate) -> int:
    """Failed ops: missing, not ``ok``, or ``cycles`` unequal to ``evaluate``.

    ``evaluate(algorithm, layer_fields, hw_fields)`` returns the reference
    cycles of one cell.
    """
    failed = 0
    for req in requests:
        got = responses.get(req["id"])
        if got is None:
            failed += 1
            continue
        resp = got[0]
        if (
            resp.get("status") != "ok"
            or resp.get("id") != req["id"]
            or resp.get("cycles") != evaluate(resp.get("algorithm"),
                                              req["layer"], req["hw"])
        ):
            failed += 1
    return failed


def engine_evaluator():
    """``evaluate`` for :func:`check_responses`, from a fresh default engine."""
    from repro.engine import EvaluationEngine
    from repro.nn.layer import ConvSpec
    from repro.simulator.hwconfig import HardwareConfig

    engine = EvaluationEngine()
    memo: dict = {}

    def evaluate(algorithm, layer, hw):
        key = (algorithm, tuple(sorted(layer.items())), hw["vlen_bits"], hw["l2_mib"])
        if key not in memo:
            try:
                spec = ConvSpec(**layer)
                config = HardwareConfig.paper2_rvv(hw["vlen_bits"], hw["l2_mib"])
                memo[key] = engine.evaluate(algorithm, spec, config).cycles
            except Exception:  # an unknown algorithm name is a wrong answer
                memo[key] = None
        return memo[key]

    return evaluate


def sizes(seconds: float, scale: float = 1.0) -> tuple[int, int]:
    """(open, closed) request counts: half the run time for each phase."""
    n_open = max(100, round(OPEN_RATE * seconds / 2 * scale))
    n_closed = max(100, round(CLOSED_PER_S * seconds / 2 * scale))
    return n_open, n_closed


def measure(seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics of one server process."""
    n_open, n_closed = sizes(seconds)
    run = asyncio.run(_serve_run(seed, n_open, n_closed))
    setups = [(run["setup_s"], run["setup_cal_s"])]
    for _ in range(common.SETUP_SAMPLES - 1):
        setups.append(asyncio.run(_setup_only()))
    failed = check_responses(run["requests"], run["responses"], engine_evaluator())
    return {"run": run, "setup_samples": setups, "failed": failed,
            "env": common.fingerprint()}


def measure_traced(seed: int, seconds: float, spans_path: str) -> dict:
    """Untraced then traced server, half the requests each."""
    n_open, n_closed = sizes(seconds, scale=0.5)
    plain = asyncio.run(_serve_run(seed, n_open, n_closed))
    traced = asyncio.run(_serve_run(seed, n_open, n_closed, spans_path))
    evaluate = engine_evaluator()
    failed = check_responses(plain["requests"], plain["responses"], evaluate)
    failed += check_responses(traced["requests"], traced["responses"], evaluate)
    return {"plain": plain, "traced": traced, "failed": failed,
            "env": common.fingerprint()}
