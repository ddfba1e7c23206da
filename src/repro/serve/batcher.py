"""Asyncio micro-batcher: coalesce concurrent requests into engine batches.

Submitted requests are handed to the service as **one** ``handle_batch``
call — one ``evaluate_many`` over every request's candidates — and each
submitter gets its own response back through a future.  A batch flushes
as soon as it holds ``max_batch`` requests; otherwise its first
submission schedules the flush:

* ``max_wait_s == 0`` (the default): on the event loop's next turn
  (``loop.call_soon``), so the batch is every request submitted during
  the current turn.  Under load that is whatever queued while the
  previous batch computed; a lone request flushes at once, with no timer;
* ``max_wait_s > 0``: ``max_wait_s`` after the batch opened (size or
  age, whichever comes first).

The virtual-clock loop :func:`repro.serving.simulator.serve_arrivals`
runs the same size-or-age policy for the load-test harness
(:func:`repro.serve.loadgen.replay`); at ``max_wait_s == 0`` it batches
the arrivals of one instant, as the live batcher batches one loop turn.
(``routed_replay`` keeps one batch per router shard; a live router-backed
app batches across shards here.)
"""

from __future__ import annotations

import asyncio
import math
from typing import Callable

from repro import obs
from repro.errors import ServeError
from repro.serve.protocol import ServeRequest, ServeResponse

#: The service callback: a batch of requests to a batch of responses.
BatchHandler = Callable[[list[ServeRequest]], list[ServeResponse]]


def validate_batch_params(max_batch: int, max_wait_s: float) -> None:
    if max_batch < 1:
        raise ServeError(f"max_batch must be >= 1, got {max_batch}")
    if not 0 <= max_wait_s < math.inf:
        raise ServeError(
            f"max_wait_s must be >= 0 and finite, got {max_wait_s}"
        )


class MicroBatcher:
    """Accumulate submissions; flush on size, or on the next turn or age."""

    def __init__(
        self,
        handler: BatchHandler,
        max_batch: int = 32,
        max_wait_s: float = 0.0,
    ) -> None:
        validate_batch_params(max_batch, max_wait_s)
        self.handler = handler
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self._pending: list[tuple[ServeRequest, asyncio.Future]] = []
        self._flush_handle: asyncio.Handle | None = None
        self.batches_flushed = 0

    @property
    def depth(self) -> int:
        """Requests accumulated but not yet flushed (the admission queue)."""
        return len(self._pending)

    # ------------------------------------------------------------------ #
    def submit(self, request: ServeRequest) -> asyncio.Future[ServeResponse]:
        """Enqueue one request; the returned future resolves at flush."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((request, future))
        if len(self._pending) >= self.max_batch:
            self._cancel_timer()
            self._flush()
        elif self._flush_handle is None:
            if self.max_wait_s > 0:
                self._flush_handle = loop.call_later(
                    self.max_wait_s, self._timer_flush
                )
            else:
                self._flush_handle = loop.call_soon(self._timer_flush)
        return future

    async def drain(self) -> None:
        """Flush whatever is pending now (shutdown path)."""
        self._cancel_timer()
        if self._pending:
            self._flush()

    # ------------------------------------------------------------------ #
    def _cancel_timer(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None

    def _timer_flush(self) -> None:
        self._flush_handle = None
        if self._pending:
            self._flush()

    def _flush(self) -> None:
        batch, self._pending = self._pending, []
        self.batches_flushed += 1
        obs.observe("serve.batch_size", float(len(batch)))
        requests = [request for request, _ in batch]
        try:
            responses = self.handler(requests)
            if len(responses) != len(requests):
                raise ServeError(
                    f"handler returned {len(responses)} responses for "
                    f"{len(requests)} requests"
                )
        except Exception as exc:
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), response in zip(batch, responses):
            if not future.done():
                future.set_result(response)
