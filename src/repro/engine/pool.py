"""Process-pool plumbing for sharded cache replay.

The sharded cache-replay path (:mod:`repro.simulator.replay_parallel`)
fans work over a :class:`~concurrent.futures.ProcessPoolExecutor`.  This
module holds its platform quirks: prefer ``fork`` so workers inherit
already-imported modules (and already-JIT-compiled Numba kernels), fall
back to the default start method where ``fork`` is unavailable, and tear
pools down even when a worker is wedged.

The caller handles *degradation* itself (the replay path falls back to
in-process sharding): this module only acquires, builds and stops pools.
"""

from __future__ import annotations


def pool_context():
    """A multiprocessing context, preferring ``fork``.

    ``fork`` keeps worker start cheap and lets workers inherit process
    state (imported modules, JIT-compiled functions).  Platforms without
    it (Windows, some sandboxes) get the default start method.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context()


def new_pool(ctx, size: int):
    """A fresh :class:`ProcessPoolExecutor` of ``size`` workers on ``ctx``."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=size, mp_context=ctx)


def stop_pool(pool) -> None:
    """Tear a pool down even when a worker is wedged.

    ``shutdown`` alone would join a hung worker forever, so any live
    worker processes are terminated first (idle ones die instantly).
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except (OSError, AttributeError):
            pass
    pool.shutdown(wait=True, cancel_futures=True)
