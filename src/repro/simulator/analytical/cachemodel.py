"""Cache-residency and DRAM-traffic estimation for data streams.

The model is the classical capacity argument with a smooth transition:
between two passes over a stream, ``reuse_ws`` bytes must survive in the L2.
If the effective cache capacity ``C`` exceeds the working set, the second
pass hits; if it is much smaller, the pass re-streams from DRAM.  In between
we interpolate with the *fractional residency* ``C / ws`` — the LRU
steady-state fraction of the working set that is still cached when revisited
under competing traffic.  This smoothness matters twice: it reproduces the
gradual cache-size scaling curves of the paper's Figs. 5-8 (instead of
cliffs), and it gives the random-forest selector a learnable surface.
"""

from __future__ import annotations

from repro.simulator.analytical.calibration import DEFAULT_CALIBRATION, Calibration
from repro.simulator.analytical.phases import DataStream
from repro.simulator.hwconfig import HardwareConfig

#: Fraction of the L2 usable by one stream's reuse window.  Conflict misses,
#: other streams and metadata keep LRU from using the full capacity.
L2_EFFICIENCY = 0.85


def effective_l2_bytes(config: HardwareConfig) -> float:
    """Usable L2 capacity for reuse-window retention."""
    return L2_EFFICIENCY * config.l2_bytes


def residency(reuse_ws: float, cache_bytes: float) -> float:
    """Fraction of a reuse working set still resident on the next pass."""
    if reuse_ws <= 0.0:
        return 1.0
    return min(1.0, cache_bytes / reuse_ws)


def stream_dram_bytes(
    stream: DataStream, config: HardwareConfig, calibration=None
) -> float:
    """DRAM traffic for one stream during a phase on ``config``'s L2.

    :func:`stream_dram_bytes_at` with the config's usable capacity
    (:func:`effective_l2_bytes`) and ``calibration`` (default
    :data:`DEFAULT_CALIBRATION`).
    """
    return stream_dram_bytes_at(
        stream, effective_l2_bytes(config), calibration or DEFAULT_CALIBRATION
    )


def stream_dram_bytes_at(
    stream: DataStream, cache_bytes: float, calibration: Calibration
) -> float:
    """DRAM traffic for one stream with ``cache_bytes`` of usable L2.

    The first pass is compulsory (reads fetch from DRAM; writes allocate and
    eventually write back).  Each additional pass misses on the fraction of
    the reuse working set that was evicted.
    """
    res = residency(stream.reuse_ws, cache_bytes)
    compulsory = stream.bytes
    if stream.resident_source and calibration.enable_resident_source:
        # produced by an earlier phase / the previous layer: the fraction of
        # the footprint still cached does not re-fetch from DRAM
        compulsory *= 1.0 - residency(stream.bytes, cache_bytes)
    extra = stream.bytes * (stream.passes - 1.0) * (1.0 - res)
    return compulsory + extra


def stream_l2_bytes(stream: DataStream) -> float:
    """L2-port traffic: every pass streams through the L2 interface."""
    return stream.bytes * stream.passes


def phase_dram_bytes(streams, config: HardwareConfig) -> float:
    """Total DRAM traffic over a phase's streams."""
    return sum(stream_dram_bytes(s, config) for s in streams)


def phase_l2_bytes(streams) -> float:
    """Total L2-port traffic over a phase's streams."""
    return sum(stream_l2_bytes(s) for s in streams)
