"""Optional Numba-compiled hot loops for trace replay (``[compiled]`` extra).

Two Python-level loops survive the columnar replay rewrite:

* the per-step true-LRU set update inside
  :func:`repro.simulator.cache_fast.simulate_cache_stream` — the NumPy
  set-partitioned engine still pays one Python iteration per time step;
* the left-to-right per-memory-op cost fold in
  :mod:`repro.simulator.timing` — NumPy evaluates it as ~10 full-length
  temporaries before the ``np.add.accumulate``.

This module holds single-pass replacements for both, written as plain
Python functions over NumPy arrays and JIT-compiled with
:func:`numba.njit` when Numba is importable.  **Importing this module
never fails**: without Numba, :data:`HAVE_NUMBA` is ``False``, the
``compiled`` backend is simply not registered, and the undecorated
Python functions remain importable so the test suite can validate the
kernel *algorithms* (slowly) on any machine.

Bit-identical semantics are a hard contract, not an aspiration:

* :func:`replay_sets_kernel` is the literal per-access algorithm of the
  reference cache walk in ``tests/trace_oracle.py`` (first matching way,
  first invalid way, first-minimum LRU way, tick =
  ``tick0 + 1 + k`` for access ``k``) — integer state, so equality is
  exact;
* the cost fold replicates the NumPy backend's expressions in
  :mod:`repro.simulator.replay_backend` operation for operation in the
  same order, so every IEEE-754 intermediate — and therefore the final
  accumulated float — is bit-identical.  Locked by
  ``tests/test_replay_equivalence`` and the hypothesis suite in
  ``tests/test_property_cache_fast.py``.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only on the [compiled] CI leg
    import numba

    HAVE_NUMBA = True
except ImportError:  # the always-available fallback path
    numba = None
    HAVE_NUMBA = False

#: Version of the optional dependency, or None (for diagnostics/tests).
NUMBA_VERSION = getattr(numba, "__version__", None)


def _jit(func):
    """``numba.njit`` when available, identity otherwise.

    ``cache=True`` persists the compiled machine code next to the module
    so repeated runs skip recompilation;
    ``fastmath`` stays off — reassociation would break the bit-identical
    contract with the NumPy fold.
    """
    if numba is None:
        return func
    return numba.njit(cache=True, fastmath=False)(func)


@_jit
def replay_sets_kernel(
    tags: np.ndarray,
    dirty: np.ndarray,
    lru: np.ndarray,
    sets: np.ndarray,
    lines: np.ndarray,
    stores: np.ndarray,
    tick0: int,
    hits: np.ndarray,
    writebacks: np.ndarray,
    victims: np.ndarray,
) -> None:
    """Sequential true-LRU replay of one access stream, compiled.

    ``sets[k]`` is the row of ``tags``/``dirty``/``lru`` access ``k``
    maps to (the set index, already masked by the caller); its LRU tick
    is ``tick0 + 1 + k``, exactly as the per-access path bumps it.
    Mutates the state arrays and the preallocated output arrays in
    place.
    """
    n = lines.shape[0]
    assoc = tags.shape[1]
    for k in range(n):
        s = sets[k]
        addr = lines[k]
        st = stores[k]
        way = -1
        for w in range(assoc):
            if tags[s, w] == addr:
                way = w
                break
        if way >= 0:  # hit: refresh LRU, a store marks the line dirty
            hits[k] = True
            if st:
                dirty[s, way] = True
        else:  # miss: first invalid way, else the true-LRU way
            for w in range(assoc):
                if tags[s, w] == -1:
                    way = w
                    break
            if way < 0:
                way = 0
                best = lru[s, 0]
                for w in range(1, assoc):
                    if lru[s, w] < best:
                        best = lru[s, w]
                        way = w
            if tags[s, way] != -1 and dirty[s, way]:
                writebacks[k] = True
                victims[k] = tags[s, way]
            tags[s, way] = addr
            dirty[s, way] = st
        lru[s, way] = tick0 + 1 + k


@_jit
def analytical_grid_kernel(
    cell_of_row: np.ndarray,
    vector_ops: np.ndarray,
    vector_active: np.ndarray,
    vmem_ops: np.ndarray,
    vmem_active: np.ndarray,
    nonunit_fraction: np.ndarray,
    scalar_ops: np.ndarray,
    stream_bytes: np.ndarray,
    stream_passes: np.ndarray,
    stream_reuse_ws: np.ndarray,
    stream_scalar: np.ndarray,
    stream_resident: np.ndarray,
    chime_den_unit: np.ndarray,
    chime_den_nonunit: np.ndarray,
    deadtime: np.ndarray,
    vector_issue: np.ndarray,
    vmem_issue: np.ndarray,
    scalar_cpi: np.ndarray,
    l2_bytes_per_cycle: np.ndarray,
    cache_bytes: np.ndarray,
    vec_exposure: np.ndarray,
    line_bytes: np.ndarray,
    dram_latency: np.ndarray,
    mlp: np.ndarray,
    dram_bw: np.ndarray,
    phase_startup: np.ndarray,
    scalar_exposure_on: np.ndarray,
    resident_source_on: np.ndarray,
    out_vector: np.ndarray,
    out_scalar: np.ndarray,
    out_l2: np.ndarray,
    out_dram: np.ndarray,
    out_latency: np.ndarray,
    out_startup: np.ndarray,
    out_dram_bytes: np.ndarray,
    out_l2_bytes: np.ndarray,
) -> None:
    """Per-row analytical phase timing over a whole PhaseTable, compiled.

    One scalar loop over the (cell, phase) rows of
    :class:`repro.simulator.analytical.grid.PhaseTable`, replicating the
    elementwise NumPy backend (`grid._evaluate_rows_numpy`) — and hence
    the per-cell :meth:`AnalyticalTimingModel.phase_cycles` — operation
    for operation: ``np.ceil`` chimes against the per-cell hoisted
    denominators, the exact ``(a + b) + c`` associations of the vmem
    terms, and left-to-right folds over the zero-padded stream columns.
    All inputs are float64 (masks bool); outputs are written in place.
    """
    n_rows = cell_of_row.shape[0]
    n_streams = stream_bytes.shape[1]
    for r in range(n_rows):
        c = cell_of_row[r]
        dt = deadtime[c]

        chime_v = np.ceil(vector_active[r] / chime_den_unit[c])
        if chime_v < 1.0:
            chime_v = 1.0
        lane = chime_v
        if vector_issue[c] > lane:
            lane = vector_issue[c]
        vec = vector_ops[r] * (lane + dt)
        if vmem_ops[r] > 0.0:
            unit_ops = vmem_ops[r] * (1.0 - nonunit_fraction[r])
            strided_ops = vmem_ops[r] * nonunit_fraction[r]
            chime_m = np.ceil(vmem_active[r] / chime_den_unit[c])
            if chime_m < 1.0:
                chime_m = 1.0
            chime_mn = np.ceil(vmem_active[r] / chime_den_nonunit[c])
            if chime_mn < 1.0:
                chime_mn = 1.0
            vec = vec + unit_ops * ((vmem_issue[c] + chime_m) + dt)
            vec = vec + strided_ops * ((vmem_issue[c] + chime_mn) + dt)
        out_vector[r] = vec

        out_scalar[r] = scalar_ops[r] * scalar_cpi[c]

        cache = cache_bytes[c]
        l2b = 0.0
        dramb = 0.0
        lat = 0.0
        for j in range(n_streams):
            b = stream_bytes[r, j]
            passes = stream_passes[r, j]
            ws = stream_reuse_ws[r, j]
            l2b = l2b + b * passes
            if ws > 0.0:
                res = cache / ws
                if res > 1.0:
                    res = 1.0
            else:
                res = 1.0
            compulsory = b
            if stream_resident[r, j] and resident_source_on[c]:
                if b > 0.0:
                    res_src = cache / b
                    if res_src > 1.0:
                        res_src = 1.0
                else:
                    res_src = 1.0
                compulsory = b * (1.0 - res_src)
            extra = b * (passes - 1.0) * (1.0 - res)
            sbytes = compulsory + extra
            dramb = dramb + sbytes
            if stream_scalar[r, j] and scalar_exposure_on[c]:
                exposure = 1.0
            else:
                exposure = vec_exposure[c]
            lat = lat + (
                exposure * (sbytes / line_bytes[c]) * dram_latency[c] / mlp[c]
            )
        out_l2_bytes[r] = l2b
        out_dram_bytes[r] = dramb
        out_latency[r] = lat
        out_l2[r] = l2b / l2_bytes_per_cycle[c]
        out_dram[r] = dramb / dram_bw[c]
        out_startup[r] = phase_startup[c]


@_jit
def memory_cost_fold_kernel(
    vl: np.ndarray,
    elem_bytes: np.ndarray,
    stride: np.ndarray,
    indexed: np.ndarray,
    l1_misses: np.ndarray,
    l2_misses: np.ndarray,
    datapath: float,
    nonunit_factor: float,
    startup_cycles: float,
    l2_latency: float,
    mlp: float,
    dram_latency: float,
    prefetch_factor: float,
    line_bytes: int,
    bytes_per_cycle: float,
    vector_at_l2: bool,
    start: float,
) -> float:
    """Fused per-memory-op pricing + left-to-right fold from ``start``,
    compiled.

    Every arithmetic step mirrors the NumPy expression in
    ``replay_backend._memory_cost_fold_numpy`` (same operations, same
    order, scalar subexpressions hoisted exactly as NumPy evaluates them
    once), so the returned float is bit-identical to
    ``exact_sum((startup + chime) + penalty, start)``.
    """
    strided_dp = datapath / nonunit_factor
    dram_den = mlp * prefetch_factor
    acc = start
    for i in range(vl.shape[0]):
        s = stride[i]
        if s < 0:
            s = -s
        unit = (not indexed[i]) and s == elem_bytes[i]
        eff_dp = datapath if unit else strided_dp
        if eff_dp < 1.0:
            eff_dp = 1.0
        chime = np.ceil(vl[i] / eff_dp)
        penalty = (l1_misses[i] * l2_latency) / mlp
        penalty = penalty + (l2_misses[i] * dram_latency) / dram_den
        if vector_at_l2:
            round_trips = (vl[i] * elem_bytes[i]) / line_bytes
            if round_trips < 1.0:
                round_trips = 1.0
            penalty = penalty + (round_trips * l2_latency) / mlp
        floor = (l2_misses[i] * line_bytes) / bytes_per_cycle
        if penalty < floor:
            penalty = floor
        acc = acc + ((startup_cycles + chime) + penalty)
    return acc
