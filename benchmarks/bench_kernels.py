"""Micro-benchmarks of the library's own hot paths.

These time the *reproduction's* kernels (functional algorithms, the
analytical model, the functional vector machine) — useful for keeping the
experiment harnesses fast as the library evolves.
"""

import numpy as np
import pytest
from _metrics import record_metric

from repro.algorithms import get_algorithm, layer_cycles
from repro.isa import VectorMachine
from repro.nn.layer import ConvSpec
from repro.nn.models import vgg16_conv_specs
from repro.simulator.hwconfig import HardwareConfig

SPEC = ConvSpec(ic=32, oc=32, ih=56, iw=56, kh=3, kw=3, index=1)
RNG = np.random.default_rng(0)
X = RNG.standard_normal((SPEC.ic, SPEC.ih, SPEC.iw)).astype(np.float32)
W = (0.3 * RNG.standard_normal((SPEC.oc, SPEC.ic, 3, 3))).astype(np.float32)


@pytest.mark.parametrize(
    "name", ["direct", "im2col_gemm3", "im2col_gemm6", "winograd"]
)
def test_functional_conv(benchmark, name):
    """Functional execution of one mid-size conv layer."""
    algo = get_algorithm(name)
    out = benchmark(lambda: algo.run(SPEC, X, W))
    assert out.shape == (SPEC.oc, SPEC.oh, SPEC.ow)


def test_analytical_model_full_grid(benchmark):
    """All 4 algorithms x 13 VGG layers on one config — the experiment
    harnesses' inner loop."""
    hw = HardwareConfig.paper2_rvv(512, 1.0)
    specs = vgg16_conv_specs()

    def grid():
        return sum(
            layer_cycles(name, s, hw).cycles
            for s in specs
            for name in ("direct", "im2col_gemm3", "im2col_gemm6", "winograd")
        )

    total = benchmark(grid)
    assert total > 0


def test_vector_machine_saxpy(benchmark):
    """Functional-machine instruction throughput (SAXPY, 4K elements)."""
    def saxpy():
        m = VectorMachine(512, trace=False)
        x = m.alloc_from("x", np.arange(4096, dtype=np.float32))
        y = m.alloc("y", 4096)
        i = 0
        while i < 4096:
            gvl = m.vsetvl(4096 - i)
            m.vload(0, x, i)
            m.vfmacc_vf(0, 2.0, 0)
            m.vstore(0, y, i)
            i += gvl
        return m.trace.stats.total_instrs

    assert benchmark(saxpy) > 0


# ---------------------------------------------------------------------- #
# ISA simulation: batched fast path vs per-op baseline
# ---------------------------------------------------------------------- #

BATCH_SPEC = ConvSpec(ic=8, oc=16, ih=20, iw=20, kh=3, kw=3, index=1)


def _best_of(func, repeats: int = 3) -> float:
    """Min wall time over a few runs (stabilizes the speedup ratio)."""
    import time

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_intrinsics_batched_vs_perop(benchmark):
    """The batched/counts-mode ISA path must be >= 5x faster than the
    per-op instruction baseline (``tests/trace_oracle.py``; run from the
    repository root) on the same kernel, with bit-identical outputs and
    identical instruction statistics (see docs/PERF.md)."""
    from repro.algorithms.direct import DirectConv
    from tests.trace_oracle import direct_perop

    alg = DirectConv()
    rng = np.random.default_rng(1)
    x = rng.standard_normal(
        (BATCH_SPEC.ic, BATCH_SPEC.ih, BATCH_SPEC.iw)
    ).astype(np.float32)
    w = (
        0.3 * rng.standard_normal((BATCH_SPEC.oc, BATCH_SPEC.ic, 3, 3))
    ).astype(np.float32)

    def perop():
        m = VectorMachine(512)
        y = direct_perop(alg, BATCH_SPEC, x, w, m)
        return m.trace.stats, y

    def batched_counts():
        m = VectorMachine(512, trace="counts")
        y = alg.run_vectorized(BATCH_SPEC, x, w, m)
        return m.trace.stats, y

    ref_stats, ref_y = perop()
    fast_stats, fast_y = batched_counts()
    assert np.array_equal(ref_y, fast_y)
    assert fast_stats == ref_stats

    perop_s = _best_of(perop)
    fast_s = _best_of(batched_counts)
    benchmark(batched_counts)

    speedup = perop_s / fast_s
    rate = ref_stats.total_instrs / fast_s / 1e6
    print(f"\nintrinsics path: per-op {perop_s * 1e3:.1f} ms, batched/counts "
          f"{fast_s * 1e3:.2f} ms, speedup {speedup:.0f}x "
          f"({rate:.0f}M instrs/s)")
    record_metric("kernels.intrinsics_batched_vs_perop_speedup", speedup)
    assert speedup >= 5.0, f"batched path only {speedup:.1f}x faster"


def test_im2col_gemm_batched_vs_perop(benchmark):
    """Full-mode im2col+GEMM (3- and 6-loop) must be >= 10x faster than
    the per-op composition in ``tests/trace_oracle.py`` (run from the
    repository root), with bit-identical outputs and identical instruction
    statistics.  The lower of the two speedups is recorded."""
    from repro.algorithms.im2col_gemm import Im2colGemm3, Im2colGemm6
    from tests.trace_oracle import (
        gemm3_vectorized_perop,
        gemm6_vectorized_perop,
        im2col_gemm_perop,
    )

    rng = np.random.default_rng(1)
    x = rng.standard_normal(
        (BATCH_SPEC.ic, BATCH_SPEC.ih, BATCH_SPEC.iw)
    ).astype(np.float32)
    w = (
        0.3 * rng.standard_normal((BATCH_SPEC.oc, BATCH_SPEC.ic, 3, 3))
    ).astype(np.float32)

    def runs(alg, kernel_perop):
        def perop():
            m = VectorMachine(512)
            y = im2col_gemm_perop(BATCH_SPEC, x, w, m, kernel_perop)
            return m.trace.stats, y

        def batched():
            m = VectorMachine(512)
            y = alg.run_vectorized(BATCH_SPEC, x, w, m)
            return m.trace.stats, y

        return perop, batched

    speedups = {}
    for alg, kernel_perop in (
        (Im2colGemm3(), gemm3_vectorized_perop),
        (Im2colGemm6(), gemm6_vectorized_perop),
    ):
        perop, batched = runs(alg, kernel_perop)
        ref_stats, ref_y = perop()
        fast_stats, fast_y = batched()
        assert np.array_equal(ref_y, fast_y)
        assert fast_stats == ref_stats

        perop_s = _best_of(perop)
        fast_s = _best_of(batched, repeats=10)
        speedups[alg.name] = perop_s / fast_s
        print(f"\n{alg.name}: per-op {perop_s * 1e3:.1f} ms, batched "
              f"{fast_s * 1e3:.2f} ms, speedup {speedups[alg.name]:.1f}x")
    benchmark(batched)

    speedup = min(speedups.values())
    record_metric("kernels.im2col_gemm_batched_vs_perop_speedup", speedup)
    assert speedup >= 10.0, f"batched im2col+GEMM only {speedup:.1f}x faster"


def test_winograd_batched_vs_perop(benchmark):
    """Full-mode Winograd must be >= 10x faster than the per-op kernel in
    ``tests/trace_oracle.py`` (run from the repository root), with
    bit-identical outputs and identical instruction statistics."""
    from repro.algorithms.winograd import WinogradConv
    from tests.trace_oracle import winograd_perop

    alg = WinogradConv()
    rng = np.random.default_rng(1)
    x = rng.standard_normal(
        (BATCH_SPEC.ic, BATCH_SPEC.ih, BATCH_SPEC.iw)
    ).astype(np.float32)
    w = (
        0.3 * rng.standard_normal((BATCH_SPEC.oc, BATCH_SPEC.ic, 3, 3))
    ).astype(np.float32)

    def perop():
        m = VectorMachine(512)
        y = winograd_perop(alg, BATCH_SPEC, x, w, m)
        return m.trace.stats, y

    def batched():
        m = VectorMachine(512)
        y = alg.run_vectorized(BATCH_SPEC, x, w, m)
        return m.trace.stats, y

    ref_stats, ref_y = perop()
    fast_stats, fast_y = batched()
    assert np.array_equal(ref_y, fast_y)
    assert fast_stats == ref_stats

    perop_s = _best_of(perop)
    fast_s = _best_of(batched, repeats=10)
    benchmark(batched)

    speedup = perop_s / fast_s
    print(f"\nwinograd: per-op {perop_s * 1e3:.1f} ms, batched "
          f"{fast_s * 1e3:.2f} ms, speedup {speedup:.1f}x")
    record_metric("kernels.winograd_batched_vs_perop_speedup", speedup)
    assert speedup >= 10.0, f"batched Winograd only {speedup:.1f}x faster"


def test_vgg_conv3_1_counts_mode(benchmark):
    """Full instruction-level simulation of VGG-16 conv3_1 (128->256 ch,
    56x56) in counts mode — the tentpole feasibility target: single-digit
    seconds for a 10^8-instruction layer."""
    import time

    from repro.algorithms.direct import DirectConv

    spec = next(s for s in vgg16_conv_specs() if (s.ic, s.oc, s.ih) == (128, 256, 56))
    alg = DirectConv()
    rng = np.random.default_rng(2)
    x = rng.standard_normal((spec.ic, spec.ih, spec.iw)).astype(np.float32)
    w = (
        0.05 * rng.standard_normal((spec.oc, spec.ic, 3, 3))
    ).astype(np.float32)

    def run():
        start = time.perf_counter()
        m = VectorMachine(512, trace="counts")
        alg.run_vectorized(spec, x, w, m)
        return m.trace.stats, time.perf_counter() - start

    stats, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nconv3_1 counts mode: {stats.total_instrs / 1e6:.0f}M instrs in "
          f"{elapsed:.2f} s ({stats.total_instrs / elapsed / 1e6:.0f}M instrs/s)")
    assert stats.total_instrs > 100_000_000
    assert elapsed < 10.0, f"conv3_1 counts-mode run took {elapsed:.1f} s"


def test_winograd_transform_generation(benchmark):
    """Exact Cook-Toom construction of F(6,3)."""
    from repro.algorithms.winograd_transforms import winograd_matrices

    wm = benchmark(lambda: winograd_matrices(6, 3))
    assert wm.alpha == 8


# ---------------------------------------------------------------------- #
# evaluation engine: cold vs warm cache
# ---------------------------------------------------------------------- #

def test_engine_cold_vs_warm_full_grid(benchmark):
    """Full VGG-16 + YOLOv3 grid (28 layers x 16 configs x 4 algorithms)
    through the memoized engine: the warm-cache pass must be >= 5x faster
    than the cold pass, with identical totals.  The warm pass sends fresh
    objects equal to the cold pass's, as ``repro-serve`` does (it parses a
    new ``ConvSpec``/``HardwareConfig`` per request)."""
    import time
    from dataclasses import replace

    from repro.engine import EvaluationEngine
    from repro.experiments.configs import grid
    from repro.nn.models import yolov3_conv_specs

    specs = vgg16_conv_specs() + yolov3_conv_specs()
    configs = grid()
    engine = EvaluationEngine()
    algorithms = ("direct", "im2col_gemm3", "im2col_gemm6", "winograd")

    def full_grid(specs, configs):
        return engine.sweep(specs, configs, algorithms)

    def total(records) -> float:
        return sum(r.cycles for r in records.values())

    def fresh_copies():
        return ([replace(s) for s in specs], [replace(c) for c in configs]), {}

    # only the sweeps are timed; the totals are compared afterwards
    start = time.perf_counter()
    cold = full_grid(specs, configs)
    cold_s = time.perf_counter() - start

    warm = benchmark.pedantic(full_grid, setup=fresh_copies, rounds=10)
    args, _ = fresh_copies()
    start = time.perf_counter()
    full_grid(*args)
    warm_s = time.perf_counter() - start

    assert total(warm) == total(cold)
    assert engine.cache.stats.hits > 0
    speedup = cold_s / warm_s
    print(f"\nengine grid: cold {cold_s * 1e3:.1f} ms, warm "
          f"{warm_s * 1e3:.1f} ms, speedup {speedup:.0f}x")
    record_metric("engine.warm_vs_cold_speedup", speedup)
    assert speedup >= 5.0, f"warm cache only {speedup:.1f}x faster"
