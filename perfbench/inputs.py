"""Seeded inputs of every workload, generated by the benchmark itself.

The layer table is copied from the papers (13 VGG-16 + 15 YOLOv3 conv
layers, batch 1), not imported from the package, so a later change to the
package's experiment helpers cannot change what the benchmark measures.
Everything random is drawn from ``random.Random(seed)``: one seed names one
exact input set.
"""

from __future__ import annotations

import random

#: Paper II conv layers: (model, ordinal, ic, oc, ih, iw, k, stride).
PAPER_LAYERS: tuple[tuple[str, int, int, int, int, int, int, int], ...] = (
    ("vgg16", 1, 3, 64, 224, 224, 3, 1),
    ("vgg16", 2, 64, 64, 224, 224, 3, 1),
    ("vgg16", 3, 64, 128, 112, 112, 3, 1),
    ("vgg16", 4, 128, 128, 112, 112, 3, 1),
    ("vgg16", 5, 128, 256, 56, 56, 3, 1),
    ("vgg16", 6, 256, 256, 56, 56, 3, 1),
    ("vgg16", 7, 256, 256, 56, 56, 3, 1),
    ("vgg16", 8, 256, 512, 28, 28, 3, 1),
    ("vgg16", 9, 512, 512, 28, 28, 3, 1),
    ("vgg16", 10, 512, 512, 28, 28, 3, 1),
    ("vgg16", 11, 512, 512, 14, 14, 3, 1),
    ("vgg16", 12, 512, 512, 14, 14, 3, 1),
    ("vgg16", 13, 512, 512, 14, 14, 3, 1),
    ("yolov3", 1, 3, 32, 608, 608, 3, 1),
    ("yolov3", 2, 32, 64, 608, 608, 3, 2),
    ("yolov3", 3, 64, 32, 304, 304, 1, 1),
    ("yolov3", 4, 32, 64, 304, 304, 3, 1),
    ("yolov3", 5, 64, 128, 304, 304, 3, 2),
    ("yolov3", 6, 128, 64, 152, 152, 1, 1),
    ("yolov3", 7, 64, 128, 152, 152, 3, 1),
    ("yolov3", 8, 128, 64, 152, 152, 1, 1),
    ("yolov3", 9, 64, 128, 152, 152, 3, 1),
    ("yolov3", 10, 128, 256, 152, 152, 3, 2),
    ("yolov3", 11, 256, 128, 76, 76, 1, 1),
    ("yolov3", 12, 128, 256, 76, 76, 3, 1),
    ("yolov3", 13, 256, 128, 76, 76, 1, 1),
    ("yolov3", 14, 128, 256, 76, 76, 3, 1),
    ("yolov3", 15, 256, 128, 76, 76, 1, 1),
)

#: The four Paper II contenders.
ALGORITHMS = ("direct", "im2col_gemm3", "im2col_gemm6", "winograd")
#: Paper II hardware axes.
VLENS = (512, 1024, 2048, 4096)
PAPER_L2_MIB = (1.0, 4.0, 16.0, 64.0)


def layer_fields(row) -> dict:
    """ConvSpec keyword arguments of one layer-table row ("same" padding)."""
    _, ordinal, ic, oc, ih, iw, k, stride = row
    return {
        "ic": ic, "oc": oc, "ih": ih, "iw": iw, "kh": k, "kw": k,
        "stride": stride, "pad": k // 2, "index": ordinal,
    }


def draw_l2_mib(rng: random.Random) -> float:
    """An L2 size anywhere in 1-64 MB (log-uniform, full float precision).

    Full precision makes every drawn configuration one no earlier op or
    process has seen, so every cell it keys is a cold miss.
    """
    return 2.0 ** rng.uniform(0.0, 6.0)


# ---------------------------------------------------------------------- #
# grid-sweep
# ---------------------------------------------------------------------- #
def grid_configs(seed: int, n_ops: int) -> list[list[tuple[int, float]]]:
    """Per op: 16 (vlen_bits, l2_mib) pairs, 4 fresh L2 sizes per VLEN."""
    rng = random.Random(f"grid-sweep/{seed}")
    return [
        [(vl, draw_l2_mib(rng)) for vl in VLENS for _ in range(4)]
        for _ in range(n_ops)
    ]


# ---------------------------------------------------------------------- #
# trace-sim
# ---------------------------------------------------------------------- #
#: Paper II conv layers scaled down so each cell simulates in well under a
#: second at 512 b / 1 MB: (name, algorithm, ConvSpec fields).  Footprints
#: (input + weights + output + the algorithm's workspace) fall on both
#: sides of the 1 MB L2, for every algorithm.  The count is odd so that the
#: median and p90 ranks fall inside one cell's cluster of times, not on
#: the gap between two cells.
TRACE_CELLS: tuple[tuple[str, str, dict], ...] = (
    ("vgg16.1@80", "direct", dict(ic=3, oc=64, ih=80, iw=80)),
    ("vgg16.9@14/8", "direct", dict(ic=64, oc=64, ih=14, iw=14)),
    ("yolov3.3@76/4", "direct", dict(ic=64, oc=32, ih=76, iw=76, kh=1, kw=1)),
    ("yolov3.2@76/2", "direct", dict(ic=16, oc=32, ih=76, iw=76, stride=2)),
    ("vgg16.3@20/4", "im2col_gemm3", dict(ic=16, oc=32, ih=20, iw=20)),
    ("vgg16.12@7/16", "im2col_gemm3", dict(ic=32, oc=32, ih=7, iw=7)),
    ("yolov3.11@64/8", "im2col_gemm3", dict(ic=32, oc=32, ih=64, iw=64, kh=1, kw=1)),
    ("yolov3.5@38/4", "im2col_gemm6", dict(ic=16, oc=32, ih=38, iw=38, stride=2)),
    ("vgg16.1@64", "im2col_gemm6", dict(ic=3, oc=48, ih=64, iw=64)),
    ("vgg16.4@28/8", "winograd", dict(ic=16, oc=16, ih=28, iw=28)),
    ("vgg16.11@14/16", "winograd", dict(ic=32, oc=32, ih=14, iw=14)),
    ("vgg16.6@56/16", "winograd", dict(ic=8, oc=16, ih=56, iw=56)),
    ("yolov3.14@38/8", "winograd", dict(ic=16, oc=32, ih=38, iw=38)),
)

#: Warm-up cell (the cheapest in the list), simulated once during set-up.
TRACE_WARMUP = 1


def trace_order(seed: int, n_passes: int) -> list[int]:
    """Cell indices for ``n_passes`` whole passes, each in seeded order.

    Whole passes keep the op mix identical whatever the machine speed, so
    every percentile compares the same mix on both commits.
    """
    rng = random.Random(f"trace-sim/{seed}")
    order: list[int] = []
    for _ in range(n_passes):
        one = list(range(len(TRACE_CELLS)))
        rng.shuffle(one)
        order.extend(one)
    return order


# ---------------------------------------------------------------------- #
# serve-mix
# ---------------------------------------------------------------------- #
#: Share of requests carrying a never-seen hardware configuration.
COLD_SHARE = 0.1


def _request(rng: random.Random, rid: str) -> dict:
    layer = PAPER_LAYERS[rng.randrange(len(PAPER_LAYERS))]
    if rng.random() < COLD_SHARE:
        hw = {"vlen_bits": rng.choice(VLENS), "l2_mib": draw_l2_mib(rng)}
    else:
        hw = {"vlen_bits": rng.choice(VLENS), "l2_mib": rng.choice(PAPER_L2_MIB)}
    return {"id": rid, "layer": layer_fields(layer), "hw": hw}


def serve_requests(seed: int, phase: str, n: int) -> list[dict]:
    """``n`` NDJSON request payloads: ~9 in 10 hot grid pairs, ~1 in 10 cold."""
    rng = random.Random(f"serve-mix/{phase}/{seed}")
    return [_request(rng, f"{phase}-{i}") for i in range(n)]


def hot_requests() -> list[dict]:
    """Every hot (layer, config) pair of the Paper II grid, once."""
    pairs = [
        (row, vl, l2) for row in PAPER_LAYERS for vl in VLENS for l2 in PAPER_L2_MIB
    ]
    return [
        {"id": f"warm-{i}", "layer": layer_fields(row),
         "hw": {"vlen_bits": vl, "l2_mib": l2}}
        for i, (row, vl, l2) in enumerate(pairs)
    ]


def poisson_offsets(seed: int, rate_per_s: float, n: int) -> list[float]:
    """Due send times (seconds from phase start) of a Poisson process."""
    rng = random.Random(f"serve-mix/arrivals/{seed}")
    t = 0.0
    out = []
    for _ in range(n):
        t += rng.expovariate(rate_per_s)
        out.append(t)
    return out


#: First request of every server launch (ends the set-up interval).
PROBE_REQUEST = {
    "id": "probe", "layer": layer_fields(PAPER_LAYERS[0]),
    "hw": {"vlen_bits": 512, "l2_mib": 1.0},
}
