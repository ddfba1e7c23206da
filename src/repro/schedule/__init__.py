"""Loop-nest schedule IR, kernel templates, and deterministic search.

The package turns the repo's hand-written kernel schedules into
searchable objects:

* :mod:`repro.schedule.ir` — tile/reorder/unroll/vectorize transforms
  over named loop nests, with legality checks;
* :mod:`repro.schedule.templates` — the four menu algorithms' schedules
  as IR instances with knob grids (the 6-loop GEMM's block grid included);
* :mod:`repro.schedule.variants` — the ``base@knob=value`` naming
  grammar that makes searched schedules first-class registry citizens;
* :mod:`repro.schedule.search` — the seeded per-(layer, VL, L2) search
  driver scoring candidates through the memoized evaluation engine;
* :mod:`repro.schedule.oracle` — the counts-mode instruction-trace
  second opinion.
"""

from repro.schedule.ir import (
    LoopNest,
    Reorder,
    ScheduledNest,
    Tile,
    Transform,
    Unroll,
    Vectorize,
    apply_transforms,
    transforms_token,
)
from repro.schedule.search import (
    CellSearchResult,
    SearchBounds,
    SearchReport,
    cell_candidates,
    search_schedules,
)
from repro.schedule.templates import TEMPLATES, KernelTemplate, get_template
from repro.schedule.variants import (
    ScheduleVariant,
    materialize,
    parse_variant,
    variant_name,
)

__all__ = [
    "CellSearchResult",
    "KernelTemplate",
    "LoopNest",
    "Reorder",
    "ScheduleVariant",
    "ScheduledNest",
    "SearchBounds",
    "SearchReport",
    "TEMPLATES",
    "Tile",
    "Transform",
    "Unroll",
    "Vectorize",
    "apply_transforms",
    "cell_candidates",
    "get_template",
    "materialize",
    "parse_variant",
    "search_schedules",
    "transforms_token",
    "variant_name",
]
