"""The :class:`FaultPlan`: *what* to inject, decided by pure hashing.

A plan is an immutable value object; every "should this fault fire?"
question is answered by a pure function of ``(seed, site, token)``, so the
same plan makes the same decisions in every process, on every retry, and
in any call order.  That determinism is what lets the chaos suite assert
*bit-identical* results under injected crashes: the faults themselves are
reproducible, and the recovery machinery must erase them.

Plans are written as compact comma-separated ``key=value`` specs — the
grammar of the ``REPRO_FAULTS`` environment variable (see
``docs/ROBUSTNESS.md``)::

    seed=42,cell.error=0.1,replica.crash=0.01

The sites: ``cell.error`` (a grid cell of the evaluation engine raises),
``serving.burst`` (the serving simulators' arrivals speed up over the
middle third of a run), and ``replica.crash``/``hang``/``slow`` and
``probe.drop`` (the replica router's dispatches and health probes).
Rate-valued sites fire on the deterministic fraction of tokens selected
by the seeded hash.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from repro.errors import FaultSpecError

#: spec key -> (FaultPlan field, parser).  The dotted names mirror the
#: subsystem the fault lands in; the grammar is the union of these keys.
_SPEC_KEYS: dict[str, tuple[str, type]] = {
    "seed": ("seed", int),
    "hang.seconds": ("hang_seconds", float),
    "cell.error": ("cell_error", float),
    "serving.burst": ("serving_burst", float),
    "replica.crash": ("replica_crash", float),
    "replica.hang": ("replica_hang", float),
    "replica.slow": ("replica_slow", float),
    "probe.drop": ("probe_drop", float),
}

_RATE_FIELDS = frozenset(
    (
        "cell_error",
        "replica_crash",
        "replica_hang",
        "replica_slow",
        "probe_drop",
    )
)


def _hash_unit(seed: int, site: str, token: str) -> float:
    """A uniform [0, 1) draw, a pure function of (seed, site, token)."""
    digest = hashlib.sha256(f"{seed}:{site}:{token}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults to inject.

    All fields default to "off"; :func:`parse_fault_spec` builds one from
    the ``REPRO_FAULTS`` grammar and :meth:`to_spec` is the exact inverse
    (used to propagate the active plan to spawned processes).
    """

    seed: int = 0
    #: how long a hung replica stalls (capped by the dispatch timeout).
    hang_seconds: float = 30.0
    #: probability one grid cell's evaluation raises ``InjectedFaultError``.
    cell_error: float = 0.0
    #: arrival-rate multiplier over the middle third of a serving run.
    serving_burst: float = 1.0
    #: probability one (replica, dispatch) hard-crashes the replica — it
    #: takes no traffic until the router's half-open recovery readmits it.
    replica_crash: float = 0.0
    #: probability one (replica, dispatch) hangs until the dispatch timeout.
    replica_hang: float = 0.0
    #: probability one (replica, dispatch) serves at 10x the modeled time.
    replica_slow: float = 0.0
    #: probability one active health probe is dropped (reads as a failure).
    probe_drop: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(f"{name} must be in [0, 1], got {rate}")
        if not 1.0 <= self.serving_burst < math.inf:
            raise FaultSpecError(
                f"serving_burst must be >= 1 and finite, got {self.serving_burst}"
            )
        if not 0 < self.hang_seconds < math.inf:
            raise FaultSpecError("hang_seconds must be positive and finite")

    # ------------------------------------------------------------------ #
    # decisions (pure: same answer in every process, on every retry)
    # ------------------------------------------------------------------ #
    def chance(self, site: str, token: str, rate: float) -> bool:
        """True iff the seeded hash selects ``token`` at ``rate``."""
        return rate > 0.0 and _hash_unit(self.seed, site, token) < rate

    def cell_fails(self, cell_id: str) -> bool:
        """Should evaluating this grid cell raise ``InjectedFaultError``?"""
        return self.chance("cell.error", cell_id, self.cell_error)

    def burst_window(self, n_requests: int) -> tuple[int, int, float]:
        """``(start, stop, factor)`` of the injected arrival burst.

        Requests ``start..stop-1`` arrive at ``factor`` times the nominal
        rate (the middle third of the run); factor 1.0 means no burst.
        """
        if self.serving_burst <= 1.0 or n_requests < 3:
            return 0, 0, 1.0
        return n_requests // 3, 2 * n_requests // 3, self.serving_burst

    def replica_fault(self, replica: str, dispatch: int) -> str | None:
        """``"crash"``, ``"hang"``, ``"slow"`` or None for one dispatch.

        The token is the replica's own dispatch ordinal, so the same plan
        kills the same replica at the same point of a routed replay in
        every process.  Crash outranks hang outranks slow when several
        sites select the same dispatch.
        """
        token = f"{replica}:{dispatch}"
        if self.chance("replica.crash", token, self.replica_crash):
            return "crash"
        if self.chance("replica.hang", token, self.replica_hang):
            return "hang"
        if self.chance("replica.slow", token, self.replica_slow):
            return "slow"
        return None

    def drops_probe(self, replica: str, probe: int) -> bool:
        """Should this active health probe be dropped (read as failed)?"""
        return self.chance("probe.drop", f"{replica}:{probe}", self.probe_drop)

    # ------------------------------------------------------------------ #
    # spec round-trip
    # ------------------------------------------------------------------ #
    def to_spec(self) -> str:
        """The ``REPRO_FAULTS`` string this plan round-trips through."""
        defaults = FaultPlan()
        parts = []
        for key, (field_name, _) in _SPEC_KEYS.items():
            value = getattr(self, field_name)
            if value != getattr(defaults, field_name):
                parts.append(
                    f"{key}={value:g}"
                    if isinstance(value, float)
                    else f"{key}={value}"
                )
        return ",".join(parts)


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`.

    Grammar: comma-separated ``key=value`` clauses; keys are the dotted
    site names above, values are an int (the seed) or floats (rates,
    factors, seconds).  Whitespace around clauses is ignored.
    """
    values: dict[str, int | float] = {}
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        key, sep, raw = clause.partition("=")
        key = key.strip()
        if not sep:
            raise FaultSpecError(
                f"malformed fault clause {clause!r} (expected key=value)"
            )
        if key not in _SPEC_KEYS:
            known = ", ".join(_SPEC_KEYS)
            raise FaultSpecError(f"unknown fault site {key!r} (known: {known})")
        field_name, cast = _SPEC_KEYS[key]
        try:
            values[field_name] = cast(raw.strip())
        except ValueError as exc:
            raise FaultSpecError(
                f"bad value for {key}: {raw.strip()!r} ({exc})"
            ) from None
    valid = {f.name for f in fields(FaultPlan)}
    assert set(values) <= valid
    return FaultPlan(**values)  # type: ignore[arg-type]
