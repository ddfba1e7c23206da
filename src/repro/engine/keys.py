"""Content-addressed cache keys for analytical-model evaluations.

A cache entry is addressed by the *content* of everything the analytical
model reads when timing one grid cell:

* the :class:`~repro.nn.layer.ConvSpec` (all constructor fields),
* the :class:`~repro.simulator.hwconfig.HardwareConfig` (all fields),
* the algorithm name (after Winograd* fallback resolution, so a fallback
  evaluation shares its entry with the direct ``im2col_gemm6`` call),
* a fingerprint of the :class:`~repro.simulator.analytical.calibration.
  Calibration` constants, so editing any calibration value invalidates
  every cached record automatically.

Each dataclass is encoded as canonical (sorted-keys, fixed-separator)
JSON by :func:`canonical_json` — stable across processes, interpreter
hash seeds, and the insertion order of payload dicts.  Field values are
canonicalized by their annotated type, so equal dataclasses always encode
equally (``paper2_rvv(512, 1)`` and ``paper2_rvv(512, 1.0)``, or a NumPy
scalar and its Python value, share one encoding).

The engine keys its LRU on the tuple ``(resolved algorithm, spec JSON,
hw JSON, calibration fingerprint)``; :func:`cache_key` is the portable
SHA-256 of the same pieces, spliced in the byte order
``json.dumps(sort_keys=True)`` produces, so it is byte for byte
:func:`key_from_payload` of the full payload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from enum import Enum
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from repro.nn.layer import ConvSpec
from repro.simulator.analytical.calibration import DEFAULT_CALIBRATION, Calibration
from repro.simulator.hwconfig import HardwareConfig

#: Part of every key payload: bumping it gives every cell a new key.
SCHEMA_VERSION = 1

#: Canonical encodings kept (distinct dataclass values; the paper grid has
#: 28 layers + 16 configs).
_ENCODING_MEMO_SIZE = 256

#: Annotated field types whose values are canonicalized (annotations are
#: strings under ``from __future__ import annotations``).
_CASTS = {"bool": bool, "int": int, "float": float, bool: bool, int: int, float: float}


def _canonical(value, annotation):
    """Canonical JSON-compatible form of one dataclass field value.

    A number equal to its value in the field's annotated type takes that
    spelling (``1`` in a ``float`` field encodes as ``1.0``, ``1`` in a
    ``bool`` field as ``true``) and ``-0.0`` encodes as ``0.0``: equal
    values always encode equally, so a key never depends on which of two
    equal configs a memo saw first; a NumPy scalar takes its Python value.
    Values that already have their annotated type keep their encoding, so
    their keys do not change.
    """
    cast = _CASTS.get(annotation)
    kind = type(value)
    if kind is cast or kind is str:  # the common case: already canonical
        return value + 0.0 if kind is float else value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        value = value.item()
    if cast is not None and isinstance(value, (int, float)) and type(value) is not cast:
        try:
            canonical = cast(value)
        except (OverflowError, ValueError):  # inf/nan in an int field
            canonical = None
        if canonical == value:
            value = canonical
    if isinstance(value, float):
        return value + 0.0  # -0.0 -> 0.0; every other float is unchanged
    return value


def dataclass_payload(obj) -> dict:
    """All constructor fields of a (frozen) dataclass as a plain dict."""
    return {f.name: _canonical(getattr(obj, f.name), f.type) for f in fields(obj)}


@lru_cache(maxsize=_ENCODING_MEMO_SIZE)
def canonical_json(obj: ConvSpec | HardwareConfig | Calibration) -> str:
    """The canonical JSON of one dataclass, memoized by value: equal objects
    get the very same ``str`` (hashed once, compared by identity)."""
    return json.dumps(dataclass_payload(obj), sort_keys=True, separators=(",", ":"))


def calibration_fingerprint(calibration: Calibration | None = None) -> str:
    """Short stable digest of the calibration constants (key component)."""
    if calibration is None:
        return CALIBRATION_VERSION
    return hashlib.sha256(canonical_json(calibration).encode()).hexdigest()[:16]


#: Fingerprint of the shipped constants — the "calibration version".
CALIBRATION_VERSION = calibration_fingerprint(DEFAULT_CALIBRATION)


def key_from_payload(payload: dict) -> str:
    """SHA-256 hex key of an already-assembled payload dict.

    Canonicalization (``sort_keys``) makes the key independent of dict
    insertion order, so semantically equal payloads always collide — and
    nothing else does, up to SHA-256 collisions.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_key(
    algorithm: str,
    spec: ConvSpec,
    hw: HardwareConfig,
    calibration: Calibration | None = None,
) -> str:
    """The content-addressed key of one (algorithm, layer, config) cell.

    Equal to ``key_from_payload`` of ``{"schema", "algorithm", "spec":
    dataclass_payload(spec), "hw": dataclass_payload(hw), "calibration":
    calibration_fingerprint(calibration)}`` byte for byte: the memoized
    fragments are spliced in sorted key order (``algorithm`` <
    ``calibration`` < ``hw`` < ``schema`` < ``spec``) with the same
    separators, and the algorithm name is escaped by the encoder
    ``json.dumps`` uses for strings.
    """
    blob = (
        f'{{"algorithm":{encode_basestring_ascii(algorithm)},'
        f'"calibration":"{calibration_fingerprint(calibration)}",'
        f'"hw":{canonical_json(hw)},'
        f'"schema":{SCHEMA_VERSION:d},"spec":{canonical_json(spec)}}}'
    )
    return hashlib.sha256(blob.encode()).hexdigest()
