"""Wire schema of the prediction service.

A **request** names one convolution layer and the hardware configuration
of the replica that will run it; the service answers with the
cycle-optimal algorithm and the engine-evaluated cost of running the
layer with it.
JSON on the wire (one object per newline-delimited line, or the body of
an HTTP ``POST /v1/select``)::

    {"id": "r-1",
     "layer": {"ic": 64, "oc": 64, "ih": 224, "iw": 224,
               "kh": 3, "kw": 3, "stride": 1},
     "hw": {"vlen_bits": 512, "l2_mib": 1.0}}

Response::

    {"id": "r-1", "status": "ok", "algorithm": "winograd",
     "cycles": 123456.0, "seconds": 6.17e-05, "dram_bytes": 98304.0}

``status`` is ``"ok"``, ``"shed"`` (admission control rejected the
request; no algorithm was selected), ``"deadline"`` (the request's
deadline budget expired before a replica could finish it) or ``"error"``
(the request was malformed or unroutable, or one of its candidate cells
failed to evaluate; ``error`` carries the reason).
When the response was routed through a
:class:`~repro.serve.router.ReplicaRouter`, ``replica`` names the
replica that served it and ``attempts`` counts dispatch attempts
(1 = first try; >1 means failover retries happened).  Floats round-trip
through ``json`` at full precision, so a response is **bit-identical**
to the direct engine evaluation of the same cell — the property the
integration suite pins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.errors import ProtocolError
from repro.nn.layer import ConvSpec
from repro.simulator.hwconfig import HardwareConfig

#: Layer fields a request may carry (ConvSpec constructor subset).
_LAYER_KEYS = frozenset(
    ("ic", "oc", "ih", "iw", "kh", "kw", "stride", "pad", "index")
)
#: Hardware fields a request may override on the Paper II RVV preset.
_HW_KEYS = frozenset(
    ("vlen_bits", "l2_mib", "freq_ghz", "l1_kib", "l2_assoc", "lmul")
)


@dataclass(frozen=True)
class ServeRequest:
    """One parsed, validated algorithm-selection query."""

    spec: ConvSpec
    hw: HardwareConfig
    id: str = ""

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "ServeRequest":
        """Parse and validate one request object (:class:`ProtocolError`)."""
        if not isinstance(payload, Mapping):
            raise ProtocolError(
                f"request must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"id", "layer", "hw"}
        if unknown:
            raise ProtocolError(f"unknown request fields {sorted(unknown)}")
        layer = payload.get("layer")
        if not isinstance(layer, Mapping):
            raise ProtocolError("request must carry a 'layer' object")
        bad = set(layer) - _LAYER_KEYS
        if bad:
            raise ProtocolError(f"unknown layer fields {sorted(bad)}")
        hw_fields = payload.get("hw", {})
        if not isinstance(hw_fields, Mapping):
            raise ProtocolError("'hw' must be an object")
        bad = set(hw_fields) - _HW_KEYS
        if bad:
            raise ProtocolError(f"unknown hw fields {sorted(bad)}")
        try:
            spec = ConvSpec(**{k: v for k, v in layer.items()})
            hw = HardwareConfig.paper2_rvv(
                int(hw_fields.get("vlen_bits", 512)),
                float(hw_fields.get("l2_mib", 1.0)),
            )
            rest = {
                k: v for k, v in hw_fields.items()
                if k not in ("vlen_bits", "l2_mib")
            }
            if rest:
                hw = replace(hw, **rest)
        except ProtocolError:
            raise
        except Exception as exc:  # ConfigError, TypeError, ValueError ...
            raise ProtocolError(f"invalid request: {exc}") from exc
        req_id = payload.get("id", "")
        if not isinstance(req_id, str):
            raise ProtocolError(f"'id' must be a string, got {req_id!r}")
        return ServeRequest(spec=spec, hw=hw, id=req_id)

    @staticmethod
    def from_json(line: str) -> "ServeRequest":
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise ProtocolError(f"request is not valid JSON: {exc}") from exc
        return ServeRequest.from_dict(payload)

    def to_dict(self) -> dict:
        """The wire form (inverse of :meth:`from_dict`)."""
        layer = {
            k: getattr(self.spec, k)
            for k in ("ic", "oc", "ih", "iw", "kh", "kw", "stride", "pad",
                      "index")
        }
        return {
            "id": self.id,
            "layer": layer,
            "hw": {"vlen_bits": self.hw.vlen_bits, "l2_mib": self.hw.l2_mib,
                   "freq_ghz": self.hw.freq_ghz},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class ServeResponse:
    """One answered (or shed / rejected) request."""

    id: str = ""
    status: str = "ok"  # "ok" | "shed" | "deadline" | "error"
    algorithm: str = ""
    cycles: float = 0.0
    seconds: float = 0.0
    dram_bytes: float = 0.0
    error: str = ""
    replica: str = ""  # router: the replica that served this response
    attempts: int = 0  # router: dispatch attempts (>1 = failover retries)

    def to_dict(self) -> dict:
        """``dataclasses.asdict(self)``, without its per-field deep copy."""
        return {
            "id": self.id,
            "status": self.status,
            "algorithm": self.algorithm,
            "cycles": self.cycles,
            "seconds": self.seconds,
            "dram_bytes": self.dram_bytes,
            "error": self.error,
            "replica": self.replica,
            "attempts": self.attempts,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "ServeResponse":
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise ProtocolError(f"response is not valid JSON: {exc}") from exc
        try:
            return ServeResponse(**payload)
        except TypeError as exc:
            raise ProtocolError(f"invalid response: {exc}") from exc


def shed_response(request: ServeRequest) -> ServeResponse:
    return ServeResponse(id=request.id, status="shed")


def error_response(req_id: str, message: str) -> ServeResponse:
    return ServeResponse(id=req_id, status="error", error=message)
