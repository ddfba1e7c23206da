"""Schedule variants: named, materializable parameterizations of the menu.

A variant name is ``base@key=value,key=value`` with keys in the template's
canonical order — e.g. ``im2col_gemm3@u=24`` or
``im2col_gemm6@bm=32,bn=1024,bk=256``.  The grammar is:

* parseable (:func:`parse_variant`) and canonical
  (:func:`variant_name` always emits keys in template order);
* self-contained: the engine passes only name strings around, so
  :func:`repro.algorithms.registry.get_algorithm` calls
  :func:`materialize` for any name containing ``@`` — a variant name
  works anywhere a base name does, including memo-cache keys.

A materialized variant is the template's lowered algorithm instance with
its ``name`` set to the variant name (``label`` gains the knob suffix),
so the engine's content-addressed cache distinguishes variants while the
three faces (functional, traced, analytical) come straight from the
parameterized kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import ConvAlgorithm
from repro.errors import ScheduleError
from repro.schedule.templates import KernelTemplate, Params, get_template


@dataclass(frozen=True)
class ScheduleVariant:
    """A (base algorithm, knob values) point in the schedule space."""

    base: str
    params: tuple[tuple[str, int], ...]

    @property
    def name(self) -> str:
        return variant_name(self.base, dict(self.params))

    @property
    def is_default_named(self) -> bool:
        """True when this is the bare menu entry (no knob suffix)."""
        return not self.params

    def as_params(self) -> Params:
        return dict(self.params)


def variant_name(base: str, params: Params) -> str:
    """Canonical variant name: knobs in template order, ``base`` if empty."""
    if not params:
        return base
    template = get_template(base)
    template.validate(params)
    suffix = ",".join(f"{k}={int(params[k])}" for k in template.param_keys)
    return f"{base}@{suffix}"


def parse_variant(name: str) -> ScheduleVariant:
    """Parse ``base@k=v,...`` (or a bare base name) into a variant."""
    base, sep, suffix = name.partition("@")
    template = get_template(base)  # raises ScheduleError for unknown bases
    if not sep:
        return ScheduleVariant(base=base, params=())
    if not suffix:
        raise ScheduleError(f"variant name {name!r} has an empty knob suffix")
    params: Params = {}
    for item in suffix.split(","):
        key, eq, value = item.partition("=")
        if not eq or not key or not value:
            raise ScheduleError(
                f"variant name {name!r}: knob {item!r} is not 'key=value'"
            )
        if key in params:
            raise ScheduleError(f"variant name {name!r}: duplicate knob {key!r}")
        try:
            params[key] = int(value)
        except ValueError:
            raise ScheduleError(
                f"variant name {name!r}: knob {key!r} value {value!r} "
                f"is not an integer"
            )
    template.validate(params)
    return ScheduleVariant(
        base=base, params=tuple((k, params[k]) for k in template.param_keys)
    )


def materialize(name: str) -> ConvAlgorithm:
    """Build the ConvAlgorithm for a variant name.

    The instance is the template's lowering with ``name``/``label``
    rewritten to the canonical variant identity; knob validation happens
    in the kernel constructors (``ConfigError``) and the template
    (``ScheduleError``).
    """
    variant = parse_variant(name)
    template = get_template(variant.base)
    if variant.is_default_named:
        algo = template.lower(
            # bare base names materialize the grid-independent defaults
            _default_params(template)
        )
    else:
        algo = template.lower(variant.as_params())
    canonical = variant.name
    algo.name = canonical
    if variant.params:
        knobs = ",".join(f"{k}={v}" for k, v in variant.params)
        algo.label = f"{algo.label} [{knobs}]"
    return algo


def _default_params(template: KernelTemplate) -> Params:
    """Template defaults that do not depend on a layer/hardware point."""
    # every template's default_params ignores (spec, hw); pass None-safe
    # sentinels is unnecessary — call with concrete paper defaults instead.
    from repro.simulator.hwconfig import HardwareConfig

    return template.default_params(None, HardwareConfig())  # type: ignore[arg-type]


__all__ = [
    "ScheduleVariant",
    "materialize",
    "parse_variant",
    "variant_name",
]
