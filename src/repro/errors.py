"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid hardware or experiment configuration was supplied."""


class IsaError(ReproError):
    """Illegal use of the vector ISA (bad register, bad vtype, ...)."""


class VectorLengthError(IsaError):
    """A requested/granted vector length violates the ISA rules."""


class RegisterError(IsaError):
    """A vector register index or operand shape is invalid."""


class SimulationError(ReproError):
    """The timing/cache simulator was driven into an invalid state."""


class AlgorithmError(ReproError):
    """A convolution algorithm was mis-applied."""


class NotApplicableError(AlgorithmError):
    """The algorithm does not support the given layer configuration."""


class ScheduleError(AlgorithmError):
    """An illegal loop transformation or schedule-IR misuse.

    Raised by :mod:`repro.schedule` when a transform sequence violates a
    legality invariant (tiling a vectorized axis, reordering with a
    non-permutation, exceeding the register budget, ...).
    """


class ShapeError(AlgorithmError):
    """Tensor shapes are inconsistent with the layer specification."""


class NetworkError(ReproError):
    """Errors building or executing a network graph."""


class CfgParseError(NetworkError):
    """A Darknet-style ``.cfg`` model description could not be parsed."""


class SelectionError(ReproError):
    """Errors in the algorithm-selection machine-learning stack."""


class NotFittedError(SelectionError):
    """A model was used before ``fit`` was called."""


class ExperimentError(ReproError):
    """An experiment harness was invoked with inconsistent parameters."""


class EngineError(ReproError):
    """The memoized evaluation engine was misused or hit corrupt state."""


class FaultSpecError(ReproError):
    """A ``REPRO_FAULTS`` fault-injection spec could not be parsed."""


class InjectedFaultError(ReproError):
    """An error raised on purpose by the fault-injection plane.

    Only :mod:`repro.faults` raises this; seeing it outside a chaos test
    means a fault plan leaked into a production run.
    """


class ServeError(ReproError):
    """The prediction service was misconfigured or driven into a bad state."""


class ProtocolError(ServeError):
    """A serving request or response violates the wire schema."""
