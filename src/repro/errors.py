"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors (``TypeError`` etc.).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "ProcessKilled",
    "MemoryModelError",
    "CapacityError",
    "AllocationError",
    "BlockStateError",
    "RuntimeModelError",
    "ChareError",
    "EntryMethodError",
    "SchedulingError",
    "ConfigError",
    "ExperimentError",
    "LintError",
]


class ReproError(Exception):
    """Base class for all library errors."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class DeadlockError(SimulationError):
    """The event loop ran out of events while processes were still waiting.

    In this library a deadlock almost always means a scheduling bug: an IO
    thread that was never signalled, or a task whose dependence can never be
    prefetched because it is larger than the HBM.
    """

    def __init__(self, message: str, waiting: tuple[str, ...] = ()):
        super().__init__(message)
        #: names of the simulated processes that were still blocked
        self.waiting = waiting


class ProcessKilled(SimulationError):
    """Injected into a simulated process to terminate it prematurely."""


class MemoryModelError(ReproError):
    """Errors raised by the heterogeneous-memory substrate."""


class CapacityError(MemoryModelError):
    """An allocation would exceed a memory device's capacity."""

    def __init__(self, message: str, *, available: int = 0,
                 device: str | None = None):
        super().__init__(message)
        self.available = available
        #: name of the full device, when the raiser knows it
        self.device = device


class AllocationError(MemoryModelError):
    """An allocator invariant was violated (double free, unknown handle...)."""


class BlockStateError(MemoryModelError):
    """A data block was used in a way its state machine forbids."""


class RuntimeModelError(ReproError):
    """Errors raised by the Charm++-like runtime substrate."""


class ChareError(RuntimeModelError):
    """Bad chare construction, indexing or messaging."""


class EntryMethodError(RuntimeModelError):
    """Bad entry-method declaration or invocation."""


class SchedulingError(RuntimeModelError):
    """The out-of-core scheduler reached an inconsistent state."""


class ConfigError(ReproError):
    """Invalid machine/experiment configuration."""


class ExperimentError(ReproError):
    """A benchmark experiment could not be executed as specified."""


class LintError(ReproError):
    """Errors raised by the :mod:`repro.lint` subsystem.

    :class:`repro.lint.findings.LintViolation` derives from this; catch
    ``LintError`` to handle sanitizer reports without importing lint.
    """
