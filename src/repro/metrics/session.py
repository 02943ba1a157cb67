"""One-call wiring: registry + binding + probe subscriber + flight recorder.

The drivers' (CLI, benches, tests) entire metrics lifecycle::

    session = MetricsSession(built, app="stencil", cadence=0.02)
    result = app.run()
    session.finish()
    print(render_report(session.registry, session.recorder))

``MetricsSession`` is also a context manager; ``finish`` is idempotent and
always unsubscribes its :class:`~repro.metrics.subscriber.MetricsSubscriber`
from the probe (DESIGN.md §16), so a crashed run cannot leak a registry
into the next one.
"""

from __future__ import annotations

import typing as _t

from repro.metrics.bind import bind_built_runtime
from repro.metrics.recorder import FlightRecorder, OnSnapshot
from repro.metrics.registry import MetricsRegistry
from repro.metrics.subscriber import MetricsSubscriber

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import BuiltRuntime

__all__ = ["MetricsSession"]


class MetricsSession:
    """Subscribed, bound and recording from construction until ``finish``."""

    def __init__(self, built: "BuiltRuntime", *, app: str = "",
                 cadence: float = 0.05, capacity: int = 1024,
                 on_snapshot: OnSnapshot | None = None):
        self.built = built
        self.registry = MetricsRegistry(
            clock=lambda: built.env.now,
            strategy=built.manager.strategy.name, app=app)
        bind_built_runtime(self.registry, built)
        self.recorder = FlightRecorder(
            built.env, self.registry, cadence=cadence, capacity=capacity,
            on_snapshot=on_snapshot)
        self.subscriber = MetricsSubscriber(self.registry).subscribe()
        self.recorder.start()
        self._finished = False

    def finish(self) -> FlightRecorder:
        """Final snapshot, stop the recorder, leave the probe."""
        if not self._finished:
            self._finished = True
            try:
                self.recorder.stop()
            finally:
                self.subscriber.unsubscribe()
        return self.recorder

    def __enter__(self) -> "MetricsSession":
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self.finish()
