"""Runtime invariant sanitizer — "simsan" (the dynamic prong of repro.lint).

The DES invariants the scheduler's correctness rests on (§IV-B) are
scattered across asserts and guard clauses; PR 1 fixed a stuck-``MOVING``
rollback bug that none of them caught *at the violation site*.  The
sanitizer is an opt-in subscriber of the probe (:mod:`repro.hooks`,
DESIGN.md §16): it implements the block, allocator, mover and
kernel-access points fired from :mod:`repro.mem.block`,
:mod:`repro.mem.allocator`, :mod:`repro.mem.mover` and
:mod:`repro.machine.node`, and detects:

* **refcount leaks** — blocks pinned forever at quiescence (SAN201);
* **use-after-evict** — kernel/retain on a block with no live backing
  allocation, or mid-move (SAN202);
* **double-evict / double-free** — freeing or moving an already-dead
  allocation (SAN203);
* **capacity-conservation violations** — device byte accounting out of
  ``[0, capacity]`` or registry residency exceeding the allocator's books
  (SAN204);
* **stuck MOVING** — the transient state outliving its move (SAN205);
* **non-quiescent shutdown** — pending wait/run-queue entries or
  in-flight moves at exit (SAN206);
* **refcount underflow** — releasing a block that holds no references
  (SAN207);
* **event-queue conservation drift** — the environment's live-entry
  counter disagreeing with the entries actually stored at quiescence,
  i.e. the event core lost or double-counted an event (SAN208).

Usage::

    san = SimSanitizer(mode="record")           # or "raise"
    san.install(built.manager)
    ... run the application ...
    san.check_quiescent()
    san.uninstall()
    assert not san.violations

``mode="raise"`` raises :class:`~repro.lint.findings.LintViolation` at the
violation site (a debugger stops where the invariant broke); ``record``
collects, for end-of-run reporting in the CLI.  When off — the default —
each probe site costs one module-global ``is not None`` test (see
``benchmarks/bench_probe.py``).
"""

from __future__ import annotations

import typing as _t

from repro import hooks as _probe
from repro.lint.findings import LintViolation, Violation

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import OOCManager
    from repro.mem.allocator import Allocation, Allocator
    from repro.mem.block import DataBlock
    from repro.mem.device import MemoryDevice

__all__ = ["SimSanitizer"]


class SimSanitizer:
    """Opt-in runtime invariant checker, subscribed to the probe."""

    def __init__(self, *, mode: str = "record"):
        if mode not in ("record", "raise"):
            raise ValueError(f"mode must be 'record' or 'raise', got {mode!r}")
        self.mode = mode
        self.violations: list[Violation] = []
        self.manager: "OOCManager | None" = None
        #: block id -> simulated time its current move began
        self._moving_since: dict[int, float] = {}
        #: hook invocations observed (cheap liveness/overhead metric)
        self.events_observed = 0

    # -- lifecycle -----------------------------------------------------------

    def install(self, manager: "OOCManager | None" = None) -> "SimSanitizer":
        """Subscribe to the probe; optionally bind an OOC manager.

        Binding a manager gives violations simulated-time stamps and
        strategy context, and enables the quiescence checks.
        """
        _probe.subscribe(self)
        self.manager = manager
        if manager is not None:
            manager.sanitizer = self
        return self

    def bind(self, manager: "OOCManager") -> "SimSanitizer":
        """Late-bind a manager built after :meth:`install` was called."""
        self.manager = manager
        manager.sanitizer = self
        return self

    def uninstall(self) -> None:
        _probe.unsubscribe(self)
        if self.manager is not None and \
                getattr(self.manager, "sanitizer", None) is self:
            self.manager.sanitizer = None

    def __enter__(self) -> "SimSanitizer":
        return self.install()

    def __exit__(self, *exc: _t.Any) -> None:
        self.uninstall()

    # -- reporting ------------------------------------------------------------

    @property
    def _now(self) -> float | None:
        if self.manager is not None:
            return self.manager.env.now
        return None

    def _context(self) -> dict[str, _t.Any]:
        if self.manager is not None:
            return {"strategy": self.manager.strategy.name}
        return {}

    def _report(self, rule: str, message: str, *, block: str = "",
                **context: _t.Any) -> None:
        ctx = self._context()
        ctx.update(context)
        violation = Violation(rule=rule, message=message, block=block,
                              at=self._now, context=ctx)
        self.violations.append(violation)
        if self.mode == "raise":
            raise LintViolation(violation)

    def render(self) -> str:
        if not self.violations:
            return "simsan: 0 violations"
        lines = [v.render() for v in self.violations]
        lines.append(f"simsan: {len(self.violations)} violation(s)")
        return "\n".join(lines)

    # -- DataBlock hooks -------------------------------------------------------

    def on_retain(self, block: "DataBlock") -> None:
        self.events_observed += 1
        if block.device is not None and (
                block.allocation is None or not block.allocation.live):
            self._report(
                "SAN202",
                "retain() on a block with no live backing allocation",
                block=block.name, state=block.state.value,
                refcount=block.refcount)

    def on_release(self, block: "DataBlock") -> None:
        """Called *before* the decrement, so underflow is caught here."""
        self.events_observed += 1
        if block.refcount <= 0:
            self._report(
                "SAN207", "release() on a block with zero refcount",
                block=block.name, refcount=block.refcount)

    def on_begin_move(self, block: "DataBlock") -> None:
        self.events_observed += 1
        if block.bid in self._moving_since or block.moving:
            self._report(
                "SAN202", "begin_move() on a block that is already moving",
                block=block.name)
        now = self._now
        self._moving_since[block.bid] = now if now is not None else 0.0

    def on_settle(self, block: "DataBlock") -> None:
        self.events_observed += 1
        self._moving_since.pop(block.bid, None)

    # -- Allocator hooks -------------------------------------------------------

    def on_alloc(self, allocator: "Allocator", nbytes: int) -> None:
        self.events_observed += 1
        if not 0 <= allocator.used <= allocator.capacity:
            self._report(
                "SAN204",
                f"{allocator.name}: used {allocator.used}B outside "
                f"[0, {allocator.capacity}]B after allocating {nbytes}B",
                device=allocator.name)

    def on_free(self, allocator: "Allocator",
                allocation: "Allocation") -> None:
        """Called before the bookkeeping, so double-free is caught here."""
        self.events_observed += 1
        if not allocation.live:
            self._report(
                "SAN203",
                f"{allocator.name}: free of already-freed allocation "
                f"#{allocation.aid} ({allocation.nbytes}B)",
                device=allocator.name)
        elif allocator.used - allocation.nbytes < 0:
            self._report(
                "SAN204",
                f"{allocator.name}: freeing {allocation.nbytes}B would "
                f"drive used below zero ({allocator.used}B in books)",
                device=allocator.name)

    # -- DataMover hooks --------------------------------------------------------

    def on_move_start(self, block: "DataBlock", src: "MemoryDevice",
                      dst: "MemoryDevice") -> None:
        self.events_observed += 1
        if block.allocation is None or not block.allocation.live:
            self._report(
                "SAN203",
                f"move {src.name}->{dst.name} of a block whose source "
                "allocation is already dead",
                block=block.name, src=src.name, dst=dst.name)

    def on_move_end(self, block: "DataBlock", src: "MemoryDevice",
                    dst: "MemoryDevice", nbytes: int, started: float) -> None:
        self.events_observed += 1
        if block.moving:
            self._report(
                "SAN205",
                f"move {src.name}->{dst.name} completed but the block is "
                "still MOVING (settle was skipped)",
                block=block.name, src=src.name, dst=dst.name)

    # -- kernel-access hook -------------------------------------------------------

    def on_kernel_access(self, reads: _t.Iterable["DataBlock"],
                         writes: _t.Iterable["DataBlock"]) -> None:
        self.events_observed += 1
        for mode, blocks in (("read", reads), ("write", writes)):
            for block in blocks:
                if block.allocation is None or not block.allocation.live:
                    self._report(
                        "SAN202",
                        f"kernel {mode} of a block with no live backing "
                        "allocation (use-after-evict)",
                        block=block.name, state=block.state.value)
                elif block.moving:
                    self._report(
                        "SAN202",
                        f"kernel {mode} of a block that is mid-move",
                        block=block.name)

    # -- whole-machine checks -------------------------------------------------------

    def check_now(self, manager: "OOCManager | None" = None) -> int:
        """Capacity-conservation sweep; returns new violation count."""
        mgr = manager or self.manager
        if mgr is None:
            return 0
        before = len(self.violations)
        per_device: dict[str, int] = {}
        for block in mgr.registry:
            if block.allocation is not None and block.allocation.live \
                    and block.device is not None:
                per_device[block.device.name] = (
                    per_device.get(block.device.name, 0)
                    + block.allocation.nbytes)
        for dev in mgr.topology.devices:
            used = dev.allocator.used
            if not 0 <= used <= dev.allocator.capacity:
                self._report(
                    "SAN204",
                    f"{dev.name}: allocator books {used}B outside "
                    f"[0, {dev.allocator.capacity}]B", device=dev.name)
            accounted = per_device.get(dev.name, 0)
            if accounted > used:
                self._report(
                    "SAN204",
                    f"{dev.name}: registry accounts {accounted}B resident "
                    f"but the allocator books only {used}B",
                    device=dev.name)
        return len(self.violations) - before

    def check_quiescent(self, manager: "OOCManager | None" = None, *,
                        drain: bool = True) -> int:
        """End-of-run sweep: leaks, stuck MOVING, pending waiters.

        Call at a quiescence point — after the last reduction completed,
        before (or instead of) runtime shutdown.  With ``drain`` (the
        default) the event queue is first run dry so asynchronous
        background evictions still in flight at the barrier settle; a
        block still ``MOVING`` after that has no pending event left to
        settle it and is genuinely stuck (the PR 1 bug class).  Returns
        the number of new violations.
        """
        mgr = manager or self.manager
        if mgr is None:
            return 0
        if drain:
            mgr.env.run()
        before = len(self.violations)
        env = mgr.env
        counter = getattr(env, "_live", None)
        if counter is not None and hasattr(env, "live_entry_count"):
            # Event-queue conservation: every schedule() incremented _live,
            # every dispatch/cancel decremented it, so at quiescence the
            # counter must equal the untriggered entries actually stored.
            # Checked only here — mid-batch the drain loop lags the counter
            # deliberately (see repro.sim.kernel).
            stored = env.live_entry_count()
            if counter != stored:
                self._report(
                    "SAN208",
                    f"event-queue conservation drift: env._live={counter} "
                    f"but {stored} live entr(ies) stored — the event core "
                    "lost or double-counted an event",
                    counted=counter, stored=stored)
        for block in mgr.registry:
            if block.moving:
                since = self._moving_since.get(block.bid)
                self._report(
                    "SAN205",
                    "block stuck in MOVING at quiescence"
                    + (f" (since t={since:.6g})" if since is not None else ""),
                    block=block.name)
            if block.refcount > 0:
                self._report(
                    "SAN201",
                    f"refcount {block.refcount} at quiescence — the block "
                    "is pinned forever and can never be evicted",
                    block=block.name, refcount=block.refcount)
        if mgr._inflight:
            names = sorted(e.name or "?" for e in mgr._inflight.values())
            self._report(
                "SAN206",
                f"{len(mgr._inflight)} move(s) still in flight at shutdown",
                inflight=names)
        pending_wait = sum(len(pe.wait_queue) for pe in mgr.runtime.pes)
        if pending_wait:
            self._report(
                "SAN206",
                f"{pending_wait} task(s) still parked in wait queues at "
                "shutdown — their prefetch will never complete",
                waiting=pending_wait)
        pending_run = sum(len(pe.run_queue) for pe in mgr.runtime.pes)
        if pending_run:
            self._report(
                "SAN206",
                f"{pending_run} undelivered run-queue entr(ies) at shutdown",
                queued=pending_run)
        self.check_now(mgr)
        return len(self.violations) - before
