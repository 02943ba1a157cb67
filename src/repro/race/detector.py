"""racesan — a vector-clock happens-before race detector for the runtime.

The detector is a subscriber of the probe (:mod:`repro.hooks`, DESIGN.md
§16) and implements two groups of its points:

* *causality*: events scheduled / processed / cancelled
  (:class:`~repro.sim.environment.Environment`), process resumption
  (:class:`~repro.sim.process.Process`), buffered queue handoffs
  (``Store`` and the PE wait queues), and converse
  message delivery;
* *accesses*: kernel reads/writes by declared intent, refcount
  retain/release, and mover copy/settle steps.

From the causality stream it maintains one vector clock per actor (each
simulated process plus the driving script).  The happens-before edges it
derives from runtime ordering are exactly the orderings the runtime
*guarantees*:

* event schedule → event callback (message send → deliver, timeouts,
  flow completion, process join/interrupt — anything through the DES);
* buffered queue put → get (run-queue and wait-queue handoffs that never
  materialise an event because the item is consumed later);
* IO fetch completion → task start (the in-flight event plus the
  run-queue handoff);
* mover ``settle`` → any later context that *observes* the placement
  (a retain, a kernel access, or the next move of the same block) — the
  acquire/release protocol of the placement state machine;
* refcount release → the mover's next move of that block (eviction is
  only legal after the last holder released).

Two accesses to one block's *bytes* conflict when at least one is a
write-class access and neither happened-before the other; the finding
carries both access records — actor, op, sim time, call stack — plus the
vector-clock evidence, so "a schedule exists where these overlap" is
auditable.  Kernel reads/writes are byte accesses; mover
move-start/move-end are write-class (the copy/free relocates the bytes).
Refcount retain/release touch only the block's atomic refcount word, not
its bytes, so they are observed for their causality (a release publishes
the edge the next eviction must acquire; a retain acquires the last
settle) but never themselves conflict — two IO threads may legitimately
retain / fetch one shared panel at the same instant.
"""

from __future__ import annotations

import dataclasses
import os
import traceback
import typing as _t

from repro import hooks as _probe
from repro.race.clock import Clock, format_clock, fresh, happened_before, join

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.mem.block import DataBlock
    from repro.sim.environment import Environment

__all__ = ["RaceAccess", "RaceFinding", "RaceSanitizer"]

#: actor name for the top-level driving script (not a simulated process)
MAIN_ACTOR = "main"
#: findings kept per run; later ones only count as suppressed
MAX_FINDINGS = 100


@dataclasses.dataclass(frozen=True)
class RaceAccess:
    """One recorded block access: who, what, when — plus clock evidence."""

    op: str
    actor: str
    own: int
    clock: dict[str, int]
    time: float | None = None
    task: str = ""
    stack: str = ""

    def render(self) -> str:
        at = f" t={self.time:.6g}" if self.time is not None else ""
        head = f"{self.op} by {self.actor}{at}"
        if self.task:
            head += f" in {self.task}"
        lines = [head,
                 f"  clock {self.actor}@{self.own} of {format_clock(self.clock)}"]
        if self.stack:
            lines.append(f"  stack {self.stack}")
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class RaceFinding:
    """One race-detector diagnostic (rules ``RACE3xx``)."""

    rule: str
    message: str
    block: str = ""
    at: float | None = None
    first: RaceAccess | None = None
    second: RaceAccess | None = None

    def render(self) -> str:
        at = f" t={self.at:.6g}" if self.at is not None else ""
        blk = f" block={self.block!r}" if self.block else ""
        lines = [f"{self.rule}{at}{blk}: {self.message}"]
        if self.first is not None:
            lines.append("  earlier: " +
                         self.first.render().replace("\n", "\n  "))
        if self.second is not None:
            lines.append("  current: " +
                         self.second.render().replace("\n", "\n  "))
        return "\n".join(lines)


class RaceSanitizer:
    """Happens-before detector, subscribed to the probe.

    Use as a context manager or call :meth:`install` / :meth:`uninstall`
    explicitly.  Findings accumulate in :attr:`findings`; the detector
    never raises on a race — schedules under the explorer must run to
    completion so one interleaving yields all its findings.
    """

    def __init__(self, *, stacks: bool = True):
        self.stacks = stacks
        self.findings: list[RaceFinding] = []
        self.suppressed = 0
        self.events_observed = 0
        self.accesses_observed = 0
        self._env: Environment | None = None
        # --- causality state ---------------------------------------------
        main = fresh(MAIN_ACTOR)
        self._clocks: dict[str, Clock] = {MAIN_ACTOR: main}
        self._ambient_actor: str | None = MAIN_ACTOR
        self._ambient: Clock = main
        self._event_clock: dict[int, Clock] = {}
        self._event_snap: Clock | None = None
        self._processing_id: int | None = None
        self._actor_names: dict[int, str] = {}
        self._name_counts: dict[str, int] = {}
        self._handoff: dict[int, list[Clock]] = {}
        self._release_clock: dict[int, Clock] = {}
        self._settle_clock: dict[int, Clock] = {}
        # --- access state ------------------------------------------------
        self._last_write: dict[int, RaceAccess] = {}
        self._reads: dict[int, dict[str, RaceAccess]] = {}
        self._current_task: dict[str, _t.Any] = {}
        self._seen: set[tuple] = set()

    # -- lifecycle --------------------------------------------------------

    def install(self, env: "Environment | None" = None) -> RaceSanitizer:
        """Subscribe to the probe; ``env`` anchors report timestamps."""
        if env is not None:
            self._env = env
        _probe.subscribe(self)
        return self

    def uninstall(self) -> None:
        _probe.unsubscribe(self)

    def __enter__(self) -> RaceSanitizer:
        return self.install()

    def __exit__(self, *exc: _t.Any) -> None:
        self.uninstall()

    def render_report(self) -> str:
        lines = [f.render() for f in self.findings]
        tail = f"racesan: {len(self.findings)} finding(s)"
        if self.suppressed:
            tail += f" (+{self.suppressed} suppressed)"
        lines.append(tail)
        return "\n".join(lines)

    # -- causality points ---------------------------------------------------

    def on_scheduled(self, event: _t.Any) -> None:
        self.events_observed += 1
        self._event_clock[id(event)] = self._publish()

    def on_descheduled(self, event: _t.Any) -> None:
        self._event_clock.pop(id(event), None)

    def on_processing(self, event: _t.Any) -> None:
        snapshot = self._event_clock.pop(id(event), None)
        if snapshot is None:
            snapshot = {}
        self._event_snap = snapshot
        self._processing_id = id(event)
        self._ambient_actor = None
        self._ambient = snapshot
        if self._env is None:
            env = getattr(event, "env", None)
            if env is not None:
                self._env = env

    def on_resume(self, process: _t.Any, event: _t.Any) -> None:
        actor = self._actor_for(process)
        clock = self._clocks[actor]
        if id(event) == self._processing_id:
            snapshot = self._event_snap
        else:
            # synchronous resume on an already-processed event (e.g. an
            # in-flight event that fired earlier); its snapshot is gone,
            # and the settle/handoff clocks carry the edge instead
            snapshot = self._event_clock.get(id(event))
        if snapshot:
            join(clock, snapshot)
        self._ambient_actor = actor
        self._ambient = clock

    def on_handoff_put(self, item: _t.Any) -> None:
        self._handoff.setdefault(id(item), []).append(self._publish())

    def on_handoff_get(self, item: _t.Any) -> None:
        snapshots = self._handoff.get(id(item))
        if snapshots:
            snapshot = snapshots.pop(0)
            if not snapshots:
                del self._handoff[id(item)]
            join(self._ambient, snapshot)

    def on_deliver(self, pe: _t.Any, message: _t.Any,
                   task: _t.Any = None) -> None:
        actor = self._ambient_actor
        if actor is not None:
            self._current_task[actor] = task

    # -- access points ------------------------------------------------------

    def on_kernel_access(self, reads: _t.Iterable["DataBlock"],
                         writes: _t.Iterable["DataBlock"]) -> None:
        reads = tuple(reads)
        writes = tuple(writes)
        task = self._ambient_task()
        intents: dict[int, _t.Any] = {}
        if task is not None:
            intents = {block.bid: intent for block, intent in task.deps}
        for block in reads + writes:
            self._acquire_settle(block)
        for block in reads:
            intent = intents.get(block.bid)
            if intent is not None and not intent.reads:
                self._report_writeonly(block, task)
            self._record(block, "kernel-read", is_write=False)
        for block in writes:
            self._record(block, "kernel-write", is_write=True)

    def on_retain(self, block: "DataBlock") -> None:
        # atomic refcount op: acquires the last settle but is not a byte
        # access — two actors may retain/fetch one shared block at once
        self.accesses_observed += 1
        self._acquire_settle(block)

    def on_release(self, block: "DataBlock") -> None:
        # atomic refcount op: publishes the edge the next eviction joins
        self.accesses_observed += 1
        join(self._release_clock.setdefault(block.bid, {}), self._publish())

    def on_move_start(self, block: "DataBlock", src: _t.Any,
                      dst: _t.Any) -> None:
        self._acquire_settle(block)
        released = self._release_clock.get(block.bid)
        if released:
            join(self._ambient, released)
        op = f"move-start {src.name}->{dst.name}"
        self._record(block, op, is_write=True)

    def on_move_end(self, block: "DataBlock", src: _t.Any, dst: _t.Any,
                    nbytes: int, started: float) -> None:
        op = f"move-end {src.name}->{dst.name}"
        self._record(block, op, is_write=True)
        join(self._settle_clock.setdefault(block.bid, {}), self._publish())

    # -- internals --------------------------------------------------------

    def _actor_for(self, process: _t.Any) -> str:
        key = id(process)
        name = self._actor_names.get(key)
        if name is None:
            base = getattr(process, "name", None) or "proc"
            count = self._name_counts.get(base, 0)
            self._name_counts[base] = count + 1
            name = base if count == 0 else f"{base}~{count}"
            self._actor_names[key] = name
            self._clocks[name] = fresh(name)
            if self._env is None:
                env = getattr(process, "env", None)
                if env is not None:
                    self._env = env
        return name

    def _publish(self) -> Clock:
        """Snapshot the ambient clock; tick the owning actor afterwards."""
        clock = self._ambient
        snapshot = dict(clock)
        actor = self._ambient_actor
        if actor is not None:
            clock[actor] = clock.get(actor, 0) + 1
        return snapshot

    def _acquire_settle(self, block: "DataBlock") -> None:
        """Observing a block's placement acquires the mover's last settle."""
        settled = self._settle_clock.get(block.bid)
        if settled:
            join(self._ambient, settled)

    def _now(self) -> float | None:
        return self._env.now if self._env is not None else None

    def _ambient_task(self) -> _t.Any:
        actor = self._ambient_actor
        return self._current_task.get(actor) if actor is not None else None

    def _task_label(self) -> str:
        task = self._ambient_task()
        if task is None:
            return ""
        target = getattr(task.message.target, "label", "?")
        return f"task #{task.tid} {target}.{task.message.entry.name}"

    def _stack(self) -> str:
        if not self.stacks:
            return ""
        kept: list[str] = []
        for frame in traceback.extract_stack():
            filename = frame.filename.replace(os.sep, "/")
            if ("/repro/race/" in filename or "/repro/lint/" in filename
                    or filename.endswith("/repro/hooks.py")):
                continue
            kept.append(f"{os.path.basename(filename)}:{frame.lineno} "
                        f"in {frame.name}")
        return " <- ".join(reversed(kept[-3:]))

    def _record(self, block: "DataBlock", op: str, *,
                is_write: bool) -> None:
        self.accesses_observed += 1
        actor = self._ambient_actor or "<event>"
        clock = self._ambient
        access = RaceAccess(
            op=op, actor=actor, own=clock.get(actor, 0), clock=dict(clock),
            time=self._now(), task=self._task_label(), stack=self._stack())
        bid = block.bid
        last_write = self._last_write.get(bid)
        if last_write is not None:
            self._check(block, last_write, access)
        if is_write:
            for read in self._reads.get(bid, {}).values():
                self._check(block, read, access)
            self._last_write[bid] = access
            self._reads[bid] = {}
        else:
            self._reads.setdefault(bid, {})[actor] = access

    def _check(self, block: "DataBlock", earlier: RaceAccess,
               current: RaceAccess) -> None:
        if earlier.actor == current.actor:
            return  # program order within one actor
        if happened_before(earlier.actor, earlier.own, current.clock):
            return
        key = (block.bid, earlier.actor, earlier.op,
               current.actor, current.op)
        if key in self._seen:
            return
        self._seen.add(key)
        if len(self.findings) >= MAX_FINDINGS:
            self.suppressed += 1
            return
        message = (f"unordered {earlier.op} by {earlier.actor} and "
                   f"{current.op} by {current.actor} — no happens-before "
                   f"path between them")
        self.findings.append(RaceFinding(
            rule="RACE301", message=message, block=block.name,
            at=self._now(), first=earlier, second=current))

    def _report_writeonly(self, block: "DataBlock", task: _t.Any) -> None:
        tid = task.tid if task is not None else -1
        key = ("RACE302", block.bid, tid)
        if key in self._seen:
            return
        self._seen.add(key)
        if len(self.findings) >= MAX_FINDINGS:
            self.suppressed += 1
            return
        label = self._task_label() or "an undeclared task"
        message = (f"kernel reads block {block.name!r}, which {label} "
                   f"declared writeonly")
        self.findings.append(RaceFinding(
            rule="RACE302", message=message, block=block.name,
            at=self._now()))
