"""Pinned event order: every schedule, cancel and dispatch of a run.

The fluid model's flush, wake and ``flow.done`` events are interleaved
with the rest of a run's events by the order they are scheduled and
cancelled in.  A recorder on the ``on_scheduled`` / ``on_descheduled``
/ ``on_processing`` probe points logs ``(kind, now, name)`` for each of
them, and each log's sha256 is pinned here.  A change to how the fluid
model builds or arms its events that keeps the final tables but moves
one schedule or cancel changes a digest.

The runs are one small out-of-core matmul per prefetch strategy and a
burst of 64 block moves (plus a few weighted, capped and cancelled
flows) on one KNL node.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import hooks
from repro.exec.apps import APPS, build
from repro.machine.knl import build_knl
from repro.sim.environment import Environment
from repro.units import GiB, MiB
from tests.fluid_oracle import cancel_flow


class EventLog:
    """Logs ``(kind, now, name)`` for every queue operation of ``env``."""

    def __init__(self, env: Environment):
        self.env = env
        self.entries: list[tuple[str, float, str]] = []

    def on_scheduled(self, event) -> None:
        self.entries.append(("s", self.env.now, event.name))

    def on_descheduled(self, event) -> None:
        self.entries.append(("d", self.env.now, event.name))

    def on_processing(self, event) -> None:
        self.entries.append(("p", self.env.now, event.name))

    def digest(self) -> str:
        text = "\n".join(f"{kind} {now!r} {name}"
                         for kind, now, name in self.entries)
        return hashlib.sha256(text.encode()).hexdigest()


def _recorded(env: Environment, run) -> EventLog:
    log = EventLog(env)
    hooks.subscribe(log)
    try:
        run()
        env.run()
    finally:
        hooks.unsubscribe(log)
    return log


def _matmul_log(strategy: str) -> EventLog:
    env = Environment()
    params = dict(strategy=strategy, cores=8, mcdram=64 * MiB, ddr=GiB,
                  working_set=48 * MiB, block_dim=64)
    entry = APPS["matmul"]
    built = build(params, env)
    return _recorded(
        env, lambda: entry.cls(built, entry.config(params)).run())


def _burst_log() -> EventLog:
    env = Environment()
    node = build_knl(env, mcdram_capacity=256 * MiB, ddr_capacity=GiB)
    net = node.network
    moves = []
    for i in range(64):
        src, dst = ((node.ddr, node.hbm) if i % 2 == 0
                    else (node.hbm, node.ddr))
        block = node.registry.declare(f"burst{i}", (i % 7 + 1) * MiB)
        node.topology.place_block(block, src)
        moves.append((i, block, dst))

    def mover(i, block, dst):
        yield env.timeout((i % 4) * 1e-5)
        yield from node.mover.move(block, dst)

    def side_traffic():
        hbm, ddr = node.hbm.read_link, node.ddr.read_link
        doomed = [net.start_flow(4 * MiB, [hbm], weight=2.0),
                  net.start_flow(2 * MiB, [ddr, hbm], max_rate=5e9)]
        net.start_flow(3 * MiB, [hbm.name, ddr.name], max_rate=5e9)
        yield env.timeout(2e-5)
        for flow in doomed:
            cancel_flow(net, flow)
        yield env.timeout(1e-5)
        net.start_flow(MiB, [hbm], weight=2.0)

    def start():
        for i, block, dst in moves:
            env.process(mover(i, block, dst), name=f"mv{i}")
        env.process(side_traffic(), name="side")

    return _recorded(env, start)


#: run -> sha256 of its event log
PINNED = {
    "matmul-single-io":
        "2151babf5e71fc2387ff35ad13b4950bb39e7db0e426eece7cf345dd1e30a36f",
    "matmul-no-io":
        "9089a5708aa905277a37ccdfca1de1184f7b5b4eba78e8ea506e2c516ba10d1f",
    "matmul-multi-io":
        "c9002f409bea0216825cb8103ddf21305c382182bc4ebef9bf957241aebed7a3",
    "burst-64":
        "e93b4e2747ba58f98dde5cd1fc6462505317736db2f618e07d1139b214ccd4c2",
}


@pytest.mark.parametrize("run", sorted(PINNED))
def test_event_order_is_pinned(run):
    if run.startswith("matmul-"):
        log = _matmul_log(run.removeprefix("matmul-"))
    else:
        log = _burst_log()
    assert len(log.entries) > 1000
    assert log.digest() == PINNED[run]
