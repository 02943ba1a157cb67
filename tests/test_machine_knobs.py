"""Every machine knob reaches the model.

A node is built from a :class:`MachineConfig` whose fields, and whose
devices' fields, all hold values distinct from the KNL defaults and from
each other.  Each value must then show up in the built run: a config
field that changes nothing fails here.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import DeviceConfig, MachineConfig
from repro.core.api import OOCRuntimeBuilder
from repro.machine.knl import build_machine
from repro.machine.stream import run_stream
from repro.sim.environment import Environment
from repro.units import GiB, MiB

SLOW = DeviceConfig(name="slow", numa_node=0, capacity=3 * GiB,
                    read_bandwidth=7e9, write_bandwidth=5e9, latency=2e-6)
FAST = DeviceConfig(name="fast", numa_node=1, capacity=GiB,
                    read_bandwidth=40e9, write_bandwidth=30e9, latency=3e-7)
CONFIG = MachineConfig(name="knobs", cores=3, core_flops=2e9,
                       core_mem_bandwidth=4e9, copy_bandwidth=1.5e9,
                       devices=(SLOW, FAST))


@pytest.fixture
def node():
    return build_machine(Environment(), CONFIG)


def _run(node, generator):
    return node.env.run(until=node.env.process(generator))


def test_every_field_is_covered():
    """The checks below name every field; a new field needs a check."""
    assert {f.name for f in dataclasses.fields(MachineConfig)} == {
        "name", "cores", "core_flops", "core_mem_bandwidth",
        "copy_bandwidth", "devices"}
    assert {f.name for f in dataclasses.fields(DeviceConfig)} == {
        "name", "numa_node", "capacity", "read_bandwidth",
        "write_bandwidth", "latency"}


def test_name(node):
    assert "knobs" in repr(node)


def test_cores_set_the_pe_count():
    built = OOCRuntimeBuilder("multi-io", machine_config=CONFIG).build()
    assert len(built.runtime.pes) == 3
    assert run_stream(built.machine, "fast", array_bytes=MiB).threads == 3


def test_core_flops_set_a_compute_bound_kernel(node):
    assert _run(node, node.run_kernel(6e9, {})) == pytest.approx(3.0)


def test_core_mem_bandwidth_caps_a_lone_kernel(node):
    # the fast device's 40 GB/s read port would take 0.2 s
    fast = node.topology.device("fast")
    duration = _run(node, node.run_kernel(0.0, {fast: (8e9, 0.0)}))
    assert duration == pytest.approx(8e9 / 4e9)


def test_copy_bandwidth_caps_a_move(node):
    assert node.mover.per_thread_copy_bw == 1.5e9
    slow, fast = node.topology.device("slow"), node.topology.device("fast")
    block = node.registry.declare("b", 300 * MiB)
    node.topology.place_block(block, slow)
    duration = _run(node, _timed(node, node.mover.move(block, fast)))
    overhead = (fast.allocator.alloc_cost(block.nbytes) + 2e-6 + 3e-7
                + slow.allocator.free_cost(block.nbytes))
    # 7 GB/s read and 30 GB/s write ports leave the copy cap in charge
    assert duration == pytest.approx(overhead + block.nbytes / 1.5e9)


def _timed(node, generator):
    started = node.env.now
    yield from generator
    return node.env.now - started


@pytest.mark.parametrize("cfg", [SLOW, FAST], ids=["slow", "fast"])
def test_device_fields(node, cfg):
    device = node.topology.node(cfg.numa_node)
    assert device is node.topology.device(cfg.name)
    assert device.capacity == device.allocator.capacity == cfg.capacity
    assert device.latency == cfg.latency
    # a lone uncapped flow drains at the port's bandwidth
    for port, link in ((cfg.read_bandwidth, device.read_link),
                       (cfg.write_bandwidth, device.write_link)):
        flow = node.network.start_flow(port, [link])
        started = node.env.now
        node.env.run(until=flow.done)
        assert node.env.now - started == pytest.approx(1.0)
