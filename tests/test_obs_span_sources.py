"""Where a span's send edge comes from: the sender, stamped at ``send``.

A message's causal source is the execute span open on the process that
sent it (``env.active_process``); driver code, which runs with no
process active, sends on behalf of the span that made the completing
contribution of the latest reduction.  DESIGN.md §12 states the rules.
"""

from repro.machine.knl import build_knl
from repro.obs import SpanTracer
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.runtime.runtime import CharmRuntime
from repro.sim.environment import Environment
from repro.trace.events import TraceCategory
from repro.units import GiB


def make_runtime(cores=2):
    node = build_knl(Environment(), cores=cores, mcdram_capacity=GiB,
                     ddr_capacity=4 * GiB)
    return CharmRuntime(node)


class Relay(Chare):
    @entry
    def ping(self, reducer):
        self.array.send(1, "pong", reducer)

    @entry
    def pong(self, reducer):
        reducer.contribute()

    @entry
    def slow(self, reducer):
        yield self.runtime.env.timeout(1.0)
        reducer.contribute("slow")

    @entry
    def fast(self, reducer):
        reducer.contribute("fast")

    @entry
    def setup(self):
        pass


def executes(tracer, entry_name):
    return [span for span in tracer.spans
            if span.category is TraceCategory.EXECUTE
            and span.label.endswith(f".{entry_name}")]


def test_send_to_a_parked_receiver_keeps_its_edge():
    # pe1 has nothing to do until the pong arrives: its scheduler is
    # parked in run_queue.get(), so the message is handed straight to
    # the getter instead of being buffered
    rt = make_runtime()
    relay = rt.create_array(Relay, 2)
    assert [chare.pe_id for chare in relay] == [0, 1]
    tracer = SpanTracer(rt.env).install()
    try:
        done = rt.reducer(1)
        relay.send(0, "ping", done)
        rt.run_until(done.done)
    finally:
        tracer.uninstall()
    (ping,) = executes(tracer, "ping")
    (pong,) = executes(tracer, "pong")
    assert (ping.lane, pong.lane) == ("pe0", "pe1")
    assert ping.sid in pong.causes
    assert pong.parent == ping.sid


def test_driver_sends_parent_on_the_completing_contributor():
    # pe0's generator entry yields; meanwhile pe1 runs an entry and
    # contributes first; only then does pe0's entry make the last
    # contribution.  The driver's next broadcast is caused by that
    # generator entry, not by whichever PE ran an entry last.
    rt = make_runtime()
    chares = rt.create_array(Relay, 2)
    tracer = SpanTracer(rt.env).install()
    try:
        reduction = rt.reducer(2)
        chares.send(0, "slow", reduction)
        chares.send(1, "fast", reduction)
        assert rt.run_until(reduction.done) == ["fast", "slow"]
        chares.broadcast("setup")
        rt.env.run()
    finally:
        tracer.uninstall()
    (slow,) = executes(tracer, "slow")
    (fast,) = executes(tracer, "fast")
    assert fast.end < slow.end
    setups = executes(tracer, "setup")
    assert [span.lane for span in setups] == ["pe0", "pe1"]
    for span in setups:
        assert span.causes == (slow.sid,)
        assert span.parent == slow.sid


def test_sends_before_any_reduction_are_roots():
    rt = make_runtime()
    chares = rt.create_array(Relay, 2)
    tracer = SpanTracer(rt.env).install()
    try:
        chares.broadcast("setup")
        rt.env.run()
    finally:
        tracer.uninstall()
    setups = executes(tracer, "setup")
    assert len(setups) == 2
    assert all(span.causes == () and span.parent is None
               for span in setups)
