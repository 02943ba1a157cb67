"""The runtime façade: machine + PEs + messaging + interception wiring."""

from __future__ import annotations

import typing as _t

from repro import hooks as _probe
from repro.errors import ChareError, RuntimeModelError
from repro.machine.node import MachineNode
from repro.runtime.chare import Chare, ChareArray, NodeGroup
from repro.runtime.converse import converse_scheduler
from repro.runtime.interception import Interceptor
from repro.runtime.loadbalance import round_robin_map
from repro.runtime.message import Message
from repro.runtime.pe import PE
from repro.runtime.reduction import Reducer
from repro.sim.events import Event

__all__ = ["CharmRuntime", "MESSAGE_LATENCY"]

Index = tuple[int, ...]

#: fixed per-message delivery latency (intra-node), in seconds
MESSAGE_LATENCY = 2e-6


class CharmRuntime:
    """One simulated Charm++ runtime instance on one machine node.

    Construction starts one converse scheduler process per PE (one PE
    per core); applications then create chare arrays, send messages, and
    drive the simulation with :meth:`run_until`.
    """

    def __init__(self, machine: MachineNode):
        self.machine = machine
        self.env = machine.env
        self.pes: list[PE] = [PE(self.env, i, core)
                              for i, core in enumerate(machine.cores)]
        #: the OOC manager, installed by :meth:`install_interceptor`
        self.interceptor: Interceptor | None = None
        self.messages_sent = 0
        for pe in self.pes:
            pe.scheduler_process = self.env.process(
                converse_scheduler(self, pe), name=f"converse-pe{pe.id}")

    # -- interception -----------------------------------------------------------

    def install_interceptor(self, interceptor: Interceptor) -> None:
        """Install the OOC manager (must happen before messages flow)."""
        if self.interceptor is not None:
            raise RuntimeModelError("an interceptor is already installed")
        self.interceptor = interceptor

    # -- chare management ---------------------------------------------------------

    def create_array(self, cls: type[Chare],
                     indices: _t.Sequence[Index] | int, *,
                     pe_map: _t.Mapping[Index, int] | None = None,
                     name: str = "") -> ChareArray:
        """Create a chare array over ``indices`` (int = 1-D range).

        The runtime keeps no reference to the array, and its chares hold
        it weakly: the caller keeps it alive for as long as it runs.
        """
        if isinstance(indices, int):
            index_list: list[Index] = [(i,) for i in range(indices)]
        else:
            index_list = [tuple(i) if not isinstance(i, tuple) else i
                          for i in indices]
        if not index_list:
            raise ChareError("a chare array needs at least one element")
        if pe_map is None:
            pe_map = round_robin_map(index_list, len(self.pes))
        return ChareArray(self, cls, index_list, pe_map, name=name)

    def create_node_group(self, cls: type[NodeGroup] = NodeGroup,
                          *args: _t.Any, **kwargs: _t.Any) -> NodeGroup:
        """Create a node group (one instance: we simulate one node)."""
        group = cls(*args, **kwargs)
        group._bind(self, (0,), 0, None)
        return group

    # -- messaging ------------------------------------------------------------------

    def send(self, target: Chare, entry_name: str, *args: _t.Any,
             nbytes: int = 0, **kwargs: _t.Any) -> Message:
        """Asynchronously invoke ``target.entry_name(*args)``.

        The message lands on the target's PE run queue after
        :data:`MESSAGE_LATENCY`; interception and execution happen in the
        converse loop.
        """
        if target.runtime is not self:
            raise ChareError(f"{target!r} does not belong to this runtime")
        spec = (target._entry_specs.get(entry_name)
                or target.entry_spec(entry_name))  # raises the ChareError
        msg = Message(target, spec, args, kwargs, nbytes)
        self.messages_sent += 1
        if _probe.on_send is not None:
            _probe.on_send(msg)
        # the timeout carries the message; its callback is the put
        self.env.timeout(MESSAGE_LATENCY, msg)._cb0 = \
            self.pes[target.pe_id].run_queue.put_event
        return msg

    def reducer(self, expected: int, *,
                combiner: _t.Callable[[list], _t.Any] | None = None,
                name: str = "reduction") -> Reducer:
        return Reducer(self.env, expected, combiner=combiner, name=name)

    # -- driving ------------------------------------------------------------------

    def run_until(self, event: Event) -> _t.Any:
        """Advance the simulation until ``event`` fires; returns its value."""
        return self.env.run(until=event)

    def __repr__(self) -> str:
        return f"<CharmRuntime pes={len(self.pes)} sent={self.messages_sent}>"
