"""The app catalogue: how one params mapping becomes one app run.

A run's params hold the machine (``strategy``, ``cores``, ``mcdram``,
``ddr``) and the app's shape, keyed as the figure-plan specs key them
(``total``/``block``/``iterations`` for Stencil3D, ``seed`` for the SpMV
sparsity pattern, ...).  The spec executors, the schedule explorer's
:func:`~repro.race.explorer.app_runner` and the CLI app commands all
build their runs through :data:`APPS` and :func:`build`, so the rule
shape → config is written once, here.

The table lives outside :mod:`repro.apps` on purpose: the guided
strategies run bwlint over that package's source at placement time.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.apps.matmul import MatMul, MatMulConfig
from repro.apps.spmv import SpMV, SpMVConfig
from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.apps.stream_app import StreamApp, StreamAppConfig
from repro.core.api import BuiltRuntime, OOCRuntimeBuilder

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

__all__ = ["Field", "App", "APPS", "build"]

Params = _t.Mapping[str, _t.Any]


class Field(_t.NamedTuple):
    """One shape parameter: its params key and its CLI flag."""

    key: str
    flag: str
    #: a byte size (``"4MiB"`` on the command line) rather than a count
    size: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        """The argparse attribute the flag parses into."""
        return self.flag[2:].replace("-", "_")


@dataclasses.dataclass(frozen=True)
class App:
    """One catalogue entry: app class, shape → config, result fields."""

    cls: type
    config: _t.Callable[[Params], _t.Any]
    shape: tuple[Field, ...]
    #: result-dict key -> attribute of the app's result object
    outputs: _t.Mapping[str, str]

    def result(self, result: _t.Any) -> dict[str, _t.Any]:
        """The JSON-able result dict of one finished run."""
        return {key: getattr(result, attr)
                for key, attr in self.outputs.items()}


APPS: dict[str, App] = {
    "stencil": App(
        Stencil3D,
        lambda p: StencilConfig(total_bytes=int(p["total"]),
                                block_bytes=int(p["block"]),
                                iterations=int(p["iterations"])),
        (Field("total", "--total", size=True),
         Field("block", "--block", size=True),
         Field("iterations", "--iterations")),
        {"total_time": "total_time",
         "mean_iteration_time": "mean_iteration_time",
         "mean_kernel_time": "mean_kernel_time"}),
    "matmul": App(
        MatMul,
        lambda p: MatMulConfig.for_working_set(
            int(p["working_set"]), block_dim=int(p["block_dim"])),
        (Field("working_set", "--working-set", size=True),
         Field("block_dim", "--block-dim")),
        {"total_time": "total_time", "mean_kernel_time": "mean_kernel_time"}),
    "spmv": App(
        SpMV,
        lambda p: SpMVConfig(block_rows=int(p["block_rows"]),
                             block_bytes=int(p["block_bytes"]),
                             vector_bytes=int(p["vector_bytes"]),
                             couplings=int(p["couplings"]),
                             iterations=int(p["iterations"]),
                             seed=int(p["seed"])),
        (Field("block_rows", "--block-rows"),
         Field("block_bytes", "--block-bytes", size=True),
         Field("vector_bytes", "--vector-bytes", size=True),
         Field("couplings", "--couplings"),
         Field("iterations", "--iterations"),
         Field("seed", "--matrix-seed",
               help="sparsity-pattern seed (column couplings)")),
        {"total_time": "total_time",
         "mean_iteration_time": "mean_iteration_time"}),
    "stream": App(
        StreamApp,
        lambda p: StreamAppConfig(kernel=p.get("kernel", "triad"),
                                  array_bytes=int(p["array_bytes"]),
                                  chares=int(p["chares"]),
                                  repeats=int(p["repeats"])),
        (Field("array_bytes", "--array", size=True),
         Field("chares", "--chares"), Field("repeats", "--repeats")),
        {"total_time": "elapsed_best", "bandwidth": "bandwidth"}),
}


def build(params: Params, env: "Environment") -> BuiltRuntime:
    """Build the machine, runtime and OOC manager of one run into ``env``.

    ``params["strategy"]`` is a registry name, as in every run spec.
    """
    return OOCRuntimeBuilder(
        params["strategy"], cores=int(params["cores"]),
        mcdram_capacity=int(params["mcdram"]),
        ddr_capacity=int(params["ddr"])).build_into(env)
