"""Bandwidth-sensitive HPC application kernels (the paper's evaluation apps).

* :mod:`repro.apps.stencil3d` — 7-point Stencil3D over a 3-D chare grid
  (paper §V-A, Algorithm 2);
* :mod:`repro.apps.matmul` — blocked matrix multiplication with node-level
  sharing of the read-only A/B panels (paper §V-B);
* :mod:`repro.apps.stream_app` — STREAM as a chare application;
* :mod:`repro.apps.jacobi2d` — a 5-point Jacobi solver (extra example;
  its numpy residual mirror keeps it off the figure paths, so it loads
  on first use of ``Jacobi2D`` or ``JacobiConfig``);
* :mod:`repro.apps.spmv` — iterated sparse matrix-vector product with
  cross-iteration block reuse (extra example).
"""

from repro.apps.stencil3d import Stencil3D, StencilConfig, StencilResult
from repro.apps.matmul import MatMul, MatMulConfig, MatMulResult
from repro.apps.stream_app import StreamApp, StreamAppConfig
from repro.apps.spmv import SpMV, SpMVConfig, SpMVResult

__all__ = [
    "Stencil3D", "StencilConfig", "StencilResult",
    "MatMul", "MatMulConfig", "MatMulResult",
    "StreamApp", "StreamAppConfig",
    "Jacobi2D", "JacobiConfig",
    "SpMV", "SpMVConfig", "SpMVResult",
]


def __getattr__(name: str):
    # PEP 562: importing jacobi2d imports numpy, which no figure run needs
    if name in ("Jacobi2D", "JacobiConfig"):
        from repro.apps import jacobi2d

        return getattr(jacobi2d, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
