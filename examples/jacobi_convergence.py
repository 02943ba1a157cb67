#!/usr/bin/env python
"""Jacobi 2-D: data-dependent termination under the prefetch runtime.

The paper's driver loop is ``while not converged`` (Algorithm 2) even
though its evaluation runs a fixed 20 iterations.  This example closes
that loop: the reduction carries a real residual (computed on a coarse
functional mirror of each block), and the run stops when it crosses the
tolerance — demonstrating that the out-of-core machinery composes with
convergence-driven control flow, not just fixed iteration counts.
"""

from repro import Jacobi2D, JacobiConfig, OOCRuntimeBuilder
from repro.units import GiB, MiB, format_time


def main():
    for strategy in ("hbm-only", "multi-io"):
        built = OOCRuntimeBuilder(
            strategy, cores=16, mcdram_capacity=1 * GiB,
            ddr_capacity=2 * GiB).build()
        cfg = JacobiConfig(chare_grid=6, block_bytes=16 * MiB,
                           tolerance=5e-3, max_iterations=200)
        result = Jacobi2D(built, cfg, seed=1).run()
        marker = "converged" if result.converged else "hit iteration cap"
        print(f"{strategy:9s}: {marker} after {result.iterations_run} "
              f"iterations, residual {result.final_residual:.2e}, "
              f"simulated {format_time(result.total_time)}")
    print("\nresidual trajectory (multi-io):",
          " ".join(f"{r:.3f}" for r in result.residual_history[:8]), "...")


if __name__ == "__main__":
    main()
