#!/usr/bin/env python
"""Iterated SpMV: when does memory tiering pay?

Sweeps the matrix size across the HBM boundary and shows the two regimes
the paper's design implies:

* working set fits in HBM  -> after a one-time fetch, every iteration runs
  at HBM speed: large wins over DDR4-only;
* working set >> HBM, one sweep per iteration, no intra-iteration reuse ->
  moving bytes costs as much as computing on them in place: tiering is
  honest about its limits (Naive/DDR4-only are competitive).

This is the boundary HPC practitioners actually need to know about before
adopting a tiering runtime.
"""

from repro import LRUEviction, OOCRuntimeBuilder
from repro.apps.spmv import SpMV, SpMVConfig
from repro.units import GiB, MiB, format_size, format_time

HBM = 256 * MiB
DDR = 4 * GiB


def run(strategy, block_rows, eviction=None):
    built = OOCRuntimeBuilder(strategy, cores=32, mcdram_capacity=HBM,
                              ddr_capacity=DDR, eviction=eviction).build()
    cfg = SpMVConfig(block_rows=block_rows, block_bytes=4 * MiB,
                     iterations=8)
    return SpMV(built, cfg).run()


def main():
    print(f"HBM {format_size(HBM)}, 8 iterations, 4 MiB matrix blocks\n")
    print(f"{'matrix':>10s} {'vs HBM':>7s} {'ddr-only':>12s} "
          f"{'own-blocks':>11s} {'lru':>6s}")
    for block_rows in (16, 48, 64, 128, 256):
        matrix = block_rows * 4 * MiB
        ddr = run("ddr-only", block_rows)
        own = run("multi-io", block_rows)
        lru = run("multi-io", block_rows, eviction=LRUEviction())
        print(f"{format_size(matrix):>10s} {matrix / HBM:>6.1f}x "
              f"{format_time(ddr.total_time):>12s} "
              f"{ddr.total_time / own.total_time:>10.2f}x "
              f"{ddr.total_time / lru.total_time:>5.2f}x")
    print("\nFor iterative workloads that FIT in HBM, the paper's eager "
          "own-blocks\neviction discards blocks between iterations; "
          "demand-only LRU keeps them\nresident and recovers the full "
          "reuse win.  Out of core (>1x), both face\nthe same streaming "
          "floor.")


if __name__ == "__main__":
    main()
