#!/usr/bin/env python
"""Quickstart: annotate a bandwidth-sensitive task and run it out-of-core.

Mirrors the paper's §IV-A example: a chare declares two data blocks
(``CkIOHandle<double> A, B``) and a ``[prefetch]`` entry method

    entry [prefetch] void compute_kernel() [readwrite: A, writeonly: B]

then runs on a KNL-class node whose HBM is too small for the whole working
set, under the "Multiple queues, Multiple IO threads" strategy.
"""

from repro import OOCRuntimeBuilder, Chare, entry
from repro.units import GiB, MiB, format_size, format_time


class Compute(Chare):
    """One over-decomposed work unit."""

    @entry
    def setup(self, nbytes, barrier):
        # CkIOHandle declarations: the runtime tracks these blocks.
        self.A = self.declare_block("A", nbytes)
        self.B = self.declare_block("B", nbytes)
        barrier.contribute()

    @entry(prefetch=True, readwrite=["A"], writeonly=["B"])
    def compute_kernel(self, reducer):
        # The runtime guarantees A and B are in HBM when this body runs.
        duration = yield from self.kernel(
            flops=2e9, reads=[self.A], writes=[self.A, self.B])
        reducer.contribute(duration)


def main():
    # A scaled-down KNL: 1 GiB of HBM, 8 GiB of DDR4, 16 cores.
    built = OOCRuntimeBuilder(
        "multi-io", cores=16,
        mcdram_capacity=1 * GiB, ddr_capacity=8 * GiB).build()
    rt = built.runtime

    # 64 chares x 2 x 32 MiB = 4 GiB total working set >> 1 GiB HBM.
    n_chares, block = 64, 32 * MiB
    workers = rt.create_array(Compute, n_chares)

    barrier = rt.reducer(n_chares)
    workers.broadcast("setup", block, barrier)
    rt.run_until(barrier.done)
    built.manager.finalize_placement()   # everything starts on DDR4

    for iteration in range(3):
        reducer = rt.reducer(n_chares, combiner=sum)
        workers.broadcast("compute_kernel", reducer)
        kernel_time = rt.run_until(reducer.done)
        print(f"iteration {iteration}: simulated wall clock "
              f"{format_time(built.env.now)}, total kernel time "
              f"{format_time(kernel_time)}")

    summary = built.manager.summary()
    print(f"\nstrategy            : {summary['strategy']}")
    print(f"tasks completed     : {summary['tasks_completed']}")
    print(f"blocks fetched      : {summary['fetches']} "
          f"({format_size(summary['bytes_fetched'])})")
    print(f"blocks evicted      : {summary['evictions']} "
          f"({format_size(summary['bytes_evicted'])})")
    print(f"peak HBM in use     : {format_size(summary['hbm_peak_used'])}")


if __name__ == "__main__":
    main()
