#!/usr/bin/env python
"""STREAM bandwidth on the simulated KNL (paper Figure 1).

Measures copy/scale/add/triad on both memory nodes two ways:

1. bare-machine (:func:`repro.machine.stream.run_stream`) — the paper's
   standalone STREAM run;
2. through the full annotated runtime (:class:`repro.apps.StreamApp`) —
   showing the ``[prefetch]`` API on the simplest workload.
"""

from repro import OOCRuntimeBuilder, StreamApp, StreamAppConfig, build_knl
from repro.machine.stream import STREAM_KERNELS, run_stream
from repro.sim.environment import Environment
from repro.units import GiB, MiB, format_bandwidth


def bare_machine():
    print("bare machine (64 threads):")
    node = build_knl(Environment())
    ratios = []
    for kernel in STREAM_KERNELS:
        row = {}
        for device in ("ddr4", "mcdram"):
            result = run_stream(node, device, kernel=kernel, threads=64)
            row[device] = result.bandwidth
        ratios.append(row["mcdram"] / row["ddr4"])
        print(f"  {kernel:6s} ddr4={format_bandwidth(row['ddr4']):>10s} "
              f"mcdram={format_bandwidth(row['mcdram']):>10s} "
              f"ratio={row['mcdram'] / row['ddr4']:.2f}x")
    print(f"  -> MCDRAM over DDR4: {min(ratios):.2f}-{max(ratios):.2f}x "
          "(paper: 'over 4X')")


def through_runtime():
    print("\nthrough the annotated runtime (StreamApp, 64 chares):")
    for placement in ("ddr-only", "hbm-only"):
        built = OOCRuntimeBuilder(placement, cores=64,
                                  mcdram_capacity=16 * GiB,
                                  ddr_capacity=96 * GiB).build()
        cfg = StreamAppConfig(kernel="triad", array_bytes=64 * MiB,
                              chares=64, repeats=3)
        result = StreamApp(built, cfg).run()
        print(f"  triad on {placement:9s}: "
              f"{format_bandwidth(result.bandwidth)}")


if __name__ == "__main__":
    bare_machine()
    through_runtime()
