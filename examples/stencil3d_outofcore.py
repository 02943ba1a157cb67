#!/usr/bin/env python
"""Out-of-core Stencil3D across all scheduling strategies (paper §V-A).

Runs the Figure-8 scenario at 1/16 of the paper's sizes (the shape is
scale-invariant): a 2 GiB grid against a 1 GiB HBM, 20 iterations,
comparing the Naive baseline against DDR4-only and the three prefetch
strategies, then prints a Projections-style timeline for the winner and
the laggard (the paper's Figure 5 comparison).
"""

from repro import OOCRuntimeBuilder, Stencil3D, StencilConfig
from repro.trace import Tracer
from repro.trace.projections import build_report
from repro.trace.render import render_usage_bars
from repro.units import GiB, MiB, format_time

MCDRAM = 1 * GiB          # 16 GiB / 16
DDR = 6 * GiB             # 96 GiB / 16
TOTAL = 2 * GiB           # 32 GiB / 16
BLOCK = 4 * MiB           # 64 MiB / 16  (reduced WS = 4 GiB / 16)
ITERATIONS = 20

STRATEGIES = ["naive", "ddr-only", "single-io", "no-io", "multi-io"]


def run(strategy, trace=False):
    """One run; with ``trace``, also the Projections tracer that saw it."""
    built = OOCRuntimeBuilder(
        strategy, cores=64, mcdram_capacity=MCDRAM, ddr_capacity=DDR).build()
    cfg = StencilConfig(total_bytes=TOTAL, block_bytes=BLOCK,
                        iterations=ITERATIONS)
    # subscribe the tracer for this run only; the finally keeps it from
    # seeing any later run
    tracer = Tracer(built.env).install() if trace else None
    try:
        result = Stencil3D(built, cfg).run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return built, result, tracer


def main():
    print(f"Stencil3D: {TOTAL // GiB} GiB grid, "
          f"{BLOCK // MiB} MiB blocks, {ITERATIONS} iterations\n")
    times = {}
    for strategy in STRATEGIES:
        built, result, _ = run(strategy)
        times[strategy] = result.total_time
        print(f"{strategy:10s} total={format_time(result.total_time):>10s} "
              f"kernel/task={format_time(result.mean_kernel_time):>10s} "
              f"fetches={built.strategy.fetches:5d} "
              f"evictions={built.strategy.evictions:5d}")

    base = times["naive"]
    print("\nspeedup vs Naive (paper Figure 8):")
    for strategy in STRATEGIES:
        bar = "#" * int(20 * base / times[strategy])
        print(f"  {strategy:10s} {base / times[strategy]:5.2f}  {bar}")

    print("\nProjections comparison (paper Figure 5): single vs multi IO")
    for strategy in ("single-io", "multi-io"):
        _, _, tracer = run(strategy, trace=True)
        report = build_report(tracer)
        print(f"\n[{strategy}] mean worker utilization "
              f"{report.mean_utilization():.1%}, wait fraction "
              f"{report.mean_wait_fraction():.1%}")
        bars = render_usage_bars(report, width=40).splitlines()
        # show the window line and the first four worker lanes
        wanted = ("window", "pe0 ", "pe1 ", "pe2 ", "pe3 ")
        print("\n".join(line for line in bars if line.startswith(wanted)))


if __name__ == "__main__":
    main()
