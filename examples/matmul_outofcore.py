#!/usr/bin/env python
"""Out-of-core blocked MatMul across strategies (paper §V-B, Figure 9).

Sweeps the total working set (A+B+C) the way the paper does — the Naive
baseline degrades as more of the read-only panels spill to DDR4, while the
prefetch strategies keep serving kernels from HBM.  Also demonstrates the
reference-counting reuse effect: shared panels are fetched far fewer times
than they are used.
"""

from repro import MatMul, MatMulConfig, OOCRuntimeBuilder
from repro.units import GiB, format_size, format_time

SCALE = 32  # 1/32 of the paper's capacities; ratios preserved
MCDRAM = 16 * GiB // SCALE
DDR = 96 * GiB // SCALE

STRATEGIES = ["naive", "ddr-only", "single-io", "no-io", "multi-io"]


def run(strategy, total_ws):
    built = OOCRuntimeBuilder(
        strategy, cores=64, mcdram_capacity=MCDRAM, ddr_capacity=DDR).build()
    cfg = MatMulConfig.for_working_set(total_ws, block_dim=96)
    app = MatMul(built, cfg)
    result = app.run()
    return built, app, cfg, result


def main():
    for ws_gb in (24, 36, 54):
        total_ws = ws_gb * GiB // SCALE
        print(f"\n=== total working set {ws_gb} GB (scaled to "
              f"{format_size(total_ws)}) ===")
        times = {}
        for strategy in STRATEGIES:
            built, app, cfg, result = run(strategy, total_ws)
            times[strategy] = result.total_time
            print(f"{strategy:10s} total={format_time(result.total_time):>10s} "
                  f"kernel/task={format_time(result.mean_kernel_time):>9s} "
                  f"moved={format_size(built.strategy.bytes_fetched):>10s}")
        base = times["naive"]
        print("speedup vs Naive (paper Figure 9):")
        for strategy in STRATEGIES:
            print(f"  {strategy:10s} {base / times[strategy]:5.2f}")

    # The reuse effect behind Figure 9's "single IO thread performs as
    # well": read-only panels are used by `grid` tasks but fetched rarely.
    built, app, cfg, _ = run("single-io", 24 * GiB // SCALE)
    panel = app.panels.panel("A", 0)
    uses = cfg.grid
    moves = panel.bytes_moved / panel.nbytes
    print(f"\npanel A_0: used by {uses} tasks, moved {moves:.0f} times "
          "(fetch+evict) — refcount-gated reuse in action")


if __name__ == "__main__":
    main()
