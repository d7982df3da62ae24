"""Seeded benchmark of the HERMES stack: one command per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload eco_small --seed 1 \\
        --seconds 35 --trace 0

Every run executes all user paths of the stack (see ``session.py``): a
cold 10k-cell flow, ECO edits on it, a Zipf request stream on the job
service, and boot + SEU campaigns on the simulated SoC.  The two
workloads differ in ECO edit size.  All inputs derive from ``--seed``;
any seed works, so a claim can be re-checked on a held-out seed.

Output: one JSON line with the seeds, host, tail percentiles, ratio
bases and per-span self times, then, as the last line, the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer metrics; the traced
run also writes its spans to ``.bench_out/``.  The exit code is 1 when
an output check failed, 2 when the program is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (untraced run) and their units.
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "cold_flow_s": "s", "hpwl": "grid", "routed_wirelength": "tracks",
    "eco_edit_p50_s": "s", "eco_hpwl_ratio": "ratio",
    "svc_rps": "1/s", "svc_p50_s": "s",
    "sim_mcycles_per_s": "Mcycles/s", "seu_runs_per_s": "1/s",
    "mega_runs_per_s": "1/s",
}

#: Service cache layers whose hit/miss/store counts are reported.
CACHE_LAYERS = ("fabric", "hls", "service")

#: Per-layer metrics (traced run) and their units.
PER_LAYER = {
    "fabric.synth.s": "s", "fabric.place.s": "s", "place.moves": "count",
    "place.accept_ratio": "ratio", "place.rescans_per_move": "ratio",
    "place.window_fallbacks": "count",
    "fabric.route.s": "s", "route.expanded_nodes": "count",
    "route.ripped_connections": "count", "route.overflow_edges": "count",
    "fabric.sta.s": "s", "fabric.bitstream.s": "s",
    "eco.base.s": "s", "eco.delta_apply.s": "s", "eco.edit.s": "s",
    "eco.cells_annealed": "count", "eco.cells_moved": "count",
    "eco.moved_ratio": "ratio", "eco.nets_ripped": "count",
    "eco.sta_cone_size": "count",
    "svc.submit.s": "s", "svc.report.s": "s", "svc.warm.s": "s",
    "svc.coalesced.s": "s", "svc.computed.s": "s",
    "svc.hit_ratio": "ratio", "svc.computed": "count",
    "svc.rejected": "count",
    "api.submit.hls.s": "s", "api.submit.flow.s": "s",
    "api.submit.seu.s": "s",
    "hls.frontend.s": "s", "hls.middleend.s": "s",
    **{f"cache.{layer}.{event}": "count" for layer in CACHE_LAYERS
       for event in ("hits", "misses", "stores")},
    "sim.boot_guest.s": "s", "sim.guest_cycles": "count",
    "dbt.blocks.compiled": "count", "dbt.blocks.hits": "count",
    "dbt.hit_ratio": "ratio", "dbt.blocks.invalidations": "count",
    "hv.svc_traps": "count",
    "seu.campaign.s": "s", "seu.run_p50_s": "s", "mega.s": "s",
    "mega.shards": "count", "mega.parallel_efficiency": "ratio",
    "trace.spans": "count", "trace.overhead_s": "s",
}

#: Per-layer times that are the median over one span name's instances
#: (one per set-up, cold flow, edit or request).
PER_INSTANCE = ("fabric.synth", "fabric.place", "fabric.route",
                "fabric.sta", "fabric.bitstream", "eco.base",
                "eco.delta_apply", "eco.edit", "svc.submit", "svc.report")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_metrics(session, tracer):
    """Per-layer values: span-derived times plus the session's counts."""
    values = dict(session.layer)
    for name in PER_INSTANCE:
        values[f"{name}.s"] = statistics.median(tracer.totals(name))
    values["trace.spans"] = len(tracer.spans)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from harness import Tracer, host_info, self_times, span_cost_s
    from session import Session

    tracer = Tracer(enabled=bool(args.trace))
    session = Session(workload=args.workload, seed=args.seed,
                      seconds=args.seconds, tracer=tracer)
    session.run()

    info = {"workload": args.workload, "seed": args.seed,
            "seeds": session.seeds, "host": host_info(ROOT),
            "details": session.info,
            "ratios": {name: ratio.to_json()
                       for name, ratio in session.ratios.items()},
            "failures": session.checks.failures}
    if args.trace:
        values = layer_metrics(session, tracer)
        values["trace.overhead_s"] = len(tracer.spans) * span_cost_s()
        info["self_s"] = self_times(tracer.spans)
        wanted = PER_LAYER
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(
            {"info": info, "spans": [s.to_json() for s in tracer.spans]}))
    else:
        values = session.metrics
        wanted = END_TO_END
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    print(json.dumps(info, sort_keys=True))
    checks = session.checks
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
