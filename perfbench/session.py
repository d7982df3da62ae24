"""One benchmark session: every user path of the HERMES stack.

A session runs, on inputs derived from one workload seed:

1. set-up, repeated :data:`SETUP_REPS` times (the median is ``setup_s``):
   synthesize the 10k-cell design, build the device, the service corpus
   and the guest image;
2. one cold 10k-cell flow, place → route → STA → bitstream, no cache;
3. the ``/v1`` job service is started with a fresh in-memory cache and
   primed: ``nproc`` closed-loop clients each request the whole corpus
   once, so every spec is computed once and the other requests for it
   coalesce or hit;
4. one round per :data:`SECONDS_PER_ROUND` of ``--seconds``, at least
   :data:`MIN_ROUNDS`.  Each round makes distinct ECO edits on the
   implemented design; :data:`BOOTS_PER_ROUND` times replays a slice of
   a seeded Zipf(1.2) request stream on the warm service and boots the
   SoC through BL0 → BL1 → BL2 into an SVC-heavy 4-core guest on the
   DBT simulator; and runs one ECC SEU campaign chunk serially and
   again as a sharded mega-campaign on ``nproc`` jobs;
5. the interpreter boots the same guest once as the DBT oracle.

The host's speed swings by tens of percent within seconds and drifts
for minutes.  So every end-to-end timing is rescaled to a nominal host
speed by a reference loop sampled all through the run
(:class:`harness.HostSpeed`).  Each layer's samples are spread over the
whole run; throughputs are all of a layer's work over its total
rescaled time, latencies percentiles of all samples.  The round count
depends on ``--seconds`` only, never on how fast the rounds ran.  The
info line keeps every end-to-end timing in raw host seconds too, and
per-layer times (traced run) are raw host seconds only.

Every call into the program sits inside a :class:`harness.Tracer` span;
spans are recorded only in a traced run.
"""

from __future__ import annotations

import gc
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from harness import Checks, HostSpeed, Ratio, Tracer, derive_seed, \
    peak_rss_mb, percentiles, tail

from repro.api import JobSpec, submit
from repro.apps import image, sdr, vbn
from repro.boot import BootImage, ImageKind, provision_flash, \
    run_boot_chain
from repro.fabric import NG_ULTRA, EcoFlow, NXmapProject, analyze_timing, \
    random_delta, scaled_device, synthesize_random
from repro.fabric.placement import total_hpwl
from repro.hls import compile_to_ir
from repro.hls.middleend import optimize
from repro.hypervisor import Compute, EndActivation, MemoryArea, \
    SvcBridge, SystemConfig, XtratumHypervisor
from repro.radhard import MegaCampaign, ecc_campaign
from repro.service import JobScheduler, ServiceClient, serve_background, \
    shutdown_server
from repro.soc import CoreState, DDR_BASE, NgUltraSoc, assemble

CELLS = 10_000
DEVICE_LUTS = 64_000
EFFORT = 1.0
CHANNEL_WIDTH = 256
TARGET_CLOCK_NS = 200.0

SETUP_REPS = 9
#: One round per 6 s of ``--seconds``: ``--seconds 35`` gives six rounds
#: of about 4 s and, with the ~19 s cold flow, a run of about 50 s on a
#: 2-vCPU x86 VM.
SECONDS_PER_ROUND = 6.0
#: Four rounds give 8 edits for the ECO median and 600 warm requests,
#: enough for a p95 tail with 30 beyond it; six rounds stay under the
#: 1000 requests at which the tail would move to p99.
MIN_ROUNDS = 4
EDITS_PER_ROUND = 2
REQUESTS_PER_ROUND = 150
#: A DBT boot of the guest takes only ~0.3 s.
BOOTS_PER_ROUND = 2
SEU_RUNS_PER_ROUND = 600
SEU_WORDS = 16

ZIPF_S = 1.2
SERVICE_WORKERS = 2

#: SVC-heavy guest, 1.3x the outer iterations of the stock DBT race
#: (BL2 runs the application for at most 200k steps per core, so this
#: is about as long as it can be): every outer iteration traps
#: XM_GET_TIME, grinds an ALU loop and bounces a value through memory.
#: All cores run the same program, so the final state does not depend
#: on the interleaving.
GUEST_SOURCE = """
    MOVI r10, #16
    MOVI r11, #16
    LSL  r10, r10, r11
    MOVI r11, #16384
    ADD  r10, r10, r11
    MOVI r7, #2600
outer:
    MOVI r0, #1
    SVC  #0
    MOV  r4, r0
    MOVI r1, #10
inner:
    ADD  r2, r2, r4
    EOR  r3, r2, r1
    ADD  r2, r2, r3
    ADDI r1, r1, #-1
    CMP  r1, r12
    BNE  inner
    STR  r2, [r10, #0]
    LDR  r5, [r10, #0]
    ADDI r7, r7, #-1
    CMP  r7, r12
    BNE  outer
    HALT
"""

#: The nine HermesC kernels of ``repro.apps`` as (source, top).
HLS_KERNELS = [
    (image.SOBEL_C, "sobel"), (image.CONV2D_3X3_C, "conv2d"),
    (sdr.FIR_C, "fir8"), (sdr.FFT16_C, "fft16"),
    (vbn.HARRIS16_C, "harris16"), (image.MEDIAN3_C, "median3"),
    (image.THRESHOLD_C, "threshold"), (image.DPCM_ENCODE_C, "dpcm_encode"),
    (sdr.DSSS_CORRELATE_C, "dsss_correlate"),
]

#: Edit size of each workload, as a fraction of the cells.
EDIT_FRACTION = {"eco_small": 0.001, "eco_large": 0.01}


def seeds_for(seed: int) -> Dict[str, int]:
    """Every input seed of a session, derived from the workload seed."""
    return {name: derive_seed(seed, name)
            for name in ("netlist", "place", "edits", "stream", "jobs",
                         "campaign")}


def corpus(job_seed: int) -> List[JobSpec]:
    """The service corpus in Zipf rank order, hottest first."""
    specs = [JobSpec(kind="hls", params={"source": source, "top": top},
                     seed=job_seed)
             for source, top in HLS_KERNELS]
    specs.append(JobSpec(kind="flow", params={
        "component": "divider", "width": 16, "effort": 0.8},
        seed=job_seed))
    specs.append(JobSpec(kind="flow", params={
        "component": "shifter", "width": 32, "effort": 0.8},
        seed=job_seed))
    specs.append(JobSpec(kind="seu", params={
        "scenario": "ecc", "scenario_params": {"words": SEU_WORDS},
        "runs": 300}, seed=job_seed))
    return specs


def zipf_ranks(count: int, ranks: int, seed: int) -> List[int]:
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(ranks)]
    return rng.choices(range(ranks), weights=weights, k=count)


def hypervisor_bridge() -> SvcBridge:
    """Two partitions on core 0; guest SVCs of all four cores trap here."""
    config = SystemConfig(cores=4, context_switch_us=2.0)
    config.add_partition(0, "P0", [MemoryArea("p0ram", 0x1000, 0x1000)])
    config.add_partition(1, "P1", [MemoryArea("p1ram", 0x2000, 0x1000)])
    plan = config.add_plan(0, major_frame_us=1000.0)
    plan.add_window(0, core=0, start_us=0.0, duration_us=400.0)
    plan.add_window(1, core=0, start_us=400.0, duration_us=400.0)
    hv = XtratumHypervisor(config)

    def workload():
        while True:
            yield Compute(100.0)
            yield EndActivation()

    hv.load_partition(0, workload, period_us=1000.0)
    hv.load_partition(1, workload, period_us=1000.0)
    hv.run(frames=2)
    return SvcBridge(hv.api, partition_of_core={0: 0, 1: 1, 2: 0, 3: 1})


@dataclass
class Inputs:
    netlist: Any
    device: Any
    specs: List[JobSpec]
    guest: List[int]


#: A duration with the ``(start, end)`` interval it was measured over,
#: so that it can be rescaled by the host speed there.
Timed = Tuple[float, float, float]


@dataclass
class Samples:
    """Per-operation figures gathered across the rounds."""

    edit_s: List[Timed] = field(default_factory=list)
    hpwl_ratio: List[float] = field(default_factory=list)
    eco: Dict[str, int] = field(default_factory=lambda: {
        "cells_annealed": 0, "cells_moved": 0, "nets_ripped": 0,
        "sta_cone_size": 0})
    requests: List[Dict[str, Any]] = field(default_factory=list)
    svc_s: List[Timed] = field(default_factory=list)
    svc_requests: int = 0
    boot_s: List[Timed] = field(default_factory=list)
    boot_state: Optional[Dict[str, Any]] = None
    boot_soc: Any = None
    boot_diverged: set = field(default_factory=set)
    seu_s: List[Timed] = field(default_factory=list)
    mega_s: List[Timed] = field(default_factory=list)
    run_p50_s: List[float] = field(default_factory=list)
    shards: List[int] = field(default_factory=list)


@dataclass
class Session:
    workload: str
    seed: int
    seconds: float
    tracer: Tracer
    jobs: int = field(default_factory=lambda: min(2, os.cpu_count() or 1))
    checks: Checks = field(default_factory=Checks)
    metrics: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    ratios: Dict[str, Ratio] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workload not in EDIT_FRACTION:
            raise ValueError(f"unknown workload {self.workload!r} "
                             f"(known: {', '.join(EDIT_FRACTION)})")
        self.seeds = seeds_for(self.seed)
        self.got = Samples()
        self.seen_deltas: set = set()
        self.bodies: Dict[int, set] = {}
        self.speed = HostSpeed()

    def span(self, name: str, request: Optional[str] = None):
        return self.tracer.span(name, request=request)

    # -- the whole session -----------------------------------------------

    def run(self) -> None:
        with self.speed:
            self.measure()
        self.info["host_speed"] = {
            "samples": len(self.speed.samples),
            "ref_s": percentiles(
                [ref for _, ref in self.speed.samples])}
        self.summarize(self.stats)

    def measure(self) -> None:
        inputs = self.setup()
        project = self.cold_flow(inputs)
        rounds = max(MIN_ROUNDS, round(self.seconds / SECONDS_PER_ROUND))
        scheduler = JobScheduler(workers=SERVICE_WORKERS, max_queue=128)
        server, thread = serve_background(port=0, scheduler=scheduler)
        try:
            port = server.server_address[1]
            self.prime(port, inputs.specs)
            for index in range(rounds):
                # Each round starts from the same collector state: the
                # last round's garbage is not collected on its clock.
                gc.collect()
                with self.span("round", f"round-{index}"):
                    self.eco_round(project, index)
                    # The request stream is served in slices between the
                    # boots, so its unsampled windows sit apart.
                    for part in range(BOOTS_PER_ROUND):
                        self.service_round(port, inputs.specs, index, part)
                        self.boot_round(inputs.guest)
                    self.seu_round(index)
            self.stats = ServiceClient(port=port).stats()
        finally:
            shutdown_server(server, thread)
        self.info["rounds"] = rounds
        # Whether the rounds' last SoCs are still uncollected garbage
        # when the interpreter boots would move ``peak_rss_mb`` by 10 MB.
        gc.collect()
        self.oracle(inputs.guest)
        if self.tracer.enabled:
            self.direct_calls(inputs.specs)

    # -- 1. set-up -------------------------------------------------------

    def setup(self) -> Inputs:
        times = []
        first = time.perf_counter()
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            with self.span("setup"):
                with self.span("fabric.synth"):
                    netlist = synthesize_random(
                        CELLS, seed=self.seeds["netlist"])
                device = scaled_device(NG_ULTRA, "BENCH", luts=DEVICE_LUTS)
                specs = corpus(self.seeds["jobs"])
                guest = assemble(GUEST_SOURCE, base_address=DDR_BASE)
            times.append(time.perf_counter() - start)
        self.setup_s = (median(times), first, time.perf_counter())
        return Inputs(netlist=netlist, device=device, specs=specs,
                      guest=guest)

    # -- 2. cold flow ----------------------------------------------------

    def cold_flow(self, inputs: Inputs) -> NXmapProject:
        project = NXmapProject(inputs.netlist, inputs.device,
                               seed=self.seeds["place"])
        start = time.perf_counter()
        with self.span("cold_flow"):
            with self.span("fabric.place"):
                placement = project.run_place(effort=EFFORT)
            with self.span("fabric.route"):
                routing = project.run_route(channel_width=CHANNEL_WIDTH)
            with self.span("fabric.sta"):
                project.run_sta(target_clock_ns=TARGET_CLOCK_NS)
            with self.span("fabric.bitstream"):
                project.run_bitstream()
        end = time.perf_counter()
        self.cold_flow_s = (end - start, start, end)

        recomputed = total_hpwl(project.netlist, placement.locations)
        self.checks.check(
            routing.failed_connections == 0
            and abs(recomputed - placement.hpwl) < 1e-6,
            f"cold flow: {routing.failed_connections} failed "
            f"connection(s), hpwl {placement.hpwl} vs recomputed "
            f"{recomputed}")
        self.metrics["hpwl"] = placement.hpwl
        self.metrics["routed_wirelength"] = float(routing.wirelength)

        stats = placement.stats
        self.layer["place.moves"] = stats["moves"]
        self.ratios["place.accept_ratio"] = Ratio(stats["accepted"],
                                                  stats["moves"])
        self.ratios["place.rescans_per_move"] = Ratio(stats["rescans"],
                                                      stats["moves"])
        self.layer["place.window_fallbacks"] = stats["window_fallbacks"]
        self.layer["route.expanded_nodes"] = routing.expanded_nodes
        self.layer["route.ripped_connections"] = \
            routing.ripped_connections
        self.layer["route.overflow_edges"] = routing.overflow_edges
        return project

    # -- ECO edits -------------------------------------------------------

    def eco_round(self, project: NXmapProject, round_index: int) -> None:
        fraction = EDIT_FRACTION[self.workload]
        made = 0
        attempt = 0
        while made < EDITS_PER_ROUND:
            rid = f"edit-{round_index}-{attempt}"
            attempt += 1
            delta = random_delta(project.netlist, fraction,
                                 seed=derive_seed(self.seeds["edits"], rid))
            fingerprint = delta.fingerprint()
            if fingerprint in self.seen_deltas:  # distinct: no warm hit
                continue
            self.seen_deltas.add(fingerprint)
            made += 1
            self.edit(project, delta, rid)

    def edit(self, project: NXmapProject, delta, rid: str) -> None:
        if self.tracer.enabled:      # layer probe; EcoFlow applies it too
            with self.span("eco.delta_apply", rid):
                delta.apply(project.netlist)
        flow = EcoFlow(project, delta)
        # The base STA state belongs to the implemented design, outside
        # the edit's time: ``run`` reuses it.
        with self.span("eco.base", rid):
            flow.prepare_base(effort=EFFORT, channel_width=CHANNEL_WIDTH)
        start = time.perf_counter()
        with self.span("eco.edit", rid):
            report = flow.run(target_clock_ns=TARGET_CLOCK_NS,
                              effort=EFFORT, channel_width=CHANNEL_WIDTH)
        got = self.got
        end = time.perf_counter()
        got.edit_s.append((end - start, start, end))
        got.hpwl_ratio.append(report.flow.placement.hpwl
                              / report.base_hpwl)
        for key in got.eco:
            got.eco[key] += report.eco[key]

        # The frozen region equals the base; the merged cone STA equals
        # a full STA of the edited design.  ``cells_moved`` counts added
        # cells too, as EcoFlow does.
        base = project.placement.locations
        locations = report.flow.placement.locations
        moved = sum(1 for name, tile in locations.items()
                    if base.get(name) != tile)
        kept = len(locations) - moved
        full = analyze_timing(flow.netlist, project.device,
                              target_clock_ns=TARGET_CLOCK_NS,
                              routing=report.flow.routing,
                              locations=locations)
        same_sta = (json.dumps(full.to_json(), sort_keys=True)
                    == json.dumps(report.flow.timing.to_json(),
                                  sort_keys=True))
        failed = report.flow.routing.failed_connections
        self.checks.check(
            moved == report.eco["cells_moved"]
            and kept >= report.eco["cells_frozen"]
            and failed == 0 and same_sta,
            f"eco {rid}: moved {moved} vs {report.eco['cells_moved']}, "
            f"kept {kept} vs frozen {report.eco['cells_frozen']}, "
            f"failed {failed}, cone STA identical {same_sta}")

    # -- service ---------------------------------------------------------

    def request(self, client: ServiceClient, spec: JobSpec, rank: int,
                rid: str, parent: Optional[int]
                ) -> Optional[Dict[str, Any]]:
        """One closed-loop request: submit, then wait for the report."""
        try:
            start = time.perf_counter()
            with self.tracer.span("svc.request", rid, parent):
                with self.span("svc.submit", rid):
                    job = client.submit(spec)
                with self.span("svc.report", rid):
                    status, body = client.report(job["id"], wait_s=120.0)
            elapsed = time.perf_counter() - start
        except Exception as error:  # counted as a failed request
            self.checks.check(False, f"service {rid}: {error!r}")
            return None
        kind = ("warm" if job.get("cache_hit") else
                "coalesced" if job.get("coalesced") else "computed")
        self.checks.check(status == 200,
                          f"service {rid}: report HTTP {status}")
        return {"rank": rank, "body": body, "s": elapsed, "class": kind}

    def closed_loop(self, port: int, work: List[List[int]],
                    specs: List[JobSpec], tag: str
                    ) -> List[Dict[str, Any]]:
        """``len(work)`` clients; client ``i`` requests ranks ``work[i]``
        in order, each waiting for its report before the next."""
        done: List[Dict[str, Any]] = []
        lock = threading.Lock()
        parent = self.tracer.current()

        def client_loop(index: int) -> None:
            client = ServiceClient(port=port)
            for position, rank in enumerate(work[index]):
                base = specs[rank]
                spec = JobSpec(kind=base.kind, params=base.params,
                               seed=base.seed, tenant=f"tenant-{index}")
                record = self.request(client, spec, rank,
                                      f"{tag}-{index}-{position}", parent)
                if record is not None:
                    with lock:
                        done.append(record)

        threads = [threading.Thread(target=client_loop, args=(index,),
                                    name=f"bench-client-{index}")
                   for index in range(len(work))]
        # The clients and the server's threads share both processors.
        with self.speed.paused():
            start = time.perf_counter()
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join()
            end = time.perf_counter()
        for record in done:
            record["window"] = (start, end)
            self.bodies.setdefault(record["rank"], set()).add(
                record["body"])
        return done

    def prime(self, port: int, specs: List[JobSpec]) -> None:
        everything = list(range(len(specs)))
        with self.span("svc.prime"):
            done = self.closed_loop(port, [everything] * self.jobs, specs,
                                    "prime")
        self.got.requests.extend(done)

    def service_round(self, port: int, specs: List[JobSpec],
                      round_index: int, part: int) -> None:
        """Slice ``part`` of the round's request stream."""
        ranks = zipf_ranks(REQUESTS_PER_ROUND, len(specs), derive_seed(
            self.seeds["stream"], f"round-{round_index}"))
        size = len(ranks) // BOOTS_PER_ROUND
        ranks = ranks[part * size:(part + 1) * size]
        done = self.closed_loop(
            port, [ranks[index::self.jobs] for index in range(self.jobs)],
            specs, f"req{round_index}.{part}")
        start, end = done[0]["window"]
        self.got.svc_s.append((end - start, start, end))
        self.got.svc_requests += len(done)
        self.got.requests.extend(done)

    # -- boot + SEU ------------------------------------------------------

    def boot(self, guest: List[int], engine: str):
        bridge = hypervisor_bridge()
        soc = NgUltraSoc(svc_handler=bridge, engine=engine)
        app = BootImage(kind=ImageKind.APPLICATION, load_address=DDR_BASE,
                        entry_point=DDR_BASE, payload=guest, name="guest")
        provision_flash(soc, [app])
        start = time.perf_counter()
        with self.span(f"sim.boot_guest.{engine}"):
            boot = run_boot_chain(soc, multicore=True, run_application=True)
        end = time.perf_counter()
        state = {
            "halted": all(core.state is CoreState.HALTED
                          for core in soc.cores),
            "boot_cycles": boot.total_cycles,
            "regs": [list(core.regs) for core in soc.cores],
            "flags": [(core.flag_z, core.flag_n, core.flag_v)
                      for core in soc.cores],
            "cycles": [core.cycles for core in soc.cores],
            "bus": (soc.bus.reads, soc.bus.writes),
            "tcm": list(soc.tcm.data),
            "ddr": list(soc.ddr.data),
            "traps": bridge.trap_count,
        }
        return (end - start, start, end), state, soc

    def boot_round(self, guest: List[int]) -> None:
        got = self.got
        timed, state, got.boot_soc = self.boot(guest, "dbt")
        got.boot_s.append(timed)
        if got.boot_state is None:
            got.boot_state = state
        got.boot_diverged.update(key for key in state
                                 if state[key] != got.boot_state[key])

    def seu_round(self, round_index: int) -> None:
        seed = derive_seed(self.seeds["campaign"], f"chunk-{round_index}")
        runs = SEU_RUNS_PER_ROUND
        start = time.perf_counter()
        with self.span("seu.campaign"):
            serial = ecc_campaign(words=SEU_WORDS).run(runs, seed=seed,
                                                       jobs=1)
        serial_end = time.perf_counter()
        with self.speed.paused():    # ``jobs`` worker processes
            mega_start = time.perf_counter()
            with self.span("mega"):
                mega = MegaCampaign(ecc_campaign(words=SEU_WORDS)).run(
                    runs, seed=seed, jobs=self.jobs)
            mega_end = time.perf_counter()
        self.checks.check(
            serial.runs == runs
            and dict(mega.report.counts) == dict(serial.counts),
            f"mega counts {dict(mega.report.counts)} differ from serial "
            f"{dict(serial.counts)}")
        got = self.got
        got.seu_s.append((serial_end - start, start, serial_end))
        got.mega_s.append((mega_end - mega_start, mega_start, mega_end))
        got.run_p50_s.append(serial.latency.p50_s)
        got.shards.append(mega.shards_folded)

    def oracle(self, guest: List[int]) -> None:
        """The interpreter must end in every DBT boot's exact state."""
        _s, expected, _soc = self.boot(guest, "interp")
        got = self.got
        differing = sorted(got.boot_diverged | {
            key for key in expected
            if got.boot_state[key] != expected[key]})
        self.checks.check(
            expected["halted"] and not differing,
            f"sim: guest halted {expected['halted']}, DBT state differs "
            f"from the interpreter in {differing}")
        self.layer["sim.guest_cycles"] = sum(expected["cycles"])

    # -- api, hls: direct calls, traced run only -------------------------

    def direct_calls(self, specs: List[JobSpec]) -> None:
        per_kind: Dict[str, List[float]] = {}
        for index, spec in enumerate(specs):
            start = time.perf_counter()
            with self.span(f"api.submit.{spec.kind}", f"spec-{index}"):
                result = submit(spec)
            per_kind.setdefault(spec.kind, []).append(
                time.perf_counter() - start)
            self.checks.check(int(result.exit_code) == 0,
                              f"api: {spec.kind} exit {result.exit_code}")
        for kind, times in per_kind.items():
            self.layer[f"api.submit.{kind}.s"] = sum(times) / len(times)
        front = middle = 0.0
        for source, top in HLS_KERNELS:
            start = time.perf_counter()
            with self.span("hls.frontend", top):
                module = compile_to_ir(source)
            split = time.perf_counter()
            with self.span("hls.middleend", top):
                optimize(module, level=2)
            front += split - start
            middle += time.perf_counter() - split
        self.layer["hls.frontend.s"] = front
        self.layer["hls.middleend.s"] = middle

    # -- metrics ---------------------------------------------------------

    def summarize(self, stats: Dict[str, Any]) -> None:
        got = self.got
        metrics, layer, ratios = self.metrics, self.layer, self.ratios
        # Every timing in host seconds (``raw``) and rescaled to the
        # nominal host speed.
        raw: Dict[str, float] = {}
        speed = self.speed

        def scaled(samples: List[Timed]) -> List[float]:
            return [value * speed.factor(start, end)
                    for value, start, end in samples]

        def plain(samples: List[Timed]) -> List[float]:
            return [value for value, _start, _end in samples]

        for name, timed in (("setup_s", self.setup_s),
                            ("cold_flow_s", self.cold_flow_s)):
            raw[name] = timed[0]
            metrics[name] = scaled([timed])[0]
        raw["eco_edit_p50_s"] = median(plain(got.edit_s))
        metrics["eco_edit_p50_s"] = median(scaled(got.edit_s))
        self.info["eco_edit_p50_s"] = {"samples": len(got.edit_s)}
        metrics["eco_hpwl_ratio"] = median(got.hpwl_ratio)
        self.info["eco_hpwl_ratio"] = {"base": "EcoReport.base_hpwl",
                                       "samples": len(got.hpwl_ratio)}
        for key, total in got.eco.items():
            layer[f"eco.{key}"] = total / len(got.edit_s)
        ratios["eco.moved_ratio"] = Ratio(got.eco["cells_moved"],
                                          got.eco["cells_annealed"])

        # Service: every body identical per spec, one computation each.
        self.checks.check(
            all(len(found) == 1 for found in self.bodies.values()),
            "service: report bodies differ within one spec")
        counts = stats["counts"]
        self.checks.check(
            counts["computed"] == len(self.bodies),
            f"service: {counts['computed']} computed for "
            f"{len(self.bodies)} distinct specs")
        warm = [(r["s"], *r["window"]) for r in got.requests
                if r["class"] == "warm"]
        raw["svc_rps"] = got.svc_requests / sum(plain(got.svc_s))
        metrics["svc_rps"] = got.svc_requests / sum(scaled(got.svc_s))
        raw["svc_p50_s"] = median(plain(warm))
        metrics["svc_p50_s"] = median(scaled(warm))
        # The tail is reported here, not as a metric: it moves with the
        # host's scheduling jitter far more than the program
        # (IQR/median 0.15-0.29 over 5 seeds; p50 0.06).
        value, pct, count = tail(scaled(warm))
        self.info["svc_tail_s"] = {"value": value, "percentile": pct,
                                   "samples": count}
        self.info["svc.warm.percentiles_s"] = percentiles(scaled(warm))
        for kind in ("warm", "coalesced", "computed"):
            chosen = [r["s"] for r in got.requests if r["class"] == kind]
            self.info[f"svc.{kind}.samples"] = len(chosen)
            layer[f"svc.{kind}.s"] = median(chosen) if chosen else 0.0
        served = counts["warm_hits"] + counts["coalesced"]
        ratios["svc.hit_ratio"] = Ratio(served, counts["submitted"])
        layer["svc.computed"] = counts["computed"]
        layer["svc.rejected"] = counts["rejected"]
        for name, figures in sorted(stats["cache"].items()):
            for event in ("hits", "misses", "stores"):
                layer[f"cache.{name}.{event}"] = figures[event]

        layer["sim.boot_guest.s"] = median(plain(got.boot_s))
        mcycles = layer["sim.guest_cycles"] / 1e6 * len(got.boot_s)
        raw["sim_mcycles_per_s"] = mcycles / sum(plain(got.boot_s))
        metrics["sim_mcycles_per_s"] = mcycles / sum(scaled(got.boot_s))
        dbt = got.boot_soc.dbt_cache.stats()
        layer["dbt.blocks.compiled"] = dbt["compiled"]
        layer["dbt.blocks.hits"] = dbt["hits"]
        layer["dbt.blocks.invalidations"] = dbt["invalidations"]
        ratios["dbt.hit_ratio"] = Ratio(dbt["hits"],
                                        dbt["hits"] + dbt["compiled"])
        layer["hv.svc_traps"] = got.boot_state["traps"]

        for name, chunks in (("seu_runs_per_s", got.seu_s),
                             ("mega_runs_per_s", got.mega_s)):
            runs = SEU_RUNS_PER_ROUND * len(chunks)
            raw[name] = runs / sum(plain(chunks))
            metrics[name] = runs / sum(scaled(chunks))
        self.info["raw"] = raw
        layer["seu.campaign.s"] = sum(plain(got.seu_s))
        layer["seu.run_p50_s"] = median(got.run_p50_s)
        layer["mega.s"] = sum(plain(got.mega_s))
        layer["mega.shards"] = median(got.shards)
        ratios["mega.parallel_efficiency"] = Ratio(
            metrics["mega_runs_per_s"],
            self.jobs * metrics["seu_runs_per_s"])

        metrics["peak_rss_mb"] = peak_rss_mb()
        for name, ratio in ratios.items():
            layer[name] = ratio.value
        self.info["edit_fraction"] = EDIT_FRACTION[self.workload]
        self.info["setup_reps"] = SETUP_REPS
