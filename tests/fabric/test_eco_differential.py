"""Differential tests of the O(delta) ECO stages against their oracles.

Random netlists take random deltas — valid ones and invalid ones (a
combinational loop through a reconnect, an undriven net after a
remove, a retarget onto a driven net, a cell removed and re-added) —
and every incremental stage is checked against the full computation it
replaces:

* the copy-on-write ``NetlistDelta.apply`` against the same ops on a
  deep ``Netlist.copy``: same content, same dict order, and the base
  netlist unchanged;
* the delta validation against ``Netlist.validate()`` plus the device
  fit check: same verdict and same first message;
* the patched STA levels: a valid topological ranking;
* the ECO flow against the full stages: warm placement against
  ``eco_place`` from scratch, delta routing against
  ``route(warm=...)``, cone STA with reused levels against both
  ``analyze_timing_cone`` and a full ``analyze_timing``, and the
  patched bitstream against ``generate_bitstream`` (frames, CRCs,
  essential set, golden copy).

Shrunk counterexamples live on as fixed ``@example`` cases of the
random test.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import FlowCache, netlist_fingerprint
from repro.fabric import (
    AddCell,
    EcoFlow,
    FlowError,
    NetlistDelta,
    NXmapProject,
    ReconnectInput,
    RemoveCell,
    ResizeCell,
    RetargetOutput,
    SetConstraint,
    analyze_timing,
    analyze_timing_cone,
    eco_place,
    generate_bitstream,
    random_delta,
    route,
)
from repro.fabric.netlist import DFF, DSP, LUT4, NetlistError

from test_kernels_property import random_netlist, small_device

OPS = ("resize", "reconnect", "add", "remove", "retarget", "readd",
       "constraint")

op_specs = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 20),
              st.integers(0, 1 << 20), st.integers(0, 7)),
    min_size=1, max_size=5)

designs = st.tuples(st.integers(24, 90), st.integers(0, 50),
                    st.booleans(), st.integers(0, 6))


def make_project(cells, seed, macros, hubs):
    netlist = random_netlist(cells, seed=seed, with_macros=macros,
                             hubs=hubs, hub_rate=0.3 if hubs else 0.0)
    project = NXmapProject(netlist, small_device(), seed=seed % 5 + 1)
    project.run_place(effort=0.3)
    project.run_route(channel_width=8)
    return project


def build_delta(netlist, specs):
    """Concrete ops from integer specs (indices wrap around the base
    design), so hypothesis shrinks toward few ops on low indices."""
    cells = list(netlist.cells)
    nets = list(netlist.nets)
    ops = []
    for number, (kind, a, b, c) in enumerate(specs):
        cell = netlist.cells[cells[a % len(cells)]]
        if kind == "resize":
            ops.append(ResizeCell(name=cell.name, init=b & 0xFFFF))
        elif kind == "reconnect" and cell.inputs:
            ops.append(ReconnectInput(cell=cell.name,
                                      index=c % len(cell.inputs),
                                      net=nets[b % len(nets)]))
        elif kind == "add":
            cell_kind = (LUT4, LUT4, DFF, DSP)[c % 4]
            inputs = (nets[a % len(nets)], nets[b % len(nets)])
            output = nets[b % len(nets)] if c == 7 else f"d_n{number}"
            ops.append(AddCell(name=f"d_c{number}", kind=cell_kind,
                               inputs=inputs[:1 + c % 2], output=output,
                               init=b & 0xFFFF,
                               primary_output=bool(c & 2)))
        elif kind == "remove":
            ops.append(RemoveCell(name=cell.name))
        elif kind == "retarget":
            net = nets[b % len(nets)] if c % 2 else f"d_rt{number}"
            ops.append(RetargetOutput(cell=cell.name, net=net))
        elif kind == "readd":
            ops.append(RemoveCell(name=cell.name))
            ops.append(AddCell(name=cell.name, kind=(DFF, LUT4)[c % 2],
                               inputs=tuple(cell.inputs[:1]) or ("pi0",),
                               output=cell.output, init=b & 0xFFFF))
        else:
            ops.append(SetConstraint(name="target_clock_ns",
                                     value=float(4 + c)))
    return NetlistDelta(ops=tuple(ops))


def shape(netlist):
    """Everything a netlist holds, in dict order."""
    return {
        "cells": [(name, cell.kind, list(cell.inputs), cell.output,
                   cell.init) for name, cell in netlist.cells.items()],
        "nets": [(name, net.driver, list(net.sinks))
                 for name, net in netlist.nets.items()],
        "inputs": list(netlist.inputs),
        "outputs": list(netlist.outputs),
    }


def deep_apply(netlist, delta):
    """The reference apply: the same ops on a deep copy."""
    edited = netlist.copy(name=f"{netlist.name}+eco"
                               f"{delta.fingerprint()[:8]}")
    for op in delta.ops:
        op.apply_to(edited)
    return edited


def outcome(call):
    try:
        return call(), None
    except (NetlistError, FlowError) as error:
        return None, f"{type(error).__name__}: {error}"


def expected_verdict(edited, device):
    """What a fresh ``NXmapProject`` says about the edited design."""
    problems = edited.validate()
    if problems:
        return f"netlist check failed: {problems[0]}"
    stats = edited.stats()
    if not device.fits(stats["luts"], stats["ffs"], stats["dsps"],
                       stats["brams"]):
        return f"{edited.name} does not fit {device.name}: {stats}"
    return None


def check_levels(netlist, levels):
    for cell in netlist.cells.values():
        if cell.is_sequential or cell.output is None:
            continue
        for sink in netlist.nets[cell.output].sinks:
            if not netlist.cells[sink].is_sequential:
                assert levels.get(sink, 0) > levels.get(cell.name, 0), \
                    (cell.name, sink)


def check_apply(project, delta):
    """COW apply == deep-copy apply; returns the applied pair."""
    netlist = project.netlist
    before_print = netlist_fingerprint(netlist)
    before = shape(netlist)
    got, error = outcome(lambda: delta.apply(netlist))
    reference, reference_error = outcome(lambda: deep_apply(netlist,
                                                            delta))
    assert error == reference_error
    assert shape(netlist) == before
    assert netlist_fingerprint(netlist) == before_print
    if error is not None:
        return None, None
    edited, impact = got
    assert shape(edited) == shape(reference)
    assert edited.name == reference.name
    assert netlist_fingerprint(edited) == netlist_fingerprint(reference)
    return edited, impact


def check_edit(project, delta):
    """Every differential property of one (base, delta) pair."""
    edited, impact = check_apply(project, delta)
    if edited is None:
        return
    flow = EcoFlow(project, delta)
    base = flow._implementation(flow.prepare_base(effort=0.3,
                                                  channel_width=8))
    expected = expected_verdict(edited, project.device)
    result, verdict = outcome(lambda: base.check(edited, impact,
                                                 project.device))
    assert verdict == (None if expected is None
                       else f"FlowError: {expected}")
    if expected is not None:
        with pytest.raises(FlowError) as error:
            flow.run(target_clock_ns=10.0, effort=0.3, channel_width=8)
        assert str(error.value) == f"edited netlist rejected: {expected}"
        return
    levels, stats = result
    assert list(stats.items()) == list(edited.stats().items())
    if levels is not None:
        check_levels(edited, levels)

    device = project.device
    reference, reference_error = outcome(lambda: eco_place(
        edited, device, project.placement, set(impact.changed_cells),
        seed=project.seed, effort=0.3))
    report, error = outcome(lambda: flow.run(
        target_clock_ns=10.0, effort=0.3, channel_width=8))
    assert error == reference_error
    if error is not None:
        return
    placement, routing = flow.placement, flow.routing
    assert shape(flow.netlist) == shape(edited)
    assert placement.to_json() == reference.to_json()
    assert list(placement.locations) == list(reference.locations)

    moved = {name for name, tile in placement.locations.items()
             if project.placement.locations.get(name) != tile}
    rip = {name for name in impact.touched_nets if name in edited.nets}
    for name in moved:
        cell = edited.cells[name]
        rip.update(cell.inputs)
        if cell.output is not None:
            rip.add(cell.output)
    rerouted = route(edited, placement.locations, placement.grid,
                     channel_width=8, warm=project.routing,
                     reroute_nets=rip)
    assert routing.to_json() == rerouted.to_json()

    # Cone STA on the patched levels, lengths and endpoint keys equals
    # the public cone analysis, which derives all three from scratch.
    target = report.flow.timing.target_clock_ns
    cone_report, _state, cone = analyze_timing_cone(
        edited, device, flow.prepare_base(),
        changed_cells=set(impact.changed_cells) | moved,
        changed_nets=rip, target_clock_ns=target, routing=routing,
        locations=placement.locations)
    assert cone_report.to_json() == report.flow.timing.to_json()
    assert cone == report.eco["sta_cone_size"]
    # And a full STA, except in two known gaps, kept so ECO results stay
    # as they were: the overflow cascade re-routed nets outside the rip
    # set (the cone is not told about them), or a removed cell came back
    # under its old name (the merged state keeps its old arrival, which
    # a critical path through it reports if it is now a register).
    readded = impact.added & project.netlist.cells.keys()
    if routing.ripped_connections == 0 and not readded:
        full = analyze_timing(edited, device, target_clock_ns=target,
                              routing=routing,
                              locations=placement.locations)
        assert json.dumps(report.flow.timing.to_json(), sort_keys=True) \
            == json.dumps(full.to_json(), sort_keys=True)

    bitstream = flow.bitstream
    oracle = generate_bitstream(edited, placement.locations,
                                placement.grid, device.name,
                                seed=project.seed)
    assert [(f.index, bytes(f.data), f.crc) for f in bitstream.frames] \
        == [(f.index, bytes(f.data), f.crc) for f in oracle.frames]
    assert bitstream.essential == oracle.essential
    assert bitstream.golden == oracle.golden
    assert bitstream.to_bytes() == oracle.to_bytes()
    assert report.flow.bitstream_bits == oracle.total_bits
    assert report.flow.essential_bits == oracle.essential_bits


@given(design=designs, specs=op_specs)
@settings(max_examples=100, deadline=None, derandomize=True)
# A resize on a base routing with overflow: the warm router's rip-up
# cascade re-routes nets the cone STA is not told about.
@example(design=(88, 0, False, 0), specs=[("resize", 0, 0, 0)])
# A LUT removed and re-added as a register on a critical path.
@example(design=(24, 0, False, 0), specs=[("readd", 0, 0, 0)])
def test_random_deltas_match_the_oracles(design, specs):
    project = make_project(*design)
    check_edit(project, build_delta(project.netlist, specs))


@given(design=designs, fraction=st.sampled_from([0.02, 0.1, 0.3]),
       seed=st.integers(0, 1000))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_scripted_deltas_match_the_oracles(design, fraction, seed):
    project = make_project(*design)
    check_edit(project, random_delta(project.netlist, fraction, seed=seed))


def test_edits_share_one_base():
    """The per-base state is built once per base implementation and
    serves every later flow on it; a new placement retires it."""
    project = make_project(60, 3, True, 0)
    flows = []
    for seed in range(3):
        flow = EcoFlow(project, random_delta(project.netlist, 0.05,
                                             seed=seed))
        flow.run(target_clock_ns=10.0, effort=0.3, channel_width=8)
        flows.append(flow)
        if seed == 0:
            base = project._eco_base
            pieces = dict(vars(base))
    assert {"warm", "spans", "routes", "levels", "endpoint_keys",
            "bitstream", "tile_cells"} <= pieces.keys()
    assert project._eco_base is base and base.serves(project)
    assert all(flow._base_state is base.sta for flow in flows)
    assert all(vars(base)[name] is value for name, value in pieces.items())
    project.run_place(effort=0.3)
    project.run_route(channel_width=8)
    assert not base.serves(project)
    check_edit(project, random_delta(project.netlist, 0.05, seed=9))
    assert project._eco_base is not base


def test_cache_hits_derive_nothing():
    """An edit whose stages all come from the cache builds none of the
    per-base pieces those stages would need."""
    cache = FlowCache()
    delta = random_delta(random_netlist(60, seed=4), 0.05, seed=2)
    reports = []
    for _ in range(2):
        project = NXmapProject(random_netlist(60, seed=4), small_device(),
                               seed=1, cache=cache)
        flow = EcoFlow(project, delta)
        reports.append(flow.run(target_clock_ns=10.0, effort=0.3,
                                channel_width=8).to_json())
    assert reports[0] == reports[1]
    assert not {"warm", "routes", "net_lengths", "bitstream"} \
        & vars(project._eco_base).keys()
