"""SHA-256 pins on the full output of the ECO flow.

Every artifact an edit produces is pinned byte for byte: the wire
report (``EcoReport.to_json``), the delta routing result, the merged
cone-STA state with its cone size, and the edited bitstream (its
serialized bytes, its sorted essential set and its golden copy).  The
digests were recorded with ``ECO_KERNEL_VERSION = 2`` and
``PLACE_KERNEL_VERSION = 2``; a change that moves any of them changes
ECO results and must bump a kernel version rather than slip through.

Fixtures: the ``macros`` and ``hubs`` designs of
``test_kernels_property`` at 0.1%, 1% and 10% scripted edits, plus
hand-built deltas covering every op kind (including a cell removed and
re-added under the same name, which moves it to the end of the cell
order).  All cases of one design share one base project, as an
interactive session does.
"""

import functools
import hashlib
import json

import pytest

from repro.fabric import (
    AddCell,
    DeltaError,
    EcoFlow,
    FlowError,
    NetlistDelta,
    NXmapProject,
    ReconnectInput,
    RemoveCell,
    ResizeCell,
    RetargetOutput,
    SetConstraint,
    analyze_timing_cone,
    random_delta,
)
from repro.fabric.netlist import BRAM, DFF, DSP, LUT4

from test_kernels_property import random_netlist, small_device


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


_DESIGNS = {
    # (netlist builder, placement seed)
    "macros": (lambda: random_netlist(400, seed=5, with_macros=True), 3),
    "hubs": (lambda: random_netlist(1500, seed=13, hubs=32,
                                    hub_rate=0.3), 2),
}


@functools.lru_cache(maxsize=None)
def base_project(design):
    build, seed = _DESIGNS[design]
    project = NXmapProject(build(), small_device(), seed=seed)
    project.run_place(effort=0.5)
    project.run_route(channel_width=16)
    return project


def _first(netlist, kind, skip=()):
    return next(cell for cell in netlist.cells.values()
                if cell.kind == kind and cell.name not in skip
                and cell.output not in netlist.outputs)


def hand_delta(design, case):
    """Hand-built deltas exercising every op kind."""
    netlist = base_project(design).netlist
    lut = _first(netlist, LUT4)
    ff = _first(netlist, DFF)
    if case == "remove":
        # Re-home the victim's sinks onto a register output, then drop
        # it: its output net is left driverless and sinkless.
        victim = _first(netlist, LUT4, skip={lut.name})
        ops = []
        for sink in sorted(set(netlist.nets[victim.output].sinks)):
            for index, net in enumerate(netlist.cells[sink].inputs):
                if net == victim.output:
                    ops.append(ReconnectInput(cell=sink, index=index,
                                              net=ff.output))
        ops.append(RemoveCell(name=victim.name))
        return NetlistDelta(ops=tuple(ops))
    if case == "retarget":
        # Move a LUT's output onto a fresh net and drive the old net
        # from a new LUT, so the design stays legal.
        return NetlistDelta(ops=(
            RetargetOutput(cell=lut.name, net="eco_rt_n"),
            AddCell(name="eco_rt_c", kind=LUT4,
                    inputs=("pi0", ff.output), output=lut.output,
                    init=0x6996),
        ))
    if case == "resize":
        luts = [cell.name for cell in netlist.cells.values()
                if cell.kind == LUT4][:5]
        return NetlistDelta(ops=tuple(
            ResizeCell(name=name, init=(0x1234 * (i + 1)) & 0xFFFF)
            for i, name in enumerate(luts)))
    if case == "constraint":
        return NetlistDelta(ops=(
            SetConstraint(name="target_clock_ns", value=7.5),
            ResizeCell(name=lut.name, init=0xBEEF),
        ))
    if case == "readd":
        # Remove a LUT and re-add a register under the same name on
        # the same output net: the name moves to the end of the cell
        # order and changes kind, class and timing role.
        return NetlistDelta(ops=(
            RemoveCell(name=lut.name),
            AddCell(name=lut.name, kind=DFF, inputs=(ff.output,),
                    output=lut.output),
        ))
    if case == "macro":
        # A new DSP macro feeding a new register on a primary output,
        # which a reconnected LUT reads.
        return NetlistDelta(ops=(
            AddCell(name="eco_dsp", kind=DSP, inputs=(ff.output, "pi1"),
                    output="eco_dsp_n"),
            AddCell(name="eco_ff", kind=DFF, inputs=("eco_dsp_n",),
                    output="eco_ff_n", primary_output=True),
            ReconnectInput(cell=lut.name, index=0, net="eco_ff_n"),
        ))
    raise KeyError(case)


def make_delta(design, case):
    if isinstance(case, float):
        return random_delta(base_project(design).netlist, case, seed=3)
    return hand_delta(design, case)


def rip_set(flow):
    """The rip-up set the flow routes with: touched nets plus every net
    of a moved cell."""
    edited, base = flow.netlist, flow.project.placement.locations
    rip = {name for name in flow.impact.touched_nets
           if name in edited.nets}
    for name, tile in flow.placement.locations.items():
        if base.get(name) == tile:
            continue
        cell = edited.cells[name]
        rip.update(cell.inputs)
        if cell.output is not None:
            rip.add(cell.output)
    return rip


def eco_digests(design, case):
    project = base_project(design)
    flow = EcoFlow(project, make_delta(design, case))
    report = flow.run(target_clock_ns=10.0, effort=0.5, channel_width=16)
    moved = {name for name, tile in flow.placement.locations.items()
             if project.placement.locations.get(name) != tile}
    _timing, state, cone = analyze_timing_cone(
        flow.netlist, project.device, flow.prepare_base(),
        changed_cells=set(flow.impact.changed_cells) | moved,
        changed_nets=rip_set(flow),
        target_clock_ns=report.flow.timing.target_clock_ns,
        routing=flow.routing, locations=flow.placement.locations)
    bitstream = flow.bitstream
    return {
        "report": _digest(report.to_json()),
        "routing": _digest(report.flow.routing.to_json()),
        "sta": _digest({"state": state.to_json(), "cone": cone}),
        "bitstream": hashlib.sha256(bitstream.to_bytes()).hexdigest(),
        "essential": _digest(sorted(bitstream.essential)),
        "golden": hashlib.sha256(bitstream.golden).hexdigest(),
    }


PINS = {
    ('hubs', 0.001): {
        "report": "c5bafe49e549fcdf4c9e5500eb60d69b"
                  "4dca0a74c5312d0588e2e34cc87a5555",
        "routing": "2dea064b8dfbaf46a35403880e005e78"
                   "391c291bb7cd83995cf2883e2f0095e4",
        "sta": "4cea3673ec79cec352e131e21fbedbf6"
               "c5f667c4b70a2234d09f5dfd990d68dd",
        "bitstream": "2a7dacc68100ce3f6b533ce5e8103791"
                     "21554a0846bc4629a2e6c73affb311de",
        "essential": "6721c30027347b93d20410bc9fc1bb84"
                     "ed41e81ec613a8a0aa12a15a367f1b89",
        "golden": "92a335e418c3eee775f755631753fd89"
                  "434c76c3e7f05d689a4470a515259b7a",
    },
    ('hubs', 0.01): {
        "report": "a9d49d670eaf227d6c74e63241bb1cd2"
                  "73f71ce960285e835de2c5528d1f74b3",
        "routing": "8fc7dcc93ccf201627b67841130a00fa"
                   "6a2c0f6b337131678f79231fbb3e519c",
        "sta": "4f0fb7949e32c24d57f7a783ed695fc3"
               "b0fc5ee781ffdc58932de2dfcfa6acdd",
        "bitstream": "f771c4281a788bfece495baf66dfb963"
                     "abad989f513f452068d0ebfe4b6c7f7c",
        "essential": "658ed855fe7eaf1b3f9efa1cf4cbdd8c"
                     "efef7c28355d0a9c110c8c5a57dcceaf",
        "golden": "cc8042496949065d2f0fb9cb40c057d0"
                  "4b9bf38f72dda60557f6a36f05edf152",
    },
    ('hubs', 0.1): {
        "report": "a1741ae92c58b0d10d53e28fff56968e"
                  "9a69967d3acc4d40930432cb4d2ef1db",
        "routing": "da6c64d1aefe5a0e1ecbec9c457d1aa0"
                   "ce1640a090a2781772bcfdfe2a510f3a",
        "sta": "fc4e4c580012603689370dbca40bef33"
               "36f396f3d12a8dd71381e901e47354e1",
        "bitstream": "262a9dde6fdd4cf67bb92d9495fa7d0f"
                     "870abd9b7931d0f62bb78c6d149eb0eb",
        "essential": "1f065ee19ed0725c43bafa7c2411cf29"
                     "4bb598f29823e1b91080ae381af06973",
        "golden": "504d3077bf264ea041fc2c9af6394879"
                  "a092dcbd11b7cc2ada449548768431d3",
    },
    ('macros', 0.001): {
        "report": "515393ed768335b250243c8ef2d9ad40"
                  "7d94fdc43a360b011b32587410ade656",
        "routing": "c83663eccd407281b3929f434ad82b0f"
                   "dcf13cd652dba716d25649a05e8d683d",
        "sta": "0c31fb79e97e32b0af3422161bff702d"
               "cfec5d86c58a234b42b8766a33877573",
        "bitstream": "c6e763ee5c9f5795e69a44c7ff94a706"
                     "6249e693034b2e9b7be3a0173a67eb81",
        "essential": "ab2d987b48ea0d55fa2b4dc323ff3bff"
                     "1a34b877090efe702182efeec105df08",
        "golden": "65cde585ea64afbfed0a82cd50e6a8f4"
                  "2e3e033e035da0c0e706730d0809b6e7",
    },
    ('macros', 0.01): {
        "report": "4473b0e904ebe4ee04d532a172f15645"
                  "e22b738f8028c2e25aa5fc09598c1978",
        "routing": "741c4ebe7aac32953281bf0f3a6199b7"
                   "3edaf969c426deb15876f7858668ffd6",
        "sta": "5127fbafafa0c6622a83f16d95f4d81f"
               "412e54a5398f09658db762987af47b96",
        "bitstream": "fbf8ed7765d35ce0f69df3b5964e45e8"
                     "2ee5ebf6d926c13eb46cbf7c50a1998e",
        "essential": "ab2d987b48ea0d55fa2b4dc323ff3bff"
                     "1a34b877090efe702182efeec105df08",
        "golden": "5ed8696e6d2dabf40269b550c2578708"
                  "414f1d4da13dab110c1b605c2ae3572c",
    },
    ('macros', 0.1): {
        "report": "0b55aa970b83d58a84fcdbf78f43237f"
                  "5a5713a7613915a6d82b6007fe85dfb6",
        "routing": "01159894cb0cf5110c02aa222499fc6b"
                   "797777cd8983f91d9862b891b32cd761",
        "sta": "63762d2ada620379da4fc785bef8f23c"
               "53952753cee9dec1dafd962cabad1bf5",
        "bitstream": "88dc38e32ad5210c896c627a9a687f71"
                     "d5bc0900801b5790d5904ebe9f7667f0",
        "essential": "fe43dcc9fd5ccb8169e0cec3c87810e9"
                     "676be3b88536aca208ebbc7ff4399a20",
        "golden": "fe34703d682c762e84a1d06571e22860"
                  "7d1e76c40b193387b036ca2a5380eed5",
    },
    ('macros', 'constraint'): {
        "report": "b982997dc23cfbc28e59d93a0144cc6a"
                  "17c364a5cc06f4c155d7930ec5425659",
        "routing": "89a3b6177c1913ea47f52bd088979edc"
                   "ab579b69c94412bb800e14e3089aafa3",
        "sta": "0e7778092b3e8d4105322650c4c5adda"
               "6e11faf0a3d32b47c649a6c676897093",
        "bitstream": "cea7f6591744a3735092060dc6ba15ae"
                     "27e9595620941ab6873a8ee99ea6857d",
        "essential": "ab2d987b48ea0d55fa2b4dc323ff3bff"
                     "1a34b877090efe702182efeec105df08",
        "golden": "fe81657677f0acba9e1626e204a2b454"
                  "6990441584e0d24ceccf59b90c09f2fe",
    },
    ('macros', 'macro'): {
        "report": "d583868903b92e1f406df98c0e9f90fa"
                  "bbac4b9f875ca3b2ecc56f50313ab52a",
        "routing": "ba0a29b6930056e21d68c8511d8a85fd"
                   "fb2282c0df8dcd222e9449729f9c95c1",
        "sta": "39f582f74b76253c9c2194a2dfe9af6d"
               "668acd57ec410bd144a9152fd88ade50",
        "bitstream": "c6e763ee5c9f5795e69a44c7ff94a706"
                     "6249e693034b2e9b7be3a0173a67eb81",
        "essential": "ab2d987b48ea0d55fa2b4dc323ff3bff"
                     "1a34b877090efe702182efeec105df08",
        "golden": "65cde585ea64afbfed0a82cd50e6a8f4"
                  "2e3e033e035da0c0e706730d0809b6e7",
    },
    ('macros', 'readd'): {
        "report": "50b9fcfd3bce2c816c5394f13981a39b"
                  "c215b6bf0ea642f010aeff3d881cc3e3",
        "routing": "3af2d1f9f914bda5b5d4569a8d8efcd7"
                   "8d5097dc236ed577fa27e7912c2fdabe",
        "sta": "8d26d0dac6b031294db3a59d751e4623"
               "8d5b9451c1a21ec243b1a994aeeafc82",
        "bitstream": "30bbfb7a425b7f57e0c9153c9bd1fcf0"
                     "d557b00a3195f4c3a9c8f03e98ef407c",
        "essential": "736f79c17ecdd6aa592d04ce74963cd2"
                     "5c7ce22e7c234c0cce429b26c8c6d233",
        "golden": "48fc2bb69c769bd9f311b9da8950e2bf"
                  "b9e9d11b91da2f96653464acce795d51",
    },
    ('macros', 'remove'): {
        "report": "61b494e04f50cb467eb38dfe471966ed"
                  "208fd074f14190d9533c43a5219f964b",
        "routing": "aa7131b9c95fa418b35073efcf9ec439"
                   "be47d23890fee20dde574eb7151e6354",
        "sta": "e2d9d3fd38decbd697fe8bd0a2d95b61"
               "f0fbd93084cb4b385428a833fa4ae99f",
        "bitstream": "88a390f92edd2acc5c58ee43381c86cd"
                     "980c7dab8553b36f524d8d1a4d014f08",
        "essential": "5d4eface07de8e0e9ece964f6fb2737a"
                     "3342d492d8476c5f7d50d686429c8298",
        "golden": "05e3efd008c5edcd40aebc4d73aa0703"
                  "d22be54a5a635161e652fb37b2f547d1",
    },
    ('macros', 'resize'): {
        "report": "751de2c8b7b55038a8c278b13a5e9b24"
                  "1f03f2da7f237941500ce09520774e32",
        "routing": "89a3b6177c1913ea47f52bd088979edc"
                   "ab579b69c94412bb800e14e3089aafa3",
        "sta": "0e7778092b3e8d4105322650c4c5adda"
               "6e11faf0a3d32b47c649a6c676897093",
        "bitstream": "5acb58f1f6137687b4764fba4a125193"
                     "400917cd1c8f7ea3b1e417fd4ad6dfc3",
        "essential": "ab2d987b48ea0d55fa2b4dc323ff3bff"
                     "1a34b877090efe702182efeec105df08",
        "golden": "0ac144d4e080f5d7eb58432294e3dbea"
                  "abc1be30c54cdfdc04b55eccc10dc697",
    },
    ('macros', 'retarget'): {
        "report": "e4b883b838d6e4eceb4e658fcea984a9"
                  "23db725bf90ae2075375988ceec9574d",
        "routing": "5f05f4e35a72b2adb430ce9961f7dacb"
                   "2624d121656ce674896e706af1426c65",
        "sta": "7a36d112e4216a30d4d503a7364289b8"
               "925d0996b1ba93375175a1c6d31a79ad",
        "bitstream": "d32b609152f42642ba48d243c50b3c84"
                     "3d2107dfa0c0bb692b41d8a3a6097457",
        "essential": "00653e8a995dfc86866a99d8d480272d"
                     "ecede5b8fb662caa7110faf6e235dd1c",
        "golden": "090d4c778ec66e6552435ea703b68930"
                  "b0455b21888947b5f93c20f5e9306b6a",
    },
}

CASES = [(design, case) for design in sorted(_DESIGNS)
         for case in (0.001, 0.01, 0.1)] + [
    ("macros", case) for case in ("remove", "retarget", "resize",
                                  "constraint", "readd", "macro")]


@pytest.mark.parametrize("design,case", CASES,
                         ids=[f"{d}-{c}" for d, c in CASES])
def test_eco_outputs_pinned(design, case):
    assert eco_digests(design, case) == PINS[(design, case)]


#: Rejected edits: the exact error text is part of the contract.
REJECTED = {
    'dangling': (
        'FlowError: edited netlist rejected: netlist check failed: '
        "primary output 'n399' is not driven by any cell"),
    'driven': (
        "DeltaError: retarget_output: net 'n1' already driven by lut1"),
    'loop': (
        'FlowError: edited netlist rejected: netlist check failed: '
        "combinational loop through 'lut0': lut0 -> lut0"),
    'nofit': (
        'FlowError: edited netlist rejected: prop400+ecoc45b553c '
        "does not fit NG-ULTRA-TEST: {'luts': 312, 'ffs': 78, "
        "'dsps': 5, 'brams': 6, 'nets': 409, 'cells': 401}"),
    'undriven': (
        'FlowError: edited netlist rejected: netlist check failed: '
        "net 'n1' has sinks but no driver"),
}


def bad_delta(case):
    netlist = base_project("macros").netlist
    if case == "loop":
        # Feed a LUT's own output back into its first input.
        lut = _first(netlist, LUT4)
        return NetlistDelta(ops=(ReconnectInput(cell=lut.name, index=0,
                                                net=lut.output),))
    if case == "undriven":
        # Remove a LUT whose output still has sinks.
        lut = next(cell for cell in netlist.cells.values()
                   if cell.kind == LUT4 and netlist.nets[cell.output].sinks)
        return NetlistDelta(ops=(RemoveCell(name=lut.name),))
    if case == "dangling":
        # Remove the driver of the primary output.
        driver = netlist.nets[netlist.outputs[0]].driver
        return NetlistDelta(ops=(RemoveCell(name=driver),))
    if case == "nofit":
        # The device has room for no further BRAM.
        return NetlistDelta(ops=(
            AddCell(name="eco_bram", kind=BRAM, inputs=("pi0",),
                    output="eco_bram_n", primary_output=True),))
    if case == "driven":
        lut, other = [cell for cell in netlist.cells.values()
                      if cell.kind == LUT4][:2]
        return NetlistDelta(ops=(RetargetOutput(cell=lut.name,
                                                net=other.output),))
    raise KeyError(case)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_edit_messages_pinned(case):
    flow = EcoFlow(base_project("macros"), bad_delta(case))
    with pytest.raises((FlowError, DeltaError)) as error:
        flow.run(target_clock_ns=10.0, effort=0.5, channel_width=16)
    assert f"{type(error.value).__name__}: {error.value}" == REJECTED[case]
