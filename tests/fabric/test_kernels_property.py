"""Property tests for the incremental physical-implementation kernels.

The PR-5 kernels trade per-move/per-pass recomputation for incremental
state; these tests pin down the invariants that make the trade safe:

* the incrementally-tracked annealer cost equals ``total_hpwl``
  recomputed from scratch after a full anneal (no drift);
* every routed net forms a driver-rooted Steiner tree — connected,
  acyclic, containing the driver tile and every placed sink tile;
* both kernels are bit-identical across two runs with the same seed;
* the annealer's cold and ECO outputs match SHA-256 digests recorded
  on the reference kernel (a refactor may not move a single byte);
* the kernel-version salt changes the flow-cache stage keys, so cached
  artifacts from an older kernel can never be served.
"""

import hashlib
import json
import random

import pytest

from repro.fabric import (
    NG_ULTRA,
    Cell,
    Netlist,
    NXmapProject,
    eco_place,
    place,
    random_delta,
    route,
    scaled_device,
    synthesize_component,
)
from repro.fabric import nxmap as nxmap_module
from repro.fabric.netlist import BRAM, DFF, DSP, LUT4
from repro.fabric.placement import total_hpwl


def small_device():
    return scaled_device(NG_ULTRA, "NG-ULTRA-TEST", luts=4096)


def random_netlist(n_cells=300, seed=11, fanin=3, window=24,
                   with_macros=False, hubs=0, hub_rate=0.0):
    """A random LUT/FF design with local connectivity (plus optional
    DSP/BRAM macros to exercise the dedicated-column free-lists).

    With ``hubs``, a LUT's first input is rewired with probability
    ``hub_rate`` to one of the first ``hubs`` cell outputs, skewed
    toward the lowest: a spread of high-fanout nets (tens of pins) on
    top of the local ones.
    """
    rng = random.Random(seed)
    netlist = Netlist(f"prop{n_cells}")
    for i in range(8):
        netlist.add_input(f"pi{i}")
    recent = [f"pi{i}" for i in range(8)]
    for i in range(n_cells):
        out = f"n{i}"
        if with_macros and i % 37 == 36:
            kind = DSP if i % 2 else BRAM
            src = recent[-1 - rng.randrange(min(len(recent), window))]
            netlist.add_cell(Cell(name=f"m{i}", kind=kind,
                                  inputs=[src], output=out))
        elif i % 5 == 4:
            src = recent[-1 - rng.randrange(min(len(recent), window))]
            netlist.add_cell(Cell(name=f"ff{i}", kind=DFF,
                                  inputs=[src], output=out))
        else:
            ins = [recent[-1 - rng.randrange(min(len(recent), window))]
                   for _ in range(2 + rng.randrange(fanin - 1))]
            if i >= hubs > 0 and rng.random() < hub_rate:
                ins[0] = f"n{rng.randrange(1 + rng.randrange(hubs))}"
            netlist.add_cell(Cell(name=f"lut{i}", kind=LUT4,
                                  inputs=ins, output=out,
                                  init=rng.randrange(1 << 16)))
        recent.append(out)
        if len(recent) > window * 2:
            recent.pop(0)
    netlist.add_output(recent[-1])
    return netlist


class TestIncrementalHpwlExact:
    """The tracked cost is a pure function of the final placement."""

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_cost_matches_scratch_recompute(self, seed):
        netlist = random_netlist(seed=seed)
        result = place(netlist, small_device(), seed=seed, effort=0.5)
        assert result.hpwl == pytest.approx(
            total_hpwl(netlist, result.locations), abs=1e-9)

    def test_cost_matches_with_macros(self):
        netlist = random_netlist(with_macros=True)
        result = place(netlist, small_device(), seed=3, effort=0.5)
        assert result.hpwl == pytest.approx(
            total_hpwl(netlist, result.locations), abs=1e-9)

    def test_cost_matches_on_hls_component(self):
        netlist = synthesize_component("addsub", 32, stages=2)
        result = place(netlist, small_device(), seed=5, effort=1.0)
        assert result.hpwl == pytest.approx(
            total_hpwl(netlist, result.locations), abs=1e-9)

    def test_improvement_is_real(self):
        netlist = random_netlist()
        result = place(netlist, small_device(), seed=1, effort=0.5)
        assert result.hpwl < result.initial_hpwl


class TestPlacementLegality:
    def test_capacity_and_macro_columns_respected(self):
        netlist = random_netlist(with_macros=True)
        result = place(netlist, small_device(), seed=2, effort=0.3)
        occupancy = {}
        for name, tile in result.locations.items():
            cell = netlist.cells[name]
            if cell.kind == DSP:
                assert tile[0] % 8 == 4, f"{name} off the DSP column"
            if cell.kind == BRAM:
                assert tile[0] % 12 == 6, f"{name} off the BRAM column"
            key = (cell.kind == DFF, cell.kind in (DSP, BRAM), tile)
            occupancy[key] = occupancy.get(key, 0) + 1
        for (is_ff, is_macro, _tile), used in occupancy.items():
            assert used <= (2 if is_macro else 8)


class TestRouteTreeInvariants:
    def _check_trees(self, netlist, locations, result):
        checked = 0
        for net_name, paths in result.routes.items():
            net = netlist.nets[net_name]
            nodes = set()
            edges = set()
            for path in paths:
                nodes.update(path)
                for a, b in zip(path, path[1:]):
                    edge = (a, b) if a <= b else (b, a)
                    assert edge not in edges, \
                        f"{net_name}: duplicate tree edge {edge}"
                    edges.add(edge)
            # Tree: |E| == |V| - 1 plus connectivity == acyclic.
            assert len(edges) == len(nodes) - 1, f"{net_name}: cycle"
            driver_tile = locations[net.driver]
            assert driver_tile in nodes, f"{net_name}: driver not in tree"
            for sink in net.sinks:
                if sink in locations:
                    assert locations[sink] in nodes, \
                        f"{net_name}: sink {sink} not in tree"
            adjacency = {}
            for a, b in edges:
                adjacency.setdefault(a, []).append(b)
                adjacency.setdefault(b, []).append(a)
            seen = {driver_tile}
            stack = [driver_tile]
            while stack:
                for neighbour in adjacency.get(stack.pop(), []):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
            assert seen == nodes, f"{net_name}: tree not connected"
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", [1, 4])
    def test_random_design_trees(self, seed):
        netlist = random_netlist(seed=seed)
        placement = place(netlist, small_device(), seed=seed, effort=0.3)
        result = route(netlist, placement.locations, placement.grid,
                       channel_width=24)
        assert result.failed_connections == 0
        self._check_trees(netlist, placement.locations, result)

    def test_congested_design_trees_survive_ripup(self):
        # A narrow channel forces negotiation passes, exercising the
        # targeted rip-up (including the stranded-segment cascade).
        netlist = random_netlist(n_cells=400, seed=9, window=48)
        placement = place(netlist, small_device(), seed=9, effort=0.3)
        result = route(netlist, placement.locations, placement.grid,
                       channel_width=4)
        assert result.iterations > 1  # rip-up actually ran
        self._check_trees(netlist, placement.locations, result)

    def test_hls_component_trees(self):
        netlist = synthesize_component("shifter", 16)
        placement = place(netlist, small_device(), seed=1, effort=1.0)
        result = route(netlist, placement.locations, placement.grid)
        assert result.success
        self._check_trees(netlist, placement.locations, result)

    def test_wirelength_counts_shared_edges_once(self):
        netlist = random_netlist()
        placement = place(netlist, small_device(), seed=1, effort=0.3)
        result = route(netlist, placement.locations, placement.grid,
                       channel_width=24)
        by_tree = 0
        for paths in result.routes.values():
            by_tree += sum(max(0, len(p) - 1) for p in paths)
        assert result.wirelength == by_tree


class TestKernelDeterminism:
    def test_place_bit_identical_across_runs(self):
        netlist = random_netlist()
        device = small_device()
        first = place(netlist, device, seed=6, effort=0.5)
        second = place(netlist, device, seed=6, effort=0.5)
        assert first.to_json() == second.to_json()

    def test_route_bit_identical_across_runs(self):
        netlist = random_netlist()
        placement = place(netlist, small_device(), seed=6, effort=0.5)
        first = route(netlist, placement.locations, placement.grid,
                      channel_width=8)
        second = route(netlist, placement.locations, placement.grid,
                       channel_width=8)
        assert first.to_json() == second.to_json()

    def test_seed_changes_placement(self):
        netlist = random_netlist()
        device = small_device()
        first = place(netlist, device, seed=1, effort=0.5)
        second = place(netlist, device, seed=2, effort=0.5)
        assert first.locations != second.locations


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestAnnealerOutputsPinned:
    """Byte-level pins on the annealer's outputs.

    The digests were recorded on the ``PLACE_KERNEL_VERSION = 2`` kernel.
    A change that alters any of them changes placement results and must
    bump the kernel version (and re-record) rather than slip through:
    the comparison tests above only check two runs against each other.
    """

    COLD = {
        "plain": "f954f29d5d28986ba71a16b366cec618"
                 "2383898d44924bb142102e5a64364cc6",
        "macros": "376c24ef23c83e4cb1b834b35c13cc3c"
                  "39f8aa440d19e4e2102969de67b44c5f",
        "hubs": "fde4c4f6a36e9a9a3b24de917993a60e"
                "cf10caeba93a47012e06a2d584942f39",
    }
    ECO = {
        0.001: "7faf2fc784eb7d2dee22f1e21367a184"
               "ac729c0157ccf9eaf6dfdbbec183d9e8",
        0.01: "684da083ba7abd6881bec9b53da76a5c"
              "f0eea93e795ec3e62471ffa2faef7014",
        0.05: "9f3114baa3954eabafaef8bd346c2afb"
              "d82dc11fd7b379e64f5674224ad5e611",
    }

    #: ECO edit on the "hubs" fixture, whose movable cells sit on nets
    #: of up to ~50 pins (frozen pins included).
    ECO_HUBS = ("e259427cdc939c36f3f122318d180762"
                "089611b2a8b3ce0befe644f543a5dcbd")

    @staticmethod
    def _fixture(name):
        # "macros" carries DSP/BRAM cells, whose moves take the
        # free-list-only branch of the move loop; "hubs" carries a
        # spread of 9-54-pin nets, which take the large-net bbox path.
        if name == "macros":
            return random_netlist(400, seed=5, with_macros=True), 3
        if name == "hubs":
            return random_netlist(1500, seed=13, hubs=32,
                                  hub_rate=0.3), 2
        return random_netlist(300, seed=11), 4

    def _eco_digest(self, name, fraction):
        netlist, seed = self._fixture(name)
        device = small_device()
        base = place(netlist, device, seed=seed, effort=0.5)
        edited, impact = random_delta(netlist, fraction, seed=3) \
            .apply(netlist)
        result = eco_place(edited, device, base,
                           set(impact.changed_cells), seed=1)
        return _digest({"locations": result.to_json()["locations"],
                        "stats": result.stats})

    @pytest.mark.parametrize("name", sorted(COLD))
    def test_cold_placement_bytes(self, name):
        netlist, seed = self._fixture(name)
        result = place(netlist, small_device(), seed=seed, effort=0.5)
        assert _digest(result.to_json()) == self.COLD[name]

    @pytest.mark.parametrize("fraction", sorted(ECO))
    def test_eco_locations_and_stats(self, fraction):
        assert self._eco_digest("macros", fraction) == self.ECO[fraction]

    def test_eco_high_fanout_locations_and_stats(self):
        assert self._eco_digest("hubs", 0.05) == self.ECO_HUBS


class TestKernelVersionCacheSalt:
    """Stage keys must change when a kernel version is bumped."""

    def _project(self):
        netlist = synthesize_component("logic", 8)
        return NXmapProject(netlist, small_device(), seed=1)

    def test_stage_keys_include_kernel_versions(self, monkeypatch):
        project = self._project()
        before = {
            "place": project._stage_key("place", None, effort=1.0),
            "route": project._stage_key("route", "parent", channel_width=16),
            "sta": project._stage_key("sta", "parent", target_clock_ns=None,
                                      routed=True, placed=True),
        }
        bumped = dict(nxmap_module._KERNEL_VERSIONS)
        for stage in bumped:
            bumped[stage] += 1
        monkeypatch.setattr(nxmap_module, "_KERNEL_VERSIONS", bumped)
        for stage, old_key in before.items():
            new_key = {
                "place": lambda: project._stage_key("place", None,
                                                    effort=1.0),
                "route": lambda: project._stage_key("route", "parent",
                                                    channel_width=16),
                "sta": lambda: project._stage_key("sta", "parent",
                                                  target_clock_ns=None,
                                                  routed=True, placed=True),
            }[stage]()
            assert new_key != old_key, f"{stage} key ignored kernel bump"

    def test_kernel_bump_invalidates_cached_placement(self, monkeypatch):
        from repro.cache import FlowCache

        netlist = synthesize_component("logic", 8)
        cache = FlowCache()
        warm = NXmapProject(netlist, small_device(), seed=1, cache=cache)
        warm.run_place(effort=0.5)
        assert cache.stats["fabric"].misses == 1
        bumped = dict(nxmap_module._KERNEL_VERSIONS)
        bumped["place"] += 1
        monkeypatch.setattr(nxmap_module, "_KERNEL_VERSIONS", bumped)
        stale = NXmapProject(netlist, small_device(), seed=1, cache=cache)
        stale.run_place(effort=0.5)
        # The old artifact must not be served under the new kernel.
        assert cache.stats["fabric"].misses == 2

    def test_bitstream_chains_off_salted_place_key(self):
        project = self._project()
        project.cache = object()  # truthy: key computation active
        place_key = project._stage_key("place", None, effort=1.0)
        bit_key = project._stage_key("bitstream", place_key)
        other = project._stage_key("bitstream", "different-parent")
        assert bit_key != other
