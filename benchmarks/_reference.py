"""Baseline physical-implementation kernels, from before the incremental
rewrite.

These are the original (naive) placement and routing algorithms kept as
the QoR/perf oracle for ``bench_flow_kernels.py``: the incremental
kernels in :mod:`repro.fabric.placement` / :mod:`repro.fabric.routing`
must beat them ≥3x in wall time on a large design while staying within
5% on HPWL and routed wirelength.  Nothing in the production flow calls
these.

Baseline behaviour (what the incremental kernels replaced):

* ``reference_place`` re-derives the HPWL of every net touching a cell
  from scratch on each annealing move and rejection-samples free sites
  (up to 200 tries per move on dense grids).
* ``reference_route`` clears all edge usage and re-routes **every**
  connection on each negotiation pass, routing each sink of a multi-pin
  net as an independent driver→sink A* with no sharing.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, List, Optional, Tuple

from repro.fabric.device import Device, LUTS_PER_TILE
from repro.fabric.netlist import DFF, Netlist
from repro.fabric.placement import (
    _LUT_CLASS,
    PlacementError,
    PlacementResult,
    _Grid,
    _net_hpwl,
    total_hpwl,
)
from repro.fabric.routing import Edge, RoutingResult, Tile, _edge


class _OccupancyGrid(_Grid):
    """The placement grid plus the per-tile occupancy tables the
    baseline's rejection sampler checks (one per site class)."""

    def __init__(self, device: Device, netlist: Netlist) -> None:
        super().__init__(device, netlist)
        self.lut_used: Dict[Tuple[int, int], int] = {}
        self.ff_used: Dict[Tuple[int, int], int] = {}
        self.macro_used: Dict[Tuple[int, int], int] = {}

    def _table(self, kind: str) -> Dict[Tuple[int, int], int]:
        if kind in _LUT_CLASS:
            return self.lut_used
        if kind == DFF:
            return self.ff_used
        return self.macro_used

    def capacity_left(self, kind: str, tile: Tuple[int, int]) -> bool:
        table = self._table(kind)
        if table is self.macro_used:
            return self.is_macro_column(kind, tile[0]) and \
                table.get(tile, 0) < 2
        return table.get(tile, 0) < LUTS_PER_TILE

    def occupy(self, kind: str, tile: Tuple[int, int]) -> None:
        table = self._table(kind)
        table[tile] = table.get(tile, 0) + 1

    def release(self, kind: str, tile: Tuple[int, int]) -> None:
        self._table(kind)[tile] -= 1


def _random_tile(grid: _OccupancyGrid, kind: str, rng: random.Random
                 ) -> Tuple[int, int]:
    """The original rejection sampler: up to 200 uniform draws."""
    for _ in range(200):
        col = rng.randrange(grid.cols)
        row = rng.randrange(grid.rows)
        if grid.capacity_left(kind, (col, row)):
            return (col, row)
    raise PlacementError("no free site found (grid saturated)")


def reference_place(netlist: Netlist, device: Device, seed: int = 1,
                    effort: float = 1.0) -> PlacementResult:
    """The original O(net-size)-per-move annealer (baseline oracle)."""
    rng = random.Random(seed)
    grid = _OccupancyGrid(device, netlist)
    locations: Dict[str, Tuple[int, int]] = {}

    for cell in netlist.cells.values():
        tile = _random_tile(grid, cell.kind, rng)
        grid.occupy(cell.kind, tile)
        locations[cell.name] = tile

    nets_of_cell: Dict[str, List[str]] = {name: [] for name in netlist.cells}
    for net in netlist.nets.values():
        if net.driver in nets_of_cell:
            nets_of_cell[net.driver].append(net.name)
        for sink in net.sinks:
            if sink in nets_of_cell:
                nets_of_cell[sink].append(net.name)

    cost = total_hpwl(netlist, locations)
    initial = cost
    cell_names = list(netlist.cells)
    if not cell_names:
        return PlacementResult(locations, 0.0, 0.0, 0,
                               (grid.cols, grid.rows))
    moves = max(200, int(100 * effort * len(cell_names)))
    temperature = max(1.0, cost / max(1, len(cell_names)) * 2)
    cooling = 0.95 ** (1.0 / max(1, moves // 100))
    iterations = 0
    for _ in range(moves):
        iterations += 1
        name = rng.choice(cell_names)
        cell = netlist.cells[name]
        old_tile = locations[name]
        try:
            new_tile = _random_tile(grid, cell.kind, rng)
        except PlacementError:
            continue
        affected = nets_of_cell[name]
        before = sum(_net_hpwl(netlist, locations, n) for n in affected)
        locations[name] = new_tile
        after = sum(_net_hpwl(netlist, locations, n) for n in affected)
        delta = after - before
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            grid.release(cell.kind, old_tile)
            grid.occupy(cell.kind, new_tile)
            cost += delta
        else:
            locations[name] = old_tile
        temperature = max(0.01, temperature * cooling)
    return PlacementResult(locations=locations, hpwl=cost,
                           initial_hpwl=initial, iterations=iterations,
                           grid=(grid.cols, grid.rows))


def _astar(start: Tile, goal: Tile, grid: Tuple[int, int],
           usage: Dict[Edge, int], channel_width: int,
           congestion_penalty: float) -> Optional[List[Tile]]:
    cols, rows = grid
    frontier: List[Tuple[float, float, int, Tile]] = [(0.0, 0.0, 0, start)]
    came: Dict[Tile, Tile] = {}
    best: Dict[Tile, float] = {start: 0.0}
    counter = 0
    while frontier:
        _f, g, _, tile = heapq.heappop(frontier)
        if tile == goal:
            path = [tile]
            while tile in came:
                tile = came[tile]
                path.append(tile)
            path.reverse()
            return path
        if g > best.get(tile, float("inf")):
            continue  # stale entry
        col, row = tile
        for neighbour in ((col + 1, row), (col - 1, row),
                          (col, row + 1), (col, row - 1)):
            ncol, nrow = neighbour
            if not (0 <= ncol < cols and 0 <= nrow < rows):
                continue
            used = usage.get(_edge(tile, neighbour), 0)
            step = 1.0
            if used >= channel_width:
                step += congestion_penalty * (used - channel_width + 1)
            new_cost = g + step
            if new_cost < best.get(neighbour, float("inf")):
                best[neighbour] = new_cost
                came[neighbour] = tile
                counter += 1
                heuristic = abs(ncol - goal[0]) + abs(nrow - goal[1])
                heapq.heappush(frontier,
                               (new_cost + heuristic, new_cost, counter,
                                neighbour))
    return None


def reference_route(netlist: Netlist, locations: Dict[str, Tile],
                    grid: Tuple[int, int], channel_width: int = 16,
                    max_iterations: int = 3) -> RoutingResult:
    """The original full-reroute negotiation loop (baseline oracle)."""
    connections: List[Tuple[str, Tile, Tile]] = []
    for net in netlist.nets.values():
        if net.driver is None or net.driver not in locations:
            continue
        source = locations[net.driver]
        for sink in net.sinks:
            if sink not in locations:
                continue
            target = locations[sink]
            if target != source:
                connections.append((net.name, source, target))

    usage: Dict[Edge, int] = {}
    routes: Dict[str, List[List[Tile]]] = {}
    failed = 0
    iterations = 0
    penalty = 0.5
    for _iteration in range(max_iterations):
        iterations += 1
        usage.clear()
        routes.clear()
        failed = 0
        for net_name, source, target in connections:
            path = _astar(source, target, grid, usage, channel_width,
                          penalty)
            if path is None:
                failed += 1
                continue
            for a, b in zip(path, path[1:]):
                edge = _edge(a, b)
                usage[edge] = usage.get(edge, 0) + 1
            routes.setdefault(net_name, []).append(path)
        overflow = sum(1 for used in usage.values()
                       if used > channel_width)
        if overflow == 0 and failed == 0:
            break
        penalty *= 4
    wirelength = sum(count for count in usage.values())
    max_congestion = max(usage.values(), default=0)
    overflow_edges = sum(1 for used in usage.values()
                         if used > channel_width)
    return RoutingResult(
        wirelength=wirelength, max_congestion=max_congestion,
        overflow_edges=overflow_edges,
        routed_connections=len(connections) - failed,
        failed_connections=failed, iterations=iterations,
        channel_width=channel_width, routes=routes)
