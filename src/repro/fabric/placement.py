"""Simulated-annealing placement on the device tile grid.

Sites: every grid tile accepts up to ``LUTS_PER_TILE`` LUT-class cells and
the same number of flip-flops; DSP and BRAM macros live in dedicated
columns (every 8th / 12th column), mirroring a column-based FPGA
floorplan.  The cost function is the half-perimeter wirelength (HPWL)
summed over nets, the classic VPR-style objective.

The annealer is *incremental* (PR 5): per-net bounding boxes carry
pin-count-at-extreme bookkeeping so a move is an O(1) delta in the
common case, falling back to an O(pins) rescan only when the last pin at
an extreme moves inward; a move is priced in scratch and written back
only when accepted; free sites come from per-site-class free-lists
(no rejection sampling); and moves are VPR-style range-limited, with a
window that shrinks as the temperature drops.  Results stay
deterministic per seed; ``PLACE_KERNEL_VERSION`` salts the flow-cache
stage key so artifacts of older kernels are never served.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, \
    Tuple

from ..telemetry import Tracer
from .device import Device, LUTS_PER_TILE
from .netlist import BRAM, CARRY, DFF, DSP, IOB, LUT4, Net, Netlist

_LUT_CLASS = {LUT4, CARRY, IOB}
_DSP_COLUMN_STRIDE = 8
_BRAM_COLUMN_STRIDE = 12

#: Bumped whenever the placement algorithm changes its results; part of
#: the flow-cache stage key (see ``NXmapProject._stage_key``), so stale
#: cached placements from an older kernel can never be returned.
PLACE_KERNEL_VERSION = 2

#: Window samples attempted before falling back to the global free-list.
_WINDOW_TRIES = 8


class PlacementError(Exception):
    pass


@dataclass
class PlacementResult:
    locations: Dict[str, Tuple[int, int]]
    hpwl: float
    initial_hpwl: float
    iterations: int
    grid: Tuple[int, int]
    # Annealer instrumentation: moves accepted, bbox rescan fallbacks,
    # window-sample fallbacks (see the telemetry counters of the same
    # names).  Serialized so warm cache hits report identical evidence.
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def improvement(self) -> float:
        if self.initial_hpwl == 0:
            return 0.0
        return 1.0 - self.hpwl / self.initial_hpwl

    def to_json(self) -> dict:
        return {
            "locations": {name: list(tile)
                          for name, tile in sorted(self.locations.items())},
            "hpwl": self.hpwl,
            "initial_hpwl": self.initial_hpwl,
            "iterations": self.iterations,
            "grid": list(self.grid),
            "stats": dict(sorted(self.stats.items())),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PlacementResult":
        return cls(
            locations={name: (int(tile[0]), int(tile[1]))
                       for name, tile in payload["locations"].items()},
            hpwl=payload["hpwl"],
            initial_hpwl=payload["initial_hpwl"],
            iterations=payload["iterations"],
            grid=(int(payload["grid"][0]), int(payload["grid"][1])),
            stats=dict(payload.get("stats", {})),
        )


class _Grid:
    """The placement grid's dimensions and its macro columns."""

    def __init__(self, device: Device, netlist: Netlist,
                 min_cols: int = 4,
                 dims: Optional[Tuple[int, int]] = None) -> None:
        # Shrink the grid to the design (plus slack) so annealing moves
        # stay local; capacity checks still respect the device limits.
        stats = netlist.stats()
        if not device.fits(stats["luts"], stats["ffs"], stats["dsps"],
                           stats["brams"]):
            raise PlacementError(
                f"design does not fit {device.name}: {stats}")
        if dims is not None:
            # Pin the grid to an existing placement's dimensions (the
            # ECO warm start): frozen tiles must stay legal, so the
            # edited design anneals on the base design's grid.
            self.cols, self.rows = dims
            return
        cells_needed = max(stats["luts"], stats["ffs"]) / LUTS_PER_TILE
        tiles_needed = max(4, int(cells_needed * 1.6) + 2)
        dev_cols, dev_rows = device.grid_size
        cols = min(dev_cols, max(min_cols, math.ceil(math.sqrt(tiles_needed))))
        rows = min(dev_rows, max(min_cols,
                                 math.ceil(tiles_needed / max(1, cols))))
        # Guarantee DSP/BRAM columns exist inside the reduced grid.
        if stats["dsps"]:
            cols = max(cols, _DSP_COLUMN_STRIDE // 2 + 1)
        if stats["brams"]:
            cols = max(cols, _BRAM_COLUMN_STRIDE // 2 + 1)
        self.cols, self.rows = cols, rows

    def is_macro_column(self, kind: str, col: int) -> bool:
        if kind == DSP:
            return col % _DSP_COLUMN_STRIDE == _DSP_COLUMN_STRIDE // 2
        if kind == BRAM:
            return col % _BRAM_COLUMN_STRIDE == _BRAM_COLUMN_STRIDE // 2
        return True


class _FreeList:
    """O(1) uniform sampling over the tiles with free capacity.

    Replaces the old 200-try rejection sampler: a tile leaves the list
    when it fills up (swap-pop) and returns when a site frees, so a draw
    is always a single ``randrange``.
    """

    __slots__ = ("items", "pos")

    def __init__(self, tiles: List[Tuple[int, int]]) -> None:
        self.items: List[Tuple[int, int]] = list(tiles)
        self.pos: Dict[Tuple[int, int], int] = {
            tile: index for index, tile in enumerate(self.items)}

    def sample(self, rng: random.Random) -> Optional[Tuple[int, int]]:
        if not self.items:
            return None
        return self.items[rng.randrange(len(self.items))]

    def remove(self, tile: Tuple[int, int]) -> None:
        index = self.pos.pop(tile)
        last = self.items.pop()
        if last != tile:
            self.items[index] = last
            self.pos[last] = index

    def add(self, tile: Tuple[int, int]) -> None:
        if tile not in self.pos:
            self.pos[tile] = len(self.items)
            self.items.append(tile)

    def copy(self) -> "_FreeList":
        duplicate = _FreeList.__new__(_FreeList)
        duplicate.items = list(self.items)
        duplicate.pos = dict(self.pos)
        return duplicate


class _SiteManager:
    """Occupancy counters plus per-site-class free-lists over the grid."""

    def __init__(self, grid: _Grid) -> None:
        self.grid = grid
        tiles = [(col, row) for col in range(grid.cols)
                 for row in range(grid.rows)]
        self.capacity = {"lut": LUTS_PER_TILE, "ff": LUTS_PER_TILE,
                         "dsp": 2, "bram": 2}
        self.used: Dict[str, Dict[Tuple[int, int], int]] = {
            "lut": {}, "ff": {}, "dsp": {}, "bram": {}}
        self.free = {
            "lut": _FreeList(tiles),
            "ff": _FreeList(tiles),
            "dsp": _FreeList([t for t in tiles
                              if grid.is_macro_column(DSP, t[0])]),
            "bram": _FreeList([t for t in tiles
                               if grid.is_macro_column(BRAM, t[0])]),
        }

    def copy(self) -> "_SiteManager":
        """An independent copy: same counters, same free-list order."""
        duplicate = _SiteManager.__new__(_SiteManager)
        duplicate.grid = self.grid
        duplicate.capacity = self.capacity
        duplicate.used = {cls: dict(table)
                          for cls, table in self.used.items()}
        duplicate.free = {cls: free.copy()
                          for cls, free in self.free.items()}
        return duplicate

    @staticmethod
    def site_class(kind: str) -> str:
        if kind in _LUT_CLASS:
            return "lut"
        if kind == DFF:
            return "ff"
        return "dsp" if kind == DSP else "bram"

    def has_room(self, cls: str, tile: Tuple[int, int]) -> bool:
        return self.used[cls].get(tile, 0) < self.capacity[cls]

    def occupy(self, cls: str, tile: Tuple[int, int]) -> None:
        table = self.used[cls]
        count = table.get(tile, 0) + 1
        table[tile] = count
        if count >= self.capacity[cls]:
            self.free[cls].remove(tile)

    def release(self, cls: str, tile: Tuple[int, int]) -> None:
        table = self.used[cls]
        count = table[tile] - 1
        table[tile] = count
        if count == self.capacity[cls] - 1:
            self.free[cls].add(tile)


def _net_hpwl(netlist: Netlist, locations: Dict[str, Tuple[int, int]],
              net_name: str) -> float:
    net = netlist.nets[net_name]
    points = []
    if net.driver and net.driver in locations:
        points.append(locations[net.driver])
    for sink in net.sinks:
        if sink in locations:
            points.append(locations[sink])
    if len(points) < 2:
        return 0.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def total_hpwl(netlist: Netlist,
               locations: Dict[str, Tuple[int, int]]) -> float:
    return sum(_net_hpwl(netlist, locations, name)
               for name in netlist.nets)


def _bbox(pins: List[int], xs: List[int], ys: List[int]
          ) -> Tuple[int, int, int, int, int, int, int, int]:
    """A net's bounding box ``(xmin, xmax, ymin, ymax)`` followed by the
    pin count at each of those extremes, gathered in one pass."""
    xlo = xhi = xs[pins[0]]
    ylo = yhi = ys[pins[0]]
    cxlo = cxhi = cylo = cyhi = 0
    for pin in pins:
        x, y = xs[pin], ys[pin]
        if x < xlo:
            xlo, cxlo = x, 1
        elif x == xlo:
            cxlo += 1
        if x > xhi:
            xhi, cxhi = x, 1
        elif x == xhi:
            cxhi += 1
        if y < ylo:
            ylo, cylo = y, 1
        elif y == ylo:
            cylo += 1
        if y > yhi:
            yhi, cyhi = y, 1
        elif y == yhi:
            cyhi += 1
    return xlo, xhi, ylo, yhi, cxlo, cxhi, cylo, cyhi


class _IncrementalHpwl:
    """Per-net bounding boxes with pin-count-at-extreme bookkeeping.

    ``_anneal`` prices a move from these arrays in O(1) per net, unless
    the moved pin(s) were the last at an extreme and left it (then the
    net is rescanned, O(pins)), and writes the new boxes back only when
    the move is accepted.  ``total()`` equals ``total_hpwl`` over the
    tracked nets, recomputed from scratch, at all times
    (property-tested).
    """

    __slots__ = ("pins", "xmin", "xmax", "ymin", "ymax",
                 "cxmin", "cxmax", "cymin", "cymax")

    def __init__(self, net_pins: List[List[int]],
                 xs: List[int], ys: List[int]) -> None:
        self.pins = net_pins
        count = len(net_pins)
        self.xmin = [0] * count
        self.xmax = [0] * count
        self.ymin = [0] * count
        self.ymax = [0] * count
        self.cxmin = [0] * count
        self.cxmax = [0] * count
        self.cymin = [0] * count
        self.cymax = [0] * count
        for net, pins in enumerate(net_pins):
            (self.xmin[net], self.xmax[net], self.ymin[net], self.ymax[net],
             self.cxmin[net], self.cxmax[net], self.cymin[net],
             self.cymax[net]) = _bbox(pins, xs, ys)

    def total(self) -> int:
        return sum(xmax - xmin + ymax - ymin for xmin, xmax, ymin, ymax
                   in zip(self.xmin, self.xmax, self.ymin, self.ymax))


def _net_pins(netlist: Netlist, cell_index: Dict[str, int],
              movable: Optional[Set[int]] = None,
              nets: Optional[Iterable[Net]] = None, size: int = 0
              ) -> Tuple[List[List[int]], List[List[Tuple[int, int]]]]:
    """Per-net pin arrays (cell indices, with multiplicity) and the
    reverse map cell → [(net, pin count)].

    With a ``movable`` set, only nets with at least one movable pin are
    kept and only movable cells get a net list: frozen pins still shape
    the bounding boxes, but are never moved.  ``nets`` limits the scan
    to those nets (default: every net, in netlist order); ``size`` is
    the length of the reverse map when the cell indices are not
    ``0..len(cell_index)-1``.
    """
    net_pins: List[List[int]] = []
    nets_of_cell: List[List[Tuple[int, int]]] = [
        [] for _ in range(max(size, len(cell_index)))]
    for net in (netlist.nets.values() if nets is None else nets):
        pins: List[int] = []
        if net.driver is not None and net.driver in cell_index:
            pins.append(cell_index[net.driver])
        for sink in net.sinks:
            index = cell_index.get(sink)
            if index is not None:
                pins.append(index)
        if not pins or (movable is not None
                        and not any(pin in movable for pin in pins)):
            continue
        net_id = len(net_pins)
        net_pins.append(pins)
        counts: Dict[int, int] = {}
        for pin in pins:
            counts[pin] = counts.get(pin, 0) + 1
        for pin, count in counts.items():
            if movable is None or pin in movable:
                nets_of_cell[pin].append((net_id, count))
    return net_pins, nets_of_cell


def _anneal(rng: random.Random, sites: _SiteManager, classes: List[str],
            xs: List[int], ys: List[int], movable: Sequence[int],
            tracker: _IncrementalHpwl,
            nets_of_cell: List[List[Tuple[int, int]]], *,
            moves: int, temperature: float, radius: float, reach: float,
            block: int,
            home: Optional[Mapping[int, Optional[Tuple[int, int]]]] = None,
            penalty: float = 0.0) -> Tuple[Dict[str, int], int]:
    """The one annealing move loop, shared by the cold and ECO placers.

    Moves cells drawn from ``movable`` (updating ``xs``/``ys``,
    ``sites`` and ``tracker`` in place) under a geometric schedule from
    ``temperature``.  The range limit starts at ``radius`` and is
    floored at ``max(2, reach·√(T/T0))``; a cell still on its ``home``
    tile pays ``penalty`` on top of its HPWL delta when judged.  Returns
    the annealer stats and the HPWL change summed over accepted moves.

    A move is evaluated, then committed: each touched net's proposed box
    lives in locals and reaches the tracker only if the move is
    accepted.  The body is written out inline (tracker arithmetic and
    random draws; only a rescan calls ``_bbox``) because it runs a
    hundred times per cell; integer draws consume the stream exactly as
    ``rng.randrange``/``randint`` do on CPython
    (``Random._randbelow_with_getrandbits``: draw ``n.bit_length()``
    bits, redraw while ≥ n).
    """
    cols, rows = sites.grid.cols, sites.grid.rows
    span = max(cols, rows)
    initial_temperature = temperature
    cooling = 0.95 ** (1.0 / max(1, moves // 100))
    radius = float(radius)
    count = len(movable)
    count_bits = count.bit_length()
    getrandbits = rng.getrandbits
    rand = rng.random
    exp = math.exp
    used, capacity, free = sites.used, sites.capacity, sites.free
    release, occupy = sites.release, sites.occupy
    pins_of = tracker.pins
    xmin, xmax, ymin, ymax = (tracker.xmin, tracker.xmax, tracker.ymin,
                              tracker.ymax)
    cxmin, cxmax, cymin, cymax = (tracker.cxmin, tracker.cxmax,
                                  tracker.cymin, tracker.cymax)
    block_moves = 0
    block_accepted = 0
    accepted = 0
    window_fallbacks = 0
    rescans = 0
    gain = 0
    for _ in range(moves):
        pick = getrandbits(count_bits)
        while pick >= count:
            pick = getrandbits(count_bits)
        index = movable[pick]
        cls = classes[index]
        ox, oy = xs[index], ys[index]
        new_tile: Optional[Tuple[int, int]] = None
        if cls == "lut" or cls == "ff":
            r = int(radius)
            cmin, cmax = max(0, ox - r), min(cols - 1, ox + r)
            rmin, rmax = max(0, oy - r), min(rows - 1, oy + r)
            width, height = cmax - cmin + 1, rmax - rmin + 1
            width_bits = width.bit_length()
            height_bits = height.bit_length()
            table, room = used[cls], capacity[cls]
            for _try in range(_WINDOW_TRIES):
                col = getrandbits(width_bits)
                while col >= width:
                    col = getrandbits(width_bits)
                row = getrandbits(height_bits)
                while row >= height:
                    row = getrandbits(height_bits)
                candidate = (cmin + col, rmin + row)
                if table.get(candidate, 0) < room:
                    new_tile = candidate
                    break
            else:
                window_fallbacks += 1
        if new_tile is None:
            items = free[cls].items
            size = len(items)
            if not size:
                continue
            size_bits = size.bit_length()
            pick = getrandbits(size_bits)
            while pick >= size:
                pick = getrandbits(size_bits)
            new_tile = items[pick]
        nx, ny = new_tile
        xs[index], ys[index] = nx, ny
        delta = 0
        proposal = []
        for net, k in nets_of_cell[index]:
            xlo, xhi, ylo, yhi = xmin[net], xmax[net], ymin[net], ymax[net]
            cxlo, cxhi = cxmin[net], cxmax[net]
            cylo, cyhi = cymin[net], cymax[net]
            old_span = xhi - xlo + yhi - ylo
            # Insert the k pins at the new location...
            if nx < xlo:
                xlo, cxlo = nx, k
            elif nx == xlo:
                cxlo += k
            if nx > xhi:
                xhi, cxhi = nx, k
            elif nx == xhi:
                cxhi += k
            if ny < ylo:
                ylo, cylo = ny, k
            elif ny == ylo:
                cylo += k
            if ny > yhi:
                yhi, cyhi = ny, k
            elif ny == yhi:
                cyhi += k
            # ...then remove them from the old one; losing the last pin
            # at an extreme forces a rescan.
            stale = False
            if ox == xlo:
                cxlo -= k
                stale = cxlo <= 0
            if ox == xhi:
                cxhi -= k
                stale = stale or cxhi <= 0
            if oy == ylo:
                cylo -= k
                stale = stale or cylo <= 0
            if oy == yhi:
                cyhi -= k
                stale = stale or cyhi <= 0
            if stale:
                rescans += 1
                xlo, xhi, ylo, yhi, cxlo, cxhi, cylo, cyhi = _bbox(
                    pins_of[net], xs, ys)
            delta += xhi - xlo + yhi - ylo - old_span
            proposal.append((net, xlo, xhi, ylo, yhi, cxlo, cxhi, cylo,
                             cyhi))
        block_moves += 1
        cost = delta
        if home is not None and home[index] == (ox, oy):
            cost += penalty
        if cost <= 0 or rand() < exp(-cost / temperature):
            accepted += 1
            block_accepted += 1
            release(cls, (ox, oy))
            occupy(cls, new_tile)
            gain += delta
            for net, xlo, xhi, ylo, yhi, cxlo, cxhi, cylo, cyhi in proposal:
                xmin[net], xmax[net], ymin[net], ymax[net] = \
                    xlo, xhi, ylo, yhi
                cxmin[net], cxmax[net], cymin[net], cymax[net] = \
                    cxlo, cxhi, cylo, cyhi
        else:
            xs[index], ys[index] = ox, oy
        if block_moves >= block:
            rate = block_accepted / block_moves
            # Accept-rate adaptation (target 0.44) with a temperature-
            # tied floor: the window may not collapse faster than the
            # anneal itself cools, or structured netlists lose the
            # coarse shuffling phase and freeze into local minima.
            floor = max(2.0, reach * (temperature / initial_temperature)
                        ** 0.5)
            radius = min(float(span), max(floor, radius * (0.56 + rate)))
            block_moves = 0
            block_accepted = 0
        temperature = max(0.01, temperature * cooling)
    stats = {"moves": moves, "accepted": accepted, "rescans": rescans,
             "window_fallbacks": window_fallbacks}
    return stats, gain


def _emit_counters(tracer: Optional[Tracer], stats: Dict[str, int]) -> None:
    """Report the annealer stats as the ``place.*`` telemetry counters."""
    if tracer is None:
        return
    tracer.counter("place.moves.total", "fabric").add(stats["moves"])
    tracer.counter("place.moves.accepted", "fabric").add(stats["accepted"])
    tracer.counter("place.bbox.rescans", "fabric").add(stats["rescans"])
    tracer.counter("place.window.fallbacks", "fabric").add(
        stats["window_fallbacks"])


def place(netlist: Netlist, device: Device, seed: int = 1,
          effort: float = 1.0, tracer: Optional[Tracer] = None
          ) -> PlacementResult:
    """Simulated-annealing placement (incremental kernel).

    ``effort`` scales the number of annealing moves (1.0 ≈ 100 moves per
    cell); the run is deterministic for a given seed.

    The input netlist is never mutated: all placement state lives in the
    returned :class:`PlacementResult` (downstream stages take the
    ``locations`` map explicitly).

    ``tracer`` (optional) receives the annealer counters:
    ``place.moves.accepted``, ``place.moves.total``,
    ``place.bbox.rescans`` and ``place.window.fallbacks``.
    """
    rng = random.Random(seed)
    grid = _Grid(device, netlist)
    sites = _SiteManager(grid)
    cols, rows = grid.cols, grid.rows

    # Per-cell arrays, precomputed outside the move loop.
    cell_names: List[str] = list(netlist.cells)
    cell_index = {name: index for index, name in enumerate(cell_names)}
    classes: List[str] = [_SiteManager.site_class(cell.kind)
                          for cell in netlist.cells.values()]
    ncells = len(cell_names)

    # Initial placement: sequential free-list draw (keeps related cells
    # adjacent because macro elaboration emits them in connectivity
    # order).  Every site class takes the same path — the historical
    # macro/non-macro branch was dead (both arms identical).
    xs: List[int] = [0] * ncells
    ys: List[int] = [0] * ncells
    for index in range(ncells):
        cls = classes[index]
        tile = sites.free[cls].sample(rng)
        if tile is None:
            raise PlacementError("no free site found (grid saturated)")
        sites.occupy(cls, tile)
        xs[index], ys[index] = tile

    if ncells == 0:
        return PlacementResult({}, 0.0, 0.0, 0, (cols, rows))

    # Cold schedule: the whole design is movable, the range limit starts
    # at (and may only shrink from) the full grid span.
    net_pins, nets_of_cell = _net_pins(netlist, cell_index)
    tracker = _IncrementalHpwl(net_pins, xs, ys)
    initial = tracker.total()
    moves = max(200, int(100 * effort * ncells))
    span = max(cols, rows)
    stats, gain = _anneal(
        rng, sites, classes, xs, ys, range(ncells), tracker, nets_of_cell,
        moves=moves, temperature=max(1.0, initial / ncells * 2),
        radius=span, reach=span, block=max(50, moves // 100))
    _emit_counters(tracer, stats)
    locations = {cell_names[i]: (xs[i], ys[i]) for i in range(ncells)}
    return PlacementResult(locations=locations, hpwl=initial + gain,
                           initial_hpwl=initial, iterations=moves,
                           grid=(cols, rows), stats=stats)
