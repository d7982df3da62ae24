"""Interactive ECO flow: incremental edit-to-bitstream.

HERMES's qualification loop is iterate-heavy: designers make small
netlist or constraint edits and re-run the whole NXmap-style flow, and
on real rad-hard designs those place-and-route iterations dominate the
turnaround.  This module makes the edit a first-class object and the
re-implementation cost what the edit costs:

* :class:`NetlistDelta` — a typed edit script (add/remove/resize cell,
  reconnect an input pin, retarget an output, constraint change) with a
  canonical JSON form and a content fingerprint.  ``apply`` edits a
  copy-on-write :meth:`~repro.fabric.netlist.Netlist.edit_copy`: the
  base netlist and its content fingerprint never change, and equal
  (base, delta) pairs yield structurally identical edited netlists.
* :class:`EcoFlow` — re-implements only what the edit touched:

  - **delta checks**: undriven nets and dangling outputs can appear
    only on touched nets, and a new combinational loop only through a
    new combinational edge, so the edit is validated on the delta (the
    full ``Netlist.validate()`` decides whenever that finds anything);
  - **warm-start placement** (:func:`eco_place`): the annealer starts
    from the cached base placement; only the changed cells and their
    net neighborhood are movable, annealed at low temperature inside a
    VPR-style range limit — every other cell is frozen bit-identical;
  - **delta routing** (:func:`~repro.fabric.routing.reroute`): only
    the route trees of nets whose connectivity or pin tiles changed
    (plus whatever the overflow cascade rips) are torn up; every other
    base tree and its channel usage are kept without being re-checked;
  - **cone-limited STA** (:func:`~repro.fabric.timing.analyze_timing_cone`):
    arrivals are re-propagated only over the fan-out cone of the
    changed cells and the re-routed nets, then merged into the cached
    full-timing state;
  - **bitstream patching** (:func:`~repro.fabric.bitstream.patch_bitstream`):
    only the tiles whose cells or config words changed are rewritten.

  Each stage starts from state derived once per base implementation —
  the base HPWL, site occupancy, routing index, STA levels, route
  lengths, endpoint keys, full-STA state and bitstream — kept on the
  base :class:`NXmapProject` and shared by every flow on it
  (:class:`_EcoBase`).  An edit patches copies of that state, and every
  result is byte-identical to the full computation it replaces
  (``tests/fabric/test_eco_differential.py``).

Every ECO stage result is content-addressed under a *delta-chained*
key: ``content_key(base stage key, canonical delta, options)``.  The
same edit submitted twice — from the CLI, the API (job kind ``eco``) or
the job service — is therefore a warm cache hit with a byte-identical
report.

Telemetry counters: ``eco.cells.moved``, ``eco.nets.ripped``,
``eco.sta.cone_size``, plus the warm-start anneal's ``place.*``
counters (the same four the cold placer reports).
"""

from __future__ import annotations

import random
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, \
    Optional, Sequence, Set, Tuple, Union

from ..cache import content_key
from ..telemetry import Tracer
from .bitstream import Bitstream, generate_bitstream, patch_bitstream
from .device import Device
from .netlist import CELL_KINDS, LUT4, STAT_OF_KIND, Cell, Net, Netlist, \
    NetlistError
from .nxmap import FlowError, FlowReport, NXmapProject
from .placement import PlacementResult, _anneal, _emit_counters, _Grid, \
    _IncrementalHpwl, _net_pins, _SiteManager, total_hpwl
from .routing import RoutingResult, WarmRoutes, reroute
from .timing import StaState, TimingReport, _cone, _levels, \
    _net_route_lengths, analyze_timing_state

#: Bumped whenever the ECO kernels (warm-start placement, delta routing
#: orchestration, cone merge) change their results; folded into every
#: delta-chained stage key so stale ECO artifacts are never served.
ECO_KERNEL_VERSION = 2

#: Constraint names a delta may change.
_CONSTRAINT_NAMES = ("target_clock_ns",)

#: Warm-start neighborhood expansion stops at nets above this fanout:
#: unfreezing a high-fanout net's whole sink cloud would cascade into
#: the rip-up set and the STA cone (see :func:`eco_place`).
_NEIGHBOR_FANOUT_CAP = 4

#: HPWL a move of a pre-existing cell must win before it is considered.
#: Every moved cell forces its nets into the rip-up set and their cones
#: into the STA re-run, so churn moves (tiny HPWL wins) cost far more
#: downstream than they save; cells the delta *added* carry no penalty.
_DISTURB_PENALTY = 8.0


class DeltaError(NetlistError):
    """A malformed or inapplicable ECO delta."""


# -- the edit taxonomy ------------------------------------------------------


@dataclass(frozen=True)
class AddCell:
    """Add a new cell (its nets are created on demand).

    With ``primary_output`` the cell's output net is also registered as
    a primary output — the safe way to attach observation logic without
    creating combinational cycles.
    """

    name: str
    kind: str
    inputs: Tuple[str, ...] = ()
    output: Optional[str] = None
    init: int = 0
    primary_output: bool = False
    op = "add_cell"

    def canonical(self) -> Dict[str, Any]:
        return {"op": self.op, "name": self.name, "kind": self.kind,
                "inputs": list(self.inputs), "output": self.output,
                "init": self.init, "primary_output": self.primary_output}

    def apply_to(self, netlist: Netlist) -> Tuple[Set[str], Set[str]]:
        if self.name in netlist.cells:
            raise DeltaError(f"add_cell: cell {self.name!r} exists")
        if self.kind not in CELL_KINDS:
            raise DeltaError(f"add_cell: unknown kind {self.kind!r}")
        netlist.add_cell(Cell(name=self.name, kind=self.kind,
                              inputs=list(self.inputs),
                              output=self.output, init=int(self.init)))
        if self.primary_output and self.output is not None \
                and self.output not in netlist.outputs:
            netlist.add_output(self.output)
        nets = set(self.inputs)
        if self.output is not None:
            nets.add(self.output)
        return {self.name}, nets


@dataclass(frozen=True)
class RemoveCell:
    """Remove a cell; its output net loses its driver.

    The caller is responsible for leaving the netlist legal (reconnect
    or remove the former sinks first) — ``EcoFlow`` re-validates the
    edited netlist before implementing it.
    """

    name: str
    op = "remove_cell"

    def canonical(self) -> Dict[str, Any]:
        return {"op": self.op, "name": self.name}

    def apply_to(self, netlist: Netlist) -> Tuple[Set[str], Set[str]]:
        cell = netlist.cells.pop(self.name, None)
        if cell is None:
            raise DeltaError(f"remove_cell: unknown cell {self.name!r}")
        nets: Set[str] = set()
        for net_name in cell.inputs:
            netlist.writable_net(net_name).sinks.remove(self.name)
            nets.add(net_name)
        if cell.output is not None:
            netlist.writable_net(cell.output).driver = None
            nets.add(cell.output)
        return {self.name}, nets


@dataclass(frozen=True)
class ResizeCell:
    """Change a cell's configuration word (LUT truth table, DSP mode).

    Config-only: connectivity and placement are untouched, so the ECO
    flow re-generates the bitstream but neither re-places nor re-routes.
    """

    name: str
    init: int
    op = "resize_cell"

    def canonical(self) -> Dict[str, Any]:
        return {"op": self.op, "name": self.name, "init": self.init}

    def apply_to(self, netlist: Netlist) -> Tuple[Set[str], Set[str]]:
        if self.name not in netlist.cells:
            raise DeltaError(f"resize_cell: unknown cell {self.name!r}")
        netlist.writable_cell(self.name).init = int(self.init)
        return set(), set()


@dataclass(frozen=True)
class ReconnectInput:
    """Rewire one input pin of a cell onto a different net."""

    cell: str
    index: int
    net: str
    op = "reconnect_input"

    def canonical(self) -> Dict[str, Any]:
        return {"op": self.op, "cell": self.cell, "index": self.index,
                "net": self.net}

    def apply_to(self, netlist: Netlist) -> Tuple[Set[str], Set[str]]:
        cell = netlist.cells.get(self.cell)
        if cell is None:
            raise DeltaError(
                f"reconnect_input: unknown cell {self.cell!r}")
        if not 0 <= self.index < len(cell.inputs):
            raise DeltaError(
                f"reconnect_input: {self.cell} has no input pin "
                f"{self.index}")
        old = cell.inputs[self.index]
        netlist.writable_net(old).sinks.remove(self.cell)
        netlist.writable_cell(self.cell).inputs[self.index] = self.net
        netlist.ensure_net(self.net).sinks.append(self.cell)
        return {self.cell}, {old, self.net}


@dataclass(frozen=True)
class RetargetOutput:
    """Move a cell's output onto a different (undriven) net."""

    cell: str
    net: str
    op = "retarget_output"

    def canonical(self) -> Dict[str, Any]:
        return {"op": self.op, "cell": self.cell, "net": self.net}

    def apply_to(self, netlist: Netlist) -> Tuple[Set[str], Set[str]]:
        cell = netlist.cells.get(self.cell)
        if cell is None:
            raise DeltaError(
                f"retarget_output: unknown cell {self.cell!r}")
        target = netlist.ensure_net(self.net)
        if target.driver is not None and target.driver != self.cell:
            raise DeltaError(
                f"retarget_output: net {self.net!r} already driven by "
                f"{target.driver}")
        nets = {self.net}
        if cell.output is not None:
            netlist.writable_net(cell.output).driver = None
            nets.add(cell.output)
        netlist.writable_cell(self.cell).output = self.net
        target.driver = self.cell
        return {self.cell}, nets


@dataclass(frozen=True)
class SetConstraint:
    """Change a flow constraint (currently: ``target_clock_ns``)."""

    name: str
    value: float
    op = "set_constraint"

    def canonical(self) -> Dict[str, Any]:
        return {"op": self.op, "name": self.name, "value": self.value}

    def apply_to(self, netlist: Netlist) -> Tuple[Set[str], Set[str]]:
        if self.name not in _CONSTRAINT_NAMES:
            raise DeltaError(
                f"set_constraint: unknown constraint {self.name!r} "
                f"(known: {', '.join(_CONSTRAINT_NAMES)})")
        return set(), set()


DeltaOp = Union[AddCell, RemoveCell, ResizeCell, ReconnectInput,
                RetargetOutput, SetConstraint]

_OP_TYPES: Dict[str, type] = {
    cls.op: cls for cls in (AddCell, RemoveCell, ResizeCell,
                            ReconnectInput, RetargetOutput, SetConstraint)}


@dataclass(frozen=True)
class DeltaImpact:
    """What a delta touched, computed while applying it."""

    added: FrozenSet[str] = frozenset()
    removed: FrozenSet[str] = frozenset()
    reconnected: FrozenSet[str] = frozenset()
    resized: FrozenSet[str] = frozenset()
    touched_nets: FrozenSet[str] = frozenset()
    constraints: Mapping[str, float] = field(default_factory=dict)

    @property
    def changed_cells(self) -> FrozenSet[str]:
        """Cells whose connectivity or existence changed (placement-
        relevant — resizes are config-only)."""
        return self.added | self.removed | self.reconnected


@dataclass(frozen=True)
class NetlistDelta:
    """An ordered edit script over a technology netlist.

    Order is semantic (a reconnect may target a net an earlier op
    created), so the canonical form — and therefore the fingerprint and
    every delta-chained cache key — preserves it: reordered op lists
    are *different* deltas even when they commute.
    """

    ops: Tuple[DeltaOp, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))

    def canonical(self) -> List[Dict[str, Any]]:
        return [op.canonical() for op in self.ops]

    def fingerprint(self) -> str:
        return content_key("delta", {"ops": self.canonical()})

    def to_json(self) -> List[Dict[str, Any]]:
        return self.canonical()

    @classmethod
    def from_json(cls, payload: Sequence[Mapping[str, Any]]
                  ) -> "NetlistDelta":
        if isinstance(payload, Mapping):
            payload = payload.get("ops", [])
        ops: List[DeltaOp] = []
        for record in payload:
            record = dict(record)
            op_name = record.pop("op", None)
            op_type = _OP_TYPES.get(op_name)
            if op_type is None:
                raise DeltaError(f"unknown delta op {op_name!r}")
            if op_name == "add_cell":
                record["inputs"] = tuple(record.get("inputs", ()))
            try:
                ops.append(op_type(**record))
            except TypeError as error:
                raise DeltaError(f"malformed {op_name} op: {error}")
        return cls(ops=tuple(ops))

    def constraints(self) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for op in self.ops:
            if isinstance(op, SetConstraint):
                values[op.name] = float(op.value)
        return values

    def apply(self, netlist: Netlist) -> Tuple[Netlist, DeltaImpact]:
        """The edited netlist plus the computed impact.

        The edited netlist is a copy-on-write :meth:`Netlist.edit_copy`:
        it shares every cell and net the delta leaves alone with
        ``netlist``, which never changes, so applying costs a dict copy
        plus the edit.
        """
        edited = netlist.edit_copy(
            name=f"{netlist.name}+eco{self.fingerprint()[:8]}")
        added: Set[str] = set()
        removed: Set[str] = set()
        reconnected: Set[str] = set()
        resized: Set[str] = set()
        nets: Set[str] = set()
        for op in self.ops:
            cells, op_nets = op.apply_to(edited)
            nets.update(op_nets)
            if isinstance(op, AddCell):
                added.update(cells)
                removed.discard(op.name)
            elif isinstance(op, RemoveCell):
                removed.update(cells)
                added.discard(op.name)
                reconnected.discard(op.name)
            elif isinstance(op, ResizeCell):
                resized.add(op.name)
            else:
                reconnected.update(cells)
        impact = DeltaImpact(
            added=frozenset(added), removed=frozenset(removed),
            reconnected=frozenset(reconnected - added),
            resized=frozenset(resized - removed),
            touched_nets=frozenset(nets),
            constraints=self.constraints())
        return edited, impact


def random_delta(netlist: Netlist, fraction: float,
                 seed: int = 3) -> NetlistDelta:
    """A deterministic, loop-safe random edit of ``fraction`` of the
    cells — the scripted-edit generator the CLI, CI smoke job and the
    benchmark share.

    Loop safety by construction: reconnects only target nets driven by
    sequential cells or primary inputs (no combinational edge is ever
    added into existing logic), and added LUTs feed a fresh primary
    output (no outgoing combinational edges).
    """
    rng = random.Random(seed)
    cells = sorted(netlist.cells)
    if not cells:
        raise DeltaError("cannot edit an empty netlist")
    count = max(1, int(len(cells) * fraction))
    safe_nets = sorted(
        name for name, net in netlist.nets.items()
        if (net.driver is None and name in netlist.inputs)
        or (net.driver is not None
            and netlist.cells[net.driver].is_sequential))
    if not safe_nets:
        safe_nets = sorted(netlist.inputs)
    if not safe_nets:
        raise DeltaError("no loop-safe source nets to reconnect to")
    any_nets = sorted(name for name, net in netlist.nets.items()
                      if net.driver is not None
                      or name in netlist.inputs)
    ops: List[DeltaOp] = []
    for index in range(count):
        cell = netlist.cells[cells[rng.randrange(len(cells))]]
        roll = rng.random()
        if roll < 0.3 and cell.kind == LUT4:
            ops.append(ResizeCell(name=cell.name,
                                  init=rng.randrange(1 << 16)))
        elif roll < 0.8 and cell.inputs:
            pin = rng.randrange(len(cell.inputs))
            target = safe_nets[rng.randrange(len(safe_nets))]
            ops.append(ReconnectInput(cell=cell.name, index=pin,
                                      net=target))
        else:
            sources = tuple(any_nets[rng.randrange(len(any_nets))]
                            for _ in range(2))
            ops.append(AddCell(
                name=f"eco_s{seed}_c{index}", kind=LUT4,
                inputs=sources, output=f"eco_s{seed}_n{index}",
                init=rng.randrange(1 << 16), primary_output=True))
    return NetlistDelta(ops=tuple(ops))


# -- warm-start placement ---------------------------------------------------


class _WarmStart:
    """The warm-start arrays of one edit, in the annealer's index space.

    Every cell of the edited design has an index; a cell the base
    placement knows sits on its base tile (its *home*), the others
    (``added``: (index, name) in netlist order) are placed by
    :func:`_place_from`.  Indices follow ``netlist.cells`` order, so
    sorting indices sorts cells in netlist order.

    This class builds everything from scratch (:meth:`replay`);
    :class:`_PatchedStart` derives the same arrays from a base
    implementation's copies.
    """

    def __init__(self, index: Dict[str, int], classes: List[str],
                 xs: List[int], ys: List[int], sites: _SiteManager
                 ) -> None:
        self.index = index
        self.classes = classes
        self.xs = xs
        self.ys = ys
        self.sites = sites
        self.added: List[Tuple[int, str]] = []
        # Cell names by index and the base tiles (set by ``replay``).
        self.names: List[str] = []
        self.homes: Mapping[str, Tuple[int, int]] = {}

    @classmethod
    def replay(cls, netlist: Netlist, device: Device,
               base: PlacementResult) -> "_WarmStart":
        grid = _Grid(device, netlist, dims=base.grid)
        names = list(netlist.cells)
        start = cls({name: index for index, name in enumerate(names)},
                    [_SiteManager.site_class(cell.kind)
                     for cell in netlist.cells.values()],
                    [0] * len(names), [0] * len(names), _SiteManager(grid))
        start.names, start.homes = names, base.locations
        start.occupy(netlist, base.locations)
        return start

    def occupy(self, netlist: Netlist,
               homes: Mapping[str, Tuple[int, int]]) -> None:
        """Occupy every located cell's home tile, in netlist order, and
        list the others as ``added``."""
        for name in netlist.cells:
            index = self.index[name]
            tile = homes.get(name)
            if tile is None:
                self.added.append((index, name))
                continue
            cls = self.classes[index]
            if not self.sites.has_room(cls, tile):
                raise FlowError(
                    f"eco warm start: base tile {tile} of {name!r} is over "
                    f"capacity (incompatible base placement)")
            self.sites.occupy(cls, tile)
            self.xs[index], self.ys[index] = tile

    def home(self, index: int) -> Optional[Tuple[int, int]]:
        return self.homes.get(self.names[index])

    def span(self, net: Net) -> Optional[int]:
        """``_net_hpwl`` of ``net`` at the current tiles, or ``None``
        for a net with fewer than two placed pins (which counts 0.0)."""
        index_of, xs, ys = self.index, self.xs, self.ys
        pins = []
        if net.driver and net.driver in index_of:
            pins.append(index_of[net.driver])
        for sink in net.sinks:
            index = index_of.get(sink)
            if index is not None:
                pins.append(index)
        if len(pins) < 2:
            return None
        cols = [xs[pin] for pin in pins]
        rows = [ys[pin] for pin in pins]
        return (max(cols) - min(cols)) + (max(rows) - min(rows))

    def net_position(self, netlist: Netlist) -> Callable[[str], int]:
        """Sort key of a net name: its position in ``netlist.nets``."""
        return {name: position for position, name
                in enumerate(netlist.nets)}.__getitem__

    def initial_hpwl(self, netlist: Netlist) -> float:
        """``total_hpwl`` of the warm start (added cells placed)."""
        xs, ys = self.xs, self.ys
        return total_hpwl(netlist, {name: (xs[i], ys[i])
                                    for i, name in enumerate(self.names)})

    def locations(self, movable: Sequence[int]
                  ) -> Dict[str, Tuple[int, int]]:
        """Every cell's final tile, in netlist order (only ``movable``
        and added cells can have left their home)."""
        xs, ys = self.xs, self.ys
        return {name: (xs[i], ys[i]) for i, name in enumerate(self.names)}


def eco_place(netlist: Netlist, device: Device, base: PlacementResult,
              changed_cells: Set[str], seed: int = 1,
              effort: float = 1.0,
              tracer: Optional[Tracer] = None) -> PlacementResult:
    """Warm-start annealing from a cached base placement.

    The movable set is the changed cells plus the low-fanout net
    neighborhood of the cells the delta added; everything else keeps its
    base tile *bit-identically*.  The cold placer's move loop runs at a
    fraction of the cold starting temperature inside a reduced range
    limit, on the base placement's grid (so frozen tiles stay legal).
    """
    if not netlist.cells:
        return PlacementResult({}, 0.0, 0.0, 0, tuple(base.grid))
    start = _WarmStart.replay(netlist, device, base)
    return _place_from(start, netlist, changed_cells, seed, effort,
                       tracer)[0]


def _place_from(start: _WarmStart, netlist: Netlist,
                changed_cells: Set[str], seed: int, effort: float,
                tracer: Optional[Tracer]
                ) -> Tuple[PlacementResult, Set[str]]:
    """The warm-start anneal of :func:`eco_place` from ``start``; also
    returns the cells whose tile differs from their base tile."""
    rng = random.Random(seed)
    sites = start.sites
    cols, rows = sites.grid.cols, sites.grid.rows
    index_of = start.index
    classes, xs, ys = start.classes, start.xs, start.ys

    # The movable set: the changed cells, plus the low-fanout one-net
    # neighborhood of the *added* ones (a fresh cell needs its
    # neighbors to shuffle locally so it can legalize near them).
    # Neighbors of merely-reconnected cells stay frozen — they still
    # participate in the cost function as fixed pins.  Every cell the
    # anneal moves cascades into the rip-up set and the STA cone, so
    # unfreezing a reconnect source's whole sink cloud (often a
    # register feeding dozens of sinks) would defeat incrementality.
    movable: Set[str] = {name for name in changed_cells
                         if name in netlist.cells}
    hot_nets: Set[str] = set()
    for name in sorted(movable):
        cell = netlist.cells[name]
        if start.home(index_of[name]) is not None:
            continue                      # pre-existing cell: no spread
        hot_nets.update(cell.inputs)
        if cell.output is not None:
            hot_nets.add(cell.output)
    for net_name in sorted(hot_nets):
        net = netlist.nets.get(net_name)
        if net is None or net.fanout > _NEIGHBOR_FANOUT_CAP:
            continue
        if net.driver is not None and net.driver in netlist.cells:
            movable.add(net.driver)
        movable.update(sink for sink in net.sinks
                       if sink in netlist.cells)

    # Cells the base placement does not know go to the nearest free
    # site of their class, seeded at the centroid of their
    # already-placed neighbors.
    placed_added: Set[int] = set()

    def neighbor_centroid(cell: Cell) -> Tuple[int, int]:
        points: List[Tuple[int, int]] = []
        net_names = list(cell.inputs)
        if cell.output is not None:
            net_names.append(cell.output)
        for net_name in net_names:
            net = netlist.nets.get(net_name)
            if net is None:
                continue
            for pin in ([net.driver] if net.driver else []) + net.sinks:
                other = index_of.get(pin)
                if other is not None and (other in placed_added
                                          or start.home(other)
                                          is not None):
                    points.append((xs[other], ys[other]))
        if not points:
            return cols // 2, rows // 2
        return (round(sum(p[0] for p in points) / len(points)),
                round(sum(p[1] for p in points) / len(points)))

    for index, name in start.added:
        cls = classes[index]
        cx, cy = neighbor_centroid(netlist.cells[name])
        candidates = sites.free[cls].items
        if not candidates:
            raise FlowError("eco warm start: no free site for added cell")
        tile = min(candidates,
                   key=lambda t: (abs(t[0] - cx) + abs(t[1] - cy), t))
        sites.occupy(cls, tile)
        xs[index], ys[index] = tile
        placed_added.add(index)

    initial = start.initial_hpwl(netlist)
    movable_indices = sorted(index_of[name] for name in movable)
    frozen = len(netlist.cells) - len(movable_indices)

    # Anneal only the nets with at least one movable pin, in netlist
    # order: frozen nets cannot change, so the final HPWL is the
    # warm-start total shifted by the annealer's accepted gain —
    # exactly a full rescan (integer spans), without the O(nets) pass.
    movable_set = set(movable_indices)
    net_pins, nets_of_cell = _net_pins(
        netlist, index_of, movable_set,
        nets=_nets_in_order(netlist, movable,
                            start.net_position(netlist)),
        size=len(xs))
    stats = {"moves": 0, "accepted": 0, "rescans": 0,
             "window_fallbacks": 0}
    gain = 0
    if movable_indices and net_pins:
        tracker = _IncrementalHpwl(net_pins, xs, ys)
        moves = max(100, int(100 * effort * len(movable_indices)))
        span = max(cols, rows)
        # Low-temperature restart: a quarter of the local cost per
        # movable cell — enough hill-climbing to legalize the edit's
        # neighborhood, cold enough not to disturb converged structure —
        # inside a quarter-span range limit.  A first move of a
        # pre-existing cell rips its nets and re-opens their STA cones
        # downstream, so it pays the disturb penalty.
        stats, gain = _anneal(
            rng, sites, classes, xs, ys, movable_indices, tracker,
            nets_of_cell, moves=moves,
            temperature=max(0.5, tracker.total() / len(movable_indices)
                            * 0.25),
            radius=max(3, span // 4), reach=span * 0.25,
            block=max(25, moves // 100),
            home={index: start.home(index) for index in movable_indices},
            penalty=_DISTURB_PENALTY)
    _emit_counters(tracer, stats)

    # Only movable and added cells can have left their base tile.
    moved = {name for name in movable.union(
                 name for _index, name in start.added)
             if start.home(index_of[name])
             != (xs[index_of[name]], ys[index_of[name]])}
    locations = start.locations(movable_indices)
    stats = {**stats, "annealed": len(movable_indices), "frozen": frozen,
             "moved": len(moved), "added": len(start.added)}
    return PlacementResult(locations=locations, hpwl=initial + gain,
                           initial_hpwl=initial,
                           iterations=stats["moves"],
                           grid=(cols, rows), stats=stats), moved


def _nets_in_order(netlist: Netlist, cells: Set[str],
                   position: Callable[[str], int]) -> List[Net]:
    """The nets of ``cells``, sorted by ``position``."""
    names: Set[str] = set()
    for name in cells:
        cell = netlist.cells[name]
        names.update(cell.inputs)
        if cell.output is not None:
            names.add(cell.output)
    return [netlist.nets[name] for name in sorted(names, key=position)]


# -- the per-base state ----------------------------------------------------


def _tail(netlist: Netlist, impact: DeltaImpact) -> List[str]:
    """The cells the delta added, in netlist order.

    An added cell — a re-added one included — goes to the end of
    ``netlist.cells`` and a removed one leaves it, so the added cells
    are exactly the last ``len(impact.added)`` cells; every other cell
    keeps its base position.
    """
    return list(islice(reversed(netlist.cells), len(impact.added)))[::-1]


def _relevel(base_levels: Mapping[str, int], netlist: Netlist,
             impact: DeltaImpact) -> Optional[Dict[str, int]]:
    """The base topological levels raised until every combinational
    edge of the edited netlist climbs, or ``None`` if that takes more
    than one step per cell (a new loop never settles).

    A new combinational edge runs into a reconnected or added cell or
    out of a retargeted or added cell (both in ``changed_cells``), so
    only those edges and the cells downstream of a raise are visited;
    removed edges leave the base ranking valid.
    """
    level = dict(base_levels)
    cells, nets = netlist.cells, netlist.nets
    pending: deque = deque()

    def climb(driver: str, sink: str) -> None:
        need = level.get(driver, 0) + 1
        if level.get(sink, 0) < need:
            level[sink] = need
            pending.append(sink)

    for name in sorted(impact.added | impact.reconnected):
        cell = cells.get(name)
        if cell is None or cell.is_sequential:
            continue
        for net_name in cell.inputs:
            driver = nets[net_name].driver
            if driver is not None and not cells[driver].is_sequential:
                climb(driver, name)
        pending.append(name)
    budget = len(cells)
    while pending:
        budget -= 1
        if budget < 0:
            return None
        name = pending.popleft()
        output = cells[name].output
        if output is None:
            continue
        for sink in nets[output].sinks:
            if not cells[sink].is_sequential:
                climb(name, sink)
    return level


class _EcoBase:
    """What every edit of one base implementation starts from.

    It lives on the base :class:`NXmapProject` and serves every
    :class:`EcoFlow` of the same base placement and routing.  The base
    full-STA state comes from :meth:`EcoFlow.prepare_base`; every other
    piece is derived from the base design once, by the first edit whose
    computed stages need it (a stage served from the cache needs none),
    and each edit patches copies of it:

    * netlist stats, primary ports and cell and net positions;
    * the warm-start arrays and site occupancy (:class:`_PatchedStart`)
      and every base net's HPWL span;
    * the routing index (:class:`~repro.fabric.routing.WarmRoutes`);
    * STA levels, net route lengths and endpoint keys;
    * the base bitstream and each tile's cells.
    """

    def __init__(self, project: NXmapProject, sta: StaState) -> None:
        self.project = project
        self.netlist = project.netlist
        self.placement = project.placement
        self.routing = project.routing
        self.sta = sta

    def serves(self, project: NXmapProject) -> bool:
        return (project._eco_base is self
                and project.placement is self.placement
                and project.routing is self.routing)

    @cached_property
    def stats(self) -> Dict[str, int]:
        return self.netlist.stats()

    @cached_property
    def ports(self) -> Tuple[Set[str], Set[str]]:
        """The primary input and output net names."""
        return set(self.netlist.inputs), set(self.netlist.outputs)

    @cached_property
    def order(self) -> Dict[str, int]:
        return {name: index for index, name
                in enumerate(self.netlist.cells)}

    @cached_property
    def net_order(self) -> Dict[str, int]:
        return {name: index for index, name
                in enumerate(self.netlist.nets)}

    @cached_property
    def locations(self) -> Dict[str, Tuple[int, int]]:
        """The base tiles of the base cells, in netlist order."""
        locations = self.placement.locations
        return {name: locations[name] for name in self.netlist.cells
                if name in locations}

    @cached_property
    def warm(self) -> Optional[_WarmStart]:
        """The base warm start, or ``None`` when edits must replay it:
        the patched start needs a base placement of exactly the base
        cells that replays legally."""
        locations = self.placement.locations
        if not len(self.locations) == len(self.netlist.cells) \
                == len(locations):
            return None
        try:
            return _WarmStart.replay(self.netlist, self.project.device,
                                     self.placement)
        except FlowError:
            return None

    @cached_property
    def spans(self) -> Tuple[Dict[str, Optional[int]], int, int]:
        """Every base net's HPWL span (``None`` below two pins), their
        integer total and the count of ``None`` spans."""
        spans: Dict[str, Optional[int]] = {}
        total = degenerate = 0
        for net in self.netlist.nets.values():
            span = spans[net.name] = self.warm.span(net)
            if span is None:
                degenerate += 1
            else:
                total += span
        return spans, total, degenerate

    @cached_property
    def routes(self) -> WarmRoutes:
        return WarmRoutes(self.routing, self.netlist,
                          self.placement.locations)

    @cached_property
    def levels(self) -> Dict[str, int]:
        return _levels(self.netlist)

    @cached_property
    def net_lengths(self) -> Dict[str, int]:
        return _net_route_lengths(self.routing)

    @cached_property
    def endpoint_keys(self) -> Tuple[List[str], List[str]]:
        """The register and primary-output endpoint keys."""
        return ([f"cell:{name}" for name, cell
                 in self.netlist.cells.items() if cell.is_sequential],
                [f"out:{name}" for name in self.netlist.outputs])

    @cached_property
    def bitstream(self) -> Bitstream:
        project = self.project
        return generate_bitstream(
            self.netlist, self.placement.locations, self.placement.grid,
            project.device.name, seed=project.seed)

    @cached_property
    def tile_cells(self) -> Dict[Tuple[int, int], List[str]]:
        """Each tile's base cells, in netlist order."""
        cells: Dict[Tuple[int, int], List[str]] = {}
        for name, tile in self.locations.items():
            cells.setdefault(tile, []).append(name)
        return cells

    # -- per-edit patches --------------------------------------------------

    def gone(self, impact: DeltaImpact) -> Set[str]:
        """Base cells that left their place in the cell order."""
        return {name for name in impact.removed | impact.added
                if name in self.netlist.cells}

    def check(self, netlist: Netlist, impact: DeltaImpact,
              device: Device) -> Tuple[Optional[Dict[str, int]],
                                       Dict[str, int]]:
        """``NXmapProject``'s netlist and device checks of the edited
        design, on the delta; returns the patched STA levels (``None``
        when only a full pass can tell) and the netlist stats.

        Undriven nets and dangling outputs can appear only on touched
        nets, and a new loop must run through a new combinational edge
        (:func:`_relevel`).  On any suspicion the full
        :meth:`Netlist.validate` decides, so a rejection carries its
        exact message.
        """
        inputs, outputs = self.ports
        added_outputs = set(netlist.outputs[len(self.netlist.outputs):])
        suspect = False
        for name in impact.touched_nets:
            net = netlist.nets[name]
            if net.driver is None and name not in inputs and (
                    net.sinks or name in outputs
                    or name in added_outputs):
                suspect = True
                break
        levels = None
        if not suspect:
            levels = _relevel(self.levels, netlist, impact)
            suspect = levels is None
        if suspect:
            problems = netlist.validate()
            if problems:
                raise FlowError(f"netlist check failed: {problems[0]}")
        stats = dict(self.stats)
        for name in impact.removed | impact.added:
            for cell, step in ((self.netlist.cells.get(name), -1),
                               (netlist.cells.get(name), 1)):
                if cell is not None and cell.kind in STAT_OF_KIND:
                    stats[STAT_OF_KIND[cell.kind]] += step
        stats["nets"] = len(netlist.nets)
        stats["cells"] = len(netlist.cells)
        if not device.fits(stats["luts"], stats["ffs"], stats["dsps"],
                           stats["brams"]):
            raise FlowError(f"{netlist.name} does not fit {device.name}: "
                            f"{stats}")
        return levels, stats

    def endpoints(self, netlist: Netlist, impact: DeltaImpact,
                  tail: List[str]) -> Tuple[List[str], List[str]]:
        """The edited design's endpoint keys in scan order, and the base
        keys that may no longer be endpoints."""
        gone = self.gone(impact)
        seq, out = self.endpoint_keys
        if gone:
            seq = [key for key in seq if key[5:] not in gone]
        keys = seq + [f"cell:{name}" for name in tail
                      if netlist.cells[name].is_sequential]
        keys += out
        keys += [f"out:{name}" for name in netlist.outputs[len(out):]]
        return keys, [f"cell:{name}" for name in sorted(gone)]

    def net_lengths_after(self, routing: RoutingResult,
                          changed: Optional[Set[str]]) -> Dict[str, int]:
        """Routed length of every net, patched on ``changed`` nets."""
        if changed is None:
            return _net_route_lengths(routing)
        lengths = dict(self.net_lengths)
        for name in changed:
            paths = routing.routes.get(name)
            if paths is None:
                lengths.pop(name, None)
            else:
                lengths[name] = sum(max(0, len(path) - 1)
                                    for path in paths)
        return lengths

    def tiles(self, netlist: Netlist, impact: DeltaImpact,
              tail: List[str], locations: Mapping[str, Tuple[int, int]],
              moved: Set[str]) -> Dict[Tuple[int, int], List[Cell]]:
        """Each tile whose bitstream configuration the edit can change,
        with its cells in netlist order: the old and new tiles of added,
        removed and moved cells and the tiles of resized cells."""
        touched: Set[Tuple[int, int]] = set()
        for name in impact.added | impact.removed | impact.resized | moved:
            for tile in (self.locations.get(name), locations.get(name)):
                if tile is not None:
                    touched.add(tile)
        gone = self.gone(impact)
        position = {name: len(self.order) + index
                    for index, name in enumerate(tail)}
        arrivals: Dict[Tuple[int, int], Set[str]] = {}
        for name in moved.union(tail):
            tile = locations.get(name)
            if tile in touched:
                arrivals.setdefault(tile, set()).add(name)
        tiles: Dict[Tuple[int, int], List[Cell]] = {}
        for tile in sorted(touched):
            names = {name for name in self.tile_cells.get(tile, ())
                     if name not in gone and locations.get(name) == tile}
            names |= arrivals.get(tile, set())
            tiles[tile] = [netlist.cells[name] for name in sorted(
                names, key=lambda name: position[name]
                if name in position else self.order[name])]
        return tiles


class _PatchedStart(_WarmStart):
    """:class:`_WarmStart` of an edit, patched from the base's arrays.

    Base cells keep their base indices (a removed one leaves a gap) and
    the delta's added cells take the indices after them, so indices
    still follow netlist order.  The site occupancy is a copy of the
    base's unless a base cell left its place in the cell order; then it
    is replayed in the edited order, since the free-list order depends
    on the order the tiles filled up.
    """

    def __init__(self, base: _EcoBase, netlist: Netlist,
                 impact: DeltaImpact, tail: List[str]) -> None:
        warm = base.warm
        count = len(warm.xs)
        self.base = base
        self.tail = tail
        self.touched = impact.touched_nets
        self.gone = base.gone(impact)
        index = dict(warm.index)
        for name in self.gone:
            del index[name]
        for offset, name in enumerate(tail):
            index[name] = count + offset
        self.tail_homes = {count + offset: base.locations.get(name)
                           for offset, name in enumerate(tail)}
        super().__init__(
            index,
            warm.classes + [_SiteManager.site_class(netlist.cells[name].kind)
                            for name in tail],
            warm.xs + [0] * len(tail), warm.ys + [0] * len(tail),
            warm.sites.copy() if not self.gone
            else _SiteManager(warm.sites.grid))
        if self.gone:
            self.occupy(netlist, base.placement.locations)
        else:
            self.added = [(count + offset, name)
                          for offset, name in enumerate(tail)]

    def home(self, index: int) -> Optional[Tuple[int, int]]:
        warm = self.base.warm
        if index < len(warm.xs):
            return warm.xs[index], warm.ys[index]
        return self.tail_homes[index]

    def net_position(self, netlist: Netlist) -> Callable[[str], int]:
        order = self.base.net_order
        extra = len(netlist.nets) - len(order)
        if not extra:
            return order.__getitem__
        new = {name: len(order) + extra - 1 - offset for offset, name
               in enumerate(islice(reversed(netlist.nets), extra))}
        return lambda name: order[name] if name in order else new[name]

    def initial_hpwl(self, netlist: Netlist) -> float:
        # The base total with the touched nets' spans swapped: integer
        # spans, so exact; a net with fewer than two pins adds 0.0 and
        # makes ``total_hpwl`` a float.
        spans, total, degenerate = self.base.spans
        for name in self.touched:
            if name in spans:
                old = spans[name]
                if old is None:
                    degenerate -= 1
                else:
                    total -= old
            new = self.span(netlist.nets[name])
            if new is None:
                degenerate += 1
            else:
                total += new
        return float(total) if degenerate else total

    def locations(self, movable: Sequence[int]
                  ) -> Dict[str, Tuple[int, int]]:
        xs, ys = self.xs, self.ys
        names = self.base.warm.names
        count = len(names)
        locations = dict(self.base.locations)
        for name in self.gone:
            del locations[name]
        for index in movable:
            if index < count:
                locations[names[index]] = (xs[index], ys[index])
        for offset, name in enumerate(self.tail):
            locations[name] = (xs[count + offset], ys[count + offset])
        return locations


# -- the ECO report ---------------------------------------------------------


@dataclass
class EcoReport:
    """Result of one incremental edit-to-bitstream run.

    ``flow`` is a full :class:`~repro.fabric.nxmap.FlowReport` of the
    *edited* design; ``eco`` carries the incremental evidence (movable
    set size, ripped nets, STA cone size).  ``to_json`` is fully
    deterministic — no wall times — so identical edits produce
    byte-identical wire reports (the service warm-hit contract).
    """

    device: str
    base_netlist: str
    delta: List[Dict[str, Any]]
    delta_fingerprint: str
    base_hpwl: float
    flow: FlowReport
    eco: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "device": self.device,
            "base_netlist": self.base_netlist,
            "delta": self.delta,
            "delta_fingerprint": self.delta_fingerprint,
            "base_hpwl": self.base_hpwl,
            "flow": self.flow.to_json(),
            "eco": dict(sorted(self.eco.items())),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "EcoReport":
        return cls(
            device=payload["device"],
            base_netlist=payload["base_netlist"],
            delta=[dict(op) for op in payload["delta"]],
            delta_fingerprint=payload["delta_fingerprint"],
            base_hpwl=payload["base_hpwl"],
            flow=FlowReport.from_json(payload["flow"]),
            eco=dict(payload["eco"]),
        )

    def summary(self) -> str:
        eco = self.eco
        return (f"eco {self.delta_fingerprint[:8]}: "
                f"{len(self.delta)} op(s), "
                f"{eco.get('cells_moved', 0)} cell(s) moved, "
                f"{eco.get('nets_ripped', 0)} net(s) ripped, "
                f"STA cone {eco.get('sta_cone_size', 0)} — "
                f"{self.flow.summary()}")


# -- the flow ---------------------------------------------------------------


class EcoFlow:
    """Incremental re-implementation of one edit on a base project.

    The base :class:`NXmapProject` supplies the cached placement,
    routing and timing state (computed cold if its cache has been
    evicted — the delta-chained keys then rebuild below the new base
    keys, so the fallback is transparent).  ``run()`` produces an
    :class:`EcoReport` for the edited design.
    """

    def __init__(self, project: NXmapProject, delta: NetlistDelta,
                 tracer: Optional[Tracer] = None) -> None:
        self.project = project
        self.delta = delta
        self.tracer = tracer if tracer is not None else project.tracer
        self.cache = project.cache
        self.netlist: Optional[Netlist] = None
        self.impact: Optional[DeltaImpact] = None
        self.placement: Optional[PlacementResult] = None
        self.routing: Optional[RoutingResult] = None
        self.timing: Optional[TimingReport] = None
        self.bitstream: Optional[Bitstream] = None
        self._base_state: Optional[StaState] = None

    # -- delta-chained content addressing -----------------------------------

    def _eco_key(self, stage: str, parent: Optional[str],
                 **options: Any) -> Optional[str]:
        """``content_key(parent stage key, delta, options)``.

        ``parent`` is the base stage's key for the first ECO stage and
        the previous ECO stage's key after that, so the whole incremental
        chain hangs off the base placement identity plus the canonical
        delta — the delta-chained key contract.
        """
        if self.cache is None or parent is None:
            return None
        return content_key("fabric", {
            "stage": stage, "parent": parent,
            "delta": self.delta.canonical(),
            "kernel": ECO_KERNEL_VERSION,
            "options": options})

    def _cached(self, key: Optional[str], decoder, compute, encoder):
        if self.cache is None or key is None:
            return compute()
        hit, value = self.cache.get("fabric", key, decoder)
        if hit:
            return value
        value = compute()
        self.cache.put("fabric", key, value, encoder)
        return value

    def _span(self, name: str, **attributes):
        if self.tracer is None:
            return nullcontext(None)
        return self.tracer.span(name, "fabric",
                                design=self.project.netlist.name,
                                **attributes)

    # -- the incremental flow ----------------------------------------------

    def prepare_base(self, effort: float = 1.0,
                     channel_width: int = 16) -> StaState:
        """Ensure the base implementation this flow increments from.

        Base placement/routing warm from the cache when present and are
        recomputed cold when evicted — either way the stage keys are
        rebuilt, so the delta chain stays consistent.  The full-STA
        propagation state is cached under the base route key (stage
        ``sta-state``) and kept on the project with the rest of the
        per-base state, so every later flow on the same base reuses it:
        in the interactive scenario it is part of the implemented
        design, so callers may run this outside the timed edit loop.
        """
        project = self.project
        if project.placement is None:
            project.run_place(effort=effort)
        if project.routing is None:
            project.run_route(channel_width=channel_width)
        if self._base_state is None:
            with self._span("eco.sta.base"):
                shared = project._eco_base
                if shared is not None and shared.serves(project):
                    self._base_state = shared.sta
                    return self._base_state
                state_key = (project._stage_key("sta-state",
                                                project._route_key)
                             if self.cache is not None else None)
                self._base_state = self._cached(
                    state_key, StaState.from_json,
                    lambda: analyze_timing_state(
                        project.netlist, project.device,
                        routing=project.routing,
                        locations=project.placement.locations)[1],
                    StaState.to_json)
                project._eco_base = _EcoBase(project, self._base_state)
        return self._base_state

    def _implementation(self, base_state: StaState) -> _EcoBase:
        """The project's per-base state for ``base_state``."""
        project = self.project
        base = project._eco_base
        if base is None or not base.serves(project) \
                or base.sta is not base_state:
            base = project._eco_base = _EcoBase(project, base_state)
        return base

    def run(self, target_clock_ns: float = 10.0, effort: float = 1.0,
            channel_width: int = 16) -> EcoReport:
        project = self.project
        device = project.device
        tracer = self.tracer

        with self._span("eco", ops=len(self.delta.ops)):
            base_state = self.prepare_base(effort=effort,
                                           channel_width=channel_width)
            base = self._implementation(base_state)
            base_place = project.placement
            base_route = project.routing

            # Apply the edit and check it the way a fresh NXmapProject
            # would (netlist rules, device capacity), on the delta only;
            # the shadow project carries the edited design's later
            # stages (the bitstream through the delta-chained key).
            edited, impact = self.delta.apply(project.netlist)
            self.netlist, self.impact = edited, impact
            tail = _tail(edited, impact)
            try:
                levels, stats = base.check(edited, impact, device)
            except FlowError as error:
                raise FlowError(f"edited netlist rejected: {error}")
            shadow = NXmapProject._checked(edited, device, stats,
                                           seed=project.seed, tracer=tracer,
                                           cache=self.cache)
            target = impact.constraints.get("target_clock_ns",
                                            target_clock_ns)
            changed = set(impact.changed_cells)

            # (a) Warm-start placement.
            moved_cells: Optional[Set[str]] = None

            def compute_place() -> PlacementResult:
                nonlocal moved_cells
                if base.warm is None or not edited.cells:
                    result = eco_place(edited, device, base_place, changed,
                                       seed=project.seed, effort=effort,
                                       tracer=tracer)
                    return result
                result, moved_cells = _place_from(
                    _PatchedStart(base, edited, impact, tail), edited,
                    changed, project.seed, effort, tracer)
                return result

            place_key = self._eco_key("eco-place", project._place_key,
                                      effort=effort)
            with self._span("eco.place", changed=len(changed)) as span:
                placement = self._cached(
                    place_key, PlacementResult.from_json, compute_place,
                    PlacementResult.to_json)
                if span is not None:
                    span.attributes["moved"] = \
                        placement.stats.get("moved", 0)
                    span.attributes["frozen"] = \
                        placement.stats.get("frozen", 0)
            self.placement = placement
            if moved_cells is None:
                moved_cells = {name for name, tile
                               in placement.locations.items()
                               if base_place.locations.get(name) != tile}

            # (b) Delta routing.  A base route tree stays valid exactly
            # when its net's connectivity and its pins' tiles are both
            # unchanged, so rip the delta's touched nets (connectivity)
            # plus every net of a moved cell (pin positions).  Changed-
            # but-unmoved cells add nothing: their connectivity edits
            # are already the touched nets.  Every other net keeps its
            # base tree unexamined.
            rip: Set[str] = {name for name in impact.touched_nets
                             if name in edited.nets}
            for name in sorted(moved_cells):
                cell = edited.cells.get(name)
                if cell is None:
                    continue
                rip.update(net for net in cell.inputs
                           if net in edited.nets)
                if cell.output is not None and cell.output in edited.nets:
                    rip.add(cell.output)
            ripped_existing = sum(1 for name in rip
                                  if name in base_route.routes)
            rerouted: Optional[Set[str]] = None

            def compute_route() -> RoutingResult:
                nonlocal rerouted
                result, rerouted = reroute(
                    edited, placement.locations, placement.grid,
                    base.routes, rip, channel_width=channel_width,
                    tracer=tracer)
                return result

            route_key = self._eco_key("eco-route", place_key,
                                      channel_width=channel_width)
            with self._span("eco.route", ripped=ripped_existing) as span:
                routing = self._cached(
                    route_key, RoutingResult.from_json, compute_route,
                    RoutingResult.to_json)
                if span is not None:
                    span.attributes["wirelength"] = routing.wirelength
                    span.attributes["failed"] = \
                        routing.failed_connections
            self.routing = routing

            # (c) Cone-limited STA, merged into the cached base state.
            # The cone size rides along in the cached payload so a warm
            # hit reports the same number the cold run measured — the
            # byte-identical warm-report contract covers ``eco`` stats.
            sta_key = self._eco_key("eco-sta", route_key,
                                    target_clock_ns=target)
            with self._span("eco.sta") as span:

                def compute_sta() -> Tuple[TimingReport, int]:
                    keys, stale = base.endpoints(edited, impact, tail)
                    report, _state, size = _cone(
                        edited, device, base_state,
                        changed_cells=changed | moved_cells,
                        changed_nets=rip, target_clock_ns=target,
                        net_lengths=base.net_lengths_after(routing,
                                                           rerouted),
                        locations=placement.locations,
                        level=levels if levels is not None
                        else _levels(edited),
                        endpoint_keys=keys, stale_keys=stale)
                    return report, size

                timing, cone_size = self._cached(
                    sta_key,
                    lambda payload: (
                        TimingReport.from_json(payload["report"]),
                        int(payload["cone"])),
                    compute_sta,
                    lambda value: {"report": value[0].to_json(),
                                   "cone": value[1]})
                if span is not None:
                    span.attributes["cone"] = cone_size
                    span.attributes["critical_path_ns"] = \
                        round(timing.critical_path_ns, 6)
            self.timing = timing

            # (d) Bitstream: the base bitstream with the frames of the
            # touched tiles rebuilt (``patch_bitstream``).
            shadow.placement = placement
            shadow.routing = routing
            shadow.timing = timing
            # Chain the bitstream stage off the delta-chained place key
            # so the regenerated bitstream is cached per (base, delta).
            shadow._place_key = place_key
            with self._span("eco.bitstream"):
                self.bitstream = shadow._run_bitstream(
                    lambda: patch_bitstream(base.bitstream, base.tiles(
                        edited, impact, tail, placement.locations,
                        moved_cells)))

            eco_stats = {
                "cells_added": len(impact.added),
                "cells_removed": len(impact.removed),
                "cells_reconnected": len(impact.reconnected),
                "cells_resized": len(impact.resized),
                "cells_changed": len(changed),
                "cells_annealed": placement.stats.get("annealed", 0),
                "cells_frozen": placement.stats.get("frozen", 0),
                "cells_moved": len(moved_cells),
                "nets_ripped": ripped_existing,
                "sta_cone_size": cone_size,
            }
            if tracer is not None:
                tracer.counter("eco.cells.moved", "fabric").add(
                    len(moved_cells))
                tracer.counter("eco.nets.ripped", "fabric").add(
                    ripped_existing)
                tracer.counter("eco.sta.cone_size", "fabric").add(
                    cone_size)

            return EcoReport(
                device=device.name,
                base_netlist=project._base()["netlist"],
                delta=self.delta.canonical(),
                delta_fingerprint=self.delta.fingerprint(),
                base_hpwl=base_place.hpwl,
                flow=shadow.report(target),
                eco=eco_stats)
