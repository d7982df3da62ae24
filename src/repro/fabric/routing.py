"""Capacity-aware maze routing over the tile grid.

The routing fabric is modelled as a grid graph: each tile connects to its
four neighbours through channels of ``channel_width`` tracks.  Multi-sink
nets are routed as a *shared route tree* (PR 5): each sink runs a
multi-source A* that targets the nearest node of the net's existing tree
rather than re-routing from the driver, so fanout edges are paid for
once.  Every search is bounded to the connection bounding box plus a
congestion-adaptive margin (widened on each negotiation pass, with an
unbounded retry as the safety net).  Between negotiation passes the
rip-up is *targeted*: only connections whose paths cross overflowed
edges (plus tree segments stranded by such a rip) are torn up and
re-routed under a higher congestion penalty — everything else keeps its
usage intact.  Reports wirelength, congestion and overflow — the numbers
the NXmap flow report exposes after routing.  The whole kernel is
deterministic (no RNG); ``ROUTE_KERNEL_VERSION`` salts the flow-cache
stage key so artifacts of older kernels are never served.
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..telemetry import Tracer
from .netlist import Netlist

Tile = Tuple[int, int]
Edge = Tuple[Tile, Tile]

#: Bumped whenever the routing algorithm changes its results; part of
#: the flow-cache stage key (see ``NXmapProject._stage_key``), so stale
#: cached routes from an older kernel can never be returned.
ROUTE_KERNEL_VERSION = 3

#: Base bbox margin (tiles) around a connection; widened every
#: negotiation pass so congested connections can detour further out.
_BASE_MARGIN = 3
_MARGIN_PER_PASS = 4


class RoutingError(Exception):
    pass


@dataclass
class RoutingResult:
    wirelength: int
    max_congestion: int
    overflow_edges: int
    routed_connections: int
    failed_connections: int
    iterations: int
    channel_width: int
    # net name -> list of per-connection paths (each a list of tiles).
    # Paths after the first start on the net's existing route tree, so
    # their union per net is a driver-rooted Steiner tree.
    routes: Dict[str, List[List[Tile]]] = field(default_factory=dict)
    # Kernel instrumentation (serialized so cache hits report the same
    # evidence): total A* node expansions and targeted rip-up count.
    expanded_nodes: int = 0
    ripped_connections: int = 0
    # Final per-edge occupancy (congestion state).  Persisted so a later
    # pass — ECO delta routing in particular — can seed its negotiation
    # from the exact channel usage this result left behind instead of
    # recomputing it from the path lists.
    edge_usage: Dict[Edge, int] = field(default_factory=dict)

    @property
    def success(self) -> bool:
        return self.failed_connections == 0 and self.overflow_edges == 0

    def route_length(self, net_name: str) -> int:
        paths = self.routes.get(net_name, [])
        return sum(max(0, len(p) - 1) for p in paths)

    def to_json(self) -> dict:
        return {
            "wirelength": self.wirelength,
            "max_congestion": self.max_congestion,
            "overflow_edges": self.overflow_edges,
            "routed_connections": self.routed_connections,
            "failed_connections": self.failed_connections,
            "iterations": self.iterations,
            "channel_width": self.channel_width,
            "routes": {net: [[list(tile) for tile in path]
                             for path in paths]
                       for net, paths in sorted(self.routes.items())},
            "expanded_nodes": self.expanded_nodes,
            "ripped_connections": self.ripped_connections,
            "edge_usage": [[list(edge[0]), list(edge[1]), used]
                           for edge, used
                           in sorted(self.edge_usage.items())],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RoutingResult":
        routes = {net: [[(int(t[0]), int(t[1])) for t in path]
                        for path in paths]
                  for net, paths in payload["routes"].items()}
        edge_usage = {((int(a[0]), int(a[1])), (int(b[0]), int(b[1]))):
                      int(used)
                      for a, b, used in payload["edge_usage"]}
        return cls(
            wirelength=payload["wirelength"],
            max_congestion=payload["max_congestion"],
            overflow_edges=payload["overflow_edges"],
            routed_connections=payload["routed_connections"],
            failed_connections=payload["failed_connections"],
            iterations=payload["iterations"],
            channel_width=payload["channel_width"],
            routes=routes,
            expanded_nodes=payload.get("expanded_nodes", 0),
            ripped_connections=payload.get("ripped_connections", 0),
            edge_usage=edge_usage,
        )


def _edge(a: Tile, b: Tile) -> Edge:
    return (a, b) if a <= b else (b, a)


def _usage_of_paths(paths: Iterable[List[Tile]]) -> Dict[Edge, int]:
    """Edge-occupancy map of a collection of path segments."""
    usage: Dict[Edge, int] = {}
    for path in paths:
        for a, b in zip(path, path[1:]):
            edge = _edge(a, b)
            usage[edge] = usage.get(edge, 0) + 1
    return usage


class _AstarStats:
    __slots__ = ("expanded",)

    def __init__(self) -> None:
        self.expanded = 0


def _astar_tree(sources: Iterable[Tile], goal: Tile,
                bounds: Tuple[int, int, int, int],
                usage: Dict[Edge, int], channel_width: int,
                congestion_penalty: float,
                stats: _AstarStats) -> Optional[List[Tile]]:
    """Multi-source A* from a net's route tree to one sink.

    Every tree node starts at cost zero, so the search naturally grows
    the path from the *nearest* point of the existing tree.  Expansion
    is restricted to ``bounds`` (cmin, cmax, rmin, rmax inclusive).
    """
    gcol, grow = goal
    cmin, cmax, rmin, rmax = bounds
    # Heap entries: (f = g + heuristic, g, tiebreak, tile).
    frontier: List[Tuple[float, float, int, Tile]] = []
    best: Dict[Tile, float] = {}
    came: Dict[Tile, Tile] = {}
    counter = 0
    for source in sorted(sources):
        best[source] = 0.0
        counter += 1
        heuristic = abs(source[0] - gcol) + abs(source[1] - grow)
        heapq.heappush(frontier, (float(heuristic), 0.0, counter, source))
    expanded = 0
    while frontier:
        _f, g, _, tile = heapq.heappop(frontier)
        expanded += 1
        if tile == goal:
            path = [tile]
            while tile in came:
                tile = came[tile]
                path.append(tile)
            path.reverse()
            stats.expanded += expanded
            return path
        if g > best.get(tile, float("inf")):
            continue  # stale entry
        col, row = tile
        for neighbour in ((col + 1, row), (col - 1, row),
                          (col, row + 1), (col, row - 1)):
            ncol, nrow = neighbour
            if not (cmin <= ncol <= cmax and rmin <= nrow <= rmax):
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
                heuristic = abs(ncol - gcol) + abs(nrow - grow)
                heapq.heappush(frontier,
                               (new_cost + heuristic, new_cost, counter,
                                neighbour))
    stats.expanded += expanded
    return None


class _NetTree:
    """One net's growing route tree: nodes, and per-sink path segments.

    The node set is materialized lazily: a warm-preserved tree that is
    never re-routed (the overwhelming majority in an ECO pass) never
    pays the O(wirelength) set construction.
    """

    __slots__ = ("source", "_nodes", "paths")

    def __init__(self, source: Tile) -> None:
        self.source = source
        self._nodes: Optional[Set[Tile]] = None
        # (sink ordinal, path segment) — segment edges are disjoint
        # between segments; their union is the net's route tree.
        self.paths: List[Tuple[int, List[Tile]]] = []

    @property
    def nodes(self) -> Set[Tile]:
        if self._nodes is None:
            self._nodes = {self.source}
            for _ordinal, path in self.paths:
                self._nodes.update(path)
        return self._nodes

    def add(self, ordinal: int, path: List[Tile]) -> None:
        self.paths.append((ordinal, path))
        if self._nodes is not None:
            self._nodes.update(path)


Conn = Tuple[str, int, Tile]  # (net name, sink ordinal, sink tile)


class _Router:
    """The state of one routing run: every net's tree, the sink tiles,
    the channel usage and the negotiation counters.

    :func:`route` fills it for every net of the netlist;
    :func:`reroute` fills it only for the nets an ECO edit can have
    changed and keeps every other net's base tree as it is.
    """

    def __init__(self, grid: Tuple[int, int], channel_width: int,
                 tracer: Optional[Tracer]) -> None:
        self.cols, self.rows = grid
        self.channel_width = channel_width
        self.tracer = tracer
        self.trees: Dict[str, _NetTree] = {}
        self.sink_tiles: Dict[Tuple[str, int], Tile] = {}
        self.usage: Dict[Edge, int] = {}
        self.stats = _AstarStats()
        self.failed: Set[Tuple[str, int]] = set()
        self.iterations = 0
        self.ripped_total = 0
        self.overflow = 0
        # Called once before the first targeted rip-up, which scans
        # every tree (see ``reroute``).
        self.before_rip: Optional[Callable[[], None]] = None

    def enumerate(self, netlist: Netlist, locations: Dict[str, Tile],
                  net_names: Iterable[str]) -> List[Conn]:
        """The connections of ``net_names`` (visited in the given order,
        sinks in sorted order), registering their trees."""
        connections: List[Conn] = []
        for net_name in net_names:
            net = netlist.nets[net_name]
            if net.driver is None or net.driver not in locations:
                continue
            source = locations[net.driver]
            ordinal = 0
            for sink in sorted(net.sinks):
                if sink not in locations:
                    continue
                target = locations[sink]
                if target == source:
                    continue
                connections.append((net_name, ordinal, target))
                self.sink_tiles[(net_name, ordinal)] = target
                ordinal += 1
            if ordinal:
                self.trees[net_name] = _NetTree(source)
        return connections

    def preload(self, warm: RoutingResult, reroute: Set[str],
                connections: List[Conn]) -> Set[str]:
        """Preserve the warm paths of the nets of ``connections`` that
        are not in ``reroute`` and still match their connections; returns
        the preserved nets."""
        preloaded: Set[str] = set()
        counts: Dict[str, int] = {}
        for name, _ordinal, _tile in connections:
            counts[name] = counts.get(name, 0) + 1
        for net_name in sorted(counts):
            if net_name in reroute:
                continue
            paths = warm.routes.get(net_name)
            if paths is None or len(paths) != counts[net_name]:
                continue
            tree = self.trees[net_name]
            # Preserved paths must still describe this net's connection
            # endpoints: the first segment starts at the (unmoved)
            # driver tile and every segment ends at its (unmoved) sink
            # tile.  Segment-to-tree continuity is an invariant of the
            # stored artifact — the base run grew the segments on the
            # tree in ordinal order — so endpoint checks alone detect
            # every pin move without materializing the node set.
            valid = True
            for ordinal, path in enumerate(paths):
                if not path \
                        or path[-1] != self.sink_tiles[(net_name, ordinal)] \
                        or (ordinal == 0 and path[0] != tree.source):
                    valid = False
                    break
            if not valid:
                continue
            for ordinal, path in enumerate(paths):
                tree.add(ordinal, path)
            preloaded.add(net_name)
        return preloaded

    def release(self, paths: Iterable[List[Tile]]) -> None:
        """Take the channel usage of ``paths`` out of the usage map."""
        usage = self.usage
        for path in paths:
            for a, b in zip(path, path[1:]):
                edge = _edge(a, b)
                remaining = usage.get(edge, 0) - 1
                if remaining > 0:
                    usage[edge] = remaining
                else:
                    usage.pop(edge, None)

    def _span(self, name: str, **attributes):
        if self.tracer is None:
            return nullcontext(None)
        return self.tracer.span(name, "fabric", **attributes)

    def route_connection(self, conn: Conn, margin: int,
                         penalty: float) -> bool:
        cols, rows = self.cols, self.rows
        usage = self.usage
        net_name, ordinal, target = conn
        tree = self.trees[net_name]
        if target in tree.nodes:
            tree.add(ordinal, [target])  # zero-length tap on the tree
            return True
        bxmin = min(node[0] for node in tree.nodes)
        bxmax = max(node[0] for node in tree.nodes)
        bymin = min(node[1] for node in tree.nodes)
        bymax = max(node[1] for node in tree.nodes)
        bounds = (max(0, min(bxmin, target[0]) - margin),
                  min(cols - 1, max(bxmax, target[0]) + margin),
                  max(0, min(bymin, target[1]) - margin),
                  min(rows - 1, max(bymax, target[1]) + margin))
        full_bounds = (0, cols - 1, 0, rows - 1)
        path = _astar_tree(tree.nodes, target, bounds, usage,
                           self.channel_width, penalty, self.stats)
        if path is None and bounds != full_bounds:
            # Safety net: the bounded window can starve a legal detour.
            path = _astar_tree(tree.nodes, target, full_bounds, usage,
                               self.channel_width, penalty, self.stats)
        if path is None:
            return False
        for a, b in zip(path, path[1:]):
            edge = _edge(a, b)
            usage[edge] = usage.get(edge, 0) + 1
        tree.add(ordinal, path)
        return True

    def rip_targeted(self, over_edges: Set[Edge]) -> List[Conn]:
        """Tear up only the path segments crossing overflowed edges (and
        segments stranded by such a rip); keep all other usage."""
        if self.before_rip is not None:
            self.before_rip()
            self.before_rip = None
        usage = self.usage
        ripped: List[Conn] = []
        for net_name in sorted(self.trees):
            tree = self.trees[net_name]
            if not tree.paths:
                continue
            kept: List[Tuple[int, List[Tile]]] = []
            rebuilt: Set[Tile] = {tree.source}
            for ordinal, path in tree.paths:
                crosses = any(_edge(a, b) in over_edges
                              for a, b in zip(path, path[1:]))
                stranded = path[0] not in rebuilt
                if crosses or stranded:
                    for a, b in zip(path, path[1:]):
                        edge = _edge(a, b)
                        remaining = usage[edge] - 1
                        if remaining:
                            usage[edge] = remaining
                        else:
                            del usage[edge]
                    ripped.append((net_name, ordinal,
                                   self.sink_tiles[(net_name, ordinal)]))
                else:
                    kept.append((ordinal, path))
                    rebuilt.update(path)
            tree.paths = kept
            tree._nodes = rebuilt
        return sorted(ripped)

    def negotiate(self, pending: List[Conn], max_iterations: int) -> None:
        """The negotiation loop: route ``pending``, then rip up and
        re-route overflowed connections under a rising penalty."""
        channel_width = self.channel_width
        usage = self.usage
        failed = self.failed
        sink_tiles = self.sink_tiles
        penalty = 0.5
        for iteration in range(max_iterations):
            if iteration > 0:
                penalty *= 4  # negotiate harder next pass
                over_edges = {edge for edge, used in usage.items()
                              if used > channel_width}
                ripped = self.rip_targeted(over_edges)
                self.ripped_total += len(ripped)
                ripped_keys = {(name, ordinal)
                               for name, ordinal, _tile in ripped}
                pending = ripped + [
                    (name, ordinal, sink_tiles[(name, ordinal)])
                    for name, ordinal in sorted(failed)
                    if (name, ordinal) not in ripped_keys]
            self.iterations += 1
            margin = _BASE_MARGIN + _MARGIN_PER_PASS * iteration
            with self._span("route.pass", iteration=iteration,
                            connections=len(pending)) as pass_span:
                routed_now = 0
                for conn in pending:
                    failed.discard((conn[0], conn[1]))
                    if self.route_connection(conn, margin, penalty):
                        routed_now += 1
                    else:
                        failed.add((conn[0], conn[1]))
                # Single overflow computation per pass, reused by the
                # exit check and (on the final pass) the report.
                self.overflow = sum(1 for used in usage.values()
                                    if used > channel_width)
                if pass_span is not None:
                    pass_span.attributes["routed"] = routed_now
                    pass_span.attributes["failed"] = len(failed)
                    pass_span.attributes["overflow_edges"] = self.overflow
            if self.overflow == 0 and not failed:
                break

    def paths_of(self, net_name: str) -> List[List[Tile]]:
        return [path for _ordinal, path
                in sorted(self.trees[net_name].paths)]

    def result(self, connections: int,
               routes: Dict[str, List[List[Tile]]]) -> RoutingResult:
        usage = self.usage
        if self.tracer is not None:
            self.tracer.counter("route.astar.expanded", "fabric").add(
                self.stats.expanded)
            self.tracer.counter("route.ripup.connections", "fabric").add(
                self.ripped_total)
        return RoutingResult(
            wirelength=sum(usage.values()),
            max_congestion=max(usage.values(), default=0),
            overflow_edges=self.overflow,
            routed_connections=connections - len(self.failed),
            failed_connections=len(self.failed),
            iterations=self.iterations,
            channel_width=self.channel_width, routes=routes,
            expanded_nodes=self.stats.expanded,
            ripped_connections=self.ripped_total,
            edge_usage=dict(usage))

    def all_routes(self) -> Dict[str, List[List[Tile]]]:
        return {net_name: self.paths_of(net_name)
                for net_name in sorted(self.trees)
                if self.trees[net_name].paths}


def route(netlist: Netlist, locations: Dict[str, Tile],
          grid: Tuple[int, int], channel_width: int = 16,
          max_iterations: int = 3,
          tracer: Optional[Tracer] = None,
          warm: Optional[RoutingResult] = None,
          reroute_nets: Optional[Iterable[str]] = None) -> RoutingResult:
    """Route all nets; negotiation loop raises congestion cost each pass.

    ``tracer`` (optional) receives per-pass ``route.pass`` spans plus the
    ``route.astar.expanded`` and ``route.ripup.connections`` counters.

    ``warm`` enables *delta routing* (the ECO flow): a previous
    :class:`RoutingResult` whose route trees are preserved for every net
    **not** named in ``reroute_nets``.  Preserved nets keep their exact
    paths and their channel usage (seeded from the persisted
    ``edge_usage`` map); only the named nets — plus anything the
    overflow cascade rips later — are torn up and re-routed.  A warm net
    whose preserved paths no longer match the current connection list
    (a pin moved, a sink appeared) is detected and re-routed as well, so
    an over-approximate ``reroute_nets`` is a performance choice, never
    a correctness one.
    """
    router = _Router(grid, channel_width, tracer)
    # Deterministic connection order: nets sorted by name, then sinks in
    # sorted order — independent of netlist dict insertion order.
    connections = router.enumerate(netlist, locations, sorted(netlist.nets))
    preloaded: Set[str] = set()
    if warm is not None:
        reroute = set(reroute_nets) if reroute_nets is not None else set()
        preloaded = router.preload(warm, reroute, connections)
        # Seed the congestion state from the persisted occupancy map,
        # then subtract every warm path that was *not* preserved (ripped
        # nets, vanished nets, stale nets) so usage stays exactly the
        # sum of the live trees.
        router.usage = dict(warm.edge_usage)
        router.release(path for net_name, paths in warm.routes.items()
                       if net_name not in preloaded for path in paths)
    router.negotiate([conn for conn in connections
                      if conn[0] not in preloaded], max_iterations)
    return router.result(len(connections), router.all_routes())


class WarmRoutes:
    """A base routing result indexed for repeated ECO delta routing.

    Built once per base implementation: it enumerates the base design's
    connections to learn each net's connection count and which base
    trees a warm start could not preserve even untouched (``stale``:
    trees of failed connections, or routes of nets without a tree).
    """

    def __init__(self, routing: RoutingResult, netlist: Netlist,
                 locations: Dict[str, Tile]) -> None:
        self.routing = routing
        # Only the connection bookkeeping of a router is used here, so
        # its grid does not matter.
        probe = _Router((1, 1), routing.channel_width, None)
        connections = probe.enumerate(netlist, locations,
                                      sorted(netlist.nets))
        self.connections = len(connections)
        self.counts: Dict[str, int] = {}
        for name, _ordinal, _tile in connections:
            self.counts[name] = self.counts.get(name, 0) + 1
        preloaded = probe.preload(routing, set(), connections)
        self.stale: Set[str] = (set(probe.trees) | set(routing.routes)) \
            - preloaded


def reroute(netlist: Netlist, locations: Dict[str, Tile],
            grid: Tuple[int, int], base: WarmRoutes, dirty: Set[str],
            channel_width: int = 16, max_iterations: int = 3,
            tracer: Optional[Tracer] = None
            ) -> Tuple[RoutingResult, Optional[Set[str]]]:
    """:func:`route` with ``warm=base.routing, reroute_nets=dirty``, at
    the cost of the nets it re-routes.

    The caller guarantees that every net whose driver, sinks or pin
    tiles differ from the base design is in ``dirty``; the other nets'
    connections then equal the base's, so their base trees are kept
    without enumerating or checking them.  Returns the result (equal to
    that :func:`route` call) and the nets whose routes may differ from
    the base's — ``None`` when the overflow cascade scanned every tree.
    """
    router = _Router(grid, channel_width, tracer)
    warm = base.routing
    changed = sorted((dirty | base.stale) & netlist.nets.keys())
    connections = router.enumerate(netlist, locations, changed)
    preloaded = router.preload(warm, dirty, connections)
    router.usage = dict(warm.edge_usage)
    released = (set(changed) | base.stale) - preloaded
    router.release(path for net_name in sorted(released)
                   for path in warm.routes.get(net_name, ()))
    every_tree = False

    def materialize() -> None:
        # The targeted rip-up scans every tree: rebuild the preserved
        # base trees that were never enumerated from their paths (the
        # first segment starts at the driver tile, each segment ends at
        # its sink tile).
        nonlocal every_tree
        every_tree = True
        for net_name, paths in warm.routes.items():
            if net_name in router.trees or net_name in released:
                continue
            tree = router.trees[net_name] = _NetTree(paths[0][0])
            for ordinal, path in enumerate(paths):
                router.sink_tiles[(net_name, ordinal)] = path[-1]
                tree.add(ordinal, path)

    router.before_rip = materialize
    router.negotiate([conn for conn in connections
                      if conn[0] not in preloaded], max_iterations)
    total = base.connections + len(connections) - sum(
        base.counts.get(net_name, 0) for net_name in changed)
    if every_tree:
        return router.result(total, router.all_routes()), None
    # Preserved nets keep their base paths; released ones take their
    # new trees (or vanish).
    routes = dict(warm.routes)
    for net_name in released:
        routes.pop(net_name, None)
        if net_name in router.trees and router.trees[net_name].paths:
            routes[net_name] = router.paths_of(net_name)
    return router.result(total, dict(sorted(routes.items()))), released
