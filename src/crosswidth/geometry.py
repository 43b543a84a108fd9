"""Directed graph of the characteristic set at the reference energy.

Vertices are phase-space crossing points, edges are the classical
trajectory segments between them (oriented along the Hamiltonian flow:
x increases on the upper half plane, decreases on the lower), and tails
are the unbounded channel-2 branches.  Path and cycle enumeration feed
the monodromy matrix and the width formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .model import CrossingPoint, Problem, StructureReport

__all__ = [
    "Vertex",
    "Piece",
    "Edge",
    "Tail",
    "Graph",
    "PathSeq",
    "InternalInconsistency",
    "build_graph",
    "primitive_cycles",
    "paths_bounded",
    "paths_one_switch",
    "graph_to_dict",
]


class InternalInconsistency(Exception):
    """The constructed graph violates a degree or flow invariant."""


@dataclass(frozen=True)
class Vertex:
    index: int  # crossing index, sorted by x
    sign: int  # +1 for xi > 0, -1 for the mirror point
    crossing: CrossingPoint

    @property
    def key(self):
        return (self.index, self.sign)

    @property
    def xi(self) -> float:
        return self.sign * self.crossing.xi


@dataclass(frozen=True)
class Piece:
    """A monotone x-interval of a trajectory on one xi branch.

    Traversal direction follows the flow: left to right when xi_sign > 0,
    right to left otherwise.  A turn flag marks an endpoint that is a
    turning point (whose position moves with energy and whose integrand
    carries a square-root singularity there).
    """

    x_lo: float
    x_hi: float
    xi_sign: int
    lo_turn: bool
    hi_turn: bool

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo


@dataclass(frozen=True)
class Edge:
    eid: int
    channel: int
    source: Vertex
    target: Vertex
    pieces: Tuple[Piece, ...]
    base_frac: float = 0.5

    @property
    def nu(self) -> int:
        """Number of turning points in the interior of the edge."""
        return len(self.pieces) - 1

    @property
    def arc_length(self) -> float:
        return sum(pc.width for pc in self.pieces)

    def sub_pieces(self, flo: float, fhi: float) -> List[Piece]:
        """Trimmed piece chain covering arc fractions [flo, fhi] (see
        _cut); its pieces meet at the sub-segment's interior turning
        points, so there are len(result) - 1 of them."""
        if not 0.0 <= flo <= fhi <= 1.0:
            raise ValueError("fractions must satisfy 0 <= flo <= fhi <= 1")
        return _cut(self.pieces, flo, fhi)


@dataclass(frozen=True)
class Tail:
    tid: int
    direction: int  # +1 toward +infinity, -1 toward -infinity
    xi_sign: int
    attach: Vertex
    channel: int = 2

    @property
    def kind(self) -> str:
        """Outgoing where the flow runs toward the tail's infinity."""
        return "outgoing" if self.direction == self.xi_sign else "incoming"


@dataclass
class Graph:
    vertices: List[Vertex]
    edges: List[Edge]
    tails: List[Tail]
    e0: Edge
    # (vertex key, channel) -> the edge or tail leaving that slot
    out: Dict[Tuple, Union[Edge, Tail]]
    e0_alternatives: List[Edge]

    def gamma1_edges(self) -> List[Edge]:
        return [e for e in self.edges if e.channel == 1]

    def outgoing_tails(self) -> List[Tail]:
        return [t for t in self.tails if t.kind == "outgoing"]

    def out_of(self, v: Vertex) -> List[Union[Edge, Tail]]:
        return [self.out[(v.key, ch)] for ch in (1, 2) if (v.key, ch) in self.out]


@dataclass(frozen=True)
class PathSeq:
    """A consecutive run of edges, optionally ending on a tail.

    The first edge is entered at arc fraction ``start_frac`` and the last
    left at ``end_frac``; all edges in between are traversed fully.  The
    switch count includes the final hop onto the tail.
    """

    edges: Tuple[Edge, ...]
    tail: Optional[Tail] = None
    start_frac: float = 0.0
    end_frac: float = 1.0

    def __post_init__(self):
        for a, b in zip(self.edges, self.edges[1:]):
            if a.target.key != b.source.key:
                raise InternalInconsistency("path edges are not consecutive")
        if self.tail is not None and self.tail.attach.key != self.edges[-1].target.key:
            raise InternalInconsistency("tail does not attach at the path end")

    @property
    def switch_count(self) -> int:
        channels = [e.channel for e in self.edges] + ([self.tail.channel] if self.tail else [])
        return sum(1 for a, b in zip(channels, channels[1:]) if a != b)


_BASE_CANDIDATES = (
    0.5, 0.45, 0.55, 0.4, 0.6, 0.381966011250105, 0.618033988749895,
    0.3, 0.7, 0.25, 0.75, 0.2, 0.8, 0.15, 0.85, 0.12, 0.88, 0.1, 0.9,
    0.08, 0.92, 0.06, 0.94, 0.05, 0.95, 0.04, 0.96, 0.03, 0.97,
    0.02, 0.98, 0.015, 0.985, 0.01, 0.99,
)


def _junction_arcs(pieces: Tuple[Piece, ...]) -> List[float]:
    """Arc lengths at which consecutive pieces meet (turning points)."""
    arcs, acc = [], 0.0
    for pc in pieces[:-1]:
        acc += pc.width
        arcs.append(acc)
    return arcs


def _cut(pieces: Tuple[Piece, ...], flo: float, fhi: float) -> List[Piece]:
    """The pieces covering arc fractions [flo, fhi], trimmed.  Whether the
    cut leaves a piece's end whole is decided in arc length: a whole
    turning-point end keeps its flag and its x, and every other end is
    placed by arc length.  A piece the cut meets in a point only is left
    out, so the pieces meet at the turning points strictly inside."""
    total = sum(pc.width for pc in pieces)
    slo, shi = flo * total, fhi * total
    out: List[Piece] = []
    acc = 0.0
    for pc in pieces:
        s0, s1 = acc, acc + pc.width
        a, b = max(slo, s0), min(shi, s1)
        if b > a:
            if pc.xi_sign > 0:
                xl, xh = pc.x_lo + (a - s0), pc.x_lo + (b - s0)
                lo_turn, hi_turn = pc.lo_turn and a == s0, pc.hi_turn and b == s1
            else:
                xl, xh = pc.x_hi - (b - s0), pc.x_hi - (a - s0)
                lo_turn, hi_turn = pc.lo_turn and b == s1, pc.hi_turn and a == s0
            out.append(Piece(pc.x_lo if lo_turn else xl, pc.x_hi if hi_turn else xh, pc.xi_sign,
                             lo_turn, hi_turn))
        acc = s1
    return out


def _pick_base_frac(pieces: Tuple[Piece, ...], vfn, e_floor: float) -> float:
    """Arc fraction for the base point.

    Keeps clear of turning-point junctions (the WKB normalization point
    must not be a turning point) and stays classically allowed down to the
    energy floor so the base-split segment actions exist across the whole
    resonance box.
    """
    total = sum(pc.width for pc in pieces)
    juncs = [a / total for a in _junction_arcs(pieces)]
    for cand in _BASE_CANDIDATES:
        if any(abs(cand - j) <= 1e-3 for j in juncs):
            continue
        end = _cut(pieces, 0.0, cand)[-1]
        if float(vfn(end.x_hi if end.xi_sign > 0 else end.x_lo)) >= e_floor - 1e-9:
            continue
        return cand
    raise InternalInconsistency("no admissible base fraction found")


def _component(edges: List[Edge], tails: List[Tail], channel: int, ups: List[Vertex],
               dns: List[Vertex], left: Optional[float], right: Optional[float], vfn,
               e_floor: float) -> None:
    """Append one allowed component of ``channel`` to ``edges`` and ``tails``.

    ``ups``/``dns`` are its crossings on the upper/lower branch, sorted by
    x; ``left``/``right`` are its turning points, None where it is open to
    the window edge.  Edges follow the flow: rightward along the upper
    branch, round the right turning point, leftward along the lower
    branch, round the left turning point.  Each open side gets an incoming
    and an outgoing tail, in the order upper left, upper right, lower
    right, lower left.  Ids are the list positions.
    """
    def edge(source: Vertex, target: Vertex, *pieces: Piece):
        edges.append(Edge(len(edges), channel, source, target, pieces,
                          base_frac=_pick_base_frac(pieces, vfn, e_floor)))

    def tail(direction: int, xi_sign: int, attach: Vertex):
        tails.append(Tail(len(tails), direction, xi_sign, attach, channel))

    if left is None:
        tail(-1, +1, ups[0])
    for a, b in zip(ups, ups[1:]):
        edge(a, b, Piece(a.crossing.x, b.crossing.x, +1, False, False))
    if right is None:
        tail(+1, +1, ups[-1])
        tail(+1, -1, dns[-1])
    else:
        xr = ups[-1].crossing.x
        edge(ups[-1], dns[-1], Piece(xr, right, +1, False, True), Piece(xr, right, -1, False, True))
    leftward = dns[::-1]
    for a, b in zip(leftward, leftward[1:]):
        edge(a, b, Piece(b.crossing.x, a.crossing.x, -1, False, False))
    if left is None:
        tail(-1, -1, dns[0])
    else:
        xl = dns[0].crossing.x
        edge(dns[0], ups[0], Piece(left, xl, -1, True, False), Piece(left, xl, +1, True, False))


def _fill(slots: Dict[Tuple, Union[Edge, Tail]], key: Tuple, hop: Union[Edge, Tail]) -> None:
    if key in slots:
        raise InternalInconsistency(f"duplicate adjacency slot {key}")
    slots[key] = hop


def build_graph(report: StructureReport, problem: Problem, e_floor: float) -> Graph:
    """Assemble the directed graph from a validated structure report.

    The topology is computed at the reference energy; edge actions are the
    only energy-dependent quantities downstream.  Base points are placed
    where the trajectory stays classically allowed down to the energy floor
    (needed for base-split actions across the whole resonance box).  Edges
    are numbered in flow order within each component, the channel-1 loop
    first.
    """
    if not report.passed:
        raise InternalInconsistency("structure report did not pass validation")
    crossings = sorted(report.crossings, key=lambda c: c.x)
    ups = [Vertex(i, +1, c) for i, c in enumerate(crossings)]
    dns = [Vertex(i, -1, c) for i, c in enumerate(crossings)]
    vertices = [v for pair in zip(ups, dns) for v in pair]
    edges: List[Edge] = []
    tails: List[Tail] = []
    _component(edges, tails, 1, ups, dns, report.a0.x, report.b0.x, problem.v1_np, e_floor)

    # channel-2 components of the allowed region, read off turning points
    # and window-boundary tails; a segment of {V2 <= e0} holding crossings
    # (where V2 < e0) is one component
    xmin, xmax = report.window
    bounds = [xmin] + sorted(t.x for t in report.v2_turning) + [xmax]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        members = [i for i, c in enumerate(crossings) if lo < c.x < hi]
        if not members:
            continue
        if lo != xmin and hi != xmax:
            raise InternalInconsistency("bounded allowed component survived validation")
        _component(edges, tails, 2, [ups[i] for i in members], [dns[i] for i in members],
                   None if lo == xmin else lo, None if hi == xmax else hi, problem.v2_np, e_floor)

    out: Dict[Tuple, Union[Edge, Tail]] = {}
    into: Dict[Tuple, Union[Edge, Tail]] = {}
    for e in edges:
        _fill(out, (e.source.key, e.channel), e)
        _fill(into, (e.target.key, e.channel), e)
    for t in tails:
        _fill(out if t.kind == "outgoing" else into, (t.attach.key, t.channel), t)

    # degree invariant: one in and one out per channel at every vertex
    for v in vertices:
        for ch in (1, 2):
            if (v.key, ch) not in out or (v.key, ch) not in into:
                raise InternalInconsistency(f"vertex {v.key} misses a channel-{ch} connection")

    # reference edge: the channel-1 edge ending where the outgoing tail to
    # -infinity starts; fall back to the +infinity tail when absent
    outgoing = sorted((t for t in tails if t.kind == "outgoing"), key=lambda t: t.direction)
    candidates = [into[(t.attach.key, 1)] for t in outgoing]
    if not candidates:
        raise InternalInconsistency("no outgoing tail attaches to the graph")
    return Graph(vertices, edges, tails, candidates[0], out, candidates)


def primitive_cycles(g: Graph) -> List[Tuple[Edge, ...]]:
    """All vertex-simple directed cycles, each given as its edge sequence
    starting from the lowest edge id it contains."""
    found: Dict[frozenset, Tuple[Edge, ...]] = {}

    def walk(start: Vertex, path: List[Edge], visited: set):
        v = path[-1].target
        if v.key == start.key:
            ids = frozenset(e.eid for e in path)
            if ids not in found:
                k = min(range(len(path)), key=lambda i: path[i].eid)
                found[ids] = tuple(path[k:] + path[:k])
            return
        if v.key in visited:
            return
        visited = visited | {v.key}
        for hop in g.out_of(v):
            if isinstance(hop, Edge):
                walk(start, path + [hop], visited)

    for e in g.edges:
        walk(e.source, [e], {e.source.key})
    cycles = list(found.values())
    cycles.sort(key=lambda cyc: (len(cyc), [e.eid for e in cyc]))
    return cycles


# extensions paths_bounded may try before it gives up
_PATH_BUDGET = 200000


def paths_bounded(g: Graph, tail: Tail, max_switch: int) -> List[PathSeq]:
    """All paths from the base point of the reference edge to the given
    outgoing tail with at most ``max_switch`` channel changes, never
    passing the base point again."""
    if tail.kind != "outgoing":
        raise ValueError("target must be an outgoing tail")
    e0 = g.e0
    results: List[PathSeq] = []
    budget = [_PATH_BUDGET]

    def extend(path: List[Edge], switches: int):
        budget[0] -= 1
        if budget[0] < 0:
            raise InternalInconsistency("path enumeration budget exhausted")
        cur = path[-1]
        v = cur.target
        if tail.attach.key == v.key:
            sw = switches + (1 if cur.channel != tail.channel else 0)
            if sw <= max_switch:
                results.append(
                    PathSeq(
                        edges=tuple(path),
                        tail=tail,
                        start_frac=e0.base_frac,
                        end_frac=1.0,
                    )
                )
        for hop in g.out_of(v):
            if not isinstance(hop, Edge):
                continue
            if hop.eid == e0.eid:
                continue  # would pass the base point
            sw = switches + (1 if hop.channel != cur.channel else 0)
            if sw <= max_switch:
                extend(path + [hop], sw)

    extend([e0], 0)
    results.sort(key=lambda p: (len(p.edges), [e.eid for e in p.edges]))
    return results


def paths_one_switch(g: Graph, tail: Tail) -> List[PathSeq]:
    """Paths that leave the channel-1 cycle for channel 2 exactly once."""
    return [p for p in paths_bounded(g, tail, 1) if p.switch_count == 1]


def graph_to_dict(g: Graph) -> dict:
    """JSON-ready description of the graph (used by the analyze command)."""
    return {
        "vertices": [
            {"index": v.index, "sign": v.sign, "x": v.crossing.x, "xi": v.xi, "m": v.crossing.m}
            for v in g.vertices
        ],
        "edges": [
            {
                "id": e.eid,
                "channel": e.channel,
                "source": list(e.source.key),
                "target": list(e.target.key),
                "turning_count": e.nu,
            }
            for e in g.edges
        ],
        "tails": [
            {
                "id": t.tid,
                "direction": t.direction,
                "xi_sign": t.xi_sign,
                "kind": t.kind,
                "attach": list(t.attach.key),
            }
            for t in g.tails
        ],
        "e0": g.e0.eid,
        "primitive_cycles": [[e.eid for e in cyc] for cyc in primitive_cycles(g)],
    }
