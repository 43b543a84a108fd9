"""Directed graph of the characteristic set at the reference energy.

Vertices are phase-space crossing points, edges are the classical
trajectory segments between them (oriented along the Hamiltonian flow:
x increases on the upper half plane, decreases on the lower), and tails
are the unbounded channel-2 branches.  Path and cycle enumeration feed
the monodromy matrix and the width formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .model import CrossingPoint, Problem, StructureReport, TurningPoint

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

    def sub_pieces(self, flo: float, fhi: float) -> Tuple[List[Piece], int]:
        """Trimmed piece chain covering arc fractions [flo, fhi], plus the
        number of turning points strictly inside the sub-segment."""
        if not 0.0 <= flo <= fhi <= 1.0:
            raise ValueError("fractions must satisfy 0 <= flo <= fhi <= 1")
        L = self.arc_length
        slo, shi = flo * L, fhi * L
        out: List[Piece] = []
        acc = 0.0
        for pc in self.pieces:
            s0, s1 = acc, acc + pc.width
            a, b = max(slo, s0), min(shi, s1)
            if b > a:
                if pc.xi_sign > 0:
                    xl, xh = pc.x_lo + (a - s0), pc.x_lo + (b - s0)
                else:
                    xl, xh = pc.x_hi - (b - s0), pc.x_hi - (a - s0)
                lo_turn = pc.lo_turn and xl == pc.x_lo
                hi_turn = pc.hi_turn and xh == pc.x_hi
                out.append(Piece(xl, xh, pc.xi_sign, lo_turn, hi_turn))
            acc = s1
        nu = sum(1 for s in _junction_arcs(self.pieces) if slo < s < shi)
        return out, nu


@dataclass(frozen=True)
class Tail:
    tid: int
    direction: int  # +1 toward +infinity, -1 toward -infinity
    xi_sign: int
    kind: str  # "incoming" or "outgoing"
    attach: Optional[Vertex]
    channel: int = 2

    def __post_init__(self):
        outgoing = (self.direction > 0 and self.xi_sign > 0) or (
            self.direction < 0 and self.xi_sign < 0
        )
        if (self.kind == "outgoing") != outgoing:
            raise InternalInconsistency("tail kind inconsistent with flow direction")


Node = Union[Vertex, Tail]


@dataclass
class Graph:
    vertices: List[Vertex]
    edges: List[Edge]
    tails: List[Tail]
    e0: Edge
    out_edge: Dict[Tuple, Edge] = field(default_factory=dict)  # (vertex key, channel) -> Edge
    out_tail: Dict[Tuple, Tail] = field(default_factory=dict)
    in_edge: Dict[Tuple, Edge] = field(default_factory=dict)
    in_tail: Dict[Tuple, Tail] = field(default_factory=dict)
    e0_alternatives: List[Edge] = field(default_factory=list)

    def gamma1_edges(self) -> List[Edge]:
        return [e for e in self.edges if e.channel == 1]

    def outgoing_tails(self) -> List[Tail]:
        return [t for t in self.tails if t.kind == "outgoing" and t.attach is not None]

    def out_of(self, v: Vertex) -> List[Union[Edge, Tail]]:
        hops = []
        for ch in (1, 2):
            if (v.key, ch) in self.out_edge:
                hops.append(self.out_edge[(v.key, ch)])
            elif (v.key, ch) in self.out_tail:
                hops.append(self.out_tail[(v.key, ch)])
        return hops


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
    switch_count: int = 0

    def __post_init__(self):
        for a, b in zip(self.edges, self.edges[1:]):
            if a.target.key != b.source.key:
                raise InternalInconsistency("path edges are not consecutive")
        if self.tail is not None and self.tail.attach.key != self.edges[-1].target.key:
            raise InternalInconsistency("tail does not attach at the path end")

    def recount_switches(self) -> int:
        n = sum(1 for a, b in zip(self.edges, self.edges[1:]) if a.channel != b.channel)
        if self.tail is not None and self.edges[-1].channel != self.tail.channel:
            n += 1
        return n


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


def _arc_to_x(pieces: Tuple[Piece, ...], frac: float) -> float:
    """x-coordinate at the given fraction of the arc length."""
    total = sum(pc.width for pc in pieces)
    s = frac * total
    acc = 0.0
    for pc in pieces:
        if s <= acc + pc.width or pc is pieces[-1]:
            d = s - acc
            return pc.x_lo + d if pc.xi_sign > 0 else pc.x_hi - d
        acc += pc.width
    return pieces[-1].x_hi


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
        if float(vfn(_arc_to_x(pieces, cand))) >= e_floor - 1e-9:
            continue
        return cand
    raise InternalInconsistency("no admissible base fraction found")


def _mk_edge(eid: int, channel: int, source: Vertex, target: Vertex,
             pieces: Tuple[Piece, ...], vfns, e_floor: float) -> Edge:
    return Edge(eid, channel, source, target, pieces,
                base_frac=_pick_base_frac(pieces, vfns[channel - 1], e_floor))


def _gamma1_edges(vertices: List[Vertex], a0: TurningPoint, b0: TurningPoint, next_id,
                  vfns, e_floor: float) -> List[Edge]:
    n = len(vertices) // 2
    up = [v for v in vertices if v.sign > 0]
    dn = [v for v in vertices if v.sign < 0]
    edges: List[Edge] = []
    for i in range(n - 1):
        edges.append(
            _mk_edge(next_id(), 1, up[i], up[i + 1], (Piece(up[i].crossing.x, up[i + 1].crossing.x, +1, False, False),), vfns, e_floor)
        )
    xr = up[-1].crossing.x
    edges.append(
        _mk_edge(
            next_id(),
            1,
            up[-1],
            dn[-1],
            (Piece(xr, b0.x, +1, False, True), Piece(xr, b0.x, -1, False, True)),
            vfns,
            e_floor,
        )
    )
    for i in range(n - 1, 0, -1):
        edges.append(
            _mk_edge(next_id(), 1, dn[i], dn[i - 1], (Piece(dn[i - 1].crossing.x, dn[i].crossing.x, -1, False, False),), vfns, e_floor)
        )
    xl = dn[0].crossing.x
    edges.append(
        _mk_edge(
            next_id(),
            1,
            dn[0],
            up[0],
            (Piece(a0.x, xl, -1, True, False), Piece(a0.x, xl, +1, True, False)),
            vfns,
            e_floor,
        )
    )
    return edges


def build_graph(report: StructureReport, problem: Problem, e_floor: float) -> Graph:
    """Assemble the directed graph from a validated structure report.

    The topology is computed at the reference energy; edge actions are the
    only energy-dependent quantities downstream.  Base points are placed
    where the trajectory stays classically allowed down to the energy floor
    (needed for base-split actions across the whole resonance box).
    """
    vfns = (problem.v1_np, problem.v2_np)
    if not report.passed:
        raise InternalInconsistency("structure report did not pass validation")
    crossings = sorted(report.crossings, key=lambda c: c.x)
    vertices: List[Vertex] = []
    for i, c in enumerate(crossings):
        vertices.append(Vertex(i, +1, c))
        vertices.append(Vertex(i, -1, c))
    vmap = {v.key: v for v in vertices}

    counter = [0]

    def next_id():
        counter[0] += 1
        return counter[0] - 1

    edges = _gamma1_edges(vertices, report.a0, report.b0, next_id, vfns, e_floor)

    # channel-2 components of the allowed region, read off turning points
    # and window-boundary tails
    turns = sorted(t.x for t in report.v2_turning)
    xmin, xmax = report.window
    bounds = [xmin] + turns + [xmax]
    components = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        members = [i for i, c in enumerate(crossings) if lo < c.x < hi]
        # a segment of {V2 <= e0} contains the crossings (where V2 < e0)
        if members:
            components.append((lo, hi, members))
    tails: List[Tail] = []
    tid = [0]

    def next_tid():
        tid[0] += 1
        return tid[0] - 1

    for lo, hi, members in components:
        left_open = lo == xmin  # touches the -infinity proxy
        right_open = hi == xmax
        ups = [vmap[(i, +1)] for i in members]
        dns = [vmap[(i, -1)] for i in members]
        for a, b in zip(ups[:-1], ups[1:]):
            edges.append(_mk_edge(next_id(), 2, a, b, (Piece(a.crossing.x, b.crossing.x, +1, False, False),), vfns, e_floor))
        for a, b in zip(dns[:0:-1], dns[-2::-1]):
            edges.append(_mk_edge(next_id(), 2, a, b, (Piece(b.crossing.x, a.crossing.x, -1, False, False),), vfns, e_floor))
        if left_open and right_open:
            tails.append(Tail(next_tid(), -1, +1, "incoming", ups[0]))
            tails.append(Tail(next_tid(), +1, +1, "outgoing", ups[-1]))
            tails.append(Tail(next_tid(), +1, -1, "incoming", dns[-1]))
            tails.append(Tail(next_tid(), -1, -1, "outgoing", dns[0]))
        elif left_open:
            # allowed interval (-inf, hi] with a turning point at hi
            xk = ups[-1].crossing.x
            edges.append(
                _mk_edge(
                    next_id(),
                    2,
                    ups[-1],
                    dns[-1],
                    (Piece(xk, hi, +1, False, True), Piece(xk, hi, -1, False, True)),
                    vfns,
                    e_floor,
                )
            )
            tails.append(Tail(next_tid(), -1, +1, "incoming", ups[0]))
            tails.append(Tail(next_tid(), -1, -1, "outgoing", dns[0]))
        elif right_open:
            # allowed interval [lo, +inf) with a turning point at lo
            xk = dns[0].crossing.x
            edges.append(
                _mk_edge(
                    next_id(),
                    2,
                    dns[0],
                    ups[0],
                    (Piece(lo, xk, -1, True, False), Piece(lo, xk, +1, True, False)),
                    vfns,
                    e_floor,
                )
            )
            tails.append(Tail(next_tid(), +1, +1, "outgoing", ups[-1]))
            tails.append(Tail(next_tid(), +1, -1, "incoming", dns[-1]))
        else:
            raise InternalInconsistency("bounded allowed component survived validation")

    g = Graph(vertices=vertices, edges=edges, tails=tails, e0=edges[0])
    for e in edges:
        kout = (e.source.key, e.channel)
        kin = (e.target.key, e.channel)
        if kout in g.out_edge or kin in g.in_edge:
            raise InternalInconsistency("duplicate adjacency slot")
        g.out_edge[kout] = e
        g.in_edge[kin] = e
    for t in tails:
        if t.attach is None:
            continue
        slot = (t.attach.key, t.channel)
        if t.kind == "outgoing":
            if slot in g.out_edge or slot in g.out_tail:
                raise InternalInconsistency("duplicate outgoing slot for tail")
            g.out_tail[slot] = t
        else:
            if slot in g.in_edge or slot in g.in_tail:
                raise InternalInconsistency("duplicate incoming slot for tail")
            g.in_tail[slot] = t

    # degree invariant: one in and one out per channel at every vertex
    for v in vertices:
        for ch in (1, 2):
            has_out = ((v.key, ch) in g.out_edge) or ((v.key, ch) in g.out_tail)
            has_in = ((v.key, ch) in g.in_edge) or ((v.key, ch) in g.in_tail)
            if not (has_out and has_in):
                raise InternalInconsistency(f"vertex {v.key} misses a channel-{ch} connection")

    # reference edge: the channel-1 edge ending where the outgoing tail to
    # -infinity starts; fall back to the +infinity tail when absent
    candidates = []
    for t in sorted(g.outgoing_tails(), key=lambda t: t.direction):
        e_in = g.in_edge.get((t.attach.key, 1))
        if e_in is not None:
            candidates.append(e_in)
    if not candidates:
        raise InternalInconsistency("no outgoing tail attaches to the graph")
    g.e0 = candidates[0]
    g.e0_alternatives = candidates
    return g


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
    if tail.attach is None:
        return []  # tail on a component the closed trajectory never reaches
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
                        switch_count=sw,
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
                "attach": list(t.attach.key) if t.attach else None,
            }
            for t in g.tails
        ],
        "e0": g.e0.eid,
        "primitive_cycles": [[e.eid for e in cyc] for cyc in primitive_cycles(g)],
    }
