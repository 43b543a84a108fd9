import dataclasses
import math
import random
import re

import pytest

import fixtures
from crosswidth import exprs, geometry, pipeline
from crosswidth.geometry import (
    InternalInconsistency,
    PathSeq,
    Piece,
    paths_bounded,
    paths_one_switch,
    primitive_cycles,
)


def test_single_pair_topology(single_engine):
    _, g, _ = single_engine
    assert len(g.vertices) == 2
    assert len(g.edges) == 3
    assert len(g.tails) == 2
    assert sum(1 for t in g.tails if t.kind == "outgoing") == 1
    assert sum(1 for e in g.edges if e.channel == 1) == 2
    # channel-1 edges close up into the classical cycle with two turning points
    assert sum(e.nu for e in g.gamma1_edges()) == 2


def test_two_pair_topology(f0_engine):
    rep, g, _ = f0_engine
    assert len(g.vertices) == 4
    assert len(g.edges) == 6
    assert len(g.tails) == 4
    assert sum(1 for t in g.tails if t.kind == "outgoing") == 2
    assert sum(e.nu for e in g.gamma1_edges()) == 2


def test_degree_invariant(f0_engine, f1_engine, f1arc_engine):
    for engine_fixture in (f0_engine, f1_engine, f1arc_engine):
        _, g, _ = engine_fixture
        for v in g.vertices:
            hops = g.out_of(v)
            assert len(hops) == 2
            assert sorted(h.channel for h in hops) == [1, 2]


def test_flow_orientation(f1_engine):
    _, g, _ = f1_engine
    for e in g.edges:
        for pc in e.pieces:
            assert pc.x_lo <= pc.x_hi
            assert pc.xi_sign in (-1, 1)


def test_primitive_cycles_single_pair(single_engine, f1arc_engine):
    for engine_fixture in (single_engine, f1arc_engine):
        _, g, _ = engine_fixture
        cycles = primitive_cycles(g)
        assert len(cycles) == 2
        gamma1 = {e.eid for e in g.gamma1_edges()}
        assert any({e.eid for e in cyc} == gamma1 for cyc in cycles)


def test_primitive_cycles_two_pair(f0_engine):
    _, g, _ = f0_engine
    cycles = primitive_cycles(g)
    assert len(cycles) == 4
    gamma1 = {e.eid for e in g.gamma1_edges()}
    assert any({e.eid for e in cyc} == gamma1 for cyc in cycles)


def test_paths_one_switch_simple_model(f1arc_engine):
    _, g, _ = f1arc_engine
    tail = g.outgoing_tails()[0]
    paths = paths_one_switch(g, tail)
    assert len(paths) == 2
    lengths = sorted(len(p.edges) for p in paths)
    assert lengths == [1, 3]
    for p in paths:
        assert p.switch_count == 1


def test_paths_two_pair_counts(f0_engine):
    _, g, _ = f0_engine
    for tail in g.outgoing_tails():
        paths = paths_one_switch(g, tail)
        assert len(paths) == 2
        assert all(p.switch_count == 1 for p in paths)


def test_paths_bounded_budgets(f1arc_engine):
    _, g, _ = f1arc_engine
    tail = g.outgoing_tails()[0]
    assert paths_bounded(g, tail, 0) == []
    one = paths_bounded(g, tail, 1)
    assert one == paths_one_switch(g, tail)
    three = paths_bounded(g, tail, 3)
    assert len(three) > len(one)
    assert all(p.switch_count <= 3 for p in three)
    # every one-switch path reappears untouched in the bigger budget
    sigs = {tuple(e.eid for e in p.edges) for p in three}
    assert all(tuple(e.eid for e in p.edges) in sigs for p in one)


def test_unattached_tail_unreachable(f1arc_engine):
    _, g, _ = f1arc_engine
    with pytest.raises(ValueError):
        paths_bounded(g, g.tails[0] if g.tails[0].kind == "incoming" else g.tails[1], 1)


def test_path_edges_independent_of_base_placement():
    import dataclasses

    rep, g, eng = pipeline.build_engine(fixtures.f1_arc(), h_max=0.06)
    tail = g.outgoing_tails()[0]
    before = [tuple(e.eid for e in p.edges) for p in paths_one_switch(g, tail)]
    g2 = dataclasses.replace(g)
    g2.e0 = dataclasses.replace(g.e0, base_frac=0.25)
    after = [tuple(e.eid for e in p.edges) for p in paths_one_switch(g2, tail)]
    assert before == after


def test_sub_pieces_turning_count_split():
    pieces = (
        Piece(-1.5, -1.0, -1, True, False),
        Piece(-1.5, -1.0, +1, True, False),
    )
    e = geometry.Edge(0, 1, None, None, pieces, base_frac=0.3)
    first = e.sub_pieces(0.0, 0.3)
    second = e.sub_pieces(0.3, 1.0)
    nu1, nu2 = len(first) - 1, len(second) - 1
    assert nu1 + nu2 == e.nu == 1
    assert nu1 == 0 and nu2 == 1
    total = sum(pc.width for pc in first) + sum(pc.width for pc in second)
    assert abs(total - e.arc_length) < 1e-14
    # a fraction range that brackets the junction counts it
    assert len(e.sub_pieces(0.25, 0.75)) - 1 == 1


def _inside(e, flo, fhi):
    """Junction arcs strictly inside the cut, in the cut's own arithmetic."""
    L = e.arc_length
    return [s for s in geometry._junction_arcs(e.pieces) if flo * L < s < fhi * L]


def test_sub_pieces_count_the_junctions_strictly_inside(f0_engine, f1arc_engine, single_engine):
    # dyadic widths put cuts exactly on the junctions at arcs 0.5 and 0.75
    chain = geometry.Edge(0, 1, None, None, (
        Piece(0.0, 0.5, +1, False, True),
        Piece(0.25, 0.5, -1, True, True),
        Piece(0.25, 0.5, +1, True, False),
    ))
    for flo, fhi, nu in [(0.0, 0.5, 0), (0.5, 0.75, 0), (0.75, 1.0, 0), (0.5, 1.0, 1),
                         (0.25, 0.75, 1), (0.0, 0.75, 1), (0.25, 0.8, 2), (0.0, 1.0, 2)]:
        assert len(chain.sub_pieces(flo, fhi)) - 1 == nu == len(_inside(chain, flo, fhi))
    rng = random.Random(5)
    cuts = 0
    for _, g, _ in (f0_engine, f1arc_engine, single_engine):
        for e in g.edges:
            juncs = [s / e.arc_length for s in geometry._junction_arcs(e.pieces)]
            fracs = [0.0, 1.0, e.base_frac] + juncs + [rng.random() for _ in range(40)]
            for flo in fracs:
                for fhi in fracs:
                    if flo < fhi:
                        assert len(e.sub_pieces(flo, fhi)) - 1 == len(_inside(e, flo, fhi))
                        cuts += 1
    assert cuts > 10000


def _turning_ends(pieces):
    return sorted([pc.x_lo for pc in pieces if pc.lo_turn] + [pc.x_hi for pc in pieces if pc.hi_turn])


@pytest.mark.parametrize("e0", [0.65, 0.8])
def test_base_point_halves_keep_their_turning_points(e0):
    # a turning edge is two pieces that meet at its turning point; the
    # base-point half holding it must carry both flags at the exact x
    _, g, _ = pipeline.build_engine(fixtures.f1(e0=e0), calib=1.0, h_max=0.05)
    halves = 0
    for e in g.edges:
        if e.nu == 0:
            continue
        assert len(e.pieces) == 2
        for flo, fhi in ((0.0, e.base_frac), (e.base_frac, 1.0)):
            sub = e.sub_pieces(flo, fhi)
            holds_turn = bool(_inside(e, flo, fhi))
            assert len(sub) == 1 + holds_turn
            assert _turning_ends(sub) == (_turning_ends(e.pieces) if holds_turn else [])
            halves += holds_turn
    assert halves == 2  # round the two walls of the channel-1 well


def test_base_point_positions(f1arc_engine):
    _, g, _ = f1arc_engine
    for e in g.edges:
        end = e.sub_pieces(0.0, e.base_frac)[-1]
        x = end.x_hi if end.xi_sign > 0 else end.x_lo
        lo = min(pc.x_lo for pc in e.pieces)
        hi = max(pc.x_hi for pc in e.pieces)
        assert lo <= x <= hi


def test_pathseq_validates_consecutiveness(f1arc_engine):
    _, g, _ = f1arc_engine
    e = g.gamma1_edges()[0]
    bad = [e2 for e2 in g.edges if e2.source.key != e.target.key and e2.eid != e.eid]
    if bad:
        with pytest.raises(InternalInconsistency):
            PathSeq(edges=(e, bad[0]))


def test_graph_json_roundtrip(f0_engine):
    import json

    _, g, _ = f0_engine
    d = geometry.graph_to_dict(g)
    blob = json.dumps(d)
    back = json.loads(blob)
    assert back["e0"] == g.e0.eid
    assert len(back["vertices"]) == len(g.vertices)
    assert len(back["primitive_cycles"]) == len(primitive_cycles(g))


def test_open_channel_topology(f1_engine):
    # tangency with channel 2 open both sides: no bounded channel-2 edge,
    # four tails, and the classical cycle is the only primitive cycle
    _, g, _ = f1_engine
    assert len(g.vertices) == 2
    assert len(g.edges) == 2
    assert all(e.channel == 1 for e in g.edges)
    assert len(g.tails) == 4
    assert len(primitive_cycles(g)) == 1
    for tail in g.outgoing_tails():
        assert len(paths_one_switch(g, tail)) == 1


def _mirrored(problem):
    """The problem reflected by x -> -x, for an even V1 (the shipped well):
    V2(-x), r0(-x) and, since the coupling's xi flips sign with x, -r1(-x);
    the window reflected."""
    def flip(e):
        return exprs.parse(re.sub(r"\bx\b", "(-x)", exprs.unparse(e)))

    lo, hi = problem.window
    return dataclasses.replace(
        problem, v2=flip(problem.v2), r0=flip(problem.r0),
        r1=exprs.parse(f"-({exprs.unparse(flip(problem.r1))})"), window=(-hi, -lo))


@pytest.mark.parametrize("make", [fixtures.single_transversal, fixtures.f1_arc])
def test_left_open_channel_2_mirrors_right_open(make):
    # the mirror image turns the right-open channel-2 interval into a
    # left-open one; the resonances do not move.  Both engines cache their
    # actions for h_max = h, as the CLI does.
    h = 0.05
    _, g, engine = pipeline.build_engine(make(), calib=1.0, h_max=h)
    _, g_m, mirror = pipeline.build_engine(_mirrored(make()), calib=1.0, h_max=h)
    assert {t.direction for t in g.tails} == {+1}
    assert {t.direction for t in g_m.tails} == {-1}
    rows, rows_m = engine.resonance_table(h), mirror.resonance_table(h)
    assert [r["seed"] for r in rows_m] == [r["seed"] for r in rows]
    for r, r_m in zip(rows, rows_m):
        for key in ("D", "pseudo_im"):
            assert math.isclose(r_m[key], r[key], rel_tol=1e-10), key


def _left_open_two_crossings():
    # channel 2 is allowed on (-infinity, turning point] and holds both
    # crossings, so its component has a lower chain and a right arc
    return fixtures._problem("0.2 + 0.6*tanh(x)", L=0.5)


def test_left_open_component_in_flow_order():
    rep, g, _ = pipeline.build_engine(_left_open_two_crossings(), calib=1.0, h_max=0.05)
    assert rep.passed
    ch2 = [(e.source.key, e.target.key) for e in sorted(g.edges, key=lambda e: e.eid) if e.channel == 2]
    assert ch2 == [((0, +1), (1, +1)), ((1, +1), (1, -1)), ((1, -1), (0, -1))]
    assert [t.direction for t in g.tails] == [-1, -1]


@pytest.mark.parametrize("h", [0.05, 0.04, 0.03])
def test_left_open_two_crossings_mirrors_right_open(h):
    # the left-open component's lower chain runs after its arc; the
    # mirrored (right-open) problem gives the same resonances up to rounding
    _, _, engine = pipeline.build_engine(_left_open_two_crossings(), calib=1.0, h_max=h)
    _, _, mirror = pipeline.build_engine(_mirrored(_left_open_two_crossings()), calib=1.0, h_max=h)
    rows, rows_m = engine.resonance_table(h), mirror.resonance_table(h)
    assert len(rows_m) == len(rows) > 0
    for r, r_m in zip(rows, rows_m):
        assert math.isclose(r_m["seed"], r["seed"], rel_tol=1e-14)
        for key in ("D", "pseudo_im"):
            assert math.isclose(r_m[key], r[key], rel_tol=1e-10), key
