import pytest

import fixtures
from crosswidth.config import RunConfig
from crosswidth.pipeline import compare_sweep, select_anchor, tracked_seed
from crosswidth.semiclassics import SemiclassicsEngine

SWEEP = (0.08, 0.06, 0.05, 0.04, 0.03)  # the shipped [sweep] h_list


def test_tracked_seed_nearest_point():
    assert tracked_seed([0.70, 0.74, 0.78], 0.755) == 0.74
    assert tracked_seed([], 0.75) is None


@pytest.mark.parametrize("name", ["f1_engine", "f1arc_engine"])
def test_select_anchor_solves_each_grid_once(request, name):
    _, _, engine = request.getfixturevalue(name)
    calls = []
    solve = engine.bohr_sommerfeld

    def counted(h):
        calls.append(h)
        return solve(h)

    engine.bohr_sommerfeld = counted
    try:
        select_anchor(engine, SWEEP)
    finally:
        del engine.bohr_sommerfeld
    assert len(calls) == len(SWEEP)
    assert set(calls) == set(SWEEP)


def test_resonance_table_solves_its_grid_once(f1_engine):
    _, _, engine = f1_engine
    calls = []
    solve = engine.bohr_sommerfeld

    def counted(h):
        calls.append(h)
        return solve(h)

    engine.bohr_sommerfeld = counted
    try:
        rows = engine.resonance_table(0.05)
    finally:
        del engine.bohr_sommerfeld
    assert calls == [0.05]
    assert [row["seed"] for row in rows] == solve(0.05)


def test_compare_solves_each_grid_twice(monkeypatch):
    # once for the anchor search and once for the resonance table
    calls = []
    solve = SemiclassicsEngine.bohr_sommerfeld

    def counted(self, h):
        calls.append(h)
        return solve(self, h)

    monkeypatch.setattr(SemiclassicsEngine, "bohr_sommerfeld", counted)
    hs = [0.08, 0.06]
    result = compare_sweep(RunConfig(problem=fixtures.f1(), h_list=hs), hs)
    assert [row["h"] for row in result["rows"]] == hs
    assert sorted(calls) == sorted(2 * hs)
