import json
import os
import pickle
import time
import warnings

import pytest

import fixtures
from crosswidth import cli, exprs, oracle, pipeline, quadrature
from crosswidth.config import RunConfig
from crosswidth.pipeline import compare_sweep, select_anchor, tracked_seed
from crosswidth.semiclassics import SemiclassicsEngine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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


def _cpus(monkeypatch, n):
    """Make the affinity mask hold n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _compare_f1(tmp_path):
    out = tmp_path / "compare.csv"
    code = cli.main(["compare", os.path.join(ROOT, "configs", "f1.cfg"), "--out", str(out)])
    return code, out.read_bytes()


def test_compare_bytes_do_not_depend_on_the_process_count(monkeypatch, tmp_path):
    _cpus(monkeypatch, 1)  # one process, no fork
    serial = _compare_f1(tmp_path)
    _no_child_left()
    _cpus(monkeypatch, 4)  # three workers
    assert _compare_f1(tmp_path) == serial
    _no_child_left()

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)  # the rows stay in this process
    assert _compare_f1(tmp_path) == serial
    assert serial[0] == 0


def test_rows_past_the_1024th_run_in_this_process(monkeypatch, tmp_path):
    # tokens go out for the first 1024 of 2500 rows: every row runs once and
    # comes back in jobs order, and the rest run here, in order, after the
    # workers, with no warning
    log = tmp_path / "rows.log"

    def row(cfg, report, m0, start, h):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{h}\n")
        return h, os.getpid()

    _cpus(monkeypatch, 4)
    monkeypatch.setattr(pipeline, "oracle_row", row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pipeline._oracle_rows(None, None, 2, [(0j, i) for i in range(2500)])
    _no_child_left()
    assert [value[0] for ok, value in out] == list(range(2500)) and all(ok for ok, _ in out)
    assert len({value[1] for _, value in out[:1024]}) > 1
    assert {value[1] for _, value in out[1024:]} == {os.getpid()}
    ran = list(map(int, log.read_text().split()))
    assert sorted(ran) == list(range(2500)) and ran[1024:] == list(range(1024, 2500))


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_each_worker_starts_on_a_cpu_of_its_own(monkeypatch, tmp_path):
    # this process moves to the mask's first CPU and each worker to another
    # CPU of its own, and each then takes the whole mask back
    mask, parent, log = os.sched_getaffinity(0), os.getpid(), tmp_path / "cpus.log"
    setaffinity = os.sched_setaffinity

    def logged(pid, cpus):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {json.dumps(sorted(cpus))}\n")
        setaffinity(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", logged)
    monkeypatch.setattr(pipeline, "oracle_row", lambda cfg, report, m0, start, h: h)
    pipeline._oracle_rows(None, None, 2, [(0j, h) for h in SWEEP])
    _no_child_left()
    assert os.sched_getaffinity(0) == mask
    calls = {}
    for line in log.read_text().splitlines():
        pid, cpus = line.split(" ", 1)
        calls.setdefault(int(pid), []).append(json.loads(cpus))
    assert calls.pop(parent) == [[min(mask)], sorted(mask)]
    assert len(calls) == min(len(mask), len(SWEEP)) - 1
    assert all(len(first) == 1 and first[0] in mask - {min(mask)} and rest == [sorted(mask)]
               for first, *rest in calls.values())
    assert len({first[0] for first, *_ in calls.values()}) == len(calls)


def _rows_logged(monkeypatch, tmp_path, row):
    """Patch oracle_row with row(h, in_parent), logging each call's h and
    whether it ran in this process."""
    parent, log = os.getpid(), tmp_path / "rows.log"

    def logged(cfg, report, m0, start, h):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{h!r} {os.getpid() == parent}\n")
        return row(h, os.getpid() == parent)

    monkeypatch.setattr(pipeline, "oracle_row", logged)
    return lambda: [(float(h), flag == "True") for h, flag in
                    (line.split() for line in log.read_text().splitlines())]


def test_first_failing_h_wins_across_workers(monkeypatch, tmp_path):
    # this process sleeps through its first row, so the workers take the
    # others: at least two of the three failing rows fail in a worker
    failures = {0.08: oracle.NotConverged("row at 0.08"), 0.06: quadrature.QuadratureError("row at 0.06"),
                0.04: exprs.DomainError("row at 0.04")}

    def row(h, in_parent):
        if in_parent:
            time.sleep(0.3)
        if h in failures:
            raise failures[h]
        return None

    _cpus(monkeypatch, 4)
    calls = _rows_logged(monkeypatch, tmp_path, row)
    with pytest.raises(oracle.NotConverged, match="^row at 0.08$"):
        compare_sweep(RunConfig(problem=fixtures.f1(), h_list=list(SWEEP)))
    _no_child_left()
    assert sorted(h for h, _ in calls()) == sorted(SWEEP)
    assert sum(1 for h, in_parent in calls() if h in failures and not in_parent) >= 2


def test_rows_a_lost_worker_took_run_in_this_process(monkeypatch, tmp_path):
    # every worker dies on its first row: this process computes those rows
    # after reaping the workers, warns naming their h, and prints the bytes
    # of one process
    _cpus(monkeypatch, 1)
    serial = _compare_f1(tmp_path)
    parent, compute, log = os.getpid(), pipeline.oracle_row, tmp_path / "lost.log"

    def row(cfg, report, m0, start, h):
        if os.getpid() != parent:
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{h!r}\n")
            os._exit(7)  # a worker dies without a result
        time.sleep(0.3)  # leave rows to the workers
        return compute(cfg, report, m0, start, h)

    _cpus(monkeypatch, 4)
    monkeypatch.setattr(pipeline, "oracle_row", row)
    t0 = time.perf_counter()
    with pytest.warns(UserWarning, match="^an oracle worker process ended") as record:
        assert _compare_f1(tmp_path) == serial
    assert time.perf_counter() - t0 < 30
    _no_child_left()
    lost = [h for h in SWEEP if repr(h) in log.read_text().split()]
    assert lost and serial[0] == 0
    assert [str(w.message) for w in record] == [
        "an oracle worker process ended without returning the rows at h = "
        + ", ".join(map(repr, lost)) + "; computing them here"]


ROW_EXCEPTIONS = [
    (oracle.NotConverged("Muller did not reach |dE| <= 1.46969e-08 in 60 steps"), 3),
    (oracle.StepUnderflow("step size underflow at t = 1.5"), 3),
    (oracle.PolesOnContour("V1 - E has a pole on the contour"), 3),
    (oracle.InsufficientData("too few points"), 3),
    (oracle.BadContour("contour needs finite X > R0 > 0"), 2),
    (oracle.TooManySteps("h = 1e-05 needs 2621440 padded Magnus steps"), 2),
    (quadrature.QuadratureError("no convergence"), 3),
    (exprs.DomainError("log of a non-positive real in log(x) at x = -1.0"), 2),
]


@pytest.mark.parametrize("exc, code", ROW_EXCEPTIONS, ids=[type(e).__name__ for e, _ in ROW_EXCEPTIONS])
def test_row_exceptions_survive_pickling(monkeypatch, tmp_path, exc, code):
    # a worker's exception reaches the command as a pickled copy
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc) and str(copy) == str(exc)
    outputs = []
    for raised in (exc, copy):
        def failing(cfg, h_list, raised=raised):
            raise raised

        monkeypatch.setattr(cli, "compare_sweep", failing)
        outputs.append(_compare_f1(tmp_path))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == code
