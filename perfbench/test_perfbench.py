"""Tests of the benchmark itself: seeded inputs, the output checker and the
tracer's wrapper restoration.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import inspect
import io
import json
import signal
import sys
import time

import checks
import speed
import tracer
import workloads as wl

sys.path.insert(0, str(wl.SRC))

WORKLOADS = ("compare", "semiclassics", "cold_cli")


def _reference(name):
    return json.loads((wl.HERE / "reference" / f"seed0_{name}.json").read_text(encoding="utf-8"))


def _box(stem):
    from crosswidth.config import load_config

    p = load_config(wl.config_path(stem)).problem
    return p.e0, p.L


def test_seed_gives_same_inputs():
    for name in WORKLOADS:
        for seed in range(6):
            assert wl.inputs(name, seed) == wl.inputs(name, seed)
    assert wl.compare_tasks(wl.inputs("compare", 3)) == wl.compare_tasks(wl.inputs("compare", 3))
    assert wl.cold_cli_tasks(wl.inputs("cold_cli", 3)) == wl.cold_cli_tasks(wl.inputs("cold_cli", 3))
    assert wl.inputs("compare", 0)["h_list"] == list(wl.SHIPPED_SWEEP)
    assert wl.inputs("compare", 1) != wl.inputs("compare", 2)
    for seed in range(1, 50):
        hs = wl.inputs("compare", seed)["h_list"]
        assert len(hs) == 5 and all(a > b for a, b in zip(hs, hs[1:]))
        assert wl.H_RANGE[0] <= hs[-1] and hs[0] <= wl.H_RANGE[1]
        assert wl.H_RANGE[0] <= wl.inputs("cold_cli", seed)["h"] <= wl.H_RANGE[1]


def _outcome(task, text, rc=0):
    return wl.Outcome(task, 1.0, rc, text)


def test_checker_accepts_reference_and_catches_perturbed_output():
    ref = _reference("compare")["compare f1"]
    task = wl.compare_tasks(wl.inputs("compare", 0))[0]
    ctx = {"box": _box}
    assert checks.classify(_outcome(task, ref), ctx, ref) == ("ok", [])

    lines = ref.split("\n")
    row = lines[3].split(",")
    # an oracle value moved by 1e-6 relative
    moved = row[:7] + [repr(float(row[7]) * (1 + 1e-6))] + row[8:]
    perturbed = "\n".join(lines[:3] + [",".join(moved)] + lines[4:])
    status, problems = checks.classify(_outcome(task, perturbed), ctx, ref)
    assert status == "bad" and any("oracle columns" in p for p in problems)
    # a semiclassical value off in its last digit
    d = row[4]
    row_d = row[:4] + [d[:-1] + str((int(d[-1]) + 1) % 10)] + row[5:]
    perturbed = "\n".join(lines[:3] + [",".join(row_d)] + lines[4:])
    assert checks.classify(_outcome(task, perturbed), ctx, ref)[0] == "bad"
    # a Green-identity width 20% off fails the any-seed check, with no reference
    green = row[:8] + [repr(float(row[8]) * 1.2)] + row[9:]
    perturbed = "\n".join(lines[:3] + [",".join(green)] + lines[4:])
    status, problems = checks.classify(_outcome(task, perturbed), ctx)
    assert status == "bad" and any("im_green" in p for p in problems)


def test_checker_on_cli_outputs_and_known_defects():
    tasks = {t.name: t for t in wl.cold_cli_tasks(wl.inputs("cold_cli", 0))}
    ref = _reference("cold_cli")
    ctx = {"box": _box}
    widths = tasks["widths f0 --h 0.05"]
    assert checks.classify(_outcome(widths, ref[widths.name]), ctx, ref[widths.name])[0] == "ok"
    payload = json.loads(ref[widths.name])
    payload["records"][0]["D"] = -payload["records"][0]["D"]
    assert checks.classify(_outcome(widths, json.dumps(payload)), ctx)[0] == "bad"

    bs = tasks["bs f1_arc --h 0.05"]
    shifted = ref[bs.name].replace("\n0,", "\n0,9")  # first grid point far outside the box
    assert checks.classify(_outcome(bs, shifted), ctx)[0] == "bad"

    f2 = tasks["widths f2 --h 0.05"]
    diag = json.dumps({"diagnostics": f2.known_defect[1]})
    assert checks.classify(_outcome(f2, diag, rc=3), ctx) == ("known", [])
    other = json.dumps({"diagnostics": "CountMismatch: argument principle counts 4 zeros, Newton found 2"})
    assert checks.classify(_outcome(f2, other, rc=3), ctx)[0] == "bad"
    assert checks.classify(_outcome(f2, diag, rc=2), ctx)[0] == "bad"


def test_semiclassics_reference_applies_to_every_seed():
    import run

    for seed in (0, 4, 9):
        assert run.load_reference("semiclassics", seed) == _reference("semiclassics")
    assert run.load_reference("compare", 0) == _reference("compare")
    assert run.load_reference("compare", 3) is None

    ref = _reference("semiclassics")
    name = next(n for n in ref if n.startswith("full f0"))
    task = wl.Task(name, "full", "f0", 0.05)
    # a wrong but finite, nonnegative full width passes the any-seed check only
    moved = repr(float(ref[name]) * (1 + 1e-9))
    assert checks.classify(_outcome(task, moved), {})[0] == "ok"
    assert checks.classify(_outcome(task, moved), {}, ref[name])[0] == "bad"


def test_speed_factor_is_the_median_of_the_run():
    sp = speed.Speed()
    try:
        sp.factor()
    except RuntimeError:
        pass
    else:
        raise AssertionError("a factor without marks")
    with sp.marking():
        deadline = time.perf_counter() + 1.5 * speed.MARK_EVERY_S
        while time.perf_counter() < deadline:   # a long task: a timer mark falls inside
            pass
    assert len(sp.samples) == 2 * speed.KERNEL_REPS and all(x > 0 for x in sp.samples)
    assert 0 < sp.spent < 1.5 * speed.MARK_EVERY_S
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    # a run at half the reference speed: half the measured time
    sp.samples = [2 * speed.REFERENCE_S] * 3
    assert sp.factor() == 0.5
    # the mean follows the share of time in the slow state
    sp.samples = [speed.REFERENCE_S / 2] * 2 + [2 * speed.REFERENCE_S] * 2
    assert abs(sp.factor() - 0.8) < 1e-12


def test_wrappers_restored_after_traced_run():
    from crosswidth import cli, config, geometry, model, oracle, pipeline, quadrature, semiclassics

    mods = (cli, config, geometry, model, oracle, pipeline, quadrature, semiclassics)

    def snapshot():
        snap = {}
        for mod in mods:
            for attr, obj in vars(mod).items():
                snap[(mod.__name__, attr)] = obj
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for cattr, cobj in vars(obj).items():
                        snap[(mod.__name__, attr, cattr)] = cobj
                if isinstance(obj, dict) and attr != "__builtins__":
                    for key, val in obj.items():
                        if inspect.isfunction(val):
                            snap[(mod.__name__, attr, "[]", key)] = val
        return snap

    before = snapshot()
    tr = tracer.Tracer().install()
    tr.task = "bs f1_arc"
    try:
        assert cli.main is not before[("crosswidth.cli", "main")]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["bs", wl.config_path("f1_arc"), "--h", "0.08"])
    finally:
        saved = tr.restore()
    assert rc == 0
    assert tr.stats["semiclassics.SemiclassicsEngine.bohr_sommerfeld"][0] == 1
    assert tr.stats["config.load_config"][0] == 1
    assert tr.spans and all(task is not None and t1 >= t0 for _, _, task, _, t0, t1, _ in tr.spans)
    assert tracer.Tracer.all_restored(saved)
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), [k for k in before if after[k] is not before[k]]
