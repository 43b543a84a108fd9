"""Golden CLI outputs.

Each case runs ``cli.main`` in-process and compares its exit code and its
output with the files under ``tests/golden/``: byte for byte for the
semiclassical commands, and at 1e-8 relative for the oracle, whose low
digits depend on the BLAS build.  ``compare_f1.out`` is the shipped compare
sweep on f1: its semiclassical columns and summary entries are compared
exactly, its oracle columns and the summary entries built on them at 1e-8
relative, and its ``residual`` column against the oracle's acceptance bound.  ``anchors.out`` pins the repr of ``pipeline.select_anchor`` over
the shipped sweep on five configs, with the warning it gives when it falls
back to e0.  ``count.out`` pins the argument-principle winding number (or
the exception it raises) over the shipped sweep on six configs, and
``dips_f0.out`` the width dips of f0 with a digest of the one-switch D(E)
on the 801-point scan.  Regenerate the files after a deliberate output
change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import csv
import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

from crosswidth import cli, oracle, pipeline
from crosswidth.config import load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
CONFIGS = ("f0", "f0_decoupled", "f1", "f1_arc", "f2", "harmonic", "single_transversal")
STPHASE_H = "0.01,0.001,0.0001,1e-05"

EXACT = {}
for _name in CONFIGS:
    EXACT[f"analyze_{_name}"] = ["analyze", _name]
    EXACT[f"bs_{_name}"] = ["bs", _name, "--h", "0.05"]
    EXACT[f"widths_{_name}"] = ["widths", _name, "--h", "0.05"]
    EXACT[f"pseudo_{_name}"] = ["pseudo", _name, "--h", "0.05"]
    EXACT[f"widths_{_name}_h003"] = ["widths", _name, "--h", "0.03"]
    EXACT[f"pseudo_{_name}_h003"] = ["pseudo", _name, "--h", "0.03"]
for _m in (1, 2, 3):  # the stationary-phase arguments of acceptance criterion 7
    EXACT[f"stphase_m{_m}"] = ["stphase", "f0", "--m", str(_m), "--h-list", STPHASE_H,
                               "--phi", f"x^{_m + 1}", "--sigma", "1"]
APPROX = {"oracle_f0": ["oracle", "f0", "--h", "0.05"]}
COMPARE = {"compare_f1": ["compare", "f1"]}
SEMICLASSICAL_COLS = ("h", "seed", "pseudo_re", "pseudo_im", "D", "im_pred")
ORACLE_COLS = ("re_oracle", "im_oracle", "im_green", "ratio")
ANCHOR_CONFIGS = ("f0", "f1", "f1_arc", "f2", "single_transversal")
COUNT_CONFIGS = ("f0", "f0_decoupled", "f1", "f1_arc", "f2", "single_transversal")
SWEEP = (0.08, 0.06, 0.05, 0.04, 0.03)  # the shipped [sweep] h_list


def _run(argv, out_path):
    code = cli.main([argv[0], os.path.join(ROOT, "configs", f"{argv[1]}.cfg"), *argv[2:],
                     "--out", str(out_path)])
    with open(out_path, "rb") as fh:
        return code, fh.read()


def _golden(name):
    with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
        code = json.load(fh)[name]
    with open(os.path.join(GOLDEN, f"{name}.out"), "rb") as fh:
        return code, fh.read()


def _sweep_engine(name):
    cfg = load_config(os.path.join(ROOT, "configs", f"{name}.cfg"))
    return pipeline.build_engine(cfg.problem, calib=cfg.calib, h_max=max(SWEEP))[2]


def _anchors_text():
    """One line per config: its anchor's repr over SWEEP, then any warning
    it gave."""
    lines = []
    for name in ANCHOR_CONFIGS:
        engine = _sweep_engine(name)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            anchor = pipeline.select_anchor(engine, SWEEP)
        lines.append(f"{name} {anchor!r}")
        lines.extend(f"{name} {w.category.__name__}: {w.message}" for w in caught)
    return "\n".join(lines) + "\n"


def _count_text():
    """One line per config and h: the winding number of det(I - M) around
    the resonance box, or the exception it raised."""
    lines = []
    for name in COUNT_CONFIGS:
        engine = _sweep_engine(name)
        for h in SWEEP:
            try:
                got = repr(engine.count_by_argument_principle(h))
            except Exception as exc:  # the message is part of the pinned output
                got = f"{type(exc).__name__}: {exc}"
            lines.append(f"{name} {h!r} {got}")
    return "\n".join(lines) + "\n"


def _dips_f0_text():
    """Per h on f0: the repr of width_dips, and the sha256 of the reprs of
    the one-switch D at each of the scan's energies, one scalar call each."""
    engine = _sweep_engine("f0")
    lines = []
    for h in SWEEP:
        lo, hi = engine.box(h)
        ds = [repr(engine.width_coefficient(float(E), h, "one_switch").D)
              for E in np.linspace(lo, hi, 801)]
        digest = hashlib.sha256("\n".join(ds).encode()).hexdigest()
        lines.append(f"{h!r} {pipeline.width_dips(engine, h)!r} {digest}")
    return "\n".join(lines) + "\n"


TEXTS = {"anchors.out": _anchors_text, "count.out": _count_text, "dips_f0.out": _dips_f0_text}


@pytest.mark.parametrize("name", sorted(EXACT))
def test_output_byte_identical(tmp_path, name):
    assert _run(EXACT[name], tmp_path / "out") == _golden(name)


@pytest.mark.parametrize("name", sorted(APPROX))
def test_oracle_output_close(tmp_path, name):
    code, text = _run(APPROX[name], tmp_path / "out")
    want_code, want_text = _golden(name)
    assert code == want_code
    got, want = json.loads(text), json.loads(want_text)
    assert set(got) == set(want)
    for key in ("E_re", "E_im", "im_green"):
        assert math.isclose(got[key], want[key], rel_tol=1e-8), key
    # |W| at the root is roundoff: only its order of magnitude is stable
    assert got["residual"] <= 1e3 * max(want["residual"], 1e-300)


def _parse_compare(text):
    """The CSV rows of a compare output, as dicts, and its summary."""
    *table, last = text.decode("utf-8").splitlines()
    return list(csv.DictReader(table)), json.loads(last.removeprefix("# summary: "))


def _flat(value):
    """A summary entry (number, list or dict of numbers) as a list."""
    if isinstance(value, dict):
        return [value[k] for k in sorted(value)]
    return value if isinstance(value, list) else [value]


@pytest.mark.parametrize("name", sorted(COMPARE))
def test_compare_output_close(tmp_path, name):
    code, text = _run(COMPARE[name], tmp_path / "out")
    want_code, want_text = _golden(name)
    assert code == want_code
    assert text.splitlines()[0] == want_text.splitlines()[0]  # the column order
    rows, summary = _parse_compare(text)
    want_rows, want_summary = _parse_compare(want_text)
    assert len(rows) == len(want_rows)
    for got, want in zip(rows, want_rows):
        assert [got[c] for c in SEMICLASSICAL_COLS] == [want[c] for c in SEMICLASSICAL_COLS]
        for c in ORACLE_COLS:
            assert math.isclose(float(got[c]), float(want[c]), rel_tol=1e-8), (got["h"], c)
        # |W| at the root is roundoff: checked against the acceptance bound
        assert float(got["residual"]) <= oracle._RESIDUAL_MAX, got["h"]
    assert set(summary) == set(want_summary)
    for key in ("m0", "anchor", "exponent_expected", "fit_pred"):
        assert summary[key] == want_summary[key], key
    for key in ("fit_oracle", "ratio_drift", "calib_ratio"):
        got, want = _flat(summary[key]), _flat(want_summary[key])
        assert len(got) == len(want), key
        assert all(math.isclose(a, b, rel_tol=1e-8) for a, b in zip(got, want)), key


def _golden_text(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def test_anchors_repr_identical():
    assert _anchors_text() == _golden_text("anchors.out")


def test_count_identical():
    assert _count_text() == _golden_text("count.out")


def test_dips_f0_identical():
    assert _dips_f0_text() == _golden_text("dips_f0.out")


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted({**EXACT, **APPROX, **COMPARE}.items()):
            codes[name], text = _run(argv, os.path.join(tmp, "out"))
            with open(os.path.join(GOLDEN, f"{name}.out"), "wb") as fh:
                fh.write(text)
            print(name, codes[name], file=sys.stderr)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, text in TEXTS.items():
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
            fh.write(text())
