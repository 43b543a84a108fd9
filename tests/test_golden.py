"""Golden CLI outputs.

Each case runs ``cli.main`` in-process and compares its exit code and its
output with the files under ``tests/golden/``: byte for byte for the
semiclassical commands, and at 1e-8 relative for the oracle, whose low
digits depend on the BLAS build.  Regenerate the files after a deliberate
output change with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import math
import os
import sys

import pytest

from crosswidth import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
CONFIGS = ("f0", "f0_decoupled", "f1", "f1_arc", "f2", "harmonic", "single_transversal")
STPHASE_H = "0.01,0.001,0.0001,1e-05"

EXACT = {}
for _name in CONFIGS:
    EXACT[f"analyze_{_name}"] = ["analyze", _name]
    EXACT[f"bs_{_name}"] = ["bs", _name, "--h", "0.05"]
    EXACT[f"widths_{_name}"] = ["widths", _name, "--h", "0.05"]
EXACT["pseudo_f1"] = ["pseudo", "f1", "--h", "0.05"]
for _m in (1, 2, 3):  # the stationary-phase arguments of acceptance criterion 7
    EXACT[f"stphase_m{_m}"] = ["stphase", "f0", "--m", str(_m), "--h-list", STPHASE_H,
                               "--phi", f"x^{_m + 1}", "--sigma", "1", "--calib", "2.0"]
APPROX = {"oracle_f0": ["oracle", "f0", "--h", "0.05"]}


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


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted({**EXACT, **APPROX}.items()):
            codes[name], text = _run(argv, os.path.join(tmp, "out"))
            with open(os.path.join(GOLDEN, f"{name}.out"), "wb") as fh:
                fh.write(text)
            print(name, codes[name], file=sys.stderr)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")
