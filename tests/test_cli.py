import json
import math
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from crosswidth import cli
from crosswidth.config import ConfigError, load_config
from crosswidth.semiclassics import SemiclassicsEngine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")


def _cfg_path(name):
    return os.path.join(CONFIGS, f"{name}.cfg")


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


MINIMAL = """[problem]
v1 = 1 - 1/cosh(x)^2
v2 = 0.1 - 0.6*tanh(x)
r0 = 0.3
r1 = 0.15
e0 = 0.75
window = -8, 8
L = 1.5
"""


def test_load_config_minimal(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert cfg.problem.e0 == 0.75
    assert cfg.h_list is None
    assert cfg.calib == 1.0


def test_load_config_full():
    cfg = load_config(_cfg_path("f0"))
    assert cfg.h_list == [0.08, 0.06, 0.05, 0.04, 0.03]


def test_readme_config_block_loads(tmp_path):
    # the documented format is the parser's: README's example config loads
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Configuration format\n", 1)[1]
    block = section.split("```\n", 2)[1]
    cfg = load_config(_write(tmp_path, block))
    assert cfg.problem.e0 == 0.75 and cfg.problem.L == 1.5
    assert cfg.h_list == [0.08, 0.06, 0.05, 0.04, 0.03]
    assert cfg.calib == 1.0


def test_missing_key_names_it(tmp_path):
    broken = MINIMAL.replace("e0 = 0.75\n", "")
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, broken))
    assert "e0" in str(err.value)


def test_unknown_key_reports_line(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, MINIMAL + "bogus = 1\n"))
    assert err.value.line is not None


def test_h_list_must_decrease(tmp_path):
    text = MINIMAL + "\n[sweep]\nh_list = 0.03, 0.05\n"
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, text))


def test_bad_expression_reports_line(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, MINIMAL.replace("r0 = 0.3", "r0 = 2x")))


def test_analyze_emits_graph_json(tmp_path):
    out = tmp_path / "analyze.json"
    code = cli.main(["analyze", _cfg_path("f0"), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["passed"] is True
    assert payload["report"]["m0"] == 1
    assert len(payload["graph"]["vertices"]) == 4
    assert len(payload["graph"]["edges"]) == 6
    assert payload["graph"]["primitive_cycles"]


def test_analyze_exit_2_on_validation_failure(tmp_path):
    bad = MINIMAL.replace("v1 = 1 - 1/cosh(x)^2", "v1 = x^2 + 2").replace(
        "e0 = 0.75", "e0 = 1.0"
    )
    out = tmp_path / "analyze.json"
    code = cli.main(["analyze", _write(tmp_path, bad), "--out", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert "diagnostics" in payload


def test_analyze_exit_2_on_a_bounded_channel_2_pocket(tmp_path):
    # f1 with channel 2 allowed in a pocket that reaches neither window edge
    lines = open(_cfg_path("f1"), encoding="utf-8").read().splitlines()
    text = "\n".join("v2 = 0.2 + 0.6 * tanh(x) ^ 2 - 0.5 / cosh(x - 4.0) ^ 2"
                     if line.startswith("v2 =") else line for line in lines)
    out = tmp_path / "analyze.json"
    assert cli.main(["analyze", _write(tmp_path, text), "--out", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["report"]["flags"]["v2_nontrapping"] == {
        "ok": False, "detail": "1 bounded allowed component(s) inside the window"}
    assert payload["diagnostics"] == "structure validation failed"


def test_exit_2_on_broken_config(tmp_path):
    out = tmp_path / "out.json"
    code = cli.main(["analyze", _write(tmp_path, "not a config"), "--out", str(out)])
    assert code == 2


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xff\xfe[problem]\n")
    assert cli.main(["analyze", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["diagnostics"] == (
        "the config is not UTF-8 text: invalid start byte at byte 0")


@pytest.mark.parametrize("config, e0, command", [
    ("f1", "0.65", "bs"), ("f1", "0.65", "widths"), ("f1", "0.65", "pseudo"),
    ("f1", "0.8", "bs"), ("f1", "0.8", "widths"), ("f1", "0.8", "pseudo"), ("f2", "0.8", "bs"),
])
def test_shifted_e0_runs(tmp_path, config, e0, command):
    # the base-point halves of the turning edges keep their turning points,
    # so their actions converge at any e0 the structure checks accept
    with open(_cfg_path(config), encoding="utf-8") as fh:
        text = fh.read()
    assert "e0 = 0.75" in text
    out = tmp_path / "out.txt"
    code = cli.main([command, _write(tmp_path, text.replace("e0 = 0.75", f"e0 = {e0}")),
                     "--h", "0.05", "--out", str(out)])
    assert code == 0, out.read_text()


@pytest.mark.parametrize("command", ["bs", "widths", "pseudo"])
def test_turning_point_far_from_e0_runs(tmp_path, command):
    # e0 = 0.65 and L = 3 at h = 0.08: the action fits reach energies where
    # the symmetric turning-point bracket spans the whole well
    with open(_cfg_path("f1"), encoding="utf-8") as fh:
        text = fh.read()
    assert "e0 = 0.75" in text and "L = 1.5" in text
    out = tmp_path / "out.txt"
    cfg = _write(tmp_path, text.replace("e0 = 0.75", "e0 = 0.65").replace("L = 1.5", "L = 3"))
    code = cli.main([command, cfg, "--h", "0.08", "--out", str(out)])
    assert code == 0, out.read_text()


def test_bs_csv(tmp_path):
    out = tmp_path / "bs.csv"
    code = cli.main(["bs", _cfg_path("f1_arc"), "--h", "0.05", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,E"
    assert len(lines) == 4  # three grid points at this h and box


def test_widths_json_schema(tmp_path):
    out = tmp_path / "widths.json"
    code = cli.main(["widths", _cfg_path("f1"), "--h", "0.05", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["h"] == 0.05
    for rec in payload["records"]:
        assert set(rec) == {"seed", "pseudo_re", "pseudo_im", "D", "im_pred"}
        assert rec["im_pred"] == -rec["D"] * 0.05 ** (5.0 / 3.0)


def test_pseudo_json(tmp_path):
    out = tmp_path / "pseudo.json"
    code = cli.main(["pseudo", _cfg_path("f0"), "--h", "0.05", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["records"]) == 3
    for rec in payload["records"]:
        assert rec["residual"] <= 1e-12
        assert rec["im_pred"] == -rec["D"] * 0.05**2


@pytest.mark.parametrize("h", ["3e-4", "1e-4"])
def test_pseudo_accepts_roots_at_the_roundoff_floor_below_h_1e_3(tmp_path, h):
    # near a root |det(I - M)| cannot fall much below eps |A(e0)| / h,
    # which passes NEWTON_TOL = 1e-12 below h = 7e-4 (|A(e0)| = pi)
    out = tmp_path / "pseudo.json"
    code = cli.main(["pseudo", _cfg_path("f0"), "--h", h, "--out", str(out)])
    assert code == 0
    records = json.loads(out.read_text())["records"]
    assert len(records) == 3
    assert max(rec["residual"] for rec in records) > 1e-12
    assert all(rec["residual"] <= sys.float_info.epsilon * math.pi / float(h) for rec in records)


def test_stphase_csv(tmp_path):
    out = tmp_path / "stphase.csv"
    code = cli.main([
        "stphase", _cfg_path("f0"), "--m", "1", "--h-list", "0.01,0.001",
        "--phi", "x^2", "--sigma", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "h,numeric_re,numeric_im,asym_re,asym_im,ratio"
    assert len(lines) == 3
    last = [float(v) for v in lines[2].split(",")]
    assert abs(last[5] - 1.0) < 0.05  # numeric/asymptotic modulus ratio


def test_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["analyze", _cfg_path("f0"), "--out", str(a)])
    cli.main(["analyze", _cfg_path("f0"), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_oracle_subcommand(tmp_path):
    out = tmp_path / "oracle.json"
    code = cli.main(["oracle", _cfg_path("f1"), "--h", "0.05", "--seed-index", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"E_re", "E_im", "residual", "im_green"}
    assert payload["E_im"] < 0
    assert abs(payload["im_green"] / payload["E_im"] - 1.0) < 0.1


def test_oracle_moves_off_a_stalled_muller_point(tmp_path):
    # from the predicted start, Muller stalls on f1_arc at h = 0.08 where
    # |W| = 0.0656 and no zero lies; the |W| scan then reaches the true root
    out = tmp_path / "oracle.json"
    code = cli.main(["oracle", _cfg_path("f1_arc"), "--h", "0.08", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(complex(payload["E_re"], payload["E_im"]) - complex(0.7726653, -4.5103e-3)) < 1e-6
    assert payload["residual"] < 1e-10


def test_oracle_reaches_small_h(tmp_path):
    # checkpoints 40 h apart keep W clear of roundoff below h = 0.0075,
    # where a fixed 0.3 spacing left |W| noise of order 1e-2 at h = 0.003
    out = tmp_path / "oracle.json"
    code = cli.main(["oracle", _cfg_path("f1"), "--h", "0.003", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["residual"] <= 1e-10
    assert abs(payload["im_green"] / payload["E_im"] - 1.0) <= 1e-7


def test_oracle_exit_3_when_no_start_reaches_a_root(tmp_path):
    # on f2 at h = 0.05 both the predicted start and the scan's best point
    # stall at |W| = 0.109, so the oracle reports non-convergence
    out = tmp_path / "oracle.json"
    code = cli.main(["oracle", _cfg_path("f2"), "--h", "0.05", "--out", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["diagnostics"].startswith("NotConverged: Muller stalled")


def test_semiclassical_commands_do_not_load_the_oracle():
    code = ("import sys\n"
            "from crosswidth import cli\n"
            "codes = [cli.main(['bs', 'configs/f0.cfg', '--h', '0.05']),\n"
            "         cli.main(['stphase', 'configs/f0.cfg', '--m', '1', '--h-list', '1e-2',\n"
            "                   '--phi', 'x^2', '--sigma', '1'])]\n"
            "print(codes, 'crosswidth.oracle' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[0, 0] False"


def test_compare_csv(tmp_path):
    out = tmp_path / "compare.csv"
    code = cli.main([
        "compare", _cfg_path("f1"), "--h-list", "0.06,0.05,0.04,0.03", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("h,seed,pseudo_re")
    assert len([ln for ln in lines if not ln.startswith("#")]) == 5
    summary = _compare_summary(out)
    assert "fit_oracle" in summary
    assert "anchor_fallback" not in summary


def _compare_summary(path):
    line = next(ln for ln in path.read_text().splitlines() if ln.startswith("# summary:"))
    return json.loads(line[len("# summary:"):])


def test_compare_uncoupled_exits_0_without_fits(tmp_path):
    # every predicted width is 0 and the oracle widths are roundoff: there
    # is no exponent to fit, but nothing failed either
    out = tmp_path / "compare.csv"
    code = cli.main([
        "compare", _cfg_path("f0_decoupled"), "--h-list", "0.08,0.06,0.05,0.04", "--out", str(out),
    ])
    assert code == 0
    header, *rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 4
    assert all(float(row[header.index("im_pred")]) == 0 for row in rows)
    assert all(abs(float(row[header.index("im_oracle")])) < 1e-12 for row in rows)
    summary = _compare_summary(out)
    assert "fit_oracle" not in summary and "fit_pred" not in summary


def test_compare_records_anchor_fallback(tmp_path):
    # no anchor keeps single_transversal's tracked seeds clear of the width
    # dips over this sweep: the summary says so, beside the warning
    out = tmp_path / "compare.csv"
    with pytest.warns(UserWarning, match="no anchor clears the width dips"):
        code = cli.main([
            "compare", _cfg_path("single_transversal"), "--h-list", "0.06,0.05,0.04,0.03", "--out", str(out),
        ])
    assert code == 0
    summary = _compare_summary(out)
    assert summary["anchor_fallback"] == "no anchor clears the width dips; tracking from e0"
    assert summary["anchor"] == load_config(_cfg_path("single_transversal")).problem.e0


def test_exit_3_on_budget_blowup(tmp_path):
    out = tmp_path / "stphase.csv"
    code = cli.main([
        "stphase", _cfg_path("f0"), "--m", "1", "--h-list", "1e-9",
        "--phi", "x^2", "--sigma", "1", "--out", str(out),
    ])
    assert code == 3
    assert "diagnostics" in out.read_text()


@pytest.mark.parametrize("argv, problem", [
    (["bs", "f0", "--h", "0"], "--h must be finite and positive"),
    (["bs", "f0", "--h", "-0.05"], "--h must be finite and positive"),
    (["bs", "f0", "--h", "nan"], "--h must be finite and positive"),
    (["pseudo", "f0", "--h", "inf"], "--h must be finite and positive"),
    (["widths", "f0", "--h", "0.5"], "resonance box does not fit"),
    (["compare", "f0", "--h-list", "0.05,0.06"], "--h-list must be strictly decreasing"),
    (["compare", "f0", "--h-list", "0.5,0.06"], "resonance box does not fit"),
    (["stphase", "f0", "--m", "1", "--h-list", "1e-2,0", "--phi", "x^2", "--sigma", "1"],
     "--h-list must be finite and positive"),
    (["stphase", "f0", "--m", "-2", "--h-list", "1e-2", "--phi", "x^2", "--sigma", "1"], "m must be >= 1"),
    (["stphase", "f0", "--m", "-1", "--h-list", "1e-2", "--phi", "x^2", "--sigma", "1"], "m must be >= 1"),
    # Bohr-Sommerfeld levels that come out merged (the level spacing alone
    # passes at this h)
    (["bs", "f0", "--h", "2e-15"], "h = 2e-15 is too small"),
    (["oracle", "f0", "--h", "2e-15"], "h = 2e-15 is too small"),
    (["stphase", "f0", "--m", "0", "--h-list", "1e-2", "--phi", "x^2", "--sigma", "1"],
     "m must be >= 1"),
    (["stphase", "f0", "--m", "1", "--h-list", "1e-2", "--phi", "x^2", "--sigma", "1",
      "--interval", "1,-1"], "need a non-empty interval"),
    (["stphase", "f0", "--m", "1", "--h-list", "1e-2", "--phi", "x^2", "--sigma", "1",
      "--interval", "1"], "--interval needs two comma-separated numbers"),
    (["stphase", "f0", "--m", "1", "--h-list", "1e-2", "--phi", "x^3", "--sigma", "1"],
     "phi^(m+1)(x0) must not vanish"),
    (["bs", "f0", "--h", "1e-300"], "h = 1e-300 is too small"),
    (["bs", "f0", "--h", "1e-16"], "h = 1e-16 is too small"),
    (["compare", "f1", "--h-list", "0.05"], "at least two values of h (h_list or --h-list)"),
    (["compare", "f1", "--h-list", "0.08,0.06,0.05,1e-300"], "h = 1e-300 is too small"),
    (["stphase", "f0", "--m", "199", "--h-list", "1e-2", "--phi", "x^200", "--sigma", "1"],
     "m = 199 is too large"),
])
def test_bad_h_exits_2_naming_the_problem(tmp_path, argv, problem):
    out = tmp_path / "out.json"
    code = cli.main([argv[0], _cfg_path(argv[1]), *argv[2:], "--out", str(out)])
    assert code == 2
    assert problem in json.loads(out.read_text())["diagnostics"]


def test_oracle_step_budget_exits_2(tmp_path):
    # f1 at h = 1e-9 would need 7e10 Magnus steps (13 GiB of step ends
    # alone); the plan is counted, and refused, before any array exists
    out = tmp_path / "out.json"
    start = time.perf_counter()
    code = cli.main(["oracle", _cfg_path("f1"), "--h", "1e-9", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    diagnostics = json.loads(out.read_text())["diagnostics"]
    assert diagnostics.startswith("h = 1e-09 needs ")
    assert "Magnus steps on the oracle contour, more than the 262144" in diagnostics


def test_h_list_must_be_finite(tmp_path):
    text = MINIMAL + "\n[sweep]\nh_list = 0.05, nan\n"
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, text))
    assert "finite and positive" in str(err.value)


@pytest.mark.parametrize("setting, problem", [
    ("calib = nan", "calib must be finite and positive"),
    ("calib = 0", "calib must be finite and positive"),
])
def test_bad_numerics_config_exits_2(tmp_path, setting, problem):
    # the setting takes the place of f0's "calib = 1.0", which is the default
    text = open(_cfg_path("f0"), encoding="utf-8").read().replace("calib = 1.0", setting)
    out = tmp_path / "out.json"
    code = cli.main(["bs", _write(tmp_path, text), "--h", "0.05", "--out", str(out)])
    diagnostics = json.loads(out.read_text())["diagnostics"]
    assert code == 2
    assert problem in diagnostics and not diagnostics.startswith("unexpected")


@pytest.mark.parametrize("section, setting", [
    ("numerics", "root_tol = 1e-12"),
    ("numerics", "root_tol = nan"),
    ("numerics", "root_tol = -1e-12"),
    ("numerics", "contact_tol = 1e-9"),
    ("numerics", "newton_tol = 1e-12"),
    ("numerics", "quad_tol = 1e-11"),
    ("numerics", "ode_tol = 1e-12"),
    ("numerics", "scan_points = 4096"),
    ("numerics", "scan_points = 0"),
    ("numerics", "scan_points = 100.5"),
    ("numerics", "k_max = 12"),
    ("numerics", "k_max = -1"),
    ("numerics", "k_max = 2.7"),
    ("oracle", "R0 = 3.0"),
    ("oracle", "X = 10.0"),
    ("oracle", "theta = 0.3"),
    ("oracle", "theta = 0"),
    ("oracle", "theta = nan"),
    ("oracle", "ode_tol = 1e-10"),
])
def test_fixed_tolerance_keys_are_unknown(tmp_path, section, setting):
    # the tolerances are module constants, the contour angle is oracle.THETA
    # and the contour extent comes from the problem; the former default
    # value and values the old validation refused are all refused as unknown
    # keys (or, with [oracle] gone, as an unknown section), before any value
    # check
    text = open(_cfg_path("f0"), encoding="utf-8").read() + f"\n[{section}]\n{setting}\n"
    out = tmp_path / "out.json"
    code = cli.main(["oracle", _write(tmp_path, text), "--h", "0.05", "--out", str(out)])
    assert code == 2
    key = setting.partition(" =")[0]
    problem = "unknown section [oracle]" if section == "oracle" else f"unknown key '{key}' in section [{section}]"
    assert problem in json.loads(out.read_text())["diagnostics"]


@pytest.mark.parametrize("X", ["12", "1", "inf"])
def test_oracle_has_no_X_flag(capsys, X):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", _cfg_path("f0"), "--h", "0.05", "--X", X])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --X {X}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, h", [(["compare"], "0.08"), (["oracle", "--h", "0.05"], "0.05")],
                         ids=["compare", "oracle"])
def test_box_without_a_level_exits_2(tmp_path, argv, h):
    # at L = 0.1 the box e0 +/- L*h holds no Bohr-Sommerfeld level of f1;
    # widths and pseudo print empty records there
    text = open(_cfg_path("f1"), encoding="utf-8").read().replace("L = 1.5", "L = 0.1")
    out = tmp_path / "out.json"
    code = cli.main([argv[0], _write(tmp_path, text), *argv[1:], "--out", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["diagnostics"] == (
        f"no Bohr-Sommerfeld level in the box e0 +/- L*h at h = {h} with L = 0.1; raise L")


@pytest.mark.parametrize("window", ["-inf, 8", "-8, nan"])
def test_non_finite_window_exits_2(tmp_path, window):
    text = open(_cfg_path("f0"), encoding="utf-8").read().replace("window = -8.0, 8.0", f"window = {window}")
    out = tmp_path / "out.json"
    code = cli.main(["analyze", _write(tmp_path, text), "--out", str(out)])
    assert code == 2
    assert "window bounds must be finite" in json.loads(out.read_text())["diagnostics"]


_STPHASE = ["stphase", "--m", "1", "--h-list", "1e-2"]


@pytest.mark.parametrize("r0, argv, problem", [
    ("0.3", [*_STPHASE, "--phi", "x^2", "--sigma", "log(x)", "--x0=-1", "--interval=-2,0"],
     "log of a non-positive real in log(x) at x = -1.0"),
    ("0.3", [*_STPHASE, "--phi", "sqrt(x+1)", "--sigma", "1", "--x0=-1"],
     "sqrt jet at a root of the argument in sqrt(x + 1.0) at x = -1.0"),
    ("log(x)", ["analyze"], "log of a non-positive real in log(x) at x = -0.9414546926294146"),
], ids=["0.3-argv0-log of a non-positive real", "0.3-argv1-sqrt jet at a root of the argument",
        "log(x)-argv2-log of a non-positive real"])  # named by the failing operation
def test_expression_undefined_at_a_point_exits_2(tmp_path, r0, argv, problem):
    text = open(_cfg_path("f0"), encoding="utf-8").read().replace("r0 = 0.3", f"r0 = {r0}")
    out = tmp_path / "out.json"
    code = cli.main([argv[0], _write(tmp_path, text), *argv[1:], "--out", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["diagnostics"] == problem


@pytest.mark.parametrize("flags, problem", [
    (["--phi", "x^", "--sigma", "1"], "bad expression for --phi: at offset 2: expected an integer exponent"),
    (["--phi", "x^2", "--sigma", "y"],
     "bad expression for --sigma: at offset 0: expected a known identifier (got 'y')"),
], ids=["phi", "sigma"])
def test_stphase_malformed_expression_exits_2_naming_the_flag(tmp_path, flags, problem):
    out = tmp_path / "out.json"
    code = cli.main([_STPHASE[0], _cfg_path("f0"), *_STPHASE[1:], *flags, "--out", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["diagnostics"] == problem


@pytest.mark.parametrize("x0", ["nan", "inf", "-inf"])
def test_stphase_non_finite_x0_exits_2(tmp_path, x0):
    out = tmp_path / "out.json"
    code = cli.main([_STPHASE[0], _cfg_path("f0"), *_STPHASE[1:], "--phi", "x^2", "--sigma", "1",
                     f"--x0={x0}", "--out", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["diagnostics"] == f"--x0 must be finite, got {float(x0)!r}"


@pytest.mark.parametrize("interval", ["-inf,1", "-1,inf", "-1,nan"])
def test_stphase_non_finite_interval_exits_2(tmp_path, interval):
    out = tmp_path / "out.json"
    code = cli.main([_STPHASE[0], _cfg_path("f0"), *_STPHASE[1:], "--phi", "x^2", "--sigma", "1",
                     f"--interval={interval}", "--out", str(out)])
    assert code == 2
    bounds = tuple(float(v) for v in interval.split(","))
    assert json.loads(out.read_text())["diagnostics"] == f"--interval must have finite endpoints, got {bounds!r}"


def test_stphase_has_no_calib_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([_STPHASE[0], _cfg_path("f0"), *_STPHASE[1:], "--phi", "x^2", "--sigma", "1",
                  "--calib", "2.0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --calib" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "f0", "--h", "0.05", "--theta", "0.35"], "--theta 0.35"),
    (["oracle", "f0", "--h", "0.05", "--theta", "0"], "--theta 0"),
    (["oracle", "f0", "--h", "0.05", "--theta", "2"], "--theta 2"),
    (["compare", "f1", "--no-green"], "--no-green"),
    (["analyze", "f0", "--h", "0.05"], "--h 0.05"),
], ids=["oracle --theta 0.35", "oracle --theta 0", "oracle --theta 2", "compare --no-green", "analyze --h 0.05"])
def test_removed_options_exit_2(capsys, argv, flag):
    # the contour angle is oracle.THETA, every oracle result carries its
    # Green-identity width, and analyze builds at the config's largest h
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], _cfg_path(argv[1]), *argv[2:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["analyze"], ["widths", "--h", "0.05"]], ids=["analyze", "widths"])
@pytest.mark.parametrize("setting, flag, detail", [
    ("v1 = 1/x", "simple_well", "V1 is not finite at x = 0"),
    ("v2 = 1/x", "v2_simple_roots", "V2 is not finite at x = 0"),
    ("v2 = 0.1 - 0.6*tanh(x) + 1/(x-8)", "v2_simple_roots", "V2 is not finite at x = 8"),
])
def test_pole_on_the_scan_grid_exits_2(tmp_path, command, setting, flag, detail):
    # x = 0 is a point of the window's scan grid and x = 8 its edge; the
    # scan names the potential and the pole instead of refining a root there
    key = setting.partition(" =")[0]
    with open(_cfg_path("f1"), encoding="utf-8") as fh:
        text = "".join(setting + "\n" if ln.startswith(key + " =") else ln for ln in fh)
    out = tmp_path / "out.json"
    code = cli.main([command[0], _write(tmp_path, text), *command[1:], "--out", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    if command[0] == "analyze":
        assert payload["diagnostics"] == "structure validation failed"
        assert payload["report"]["flags"][flag] == {"ok": False, "detail": detail}
    else:
        assert payload["diagnostics"].startswith("structure checks failed: ")
        assert flag in payload["diagnostics"]


@pytest.mark.parametrize("command", [["analyze"], ["widths", "--h", "0.05"]], ids=["analyze", "widths"])
@pytest.mark.parametrize("setting, flag, detail", [
    ("v2 = 0.1", None, None),
    ("v2 = 0.9", "crossings", "V1 = V2 has no root below e0 inside the well"),
    ("v2 = 0.75", "e0_off_limits", "e0 coincides with a potential limit"),
    ("v1 = 0.5", "simple_well", "V1 = e0 has 0 roots in the window; a simple well needs exactly 2"),
])
def test_constant_potential_runs_or_exits_2(tmp_path, command, setting, flag, detail):
    # a potential without x is evaluated on the scan grid like any other:
    # a flat open channel 2 crossing the well twice is a valid problem, the
    # others fail a named structure check
    key = setting.partition(" =")[0]
    with open(_cfg_path("f1"), encoding="utf-8") as fh:
        text = "".join(setting + "\n" if ln.startswith(key + " =") else ln for ln in fh)
    out = tmp_path / "out.json"
    code = cli.main([command[0], _write(tmp_path, text), *command[1:], "--out", str(out)])
    payload = json.loads(out.read_text())
    if flag is None:
        assert code == 0
        assert payload["report"]["passed"] if command[0] == "analyze" else len(payload["records"]) == 3
        return
    assert code == 2
    if command[0] == "analyze":
        assert payload["diagnostics"] == "structure validation failed"
        assert payload["report"]["flags"][flag] == {"ok": False, "detail": detail}
    else:
        assert payload["diagnostics"].startswith("structure checks failed: ")
        assert flag in payload["diagnostics"]


@pytest.mark.parametrize("config", ["f1", "missing"], ids=["runs", "fails to load"])
def test_unopenable_out_exits_2(tmp_path, capsys, config):
    # whether the command would succeed or its config fails to load, the
    # diagnostic goes to stdout and names the path
    path = tmp_path / "no such dir" / "x.csv"
    code = cli.main(["bs", os.path.join(CONFIGS, f"{config}.cfg"), "--h", "0.05", "--out", str(path)])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["diagnostics"] == (
        f"cannot open --out {path}: No such file or directory")


def test_pseudo_omits_and_widths_nulls_a_seed_without_root(tmp_path, monkeypatch):
    # drop the middle seed's root, as _roots_from_seeds does for a root
    # that duplicates another or leaves the box
    roots = SemiclassicsEngine._roots_from_seeds
    monkeypatch.setattr(SemiclassicsEngine, "_roots_from_seeds", lambda self, seeds, h: [
        pr for pr in roots(self, seeds, h) if pr.seed != seeds[1]])
    got = {}
    for command in ("pseudo", "widths"):
        out = tmp_path / f"{command}.json"
        assert cli.main([command, _cfg_path("f1"), "--h", "0.05", "--out", str(out)]) == 0
        got[command] = json.loads(out.read_text())["records"]
    want = {command: json.loads(open(os.path.join(ROOT, "tests", "golden", f"{command}_f1.out"),
                                     encoding="utf-8").read())["records"]
            for command in ("pseudo", "widths")}
    assert len(want["widths"]) == 3
    assert got["pseudo"] == want["pseudo"][:1] + want["pseudo"][2:]
    nulled = {**want["widths"][1], "pseudo_re": None, "pseudo_im": None}
    assert got["widths"] == [want["widths"][0], nulled, want["widths"][2]]


@settings(derandomize=True, deadline=None, max_examples=20)
@given(h=st.floats(0.005, 0.2), L=st.floats(0.1, 4.0))
@example(h=0.125, L=0.5)
@example(h=0.125, L=0.25)
def test_pseudo_exit_code_contract_over_h_and_L(h, L):
    # a config's (h, L) either runs (0), is rejected naming the problem (2),
    # or fails numerically (3); none reaches the catch-all
    with open(_cfg_path("f1_arc"), encoding="utf-8") as fh:
        text = fh.read()
    assert "L = 1.5" in text
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        out = os.path.join(tmp, "out.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text.replace("L = 1.5", f"L = {L!r}"))
        code = cli.main(["pseudo", cfg, "--h", repr(h), "--out", out])
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
    assert code in (0, 2, 3)
    if isinstance(result, dict) and "diagnostics" in result:
        assert not str(result["diagnostics"]).startswith("unexpected")
        assert code in (2, 3)


@pytest.mark.parametrize("command", ["pseudo", "widths"])
@pytest.mark.parametrize("config, L, h", [
    ("f1_arc", "0.5", "0.125"), ("f1_arc", "0.1", "0.2"),
    ("f2", "0.5", "0.125"), ("f2", "0.5", "0.1"), ("f2", "0.5", "0.01"),
    ("f2", "0.3", "0.15"), ("f2", "0.1", "0.2"),
])
def test_newton_stays_in_the_cached_energy_domain(tmp_path, config, L, h, command):
    # damped Newton from a seed near the domain's edge steps past it: the
    # step is rejected, and a run that cannot go on ends in NewtonDiverged
    with open(_cfg_path(config), encoding="utf-8") as fh:
        text = fh.read()
    assert "L = 1.5" in text
    cfg = _write(tmp_path, text.replace("L = 1.5", f"L = {L}"))
    out = tmp_path / "out.json"
    code = cli.main([command, cfg, "--h", h, "--out", str(out)])
    result = json.loads(out.read_text())
    if code == 3:
        assert result["diagnostics"].startswith("NewtonDiverged: ")
    else:
        assert code == 0 and "records" in result
