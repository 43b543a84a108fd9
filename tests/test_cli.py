import json
import os

import pytest

from crosswidth import cli
from crosswidth.config import ConfigError, load_config

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
    assert cfg.theta == 0.3


def test_load_config_full():
    cfg = load_config(_cfg_path("f0"))
    assert cfg.h_list == [0.08, 0.06, 0.05, 0.04, 0.03]


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


def test_exit_2_on_broken_config(tmp_path):
    out = tmp_path / "out.json"
    code = cli.main(["analyze", _write(tmp_path, "not a config"), "--out", str(out)])
    assert code == 2


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


def test_stphase_csv(tmp_path):
    out = tmp_path / "stphase.csv"
    code = cli.main([
        "stphase", _cfg_path("f0"), "--m", "1", "--h-list", "0.01,0.001",
        "--phi", "x^2", "--sigma", "1", "--calib", "2.0", "--out", str(out),
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


def test_compare_csv(tmp_path):
    out = tmp_path / "compare.csv"
    code = cli.main([
        "compare", _cfg_path("f1"), "--h-list", "0.06,0.05,0.04,0.03",
        "--no-green", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("h,seed,pseudo_re")
    assert len([ln for ln in lines if not ln.startswith("#")]) == 5
    summary = next(ln for ln in lines if ln.startswith("# summary:"))
    assert "fit_oracle" in summary


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
    (["analyze", "f0", "--h", "inf"], "--h must be finite and positive"),
    (["widths", "f0", "--h", "0.5"], "resonance box does not fit"),
    (["compare", "f0", "--h-list", "0.05,0.06"], "--h-list must be strictly decreasing"),
    (["compare", "f0", "--h-list", "0.5,0.06"], "resonance box does not fit"),
    (["stphase", "f0", "--m", "1", "--h-list", "1e-2,0", "--phi", "x^2", "--sigma", "1"],
     "--h-list must be finite and positive"),
    (["oracle", "f0", "--h", "0.05", "--theta", "0"], "theta must lie in (0, pi/2)"),
    (["oracle", "f0", "--h", "0.05", "--theta", "2"], "theta must lie in (0, pi/2)"),
    (["oracle", "f0", "--h", "0.05", "--X", "1"], "contour needs finite X > R0 > 0"),
    (["oracle", "f0", "--h", "0.05", "--X", "inf"], "contour needs finite X > R0 > 0"),
    (["stphase", "f0", "--m", "0", "--h-list", "1e-2", "--phi", "x^2", "--sigma", "1"],
     "m must be >= 1"),
    (["stphase", "f0", "--m", "1", "--h-list", "1e-2", "--phi", "x^2", "--sigma", "1",
      "--interval", "1,-1"], "need a non-empty interval"),
    (["stphase", "f0", "--m", "1", "--h-list", "1e-2", "--phi", "x^2", "--sigma", "1",
      "--interval", "1"], "--interval needs two comma-separated numbers"),
    (["stphase", "f0", "--m", "1", "--h-list", "1e-2", "--phi", "x^3", "--sigma", "1"],
     "phi^(m+1)(x0) must not vanish"),
])
def test_bad_h_exits_2_naming_the_problem(tmp_path, argv, problem):
    out = tmp_path / "out.json"
    code = cli.main([argv[0], _cfg_path(argv[1]), *argv[2:], "--out", str(out)])
    assert code == 2
    assert problem in json.loads(out.read_text())["diagnostics"]


def test_h_list_must_be_finite(tmp_path):
    text = MINIMAL + "\n[sweep]\nh_list = 0.05, nan\n"
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, text))
    assert "finite and positive" in str(err.value)


def _f0_with_oracle(tmp_path, section):
    text = open(_cfg_path("f0"), encoding="utf-8").read().replace("theta = 0.3", section)
    return _write(tmp_path, text)


@pytest.mark.parametrize("section, problem", [
    ("theta = 0", "theta must lie in (0, pi/2)"),
    ("theta = nan", "theta must lie in (0, pi/2)"),
    ("X = 2", "contour needs finite X > R0 > 0"),
    ("R0 = -1", "contour needs finite X > R0 > 0"),
])
def test_bad_oracle_config_exits_2(tmp_path, section, problem):
    out = tmp_path / "out.json"
    code = cli.main(["oracle", _f0_with_oracle(tmp_path, section), "--h", "0.05", "--out", str(out)])
    assert code == 2
    assert problem in json.loads(out.read_text())["diagnostics"]


def test_oracle_theta_flag_equals_config_key(tmp_path):
    flag, key = tmp_path / "flag.json", tmp_path / "key.json"
    assert cli.main(["oracle", _cfg_path("f0"), "--h", "0.05", "--theta", "0.35", "--out", str(flag)]) == 0
    cfg = _f0_with_oracle(tmp_path, "theta = 0.35")
    assert cli.main(["oracle", cfg, "--h", "0.05", "--out", str(key)]) == 0
    assert flag.read_bytes() == key.read_bytes()
