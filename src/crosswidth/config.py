"""Run configuration: a sectioned key = value text format.

Sections [problem], [numerics], [sweep] and [oracle]; the expression
values use the grammar of :mod:`crosswidth.exprs`.  Unknown sections or
keys are errors, as are missing required problem keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import exprs
from .model import Problem, ToleranceSet

__all__ = ["ConfigError", "RunConfig", "check_h_list", "load_config"]


class ConfigError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


_PROBLEM_KEYS = {"v1", "v2", "r0", "r1", "e0", "window", "L"}
_NUMERICS_KEYS = {
    "root_tol",
    "contact_tol",
    "newton_tol",
    "quad_tol",
    "ode_tol",
    "scan_points",
    "calib",
    "k_max",
}
_SWEEP_KEYS = {"h_list"}
_ORACLE_KEYS = {"theta", "X", "R0", "ode_tol"}
_SECTIONS = {
    "problem": _PROBLEM_KEYS,
    "numerics": _NUMERICS_KEYS,
    "sweep": _SWEEP_KEYS,
    "oracle": _ORACLE_KEYS,
}


@dataclass
class RunConfig:
    problem: Problem
    h_list: Optional[List[float]] = None
    calib: float = 1.0
    theta: float = 0.3
    contour_R0: Optional[float] = None
    contour_X: Optional[float] = None
    oracle_ode_tol: Optional[float] = None
    source_path: str = ""


def _parse_float(raw: str, line: int, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' needs a number, got {raw!r}", line) from exc


def check_h_list(hs: Sequence[float], what: str, line: Optional[int] = None) -> None:
    """Every h must be finite and positive, and a list strictly decreasing.
    Whether the resonance box e0 +/- L*h fits is checked when the engine is
    built for the largest h (it needs the structure report)."""
    for h in hs:
        if not (math.isfinite(h) and h > 0):
            raise ConfigError(f"{what} must be finite and positive, got {h!r}", line)
    if any(a <= b for a, b in zip(hs, hs[1:])):
        raise ConfigError(f"{what} must be strictly decreasing", line)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    section = None
    values = {name: {} for name in _SECTIONS}
    lineno_of = {}
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", lineno)
        if section is None:
            raise ConfigError("key outside of any section", lineno)
        key, _, val = stripped.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key '{key}' in section [{section}]", lineno)
        if key in values[section]:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        values[section][key] = val
        lineno_of[(section, key)] = lineno

    prob = values["problem"]
    for key in sorted(_PROBLEM_KEYS):
        if key not in prob:
            raise ConfigError(f"missing required problem key '{key}'")

    def expr_of(key: str):
        try:
            return exprs.parse(prob[key])
        except exprs.ExprSyntaxError as exc:
            raise ConfigError(f"bad expression for '{key}': {exc}", lineno_of[("problem", key)]) from exc

    win_raw = prob["window"].split(",")
    if len(win_raw) != 2:
        raise ConfigError("window needs two comma-separated numbers", lineno_of[("problem", "window")])
    window = (
        _parse_float(win_raw[0], lineno_of[("problem", "window")], "window"),
        _parse_float(win_raw[1], lineno_of[("problem", "window")], "window"),
    )

    num = values["numerics"]
    tol_kwargs = {}
    for key in ("root_tol", "contact_tol", "newton_tol", "quad_tol", "ode_tol"):
        if key in num:
            tol_kwargs[key] = _parse_float(num[key], lineno_of[("numerics", key)], key)
    if "scan_points" in num:
        tol_kwargs["scan_points"] = int(_parse_float(num["scan_points"], lineno_of[("numerics", "scan_points")], "scan_points"))
    try:
        tols = ToleranceSet(**tol_kwargs)
        problem = Problem(
            v1=expr_of("v1"),
            v2=expr_of("v2"),
            r0=expr_of("r0"),
            r1=expr_of("r1"),
            e0=_parse_float(prob["e0"], lineno_of[("problem", "e0")], "e0"),
            window=window,
            L=_parse_float(prob["L"], lineno_of[("problem", "L")], "L"),
            tolerances=tols,
            k_max=int(_parse_float(num.get("k_max", "12"), lineno_of.get(("numerics", "k_max"), 0), "k_max")),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    h_list = None
    if "h_list" in values["sweep"]:
        lineno = lineno_of[("sweep", "h_list")]
        h_list = [_parse_float(part, lineno, "h_list") for part in values["sweep"]["h_list"].split(",")]
        check_h_list(h_list, "h_list", lineno)

    orc = values["oracle"]
    return RunConfig(
        problem=problem,
        h_list=h_list,
        calib=_parse_float(num.get("calib", "1.0"), lineno_of.get(("numerics", "calib"), 0), "calib"),
        theta=_parse_float(orc.get("theta", "0.3"), lineno_of.get(("oracle", "theta"), 0), "theta"),
        contour_R0=_parse_float(orc["R0"], lineno_of[("oracle", "R0")], "R0") if "R0" in orc else None,
        contour_X=_parse_float(orc["X"], lineno_of[("oracle", "X")], "X") if "X" in orc else None,
        oracle_ode_tol=_parse_float(orc["ode_tol"], lineno_of[("oracle", "ode_tol")], "ode_tol") if "ode_tol" in orc else None,
        source_path=path,
    )
