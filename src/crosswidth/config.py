"""Run configuration: a sectioned key = value text format.

Sections [problem], [numerics] and [sweep]; the expression values use
the grammar of :mod:`crosswidth.exprs`.  Unknown sections or
keys are errors, as are missing required problem keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import exprs
from .errors import InputError
from .model import Problem

__all__ = ["ConfigError", "RunConfig", "check_h_list", "load_config", "parse_expr"]


class ConfigError(InputError, ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


_PROBLEM_KEYS = {"v1", "v2", "r0", "r1", "e0", "window", "L"}
_NUMERICS_KEYS = {"calib"}
_SWEEP_KEYS = {"h_list"}
_SECTIONS = {
    "problem": _PROBLEM_KEYS,
    "numerics": _NUMERICS_KEYS,
    "sweep": _SWEEP_KEYS,
}


@dataclass
class RunConfig:
    problem: Problem
    h_list: Optional[List[float]] = None
    calib: float = 1.0


def _parse_float(raw: str, line: int, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' needs a number, got {raw!r}", line) from exc


def parse_expr(text: str, what: str, line: Optional[int] = None) -> exprs.ExprAst:
    """text parsed, or a ConfigError naming what was malformed."""
    try:
        return exprs.parse(text)
    except exprs.ExprSyntaxError as exc:
        raise ConfigError(f"bad expression for {what}: {exc}", line) from exc


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"the config is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
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
        return parse_expr(prob[key], f"'{key}'", lineno_of[("problem", key)])

    win_raw = prob["window"].split(",")
    if len(win_raw) != 2:
        raise ConfigError("window needs two comma-separated numbers", lineno_of[("problem", "window")])
    window = (
        _parse_float(win_raw[0], lineno_of[("problem", "window")], "window"),
        _parse_float(win_raw[1], lineno_of[("problem", "window")], "window"),
    )

    problem = Problem(
        v1=expr_of("v1"),
        v2=expr_of("v2"),
        r0=expr_of("r0"),
        r1=expr_of("r1"),
        e0=_parse_float(prob["e0"], lineno_of[("problem", "e0")], "e0"),
        window=window,
        L=_parse_float(prob["L"], lineno_of[("problem", "L")], "L"),
    )

    h_list = None
    if "h_list" in values["sweep"]:
        lineno = lineno_of[("sweep", "h_list")]
        h_list = [_parse_float(part, lineno, "h_list") for part in values["sweep"]["h_list"].split(",")]
        check_h_list(h_list, "h_list", lineno)

    calib_line = lineno_of.get(("numerics", "calib"))
    calib = _parse_float(values["numerics"].get("calib", "1.0"), calib_line, "calib")
    if not (math.isfinite(calib) and calib > 0):
        raise ConfigError(f"calib must be finite and positive, got {calib!r}", calib_line)
    return RunConfig(problem=problem, h_list=h_list, calib=calib)
