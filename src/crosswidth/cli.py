"""Command-line interface.

crosswidth <analyze|bs|pseudo|widths|oracle|compare|stphase> <config> [flags]

Outputs are deterministic for a fixed config: JSON for structured results,
CSV for sweep tables, all floats printed with 17 significant digits.
Exit codes: 0 success, 2 invalid input (structure validation, config,
h or contour parameters), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Optional

import numpy as np

from . import exprs, oracle as oracle_mod, quadrature
from .config import ConfigError, RunConfig, check_h_list, load_config
from .geometry import graph_to_dict
from .model import StructureError, validate_structure
from .pipeline import ValidationFailed, build_engine, compare_sweep, oracle_row
from .semiclassics import BoxTooLarge, CountMismatch, NewtonDiverged, SingularSystem, TopologyMismatch

_CONVERGENCE_ERRORS = (
    NewtonDiverged,
    CountMismatch,
    SingularSystem,
    TopologyMismatch,
    quadrature.QuadratureError,
    quadrature.NoTurningPoints,
    oracle_mod.NotConverged,
    oracle_mod.StepUnderflow,
    oracle_mod.PolesOnContour,
    oracle_mod.ThetaDependent,
    oracle_mod.InsufficientData,
)


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "null"
        return format(x, ".17g")
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    return str(x)


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    return _fmt(obj)


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _csv(rows, columns) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines)


def _report_dict(report) -> dict:
    return {
        "passed": report.passed,
        "m0": report.m0,
        "a0": report.a0.x,
        "b0": report.b0.x,
        "crossings": [
            {"x": c.x, "xi": c.xi, "m": c.m, "dv": c.dv} for c in report.crossings
        ],
        "flags": {name: {"ok": ok, "detail": msg} for name, (ok, msg) in report.assumption_flags.items()},
    }


def cmd_analyze(cfg: RunConfig, args) -> int:
    report = validate_structure(cfg.problem)
    payload = {"report": _report_dict(report)}
    if not report.passed:
        payload["diagnostics"] = "structure validation failed"
        _emit(_to_json(payload), args.out)
        return 2
    h_max = args.h or (max(cfg.h_list) if cfg.h_list else 0.08)
    _, graph, _ = build_engine(cfg.problem, calib=cfg.calib, h_max=h_max)
    payload["graph"] = graph_to_dict(graph)
    _emit(_to_json(payload), args.out)
    return 0


def cmd_bs(cfg: RunConfig, args) -> int:
    _, _, engine = build_engine(cfg.problem, calib=cfg.calib, h_max=args.h)
    rows = [{"index": i, "E": E} for i, E in enumerate(engine.bohr_sommerfeld(args.h))]
    _emit(_csv(rows, ["index", "E"]), args.out)
    return 0


def cmd_pseudo(cfg: RunConfig, args) -> int:
    _, _, engine = build_engine(cfg.problem, calib=cfg.calib, h_max=args.h)
    expo = (engine.m0 + 3.0) / (engine.m0 + 1.0)
    records = []
    for pr in engine.pseudo_resonances(args.h):
        D = engine.width_coefficient(pr.seed, args.h, "one_switch").D
        records.append(
            {
                "seed": pr.seed,
                "pseudo_re": pr.E.real,
                "pseudo_im": pr.E.imag,
                "D": D,
                "im_pred": -D * args.h**expo,
                "residual": pr.residual,
                "newton_iters": pr.newton_iters,
            }
        )
    _emit(_to_json({"h": args.h, "records": records}), args.out)
    return 0


def cmd_widths(cfg: RunConfig, args) -> int:
    _, _, engine = build_engine(cfg.problem, calib=cfg.calib, h_max=args.h)
    records = [
        {
            "seed": row["seed"],
            "pseudo_re": row["pseudo_re"],
            "pseudo_im": row["pseudo_im"],
            "D": row["D"],
            "im_pred": row["im_pred"],
        }
        for row in engine.resonance_table(args.h)
    ]
    _emit(_to_json({"h": args.h, "records": records}), args.out)
    return 0


def cmd_oracle(cfg: RunConfig, args) -> int:
    report, _, engine = build_engine(cfg.problem, calib=cfg.calib, h_max=args.h)
    seeds = engine.bohr_sommerfeld(args.h)
    if not seeds:
        raise oracle_mod.NotConverged("empty Bohr-Sommerfeld grid")
    idx = args.seed_index if args.seed_index is not None else len(seeds) // 2
    if not 0 <= idx < len(seeds):
        raise ConfigError(f"seed index {idx} out of range 0..{len(seeds) - 1}")
    overrides = {"theta": args.theta, "contour_X": args.X}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    row = oracle_row(cfg, report, engine, seeds[idx], args.h)
    res = row["res"]
    payload = {"E_re": res.E.real, "E_im": res.E.imag, "residual": res.residual, "im_green": row["im_green"]}
    _emit(_to_json(payload), args.out)
    return 0


def cmd_compare(cfg: RunConfig, args) -> int:
    hs = args.h_list or cfg.h_list
    if not hs:
        raise ConfigError("compare needs h_list (config [sweep] or --h-list)")
    result = compare_sweep(cfg, hs, include_green=not args.no_green)
    cols = [
        "h", "seed", "pseudo_re", "pseudo_im", "D", "im_pred",
        "re_oracle", "im_oracle", "im_green", "ratio",
    ]
    for row in result["rows"]:
        if row["im_green"] is None:
            row["im_green"] = math.nan
    text = _csv(result["rows"], cols)
    summary = {k: v for k, v in result.items() if k != "rows"}
    text += "\n# summary: " + _to_json(summary).replace("\n", " ")
    _emit(text, args.out)
    return 0


def cmd_stphase(cfg: RunConfig, args) -> int:
    phi_ast = exprs.parse(args.phi)
    sigma_ast = exprs.parse(args.sigma)
    phi = exprs.compile_fn(phi_ast)
    sigma = exprs.compile_fn(sigma_ast)
    if len(args.interval) != 2:
        raise ConfigError(f"--interval needs two comma-separated numbers lo,hi, got {args.interval!r}")
    lo, hi = args.interval
    x0 = args.x0
    m = args.m
    jet = exprs.taylor_jet(phi_ast, x0, m + 1)
    sigma0 = exprs.evaluate(sigma_ast, x0)
    rows = []
    for h in args.h_list:
        numeric = quadrature.oscillatory_integral(
            sigma, phi, (lo, hi), h, quad_tol=cfg.problem.tolerances.quad_tol
        )
        asym = quadrature.stationary_phase(sigma0, jet, m, h, calib=args.calib)
        rows.append(
            {
                "h": h,
                "numeric_re": numeric.real,
                "numeric_im": numeric.imag,
                "asym_re": asym.real,
                "asym_im": asym.imag,
                "ratio": abs(numeric) / abs(asym) if asym != 0 else math.nan,
            }
        )
    _emit(_csv(rows, ["h", "numeric_re", "numeric_im", "asym_re", "asym_im", "ratio"]), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosswidth",
        description="Semiclassical resonance widths for coupled 1-d Schrodinger systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("config", help="path to the run configuration")
        sp.add_argument("--out", help="write output to this file instead of stdout")

    sp = sub.add_parser("analyze", help="structure report and phase-space graph as JSON")
    common(sp)
    sp.add_argument("--h", type=float, default=None)

    for name, helptext in (
        ("bs", "Bohr-Sommerfeld grid as CSV"),
        ("pseudo", "pseudo-resonances as JSON"),
        ("widths", "width table as JSON"),
    ):
        sp = sub.add_parser(name, help=helptext)
        common(sp)
        sp.add_argument("--h", type=float, required=True)

    sp = sub.add_parser("oracle", help="direct resonance by complex-scaled shooting")
    common(sp)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--seed-index", type=int, default=None)
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--X", type=float, default=None)

    sp = sub.add_parser("compare", help="joined semiclassics/oracle sweep with exponent fits")
    common(sp)
    sp.add_argument("--h-list", type=lambda s: [float(v) for v in s.split(",")], default=None)
    sp.add_argument("--no-green", action="store_true", help="skip the Green-identity cross-check")

    sp = sub.add_parser("stphase", help="oscillatory integral vs stationary phase")
    common(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--h-list", type=lambda s: [float(v) for v in s.split(",")], required=True)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--interval", type=lambda s: tuple(float(v) for v in s.split(",")), default=(-1.0, 1.0))
    sp.add_argument("--calib", type=float, default=2.0)
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "bs": cmd_bs,
    "pseudo": cmd_pseudo,
    "widths": cmd_widths,
    "oracle": cmd_oracle,
    "compare": cmd_compare,
    "stphase": cmd_stphase,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if getattr(args, "h", None) is not None:
            check_h_list([args.h], "--h")
        if getattr(args, "h_list", None) is not None:
            check_h_list(args.h_list, "--h-list")
    except (ConfigError, OSError, exprs.ExprSyntaxError) as exc:
        _emit(_to_json({"diagnostics": str(exc)}), getattr(args, "out", None))
        return 2
    try:
        return _COMMANDS[args.command](cfg, args)
    except (ValidationFailed, StructureError, ConfigError, BoxTooLarge, oracle_mod.BadContour,
            quadrature.PreconditionViolated) as exc:
        _emit(_to_json({"diagnostics": str(exc)}), args.out)
        return 2
    except _CONVERGENCE_ERRORS as exc:
        _emit(_to_json({"diagnostics": f"{type(exc).__name__}: {exc}"}), args.out)
        return 3
    except Exception as exc:  # never a bare crash; still signal failure
        _emit(_to_json({"diagnostics": f"unexpected {type(exc).__name__}: {exc}"}), args.out)
        return 3


if __name__ == "__main__":
    sys.exit(main())
