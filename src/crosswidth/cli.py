"""Command-line interface.

crosswidth <analyze|bs|pseudo|widths|oracle|compare|stphase> <config> [flags]

Outputs are deterministic for a fixed config: JSON for structured results,
CSV for sweep tables, all floats printed with 17 significant digits.
Exit codes: 0 success; 2 on an errors.InputError (invalid input) or an
--out path that cannot be opened, printing the message; 3 on an
errors.NumericalFailure (non-convergence), printing ``Type: message``.
Anything else is a defect, reported as ``unexpected Type: message``, exit 3.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

import numpy as np

from . import exprs, quadrature
from .config import ConfigError, RunConfig, check_h_list, load_config, parse_expr
from .errors import InputError, NumericalFailure
from .geometry import graph_to_dict
from .pipeline import ValidationFailed, box_levels, build_engine, compare_sweep, oracle_row


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
    h_max = max(cfg.h_list) if cfg.h_list else 0.08
    try:
        report, graph, _ = build_engine(cfg.problem, calib=cfg.calib, h_max=h_max)
    except ValidationFailed as exc:
        payload = {"report": _report_dict(exc.report), "diagnostics": "structure validation failed"}
        _emit(_to_json(payload), args.out)
        return 2
    _emit(_to_json({"report": _report_dict(report), "graph": graph_to_dict(graph)}), args.out)
    return 0


def cmd_bs(cfg: RunConfig, args) -> int:
    _, _, engine = build_engine(cfg.problem, calib=cfg.calib, h_max=args.h)
    rows = [{"index": i, "E": E} for i, E in enumerate(engine.bohr_sommerfeld(args.h))]
    _emit(_csv(rows, ["index", "E"]), args.out)
    return 0


# the columns of a resonance-table record, in output order
_TABLE_COLUMNS = ("seed", "pseudo_re", "pseudo_im", "D", "im_pred")


def cmd_pseudo(cfg: RunConfig, args) -> int:
    _, _, engine = build_engine(cfg.problem, calib=cfg.calib, h_max=args.h)
    records = [{**{c: row[c] for c in _TABLE_COLUMNS}, "residual": row["pseudo"].residual,
                "newton_iters": row["pseudo"].newton_iters}
               for row in engine.resonance_table(args.h) if row["pseudo"]]
    _emit(_to_json({"h": args.h, "records": records}), args.out)
    return 0


def cmd_widths(cfg: RunConfig, args) -> int:
    _, _, engine = build_engine(cfg.problem, calib=cfg.calib, h_max=args.h)
    records = [{c: row[c] for c in _TABLE_COLUMNS} for row in engine.resonance_table(args.h)]
    _emit(_to_json({"h": args.h, "records": records}), args.out)
    return 0


def cmd_oracle(cfg: RunConfig, args) -> int:
    report, _, engine = build_engine(cfg.problem, calib=cfg.calib, h_max=args.h)
    seeds = box_levels(engine, args.h)
    idx = args.seed_index if args.seed_index is not None else len(seeds) // 2
    if not 0 <= idx < len(seeds):
        raise ConfigError(f"seed index {idx} out of range 0..{len(seeds) - 1}")
    im_pred = engine.predicted_widths([seeds[idx]], args.h)[1][0]
    row = oracle_row(cfg, report, engine.m0, complex(seeds[idx], im_pred), args.h)
    res = row["res"]
    payload = {"E_re": res.E.real, "E_im": res.E.imag, "residual": res.residual, "im_green": row["im_green"]}
    _emit(_to_json(payload), args.out)
    return 0


def cmd_compare(cfg: RunConfig, args) -> int:
    result = compare_sweep(cfg, args.h_list)
    cols = [
        "h", "seed", "pseudo_re", "pseudo_im", "D", "im_pred",
        "re_oracle", "im_oracle", "im_green", "ratio", "residual",
    ]
    text = _csv(result["rows"], cols)
    summary = {k: v for k, v in result.items() if k != "rows"}
    text += "\n# summary: " + _to_json(summary).replace("\n", " ")
    _emit(text, args.out)
    return 0


def cmd_stphase(cfg: RunConfig, args) -> int:
    phi_ast, sigma_ast = parse_expr(args.phi, "--phi"), parse_expr(args.sigma, "--sigma")
    phi = exprs.compile_fn(phi_ast)
    sigma = exprs.compile_fn(sigma_ast)
    if len(args.interval) != 2:
        raise ConfigError(f"--interval needs two comma-separated numbers lo,hi, got {args.interval!r}")
    lo, hi = args.interval
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"--interval must have finite endpoints, got {args.interval!r}")
    x0 = args.x0
    if not math.isfinite(x0):
        raise ConfigError(f"--x0 must be finite, got {x0!r}")
    m = args.m
    if m < 1:
        raise ConfigError("m must be >= 1")
    jet = exprs.taylor_jet(phi_ast, x0, m + 1)
    sigma0 = exprs.evaluate(sigma_ast, x0)
    rows = []
    for h in args.h_list:
        numeric = quadrature.oscillatory_integral(sigma, phi, (lo, hi), h)
        asym = quadrature.stationary_phase(sigma0, jet, m, h)
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

    def command(name, helptext):
        # no abbreviations: "analyze --h" must not pass for "--help"
        sp = sub.add_parser(name, help=helptext, allow_abbrev=False)
        sp.add_argument("config", help="path to the run configuration")
        sp.add_argument("--out", help="write output to this file instead of stdout")
        return sp

    command("analyze", "structure report and phase-space graph as JSON")

    for name, helptext in (
        ("bs", "Bohr-Sommerfeld grid as CSV"),
        ("pseudo", "pseudo-resonances as JSON"),
        ("widths", "width table as JSON"),
    ):
        command(name, helptext).add_argument("--h", type=float, required=True)

    sp = command("oracle", "direct resonance by complex-scaled shooting")
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--seed-index", type=int, default=None)

    sp = command("compare", "joined semiclassics/oracle sweep with exponent fits")
    sp.add_argument("--h-list", type=lambda s: [float(v) for v in s.split(",")], default=None)

    sp = command("stphase", "oscillatory integral vs stationary phase")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--h-list", type=lambda s: [float(v) for v in s.split(",")], required=True)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--interval", type=lambda s: tuple(float(v) for v in s.split(",")), default=(-1.0, 1.0))
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
    if args.out:
        # every outcome is written there, so the path is checked before
        # anything runs; appending leaves a file that is also read intact
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            _emit(_to_json({"diagnostics": f"cannot open --out {args.out}: {exc.strerror}"}), None)
            return 2
    try:
        cfg = load_config(args.config)
        if getattr(args, "h", None) is not None:
            check_h_list([args.h], "--h")
        if getattr(args, "h_list", None) is not None:
            check_h_list(args.h_list, "--h-list")
    except (InputError, OSError) as exc:
        _emit(_to_json({"diagnostics": str(exc)}), args.out)
        return 2
    try:
        return _COMMANDS[args.command](cfg, args)
    except InputError as exc:
        _emit(_to_json({"diagnostics": str(exc)}), args.out)
        return 2
    except NumericalFailure as exc:
        _emit(_to_json({"diagnostics": f"{type(exc).__name__}: {exc}"}), args.out)
        return 3
    except Exception as exc:  # never a bare crash; still signal failure
        _emit(_to_json({"diagnostics": f"unexpected {type(exc).__name__}: {exc}"}), args.out)
        return 3


if __name__ == "__main__":
    sys.exit(main())
