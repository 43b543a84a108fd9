"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public callables of the crosswidth layers
(module functions and methods of public classes) with timing wrappers, at
every module attribute and module-level dict entry that holds them, and
``Tracer.restore`` puts every original object back.  Spans are kept in
memory and written out at the end; each carries a parent span id and the
task it ran under.  A layer's self time is its span time minus the time of
the child spans it directly encloses.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("config", "model", "geometry", "quadrature", "semiclassics", "pipeline", "oracle", "cli")

# Callables whose every call is aggregated but not kept as a span record:
# they run hundreds of thousands of times per pass.
HOT = {
    "quadrature.ActionFn.call",
    "quadrature.action_edge",
    "semiclassics.SemiclassicsEngine.tau",
    "semiclassics.SemiclassicsEngine.vertex_omega",
    "semiclassics.SemiclassicsEngine.monodromy",
    "semiclassics.SemiclassicsEngine.det_one_minus_m",
    "semiclassics.SemiclassicsEngine.probability_amplitude",
    "semiclassics.SemiclassicsEngine.edge_action",
    "semiclassics.SemiclassicsEngine.gamma1_action",
    "semiclassics.SemiclassicsEngine.box",
    "geometry.paths_one_switch",
    "geometry.Graph.outgoing_tails",
    "geometry.Graph.out_of",
    "geometry.Graph.gamma1_edges",
    "geometry.Edge.sub_pieces",
    "oracle.Contour.z",
    "oracle.Contour.pieces_from",
    "oracle.solve_ivp",
    "model.CrossingPoint.u",
}
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.task: Optional[str] = None
        self.stats: Dict[str, List[float]] = {}      # name -> [calls, s, self_s, depth]
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple] = []                 # (id, parent, task, name, t0, t1, ok)
        self.dropped_spans = 0
        self._stack: List[list] = []                 # [span id, child seconds]
        self._next_id = 1
        self._saved: List[Tuple[object, str, object, bool]] = []
        self.bs_keys = set()                         # (id(engine), h) of bohr_sommerfeld calls

    # --- wrapping --------------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        keep = name not in HOT
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            st[3] += 1
            ok = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf()
                stack.pop()
                st[3] -= 1
                d = t1 - t0
                st[0] += 1
                st[2] += d - frame[1]
                if st[3] == 0:  # count a recursive callable's time once
                    st[1] += d
                if stack:
                    stack[-1][1] += d
                if keep:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((sid, parent, self.task, name, t0, t1, ok))
                    else:
                        self.dropped_spans += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, owner, attr: str, new, is_dict: bool = False):
        original = owner[attr] if is_dict else owner.__dict__[attr]
        self._saved.append((owner, attr, original, is_dict))
        if is_dict:
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"crosswidth.{layer}") for layer in LAYERS}
        replaced: Dict[int, Callable] = {}  # id(original function) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}", HOOKS.get(f"{layer}.{attr}"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        # every module attribute and module-level dict entry holding a wrapped
        # function (``from .x import f`` copies, cli._COMMANDS)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict) and attr != "__builtins__":
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and id(val) in replaced:
                            self._set(obj, key, replaced[id(val)], is_dict=True)
        oracle = mods["oracle"]
        self._set(oracle, "solve_ivp", self._wrap(_counting_solve_ivp(self, oracle.solve_ivp),
                                                  "oracle.solve_ivp", _ode_hook))
        return self

    def _wrap_class(self, layer: str, cls):
        for attr, obj in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{'call' if attr == '__call__' else attr}"
            hook = HOOKS.get(name)
            if attr == "__call__" or (not attr.startswith("_") and inspect.isfunction(obj)):
                self._set(cls, attr, self._wrap(obj, name, hook))
            elif isinstance(obj, classmethod) and not attr.startswith("_"):
                self._set(cls, attr, classmethod(self._wrap(obj.__func__, name, hook)))
        if cls.__name__ == "SemiclassicsEngine":
            name = f"{layer}.SemiclassicsEngine._newton_root"
            self._set(cls, "_newton_root", self._wrap(vars(cls)["_newton_root"], name, HOOKS[name]))

    def restore(self):
        for owner, attr, original, is_dict in reversed(self._saved):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        saved, self._saved = self._saved, []
        return saved

    @staticmethod
    def all_restored(saved) -> bool:
        return all((owner[attr] if is_dict else owner.__dict__[attr]) is original
                   for owner, attr, original, is_dict in saved)

    # --- output --------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": {k: v[:3] for k, v in self.stats.items() if v[0]},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "bs_distinct": len(self.bs_keys),
            "dropped_spans": self.dropped_spans,
        }


def write_spans(path, spans, prefix: str = ""):
    """Append spans as JSON lines; ``prefix`` keeps ids of several processes apart."""
    with open(path, "a", encoding="utf-8") as fh:
        for sid, parent, task, name, t0, t1, ok in spans:
            fh.write(json.dumps({"id": f"{prefix}{sid}", "parent": f"{prefix}{parent}" if parent else None,
                                 "task": task, "name": name, "t0": t0, "t1": t1, "ok": ok}) + "\n")


# --- result hooks: work counts measured where the work happens ------------------------


def _build_hook(tr, args, kwargs, fn):
    tr.counts["quadrature.cache_nodes"] += fn.n_nodes
    tr.maxima["quadrature.cache_err_max"] = max(tr.maxima["quadrature.cache_err_max"], fn.err_estimate)


def _bs_hook(tr, args, kwargs, result):
    engine, h = args[0], args[1] if len(args) > 1 else kwargs["h"]
    tr.bs_keys.add((id(engine), float(h)))


def _newton_hook(tr, args, kwargs, pr):
    tr.counts["semiclassics.newton_iters"] += pr.newton_iters
    tr.maxima["semiclassics.newton_residual_max"] = max(
        tr.maxima["semiclassics.newton_residual_max"], pr.residual)


def _refine_hook(tr, args, kwargs, res):
    tr.maxima["oracle.residual_max"] = max(tr.maxima["oracle.residual_max"], res.residual)


def _ode_hook(tr, args, kwargs, sol):
    tr.counts["oracle.ode_rhs_evals"] += sol.nfev


HOOKS = {
    "quadrature.ActionFn.build": _build_hook,
    "semiclassics.SemiclassicsEngine.bohr_sommerfeld": _bs_hook,
    "semiclassics.SemiclassicsEngine._newton_root": _newton_hook,
    "oracle.refine_resonance": _refine_hook,
}


def _counting_solve_ivp(tr, solve_ivp):
    """solve_ivp with DOP853 swapped for a subclass that counts accepted
    steps; the arithmetic is unchanged."""
    from scipy.integrate import DOP853

    class CountingDOP853(DOP853):
        def _step_impl(self):
            tr.counts["oracle.ode_steps"] += 1
            return super()._step_impl()

    def counted(fun, t_span, y0, method="RK45", **kwargs):
        if method == "DOP853":
            method = CountingDOP853
        return solve_ivp(fun, t_span, y0, method=method, **kwargs)

    return counted


def merge(summaries: List[dict]) -> dict:
    """Sum the summaries of several traced processes (cold_cli children)."""
    out = {"stats": {}, "counts": defaultdict(float), "maxima": defaultdict(float),
           "bs_distinct": 0, "dropped_spans": 0}
    for s in summaries:
        for name, (calls, sec, self_s) in s["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += sec
            acc[2] += self_s
        for k, v in s["counts"].items():
            out["counts"][k] += v
        for k, v in s["maxima"].items():
            out["maxima"][k] = max(out["maxima"][k], v)
        out["bs_distinct"] += s["bs_distinct"]
        out["dropped_spans"] += s["dropped_spans"]
    return out
