import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil

import crosswidth

MODULES = [importlib.import_module(f"crosswidth.{m.name}")
           for m in pkgutil.iter_modules(crosswidth.__path__)]


def test_every_listed_name_exists():
    checked = [mod for mod in MODULES if hasattr(mod, "__all__")]
    assert checked
    for mod in checked:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_removed_names_stay_gone():
    from crosswidth import config, exprs, geometry, model, oracle, quadrature, semiclassics

    assert not hasattr(model, "TailInfo")
    assert not hasattr(oracle, "_Segment")
    assert not hasattr(semiclassics, "_Segment")
    assert not hasattr(oracle, "ThetaDependent")
    # the order-0 Taylor jet is the one scalar evaluator
    assert not hasattr(exprs, "_eval_real")
    assert not hasattr(exprs, "_eval_complex")
    # a fit is a record; ActionTable is the one evaluator
    assert "__call__" not in vars(quadrature.ActionFn)
    assert not hasattr(quadrature.ActionFn, "derivative")
    # one component builder lays out the loop and every channel-2 component
    assert not hasattr(geometry, "_gamma1_edges")
    assert not hasattr(geometry, "_mk_edge")
    assert not hasattr(geometry.PathSeq, "recount_switches")
    # one arc walk cuts a segment, and brentq takes the bracket values in hand
    assert not hasattr(geometry, "_arc_to_x")
    assert not hasattr(model, "_refine_root")
    assert not hasattr(model, "MissedBracket")
    assert "out_edge" not in {f.name for f in dataclasses.fields(geometry.Graph)}
    # the named test problems live with the tests
    assert importlib.util.find_spec("crosswidth.fixtures") is None
    # the numerical tolerances are module constants, the contour extent
    # comes from the problem
    assert not hasattr(model, "ToleranceSet")
    assert not {"tolerances", "k_max"} & {f.name for f in dataclasses.fields(model.Problem)}
    assert not {"contour_R0", "contour_X"} & {f.name for f in dataclasses.fields(config.RunConfig)}
    assert not hasattr(config, "_parse_count")
    # the contour angle and the edge quadrature tolerance are constants too
    assert "theta" not in {f.name for f in dataclasses.fields(config.RunConfig)}
    assert not hasattr(semiclassics, "_EDGE_QUAD_TOL")
    # one monodromy builder, one route to the pseudo-resonances, and a width
    # result that holds only what its callers read
    assert not hasattr(semiclassics.SemiclassicsEngine, "_fill")
    assert not hasattr(semiclassics.SemiclassicsEngine, "pseudo_resonances")
    assert [f.name for f in dataclasses.fields(semiclassics.WidthBreakdown)] == ["E", "h", "D"]
    assert "into" not in {f.name for f in dataclasses.fields(geometry.Graph)}
    # the fit residual bound is a constant
    assert not hasattr(semiclassics, "_CACHE_TOL")
    assert "tol" not in inspect.signature(quadrature.ActionFn.build).parameters


def test_every_exception_has_one_exit_code_base():
    # the base an exception derives from sets the CLI's exit code, so cli
    # keeps no list of exception classes; InternalInconsistency alone is a
    # defect, for the catch-all
    from crosswidth import cli, errors, geometry

    bases = (errors.InputError, errors.NumericalFailure)
    classes = {obj for mod in MODULES for obj in vars(mod).values()
               if isinstance(obj, type) and issubclass(obj, Exception) and not issubclass(obj, Warning)
               and obj.__module__ == mod.__name__ and obj not in bases}
    assert len(classes) > 20
    assert {cls for cls in classes if issubclass(cls, bases[0]) == issubclass(cls, bases[1])} \
        == {geometry.InternalInconsistency}
    assert not issubclass(geometry.InternalInconsistency, bases)
    assert not {"_INPUT_ERRORS", "_CONVERGENCE_ERRORS", "_ORACLE_ERRORS", "_errors"} & set(vars(cli))
