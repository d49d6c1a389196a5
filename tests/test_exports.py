import ast
import importlib
import pathlib
import pkgutil

import pytest

import pathhjb

MODULES = ["pathhjb"] + sorted(f"pathhjb.{m.name}" for m in pkgutil.iter_modules(pathhjb.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    # a stale entry would break `from <name> import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


# ---------------------------------------------------------------------------
# Dead code the parser can see: every module of the package, read as source.

SOURCES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(pathlib.Path(pathhjb.__file__).parent.glob("*.py"))}


def _loaded_names(tree: ast.AST) -> set:
    """Every name a module reads: bare names, attributes, and the entries of its __all__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("stem", sorted(SOURCES))
def test_every_import_is_used(stem):
    tree = SOURCES[stem]
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    loaded = _loaded_names(tree)
    assert [name for name in imported if name not in loaded] == []


def _module_level_names(tree: ast.Module) -> list:
    """Names bound by the module's own top-level defs, classes and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return names


@pytest.mark.parametrize("stem", sorted(SOURCES))
def test_every_private_module_name_is_read_somewhere(stem):
    read = set().union(*map(_loaded_names, SOURCES.values()))
    read |= {alias.name for tree in SOURCES.values() for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    private = [n for n in _module_level_names(SOURCES[stem]) if n.startswith("_") and not n.startswith("__")]
    assert [n for n in private if n not in read] == []


def _phrase_nodes(tree: ast.AST, phrase: str) -> list:
    """The string constants of ``tree`` holding ``phrase``, f-string parts included."""
    return [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str) and phrase in n.value]


def test_one_function_decides_a_count():
    # every count goes through pathspace._count; cli._merge_config casts config values with
    # its own rule ("must be a nonnegative int"), naming the config key
    phrase = "must be an integer"
    owners = {
        f"{stem}.{fn.name}"
        for stem, tree in SOURCES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _phrase_nodes(fn, phrase)
    }
    assert owners == {"pathspace._count"}
    assert sum(len(_phrase_nodes(tree, phrase)) for tree in SOURCES.values()) == 1


def test_one_function_builds_the_overflow_of_the_gauge_family():
    # every gauge read past the double range raises the OverflowError of a Python power past it;
    # gauge._sup_and_end alone builds it, the other reads reach it through that function
    phrase = "Numerical result out of range"
    builders = {
        f"{stem}.{owner}"
        for stem, tree in SOURCES.items()
        for owner, node in _owned_nodes(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "OverflowError"
    }
    assert builders == {"gauge._sup_and_end"}
    assert sum(len(_phrase_nodes(tree, phrase)) for tree in SOURCES.values()) == 1


def _owned_nodes(tree: ast.Module):
    """(owner, node) for every node of a module, where owner is the top-level function or
    ``Class.method`` that holds it, nested functions included, or "<module>"."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            units = [(f"{top.name}.{fn.name}", fn) for fn in top.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            units = [(top.name, top)]
        else:
            units = [("<module>", top)]
        for owner, unit in units:
            for node in ast.walk(unit):
                yield owner, node


def test_drift_and_diffusion_are_read_in_two_places():
    # every shape-checked read names its field with a string literal; drift and diffusion are read
    # by ControlProblem.coeffs, which every solver and the FD oracle go through, and by ito_check's
    # per-path coefficients (bshjb.augment reads "base drift" and "base diffusion")
    reads = [
        (f"{stem}.{owner}", node.args[0] if node.args else None)
        for stem, tree in SOURCES.items()
        for owner, node in _owned_nodes(tree)
        if isinstance(node, ast.Call) and "_stack_checked" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert reads
    assert [where for where, name in reads if not (isinstance(name, ast.Constant) and isinstance(name.value, str))] == []
    readers = {(where, name.value) for where, name in reads if name.value in ("drift", "diffusion")}
    assert readers == {(where, field) for where in ("control.ControlProblem.coeffs", "funcalc.ito_check") for field in ("drift", "diffusion")}


def test_functional_fields_are_called_in_funcalc_only():
    # funcalc._jet is the one reader of a functional's derivatives, and ito_check and the FD
    # stencils read endpoint functionals' own callables; a call of a field anywhere else would
    # be a second route to them
    fields = {"analytic_dt", "analytic_dx", "analytic_dxx", "g", "grad", "hess"}
    callers = {
        f"{stem}.{owner}"
        for stem, tree in SOURCES.items()
        for owner, node in _owned_nodes(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in fields
    }
    assert callers
    assert sorted(c for c in callers if not c.startswith("funcalc.")) == []


def test_generators_are_bound_in_control_only():
    # control._implicit is the one reader that splits a BoundGenerator at y; a read of ``bind``
    # anywhere else would be a second route through the form, which every other reader calls whole.
    # BoundGenerator.through reads it only to pass the split on, as a new BoundGenerator
    readers = {
        f"{stem}.{owner}"
        for stem, tree in SOURCES.items()
        for owner, node in _owned_nodes(tree)
        if isinstance(node, ast.Attribute) and node.attr == "bind" and isinstance(node.ctx, ast.Load)
    }
    assert readers == {"control.BoundGenerator.__call__", "control.BoundGenerator.through", "control._implicit"}


def _is_square(node: ast.AST) -> bool:
    """x ** 2, or x * x of one expression twice."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Pow):
        return isinstance(node.right, ast.Constant) and node.right.value == 2
    return isinstance(node.op, ast.Mult) and ast.dump(node.left) == ast.dump(node.right)


def test_squared_coordinates_are_summed_in_the_norm_pass_only():
    # pathspace._sq_cols is the one norm pass: its summation order is the one every sup, endpoint
    # gap and gauge value reads, so a sum of squares written anywhere else would be a second order
    summers = set()
    for stem, tree in SOURCES.items():
        for owner, node in _owned_nodes(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            receiver = getattr(node.func, "value", None)
            operands = [receiver] if name == "sum" and receiver is not None else []
            if name in ("sum", "reduce", "einsum"):
                operands += node.args
            if any(_is_square(x) for x in operands):
                summers.add(f"{stem}.{owner}")
    assert summers == {"pathspace._sq_cols"}
