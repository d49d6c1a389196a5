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
