"""Span tracing for the benchmark's traced run, from outside the program.

``install`` replaces every public function of the pathhjb layer modules, and
every public method of their public classes, with a wrapper that records a
span (name, start, end, parent). Names that other pathhjb modules imported
are rebound to the same wrapper. Three construction hooks wrap the coefficient
callables of each ``ControlProblem`` and ``AugmentedProblem`` built while
tracing, and of the reduced problem ``markovian_reduction`` returns, so that
coefficient evaluations are spans too; the closures ``compile_expression``
returns are wrapped the same way. ``Patches.restore`` puts every original
back.

A span's name is ``<layer>:<attribute>``; a coefficient span is named after
the module that defined the callable (``presets:coef.drift``). A layer's self
time is the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Optional

import numpy as np

LAYERS = (
    "pathspace",
    "funcalc",
    "gauge",
    "varprinciple",
    "control",
    "phjb",
    "bshjb",
    "sampling",
    "expressions",
    "presets",
    "cli",
)

VALUE_SPANS = frozenset(
    {
        "control:value",
        "control:value_with_strategy",
        "control:dpp_check",
        "control:ValueSolver.solve",
        "control:ValueSolver.best_control",
    }
)
COST_SPANS = frozenset({"control:cost", "control:backward_semigroup", "control:solve_bsde_tree"})

_COEFF_FIELDS = ("drift", "diffusion", "generator", "terminal")


def _is_coeff(name: str) -> bool:
    return name.startswith(("presets:coef.", "presets:base."))


# Inclusive ("busy") time is summed over the outermost spans of each group.
BUSY_GROUPS: dict[str, Callable[[str], bool]] = {
    "value": VALUE_SPANS.__contains__,
    "tree": lambda n: n == "control:simulate_tree",
    "bsde": lambda n: n == "control:solve_bsde_tree",
    "fd": lambda n: n == "phjb:markov_fd_solve",
    "reduction": lambda n: n == "phjb:markovian_reduction" or n.startswith("phjb:reduced."),
    "coeff": _is_coeff,
    "expr": lambda n: n == "expressions:compiled",
    "ito": lambda n: n == "funcalc:ito_check",
    "gauge": lambda n: n.startswith("gauge:"),
    "verify": lambda n: n == "varprinciple:verify_bp",
    "remark64": lambda n: n == "bshjb:remark64_check",
    "cli": lambda n: n == "cli:main",
}


def span_stats(names: list[str], name_idx, parent, start, end) -> dict:
    """Reduce one batch of spans to per-layer and per-group totals.

    ``names[name_idx[i]]`` is span i's name and ``parent[i]`` the index of the
    span that was open when it started (-1 for none); a parent always has a
    lower index than its children. Returns a flat dict of additive totals.
    """
    name_idx = np.asarray(name_idx, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    n = dur.shape[0]
    out: dict = defaultdict(float)
    if n == 0:
        return out
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child

    layer_of = np.array([LAYERS.index(nm.split(":", 1)[0]) if nm.split(":", 1)[0] in LAYERS else -1 for nm in names])
    span_layer = layer_of[name_idx] if len(names) else np.empty(0, dtype=np.int64)
    for li, layer in enumerate(LAYERS):
        mask = span_layer == li
        out[f"{layer}.calls"] += float(mask.sum())
        out[f"{layer}.self_s"] += float(self_time[mask].sum())
    calls_by_name = np.bincount(name_idx, minlength=len(names))
    for nm, c in zip(names, calls_by_name):
        if c:
            out[f"calls:{nm}"] += float(c)

    for group, pred in BUSY_GROUPS.items():
        member = np.array([pred(nm) for nm in names], dtype=bool)[name_idx]
        if member.any():
            outermost = member & ~_has_ancestor(member, parent)
            out[f"busy:{group}"] += float(dur[outermost].sum())

    # Leaf terminals and implicit-step generator calls, attributed to the
    # nearest enclosing control-layer span.
    is_control = span_layer == LAYERS.index("control")
    nearest = _nearest_ancestor(is_control, parent)
    value_idx = np.array([nm in VALUE_SPANS for nm in names], dtype=bool)
    cost_idx = np.array([nm in COST_SPANS for nm in names], dtype=bool)
    valid = nearest >= 0
    enclosing = np.full(n, -1, dtype=np.int64)
    enclosing[valid] = name_idx[nearest[valid]]
    in_value = np.zeros(n, dtype=bool)
    in_value[valid] = value_idx[enclosing[valid]]
    in_cost = np.zeros(n, dtype=bool)
    in_cost[valid] = cost_idx[enclosing[valid]]
    terminal = np.array([nm.endswith(":coef.terminal") for nm in names], dtype=bool)[name_idx]
    generator = np.array([nm.endswith(":coef.generator") for nm in names], dtype=bool)[name_idx]
    out["value_leaves"] += float((terminal & in_value).sum())
    out["implicit_iters"] += float((generator & (in_value | in_cost)).sum())
    return out


def _has_ancestor(mask: np.ndarray, parent: np.ndarray) -> np.ndarray:
    found = np.zeros(mask.shape[0], dtype=bool)
    cur = parent.copy()
    live = cur >= 0
    while live.any():
        idx = np.nonzero(live)[0]
        found[idx] |= mask[cur[idx]]
        cur[idx] = parent[cur[idx]]
        live = (cur >= 0) & ~found
    return found


def _nearest_ancestor(mask: np.ndarray, parent: np.ndarray) -> np.ndarray:
    nearest = np.full(mask.shape[0], -1, dtype=np.int64)
    cur = parent.copy()
    live = cur >= 0
    while live.any():
        idx = np.nonzero(live)[0]
        hit = mask[cur[idx]]
        nearest[idx[hit]] = cur[idx[hit]]
        cur[idx] = parent[cur[idx]]
        live = (cur >= 0) & (nearest < 0)
    return nearest


class Tracer:
    """Span recorder: wrappers append spans; ``flush`` folds them into ``totals``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.totals: dict = defaultdict(float)

    def count(self, key: str, amount: float) -> None:
        self.totals[key] += amount

    def wrap(self, fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        """A wrapper recording a span per call; ``after(args, kwargs, result)``
        may return a replacement result."""
        if getattr(fn, "_bench_span", None) is not None:
            return fn
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends, stack = self._name, self._parent, self._start, self._end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                return after(args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper._bench_span = name
        return wrapper

    def flush(self) -> None:
        """Fold the recorded spans into ``totals`` and drop them."""
        if self._stack:
            raise RuntimeError("flush called inside an open span")
        for key, v in span_stats(self.names, self._name, self._parent, self._start, self._end).items():
            self.totals[key] += v
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]


class Patches:
    """Attribute replacements on modules and classes, undone by ``restore``."""

    def __init__(self):
        self._saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"pathhjb.{layer}") for layer in LAYERS}


def _public_names(mod) -> Iterable[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return names


def _layer_of(fn) -> str:
    module = getattr(fn, "__module__", None) or ""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "pathhjb" else "bench"


def _after_hooks(tracer: Tracer, mods: dict) -> dict:
    """Per-span result hooks: work counters and wrapping of returned callables."""
    import dataclasses

    def tree_nodes(args, kwargs, tree):
        tracer.count("tree_nodes", sum(level.shape[0] for level in tree.levels))
        return tree

    def bsde_nodes(args, kwargs, sol):
        tracer.count("bsde_nodes", sum(y.shape[0] for y in sol.y_levels))
        return sol

    def fd_cells(args, kwargs, grid_v):
        tracer.count("fd_cells", grid_v.size)
        return grid_v

    ito_signature = inspect.signature(mods["funcalc"].ito_check)

    def path_steps(args, kwargs, res):
        a = ito_signature.bind(*args, **kwargs).arguments
        tracer.count("path_steps", a["n_paths"] * (a["end_index"] - a["p0"].t_index))
        return res

    def rounds(args, kwargs, result):
        tracer.count("rounds", result.rounds)
        return result

    def reduced(args, kwargs, mp):
        fields = {f: tracer.wrap(getattr(mp, f), f"phjb:reduced.{f}") for f in _COEFF_FIELDS}
        return dataclasses.replace(mp, **fields)

    def compiled(args, kwargs, closure):
        return tracer.wrap(closure, "expressions:compiled")

    return {
        "control:simulate_tree": tree_nodes,
        "control:solve_bsde_tree": bsde_nodes,
        "phjb:markov_fd_solve": fd_cells,
        "funcalc:ito_check": path_steps,
        "varprinciple:borwein_preiss": rounds,
        "phjb:markovian_reduction": reduced,
        "expressions:compile_expression": compiled,
    }


def _wrap_fields_hook(tracer: Tracer, original: Callable, fields: Iterable[str], prefix: str) -> Callable:
    fields = tuple(fields)

    def __post_init__(self):
        original(self)
        for f in fields:
            fn = getattr(self, f)
            object.__setattr__(self, f, tracer.wrap(fn, f"{_layer_of(fn)}:{prefix}.{f.removeprefix('base_')}"))

    return __post_init__


def install(tracer: Tracer) -> Patches:
    """Wrap the public API of every layer module; returns the undo record."""
    mods = layer_modules()
    after = _after_hooks(tracer, mods)
    patches = Patches()
    replaced: dict = {}
    for layer, mod in mods.items():
        for name in _public_names(mod):
            obj = getattr(mod, name, None)
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                span = f"{layer}:{name}"
                wrapper = tracer.wrap(obj, span, after.get(span))
                replaced[obj] = wrapper
                patches.set(mod, name, wrapper)
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                _wrap_methods(tracer, patches, obj, layer)

    # Names other modules imported with ``from .x import f``.
    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in replaced:
                patches.set(mod, name, replaced[obj])

    path_cls = mods["pathspace"].Path
    patches.set(path_cls, "__post_init__", tracer.wrap(vars(path_cls)["__post_init__"], "pathspace:Path.__post_init__"))
    for cls, fields, prefix in (
        (mods["control"].ControlProblem, _COEFF_FIELDS, "coef"),
        (mods["bshjb"].AugmentedProblem, tuple(f"base_{f}" for f in _COEFF_FIELDS), "base"),
    ):
        patches.set(cls, "__post_init__", _wrap_fields_hook(tracer, vars(cls)["__post_init__"], fields, prefix))
    return patches


def _wrap_methods(tracer: Tracer, patches: Patches, cls: type, layer: str) -> None:
    for attr, desc in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        span = f"{layer}:{cls.__name__}.{attr}"
        if isinstance(desc, (staticmethod, classmethod)):
            patches.set(cls, attr, type(desc)(tracer.wrap(desc.__func__, span)))
        elif isinstance(desc, types.FunctionType):
            patches.set(cls, attr, tracer.wrap(desc, span))


def per_layer_metrics(totals: dict, passes: int) -> dict:
    """Per-layer metrics of one traced pass, from the totals of ``passes`` passes."""
    t = defaultdict(float, totals)

    def per_pass(v: float) -> float:
        return v / passes

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    m: dict = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (per_pass(t[f"{layer}.calls"]), "count")
        m[f"{layer}.self_s"] = (per_pass(t[f"{layer}.self_s"]), "s")
    coeff_evals = sum(v for k, v in t.items() if k.startswith("calls:") and _is_coeff(k[len("calls:"):]))
    m["presets.coeff_evals"] = (per_pass(coeff_evals), "count")
    m["presets.coeff_s"] = (per_pass(t["busy:coeff"]), "s")
    m["control.value_leaves"] = (per_pass(t["value_leaves"]), "count")
    m["control.value_leaves_per_s"] = (rate(t["value_leaves"], t["busy:value"]), "1/s")
    m["control.implicit_iters"] = (per_pass(t["implicit_iters"]), "count")
    m["control.tree_nodes_per_s"] = (rate(t["tree_nodes"], t["busy:tree"]), "1/s")
    m["control.bsde_nodes_per_s"] = (rate(t["bsde_nodes"], t["busy:bsde"]), "1/s")
    m["phjb.fd_solve_s"] = (per_pass(t["busy:fd"]), "s")
    m["phjb.reduction_s"] = (per_pass(t["busy:reduction"]), "s")
    m["phjb.fd_cells_per_s"] = (rate(t["fd_cells"], t["busy:fd"]), "1/s")
    m["phjb.hamiltonian_calls"] = (per_pass(t["calls:phjb:hamiltonian"]), "count")
    m["pathspace.paths_built"] = (per_pass(t["calls:pathspace:Path.__post_init__"]), "count")
    m["expressions.evals"] = (per_pass(t["calls:expressions:compiled"]), "count")
    m["expressions.evals_per_s"] = (rate(t["calls:expressions:compiled"], t["busy:expr"]), "1/s")
    m["funcalc.path_steps_per_s"] = (rate(t["path_steps"], t["busy:ito"]), "1/s")
    m["gauge.pairs_per_s"] = (rate(t["calls:gauge:upsilon"], t["busy:gauge"]), "1/s")
    m["gauge.rho_evals"] = (per_pass(t["calls:gauge:upsilon_bar"]), "count")
    m["varprinciple.rounds"] = (per_pass(t["rounds"]), "count")
    m["varprinciple.verify_s"] = (per_pass(t["busy:verify"]), "s")
    m["bshjb.remark64_s"] = (per_pass(t["busy:remark64"]), "s")
    m["cli.main_s"] = (per_pass(t["busy:cli"]), "s")
    return m


# The counters that depend only on the inputs, never on timing.
DETERMINISTIC = (
    "presets.coeff_evals",
    "control.value_leaves",
    "control.implicit_iters",
    "pathspace.paths_built",
    "gauge.rho_evals",
    "varprinciple.rounds",
)
