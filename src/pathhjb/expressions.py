"""Tiny arithmetic expression grammar for inline coefficients, and the inline
problem built from it.

Expressions are parsed with the Python ast module, restricted to arithmetic
(+, -, *, /, **), a short list of functions (abs, sqrt, exp, log, sin, cos,
tanh, min, max) and named variables, and compiled once by Python's compiler.
Which variables are available depends on the coefficient and on the grid:

    drift / diffusion:  t, T, dt, u, x0..x{dim-1} (x aliases x0), rmax,
                        rint0..rint{dim-1} (rint aliases rint0)
    generator:          the above plus y and z0..z{noise_dim-1} (z aliases z0)
    terminal:           path variables only (no u, y, z)

A name the grid does not bind is rejected before anything is evaluated.
rmax is the running sup of the Euclidean norm of the path; rint_i is the
running rectangle-rule integral of coordinate i including the current node.

A compiled expression evaluates on (N,) arrays, one element per path. +, -, *
and unary minus run in numpy, which rounds them as Python does; / fails as
Python's does on a zero divisor; ** and every function but abs call the Python
callable per element, so each element's value or error is that of the scalar
expression (numpy's exp, log, tanh and ** round differently from libm). A /
or ** that fails (a zero divisor, an overflow) raises ExpressionError naming
the expression, as a failing function call does.
"""

from __future__ import annotations

import ast
import math
import operator
from typing import Callable, Mapping

import numpy as np

from .control import BoundGenerator, ControlProblem
from .pathspace import GridConfig, _sq_cols

__all__ = ["ExpressionError", "compile_expression", "inline_problem"]


class ExpressionError(ValueError):
    """Rejected inline problem: syntax, unknown name, disallowed construct or shape."""


_FUNCTIONS: dict[str, Callable] = {
    "abs": abs,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tanh": math.tanh,
    "min": min,
    "max": max,
}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _is_object(v) -> bool:
    return isinstance(v, np.ndarray) and v.dtype == object


def _div(a, b):
    """a / b with Python's error on a zero float divisor; operands that carry a
    complex element are Python-object arrays and divide in Python."""
    if not (_is_object(a) or _is_object(b)) and np.any(np.equal(b, 0)):
        raise ZeroDivisionError("float division by zero")
    return a / b


def _elementwise(fn: Callable, nin: int) -> Callable:
    """fn applied per element through np.frompyfunc. The result is a float array,
    or a Python-object array when an element is complex, so that later
    arithmetic on it is Python's."""
    ufunc = np.frompyfunc(fn, nin, 1)

    def apply(*args):
        out = np.asarray(ufunc(*args), dtype=object)
        try:
            return out.astype(float)
        except TypeError:  # a complex element
            return out

    return apply


def _check(tree: ast.Expression, variables: frozenset[str]) -> dict:
    """Reject the first node outside the grammar, depth first; make every
    numeric constant a float, so no big-int arithmetic can happen; and route /,
    ** and every function call but abs to its array form. Returns the globals
    the rewritten tree is evaluated in."""
    scope = {"__builtins__": {}, **_FUNCTIONS, "_div": _div, "_pow": _elementwise(operator.pow, 2)}
    slots = [(vars(tree), "body")]  # (fields dict or argument list, key) of each node still to visit
    while slots:
        owner, key = slots.pop()
        node = owner[key]
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError(f"non-numeric constant {node.value!r}")
            node.value = float(node.value)
        elif isinstance(node, ast.Name):
            if node.id not in variables:
                raise ExpressionError(f"unknown variable {node.id!r} (allowed: {sorted(variables)})")
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            slots.append((vars(node), "operand"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            if isinstance(node.op, (ast.Div, ast.Pow)):
                func = ast.copy_location(ast.Name("_div" if isinstance(node.op, ast.Div) else "_pow", ast.Load()), node)
                call = ast.Call(func, [node.left, node.right], [])
                owner[key] = ast.copy_location(call, node)
                slots += [(call.args, 1), (call.args, 0)]
            else:
                slots += [(vars(node), "right"), (vars(node), "left")]
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ExpressionError("only abs/sqrt/exp/log/sin/cos/tanh/min/max calls are allowed")
            if node.keywords:
                raise ExpressionError("keyword arguments are not allowed")
            n_args = len(node.args)
            if node.func.id != "abs" and n_args:
                name = f"{node.func.id}_{n_args}"  # no variable has this shape of name
                scope[name] = _elementwise(_FUNCTIONS[node.func.id], n_args)
                node.func.id = name
            slots += [(node.args, i) for i in reversed(range(n_args))]
        else:
            raise ExpressionError(f"disallowed syntax: {ast.dump(node)}")
    return scope


def compile_expression(text: str, variables: frozenset[str]) -> Callable[[Mapping], np.ndarray]:
    """Check ``text`` against the grammar and compile it to a callable env ->
    value, where env binds the given variables to floats or (N,) float arrays
    and the value is a float or an (N,) float array."""
    try:
        try:
            tree = ast.parse(text, mode="eval")
        except (SyntaxError, ValueError) as exc:
            raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from None
        scope = _check(tree, variables)
        code = compile(tree, "<expression>", "eval", dont_inherit=True)
    except (RecursionError, MemoryError):  # raised by Python's parser and compiler on deep nesting
        raise ExpressionError(f"expression of {len(text)} characters is nested too deeply") from None
    except OverflowError:  # float() of an integer literal
        raise ExpressionError(f"expression {text!r} has an integer literal that does not fit a float") from None

    def compiled(env: Mapping):
        # log(0), sqrt(-1), / by zero, overflow and complex powers are faults of the expression, not of its caller
        try:
            with np.errstate(all="ignore"):
                out = eval(code, scope, env)
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise ExpressionError(f"expression {text!r} failed to evaluate: {exc}") from None
        if _is_object(out) and not any(isinstance(v, complex) for v in out.flat):
            out = out.astype(float)
        # a complex element, or a complex scalar: numpy's ops on a 0-d object array return its element
        if _is_object(out) or isinstance(out, complex):
            raise ExpressionError(f"expression {text!r} evaluated to a complex number")
        return out

    return compiled


def _path_env(vals: np.ndarray, dt: float, horizon: float) -> dict:
    """Path variables of N same-time paths, ``vals`` of shape (N, d, K): t, T
    and dt as floats, the endpoint and running statistics as (N,) arrays."""
    d, k = vals.shape[1:]
    with np.errstate(all="ignore"):  # as the expressions run: an overflow reads as inf
        rmax, rint = np.sqrt(_sq_cols(vals)).max(axis=1), vals.sum(axis=2) * dt
    env = {"t": (k - 1) * dt, "T": horizon, "dt": dt, "rmax": rmax}
    for i in range(d):
        env[f"x{i}"] = vals[:, i, -1]
        env[f"rint{i}"] = rint[:, i]
    env["x"], env["rint"] = env["x0"], env["rint0"]
    return env


def _columns(fns: list, env: dict, n: int) -> np.ndarray:
    """(n, len(fns)) array of each expression's values, constants broadcast."""
    out = np.empty((n, len(fns)))
    for i, f in enumerate(fns):
        out[:, i] = f(env)
    return out


def inline_problem(spec: Mapping, grid: GridConfig) -> ControlProblem:
    """The ControlProblem of the CLI's ``problem.inline`` keys: drift, diffusion,
    generator and terminal expressions over the names ``grid`` binds, and
    controls; each coefficient is the array form of its expressions. The
    generator is a BoundGenerator: the path variables, u and z are read once
    per implicit solve, and each fixed-point round evaluates the expression
    with y bound."""
    if len(spec["drift"]) != grid.dim or len(spec["diffusion"]) != grid.dim:
        raise ExpressionError("drift/diffusion rows must match grid.dim")
    if any(len(row) != grid.noise_dim for row in spec["diffusion"]):
        raise ExpressionError("diffusion columns must match grid.noise_dim")
    path_vars = frozenset({"t", "T", "dt", "x", "rmax", "rint"} | {f"{v}{i}" for v in ("x", "rint") for i in range(grid.dim)})
    coeff_vars = path_vars | {"u"}
    gen_vars = coeff_vars | {"y", "z"} | {f"z{i}" for i in range(grid.noise_dim)}
    drift_fns = [compile_expression(e, coeff_vars) for e in spec["drift"]]
    diff_fns = [compile_expression(e, coeff_vars) for row in spec["diffusion"] for e in row]
    gen_fn = compile_expression(spec["generator"], gen_vars)
    term_fn = compile_expression(spec["terminal"], path_vars)
    horizon, dt, shape = grid.horizon, grid.dt, (grid.dim, grid.noise_dim)

    def coeff_env(vals, us):
        env = _path_env(vals, dt, horizon)
        env["u"] = np.asarray(us, dtype=float)
        return env

    def drift(vals, us):
        return _columns(drift_fns, coeff_env(vals, us), vals.shape[0])

    def diffusion(vals, us):
        return _columns(diff_fns, coeff_env(vals, us), vals.shape[0]).reshape(-1, *shape)

    def generator(vals, z, us):
        env = coeff_env(vals, us)
        for i in range(z.shape[1]):
            env[f"z{i}"] = z[:, i]
        env["z"] = env["z0"]

        def at(y):
            env["y"] = y
            return _columns([gen_fn], env, vals.shape[0])[:, 0]

        return at

    def terminal(vals):
        return _columns([term_fn], _path_env(vals, dt, horizon), vals.shape[0])[:, 0]

    return ControlProblem(
        drift=drift,
        diffusion=diffusion,
        generator=BoundGenerator(generator),
        terminal=terminal,
        controls=tuple(spec["controls"]),
        grid=grid,
    )
