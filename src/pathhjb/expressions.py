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
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Mapping

import numpy as np

from .control import ControlProblem
from .pathspace import GridConfig, sup_norm

__all__ = ["ExpressionError", "compile_expression", "inline_problem", "path_context"]


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
# The only names a compiled expression can reach besides its variables.
_GLOBALS = {"__builtins__": {}, **_FUNCTIONS}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _check(tree: ast.Expression, variables: frozenset[str]) -> None:
    """Reject the first node outside the grammar, depth first, and make every
    numeric constant a float, so no big-int arithmetic can happen."""
    stack = [tree.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError(f"non-numeric constant {node.value!r}")
            node.value = float(node.value)
        elif isinstance(node, ast.Name):
            if node.id not in variables:
                raise ExpressionError(f"unknown variable {node.id!r} (allowed: {sorted(variables)})")
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            stack.append(node.operand)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            stack += [node.right, node.left]
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ExpressionError("only abs/sqrt/exp/log/sin/cos/tanh/min/max calls are allowed")
            if node.keywords:
                raise ExpressionError("keyword arguments are not allowed")
            stack += reversed(node.args)
        else:
            raise ExpressionError(f"disallowed syntax: {ast.dump(node)}")


def compile_expression(text: str, variables: frozenset[str]) -> Callable[[Mapping[str, float]], float]:
    """Check ``text`` against the grammar and compile it to a callable
    env -> float over the given variables."""
    try:
        try:
            tree = ast.parse(text, mode="eval")
        except (SyntaxError, ValueError) as exc:
            raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from None
        _check(tree, variables)
        code = compile(tree, "<expression>", "eval", dont_inherit=True)
    except (RecursionError, MemoryError):  # raised by Python's parser and compiler on deep nesting
        raise ExpressionError(f"expression of {len(text)} characters is nested too deeply") from None

    def compiled(env: Mapping[str, float]) -> float:
        # log(0), sqrt(-1) and complex powers are faults of the expression, not of its caller
        try:
            out = eval(code, _GLOBALS, env)
        except (ValueError, TypeError) as exc:
            raise ExpressionError(f"expression {text!r} failed to evaluate: {exc}") from None
        if isinstance(out, complex):
            raise ExpressionError(f"expression {text!r} evaluated to a complex number")
        return out

    return compiled


def path_context(path, horizon: float) -> dict[str, float]:
    """Variable bindings read off a Path: t, T, dt, endpoint, running stats."""
    env: dict[str, float] = {"t": path.t, "T": horizon, "dt": path.dt}
    end = path.values[:, -1]
    for i in range(path.d):
        env[f"x{i}"] = float(end[i])
    env["x"] = float(end[0])
    env["rmax"] = sup_norm(path)
    rint = path.values.sum(axis=1) * path.dt
    for i in range(path.d):
        env[f"rint{i}"] = float(rint[i])
    env["rint"] = float(rint[0])
    return env


def inline_problem(spec: Mapping, grid: GridConfig) -> ControlProblem:
    """The ControlProblem of the CLI's ``problem.inline`` keys: drift, diffusion,
    generator and terminal expressions over the names ``grid`` binds, and controls."""
    if len(spec["drift"]) != grid.dim or len(spec["diffusion"]) != grid.dim:
        raise ExpressionError("drift/diffusion rows must match grid.dim")
    if any(len(row) != grid.noise_dim for row in spec["diffusion"]):
        raise ExpressionError("diffusion columns must match grid.noise_dim")
    path_vars = frozenset({"t", "T", "dt", "x", "rmax", "rint"} | {f"{v}{i}" for v in ("x", "rint") for i in range(grid.dim)})
    coeff_vars = path_vars | {"u"}
    gen_vars = coeff_vars | {"y", "z"} | {f"z{i}" for i in range(grid.noise_dim)}
    drift_fns = [compile_expression(e, coeff_vars) for e in spec["drift"]]
    diff_fns = [[compile_expression(e, coeff_vars) for e in row] for row in spec["diffusion"]]
    gen_fn = compile_expression(spec["generator"], gen_vars)
    term_fn = compile_expression(spec["terminal"], path_vars)
    horizon = grid.horizon

    def drift(p, u):
        env = path_context(p, horizon)
        env["u"] = float(u)
        return np.array([f(env) for f in drift_fns])

    def diffusion(p, u):
        env = path_context(p, horizon)
        env["u"] = float(u)
        return np.array([[f(env) for f in row] for row in diff_fns])

    def generator(p, y, z, u):
        env = path_context(p, horizon)
        env["u"] = float(u)
        env["y"] = float(y)
        for i in range(z.shape[0]):
            env[f"z{i}"] = float(z[i])
        env["z"] = float(z[0])
        return gen_fn(env)

    def terminal(p):
        return term_fn(path_context(p, horizon))

    return ControlProblem(
        drift=drift,
        diffusion=diffusion,
        generator=generator,
        terminal=terminal,
        controls=tuple(spec["controls"]),
        grid=grid,
    )
