"""Tiny arithmetic expression grammar for inline coefficients.

Expressions are parsed with the Python ast module and restricted to
arithmetic (+, -, *, /, **), a short list of functions (abs, sqrt, exp, log,
sin, cos, tanh, min, max) and named variables. Which variables are available
depends on where the expression is used:

    drift / diffusion:  t, T, dt, u, x0..x9 (x aliases x0), rmax, rint0..
                        (rint aliases rint0)
    generator:          the above plus y and z0..z9 (z aliases z0)
    terminal:           path variables only (no u, y, z)

rmax is the running sup of the Euclidean norm of the path; rint_i is the
running rectangle-rule integral of coordinate i including the current node.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Mapping

__all__ = ["ExpressionError", "compile_expression", "path_context"]


class ExpressionError(ValueError):
    """Rejected expression (syntax, unknown name, or disallowed construct)."""


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


def compile_expression(text: str, variables: frozenset[str]) -> Callable[[Mapping[str, float]], float]:
    """Compile ``text`` to a closure env -> float over the given variables."""
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from None

    def build(node) -> Callable[[Mapping[str, float]], float]:
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                c = float(node.value)
                return lambda env: c
            raise ExpressionError(f"non-numeric constant {node.value!r}")
        if isinstance(node, ast.Name):
            name = node.id
            if name not in variables:
                raise ExpressionError(f"unknown variable {name!r} (allowed: {sorted(variables)})")
            return lambda env: env[name]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = build(node.operand)
            if isinstance(node.op, ast.USub):
                return lambda env: -inner(env)
            return inner
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            left, right = build(node.left), build(node.right)
            op = type(node.op)
            if op is ast.Add:
                return lambda env: left(env) + right(env)
            if op is ast.Sub:
                return lambda env: left(env) - right(env)
            if op is ast.Mult:
                return lambda env: left(env) * right(env)
            if op is ast.Div:
                return lambda env: left(env) / right(env)
            return lambda env: left(env) ** right(env)
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ExpressionError("only abs/sqrt/exp/log/sin/cos/tanh/min/max calls are allowed")
            if node.keywords:
                raise ExpressionError("keyword arguments are not allowed")
            fn = _FUNCTIONS[node.func.id]
            args = [build(a) for a in node.args]
            return lambda env: fn(*(a(env) for a in args))
        raise ExpressionError(f"disallowed syntax: {ast.dump(node)}")

    root = build(tree)

    def compiled(env: Mapping[str, float]) -> float:
        # log(0), sqrt(-1) and complex powers are faults of the expression, not of its caller
        try:
            out = root(env)
        except (ValueError, TypeError) as exc:
            raise ExpressionError(f"expression {text!r} failed to evaluate: {exc}") from None
        if isinstance(out, complex):
            raise ExpressionError(f"expression {text!r} evaluated to a complex number")
        return out

    return compiled


def path_context(path, horizon: float) -> dict[str, float]:
    """Variable bindings read off a Path: t, T, dt, endpoint, running stats."""
    import numpy as np

    env: dict[str, float] = {"t": path.t, "T": horizon, "dt": path.dt}
    end = path.values[:, -1]
    for i in range(path.d):
        env[f"x{i}"] = float(end[i])
    env["x"] = float(end[0])
    env["rmax"] = float(np.sqrt((path.values**2).sum(axis=0)).max())
    rint = path.values.sum(axis=1) * path.dt
    for i in range(path.d):
        env[f"rint{i}"] = float(rint[i])
    env["rint"] = float(rint[0])
    return env
