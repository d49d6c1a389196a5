"""Pathwise (horizontal/vertical) derivatives by finite differences, and a
Monte Carlo verifier for the path-space chain rule.

The vertical derivatives bump only the final path value; the horizontal
derivative extends the path by holding its last value. Functionals may carry
analytic derivatives, in which case the finite-difference routines serve as
an independent cross-check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .control import _euler_path, _stack_checked
from .pathspace import Path, PathError, _count, horizontal_extension, vertical_bump

__all__ = [
    "PathFunctional",
    "bump_size",
    "vertical_gradient",
    "vertical_hessian",
    "horizontal_derivative",
    "ito_check",
    "constant_functional",
    "endpoint_functional",
    "time_functional",
    "running_integral_functional",
    "add_functionals",
    "scale_functional",
]


@dataclass(frozen=True)
class PathFunctional:
    """An evaluatable map Path -> real, optionally with analytic derivatives.

    ``analytic_dt`` returns a real, ``analytic_dx`` a d-vector and
    ``analytic_dxx`` a symmetric d x d matrix, all as functions of the path.
    """

    eval: Callable[[Path], float]
    analytic_dt: Optional[Callable[[Path], float]] = None
    analytic_dx: Optional[Callable[[Path], np.ndarray]] = None
    analytic_dxx: Optional[Callable[[Path], np.ndarray]] = None

    def __call__(self, p: Path) -> float:
        return self.eval(p)

    @property
    def has_derivatives(self) -> bool:
        return (
            self.analytic_dt is not None
            and self.analytic_dx is not None
            and self.analytic_dxx is not None
        )


@dataclass(frozen=True)
class _EndpointFunctional(PathFunctional):
    """``endpoint_functional``'s result: its four PathFunctional fields are
    derived from ``g``, ``grad`` and ``hess``, which it keeps, so that
    ``dataclasses.replace`` cannot set one apart from the others."""

    eval: Callable[[Path], float] = field(init=False)
    analytic_dt: Optional[Callable[[Path], float]] = field(init=False)
    analytic_dx: Optional[Callable[[Path], np.ndarray]] = field(init=False)
    analytic_dxx: Optional[Callable[[Path], np.ndarray]] = field(init=False)
    g: Callable[[np.ndarray], float]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        g, grad, hess, set_field = self.g, self.grad, self.hess, partial(object.__setattr__, self)
        set_field("eval", lambda p: float(g(p.values[:, -1])))
        set_field("analytic_dt", lambda p: 0.0)
        set_field("analytic_dx", (lambda p: np.array(grad(p.values[:, -1]), copy=None, ndmin=1)) if grad else None)
        set_field("analytic_dxx", (lambda p: np.array(hess(p.values[:, -1]), copy=None, ndmin=2)) if hess else None)


def bump_size(p: Path) -> float:
    """Vertical bump of the central stencils: 1e-4 * (1 + |endpoint|), which
    keeps their conditioning uniform across path magnitudes."""
    return 1e-4 * (1.0 + float(np.linalg.norm(p.values[:, -1])))


def _axis(n: int, i: int, h: float) -> np.ndarray:
    e = np.zeros(n)
    e[i] = h
    return e


def vertical_gradient(f: PathFunctional, p: Path) -> np.ndarray:
    """Central difference (f(p^{+h e_i}) - f(p^{-h e_i})) / 2h per coordinate."""
    n, h = p.d, bump_size(p)
    g = np.empty(n)
    for i in range(n):
        g[i] = (f.eval(vertical_bump(p, _axis(n, i, h))) - f.eval(vertical_bump(p, _axis(n, i, -h)))) / (2.0 * h)
    if not np.all(np.isfinite(g)):
        raise PathError("non-finite evaluation in central gradient")
    return g


def vertical_hessian(f: PathFunctional, p: Path) -> np.ndarray:
    """Second-order central stencil on endpoint bumps around f(p), symmetrized."""
    n, h, f0 = p.d, bump_size(p), f.eval(p)
    hess = np.empty((n, n))
    for i in range(n):
        ei = _axis(n, i, h)
        hess[i, i] = (f.eval(vertical_bump(p, ei)) - 2.0 * f0 + f.eval(vertical_bump(p, _axis(n, i, -h)))) / h**2
        for j in range(i + 1, n):
            ej = _axis(n, j, h)
            pp, pm, mp, mm = (f.eval(vertical_bump(p, e)) for e in (ei + ej, ei - ej, -ei + ej, -ei - ej))
            hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * h**2)
    if not np.all(np.isfinite(hess)):
        raise PathError("non-finite evaluation in central Hessian")
    return 0.5 * (hess + hess.T)


def horizontal_derivative(f: PathFunctional, p: Path) -> float:
    """Forward quotient over one grid step under hold-last-value extension."""
    return (f.eval(horizontal_extension(p, p.t_index + 1)) - f.eval(p)) / p.dt


def _jet(f: PathFunctional, paths, ends=None, copies: int = 1) -> tuple:
    """(dt_f, dx_f, dxx_f) at N = len(paths) * copies paths of one dimension d,
    as float arrays of shape (N,), (N, d) and (N, d, d), dxx_f symmetrized:
    each of f's analytic fields where present, else its finite difference,
    read once per path and stacked ``copies`` times over. A field of the wrong
    shape raises PathError naming the field. An ``endpoint_functional`` takes
    the endpoint route: dt_f is zero, and ``grad`` and ``hess`` are called once
    per row of ``ends``, the paths' (d,) endpoints (read off the paths when
    not given), without a Path; a missing one falls back to its stencil.
    Functionals derived from one take the per-path route."""
    n, d = len(paths) * copies, paths[0].d
    endpoint = isinstance(f, _EndpointFunctional)
    if endpoint:
        ends = [p.values[:, -1] for p in paths] if ends is None else ends
        dtf = np.zeros(n)
    else:
        dt_of = f.analytic_dt or partial(horizontal_derivative, f)
        dtf = _stack_checked("analytic_dt", [dt_of(p) for p in paths] * copies, (n,))
    if endpoint and f.grad:
        dxs = [np.array(f.grad(x), copy=None, ndmin=1) for x in ends]
    else:
        dx_of = f.analytic_dx or partial(vertical_gradient, f)
        dxs = [dx_of(p) for p in paths]
    dxf = _stack_checked("analytic_dx", dxs * copies, (n, d))
    if endpoint and f.hess:
        dxxs = [np.array(f.hess(x), copy=None, ndmin=2) for x in ends]
    else:
        dxx_of = f.analytic_dxx or partial(vertical_hessian, f)
        dxxs = [dxx_of(p) for p in paths]
    dxxf = _stack_checked("analytic_dxx", dxxs * copies, (n, d, d))
    return dtf, dxf, 0.5 * (dxxf + dxxf.swapaxes(-1, -2))


def ito_check(
    f: PathFunctional,
    drift: Callable[[Path], np.ndarray],
    diffusion: Callable[[Path], np.ndarray],
    p0: Path,
    end_index: int,
    n_paths: int,
    seed: int,
) -> float:
    """Mean absolute chain-rule residual over Euler paths.

    For each simulated path X the residual is

        f(X_end) - f(X_start) - sum_k [ dt_f(X_k) dt
            + 0.5 tr(dxx_f(X_k) sigma_k sigma_k^T) dt + <dx_f(X_k), dX_k> ],

    i.e. the quadratic variation is the predictable sigma sigma^T dt. The mean
    shrinks as the grid is refined for smooth functionals and vanishes
    identically for functionals affine in the endpoint. The paths come from
    the Euler stepper of ``simulate_psde``, which steps them together, and
    ``_jet`` reads the derivatives once per step at the paths the coefficients
    were read at; a non-finite state raises ``BlowupError`` before any
    derivative is taken. At the start step every path is p0, so drift,
    diffusion and the jet are read once there and stacked n_paths times. An
    ``endpoint_functional`` is read at the state's endpoint columns (``g``
    at p0 and at the last column), without a Path; functionals derived from
    one take the per-path route. drift(path) must return a
    (d,) vector and diffusion(path) a (d, n) matrix with the same n on every
    path, and f's analytic derivatives a number, a (d,) vector and a (d, d)
    matrix; else PathError.
    """
    n_paths = _count("ito_check n_paths", n_paths, 1)
    d, dt = p0.d, p0.dt
    sig_shape = []  # (d, n), n fixed by the first diffusion value
    step_rows = []  # per step, the paths read, their (N, d) endpoints and the copies of each read

    def coeffs(vals: np.ndarray):
        if step_rows:
            paths, ends, copies = [Path._wrap(x, dt) for x in vals], vals[:, :, -1], 1
        else:  # every row is p0: read once, stacked n_paths times
            paths, ends, copies = [p0], None, n_paths
        step_rows.append((paths, ends, copies))
        bs, sigs = [], []
        for p in paths:
            bs.append(drift(p))
            sigs.append(diffusion(p))
        if not sig_shape:
            sig_shape.append((d, *(np.shape(sigs[0])[-1:] or (1,))))
        return _stack_checked("drift", bs * copies, (n_paths, d)), _stack_checked("diffusion", sigs * copies, (n_paths, *sig_shape[0]))

    rng = np.random.default_rng(seed)
    f_start = f.eval(p0)
    state, records = _euler_path(coeffs, p0, end_index, n_paths, rng)
    acc = np.zeros(n_paths)
    for (paths, ends, copies), (sig, dx) in zip(step_rows, records):
        dtf, dxf, dxxf = _jet(f, paths, ends, copies)
        with np.errstate(all="ignore"):  # an overflow leaves a non-finite residual, not a warning
            tr = np.trace(dxxf @ (sig @ sig.swapaxes(-1, -2)), axis1=-2, axis2=-1)
            acc += dtf * dt + 0.5 * tr * dt + (dxf[:, None, :] @ dx[:, :, None])[:, 0, 0]
    if isinstance(f, _EndpointFunctional):
        f_end = [float(f.g(x)) for x in state[:, :, -1]]
    else:
        f_end = [f.eval(Path._wrap(x, dt)) for x in state]
    total = 0.0
    for fx, a in zip(f_end, acc.tolist()):  # in path order: np.sum would regroup the sum
        total += abs(fx - f_start - a)
    return total / n_paths


# ---------------------------------------------------------------------------
# Functional builders shared by tests, probes and the CLI presets.


def constant_functional(c: float) -> PathFunctional:
    return PathFunctional(
        eval=lambda p: c,
        analytic_dt=lambda p: 0.0,
        analytic_dx=lambda p: np.zeros(p.d),
        analytic_dxx=lambda p: np.zeros((p.d, p.d)),
    )


def endpoint_functional(
    g: Callable[[np.ndarray], float],
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> PathFunctional:
    """f(gamma_t) = g(gamma_t(t)); horizontal derivative is exactly zero.

    The result keeps ``g``, ``grad`` and ``hess``, so that ``_jet`` and
    ``ito_check`` call them at endpoint rows without a Path (the endpoint
    route); its per-path fields are derived from them, and each agrees with
    that route bit for bit."""
    return _EndpointFunctional(g, grad, hess)


def time_functional(g: Callable[[float], float], dg: Optional[Callable[[float], float]] = None) -> PathFunctional:
    """f(gamma_t) = g(t), constant in the path values."""
    return PathFunctional(
        eval=lambda p: float(g(p.t)),
        analytic_dt=(lambda p: float(dg(p.t))) if dg else None,
        analytic_dx=lambda p: np.zeros(p.d),
        analytic_dxx=lambda p: np.zeros((p.d, p.d)),
    )


def running_integral_functional() -> PathFunctional:
    """f(gamma_t) = sum_j <1, gamma(j dt)> dt over all grid nodes 0..t_index.

    The node at the current time is included, so the vertical gradient is
    dt in every coordinate and the horizontal derivative is exactly
    <1, gamma_t(t)>.
    """
    return PathFunctional(
        eval=lambda p: float(np.ones(p.d) @ p.values.sum(axis=1)) * p.dt,
        analytic_dt=lambda p: float(np.ones(p.d) @ p.values[:, -1]),
        analytic_dx=lambda p: np.ones(p.d) * p.dt,
        analytic_dxx=lambda p: np.zeros((p.d, p.d)),
    )


def _maybe_add(a, b, combine):
    if a is None or b is None:
        return None
    return lambda p: combine(a(p), b(p))


def add_functionals(f: PathFunctional, g: PathFunctional) -> PathFunctional:
    return PathFunctional(
        eval=lambda p: f.eval(p) + g.eval(p),
        analytic_dt=_maybe_add(f.analytic_dt, g.analytic_dt, operator.add),
        analytic_dx=_maybe_add(f.analytic_dx, g.analytic_dx, np.add),
        analytic_dxx=_maybe_add(f.analytic_dxx, g.analytic_dxx, np.add),
    )


def scale_functional(f: PathFunctional, c: float) -> PathFunctional:
    return PathFunctional(
        eval=lambda p: c * f.eval(p),
        analytic_dt=(lambda p: c * f.analytic_dt(p)) if f.analytic_dt else None,
        analytic_dx=(lambda p: c * np.asarray(f.analytic_dx(p))) if f.analytic_dx else None,
        analytic_dxx=(lambda p: c * np.asarray(f.analytic_dxx(p))) if f.analytic_dxx else None,
    )
