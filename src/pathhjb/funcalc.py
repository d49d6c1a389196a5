"""Pathwise (horizontal/vertical) derivatives by finite differences, and a
Monte Carlo verifier for the path-space chain rule.

The vertical derivatives bump only the final path value; the horizontal
derivative extends the path by holding its last value. Functionals may carry
analytic derivatives, in which case the finite-difference routines serve as
an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .control import _euler_path
from .pathspace import Path, PathError, horizontal_extension, restrict, vertical_bump

__all__ = [
    "PathFunctional",
    "FDScheme",
    "vertical_gradient",
    "vertical_hessian",
    "horizontal_derivative",
    "ito_check",
    "time_derivative",
    "space_gradient",
    "space_hessian",
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
class FDScheme:
    """Finite-difference parameters: vertical bump size and horizontal step count.

    The effective vertical bump is h_vertical * (1 + |endpoint|), which keeps
    the stencil conditioning uniform across path magnitudes.
    """

    h_vertical: float = 1e-4
    h_horizontal: int = 1

    def __post_init__(self):
        if not self.h_vertical > 0:
            raise PathError("h_vertical must be > 0")
        if self.h_horizontal < 1:
            raise PathError("h_horizontal must be >= 1 grid step")

    def bump_size(self, p: Path) -> float:
        return self.h_vertical * (1.0 + float(np.linalg.norm(p.values[:, -1])))


def _axis(n: int, i: int, h: float) -> np.ndarray:
    e = np.zeros(n)
    e[i] = h
    return e


def _central_gradient(shift: Callable[[np.ndarray], float], n: int, h: float) -> np.ndarray:
    """Central difference (f(+h e_i) - f(-h e_i)) / 2h per coordinate, f = shift."""
    g = np.empty(n)
    for i in range(n):
        g[i] = (shift(_axis(n, i, h)) - shift(_axis(n, i, -h))) / (2.0 * h)
    if not np.all(np.isfinite(g)):
        raise PathError("non-finite evaluation in central gradient")
    return g


def _central_hessian(shift: Callable[[np.ndarray], float], n: int, h: float, f0: float) -> np.ndarray:
    """Second-order central stencil around f0 = shift(0), symmetrized."""
    hess = np.empty((n, n))
    for i in range(n):
        ei = _axis(n, i, h)
        hess[i, i] = (shift(ei) - 2.0 * f0 + shift(_axis(n, i, -h))) / h**2
        for j in range(i + 1, n):
            ej = _axis(n, j, h)
            cross = shift(ei + ej) - shift(ei - ej) - shift(-ei + ej) + shift(-ei - ej)
            hess[i, j] = hess[j, i] = cross / (4.0 * h**2)
    if not np.all(np.isfinite(hess)):
        raise PathError("non-finite evaluation in central Hessian")
    return 0.5 * (hess + hess.T)


def vertical_gradient(f: PathFunctional, p: Path, scheme: FDScheme = FDScheme()) -> np.ndarray:
    """Central difference (f(p^{+h e_i}) - f(p^{-h e_i})) / 2h per coordinate."""
    return _central_gradient(lambda e: f.eval(vertical_bump(p, e)), p.d, scheme.bump_size(p))


def vertical_hessian(f: PathFunctional, p: Path, scheme: FDScheme = FDScheme()) -> np.ndarray:
    """Second-order central stencil on endpoint bumps, symmetrized."""
    return _central_hessian(lambda e: f.eval(vertical_bump(p, e)), p.d, scheme.bump_size(p), f.eval(p))


def horizontal_derivative(
    f: PathFunctional,
    p: Path,
    scheme: FDScheme = FDScheme(),
    end_index: int | None = None,
) -> float:
    """Forward quotient under hold-last-value extension.

    At the final grid node (t_index + step would pass end_index) the
    left-limit convention applies: the quotient is evaluated at the path
    restricted to t_index - step.
    """
    h = scheme.h_horizontal
    if end_index is not None and p.t_index + h > end_index:
        if p.t_index - h < 0:
            raise PathError("grid exhausted at both ends for horizontal derivative")
        base = restrict(p, p.t_index - h)
        return (f.eval(horizontal_extension(base, p.t_index)) - f.eval(base)) / (h * p.dt)
    return (f.eval(horizontal_extension(p, p.t_index + h)) - f.eval(p)) / (h * p.dt)


def time_derivative(
    f: PathFunctional, p: Path, scheme: FDScheme = FDScheme(), end_index: int | None = None
) -> float:
    """Analytic horizontal derivative if present, else finite difference."""
    if f.analytic_dt is not None:
        return float(f.analytic_dt(p))
    return horizontal_derivative(f, p, scheme, end_index)


def space_gradient(f: PathFunctional, p: Path, scheme: FDScheme = FDScheme()) -> np.ndarray:
    if f.analytic_dx is not None:
        return np.atleast_1d(np.asarray(f.analytic_dx(p), dtype=float))
    return vertical_gradient(f, p, scheme)


def space_hessian(f: PathFunctional, p: Path, scheme: FDScheme = FDScheme()) -> np.ndarray:
    if f.analytic_dxx is not None:
        h = np.asarray(f.analytic_dxx(p), dtype=float)
        return 0.5 * (h + h.T)
    return vertical_hessian(f, p, scheme)


def ito_check(
    f: PathFunctional,
    drift: Callable[[Path], np.ndarray],
    diffusion: Callable[[Path], np.ndarray],
    p0: Path,
    end_index: int,
    n_paths: int,
    seed: int,
    scheme: FDScheme = FDScheme(),
) -> float:
    """Mean absolute chain-rule residual over Euler paths.

    For each simulated path X the residual is

        f(X_end) - f(X_start) - sum_k [ dt_f(X_k) dt
            + 0.5 tr(dxx_f(X_k) sigma_k sigma_k^T) dt + <dx_f(X_k), dX_k> ],

    i.e. the quadratic variation is the predictable sigma sigma^T dt. The mean
    shrinks as the grid is refined for smooth functionals and vanishes
    identically for functionals affine in the endpoint. The paths come from
    the Euler stepper of ``simulate_psde``; a non-finite state raises
    ``BlowupError``. drift(path) must return a (d,) vector and diffusion(path)
    a matrix with d rows, and n_paths must be at least 1; else PathError.
    """
    def coeffs(pk: Path):
        b, sig = np.asarray(drift(pk), dtype=float), np.asarray(diffusion(pk), dtype=float)
        if b.shape != (p0.d,) or sig.ndim != 2 or sig.shape[0] != p0.d:
            raise PathError(f"drift must return shape ({p0.d},) and diffusion ({p0.d}, n), got {b.shape} and {sig.shape}")
        return b, sig

    if n_paths < 1:
        raise PathError(f"ito_check needs n_paths >= 1, got {n_paths}")
    rng = np.random.default_rng(seed)
    dt = p0.dt
    total = 0.0
    f_start = f.eval(p0)
    for _ in range(n_paths):
        p_end, records = _euler_path(coeffs, p0, end_index, rng)
        acc = 0.0
        for pk, sig, dx in records:
            dtf = time_derivative(f, pk, scheme)
            dxf = space_gradient(f, pk, scheme)
            dxxf = space_hessian(f, pk, scheme)
            acc += dtf * dt + 0.5 * float(np.trace(dxxf @ (sig @ sig.T))) * dt + float(dxf @ dx)
        total += abs(f.eval(p_end) - f_start - acc)
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
    """f(gamma_t) = g(gamma_t(t)); horizontal derivative is exactly zero."""
    return PathFunctional(
        eval=lambda p: float(g(p.values[:, -1])),
        analytic_dt=lambda p: 0.0,
        analytic_dx=(lambda p: np.atleast_1d(grad(p.values[:, -1]))) if grad else None,
        analytic_dxx=(lambda p: np.atleast_2d(hess(p.values[:, -1]))) if hess else None,
    )


def time_functional(g: Callable[[float], float], dg: Optional[Callable[[float], float]] = None) -> PathFunctional:
    """f(gamma_t) = g(t), constant in the path values."""
    return PathFunctional(
        eval=lambda p: float(g(p.t)),
        analytic_dt=(lambda p: float(dg(p.t))) if dg else None,
        analytic_dx=lambda p: np.zeros(p.d),
        analytic_dxx=lambda p: np.zeros((p.d, p.d)),
    )


def running_integral_functional(weights=None) -> PathFunctional:
    """f(gamma_t) = sum_j <w, gamma(j dt)> dt over all grid nodes 0..t_index.

    The node at the current time is included, so the vertical gradient is
    w*dt and the horizontal derivative is exactly <w, gamma_t(t)>.
    """

    def w_of(p: Path) -> np.ndarray:
        if weights is None:
            return np.ones(p.d)
        return np.atleast_1d(np.asarray(weights, dtype=float))

    return PathFunctional(
        eval=lambda p: float(w_of(p) @ p.values.sum(axis=1)) * p.dt,
        analytic_dt=lambda p: float(w_of(p) @ p.values[:, -1]),
        analytic_dx=lambda p: w_of(p) * p.dt,
        analytic_dxx=lambda p: np.zeros((p.d, p.d)),
    )


def _maybe_add(a, b, combine):
    if a is None or b is None:
        return None
    return lambda p: combine(a(p), b(p))


def add_functionals(f: PathFunctional, g: PathFunctional) -> PathFunctional:
    import operator

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
