"""Augmentation of Brownian-path-dependent control into the path framework,
and the reduction check for coefficients independent of state and control.

The augmented state stacks the driving noise path (replayed exactly through
an identity diffusion block) on top of the controlled state, so the combined
problem is an ordinary path-dependent one with state dimension d + m and
noise dimension d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .control import ControlProblem, ControlStrategy, cost, value
from .funcalc import FDScheme, PathFunctional, _axis, _central_gradient, _central_hessian, horizontal_derivative
from .pathspace import GridConfig, Path, PathError, vertical_bump

__all__ = [
    "AugmentedProblem",
    "augment",
    "split_path",
    "stack_paths",
    "remark64_check",
    "MixedFunctional",
    "bshjb_residual",
]


@dataclass(frozen=True)
class AugmentedProblem:
    """Coefficients of a problem path-dependent in the noise, state-dependent
    in x: base_drift(omega_path, x, u) -> (m,), base_diffusion -> (m, d),
    base_generator(omega_path, x, y, z, u) -> real with z a d-vector,
    base_terminal(omega_path at horizon, x) -> real.
    """

    base_drift: Callable
    base_diffusion: Callable
    base_generator: Callable
    base_terminal: Callable
    controls: tuple
    steps: int
    horizon: float
    noise_dim: int  # d, also the driving path dimension
    state_dim: int  # m

    def __post_init__(self):
        if self.noise_dim < 1 or self.state_dim < 1:
            raise PathError("noise_dim and state_dim must be >= 1")
        object.__setattr__(self, "controls", tuple(self.controls))

    @property
    def grid(self) -> GridConfig:
        return GridConfig(self.steps, self.horizon, dim=self.noise_dim + self.state_dim, noise_dim=self.noise_dim)


def split_path(p: Path, d: int) -> tuple[Path, Path]:
    """(noise block, state block) of a stacked path; blocks share the grid."""
    if p.d <= d:
        raise PathError(f"path dimension {p.d} cannot split off a {d}-dim noise block")
    omega = p.values[:d]
    xi = p.values[d:]
    return Path._wrap(omega, p.dt), Path._wrap(xi, p.dt)


def stack_paths(omega: Path, xi: Path) -> Path:
    """Stack a noise path on top of a state path sharing the grid and time."""
    if omega.t_index != xi.t_index or omega.dt != xi.dt:
        raise PathError("stacked blocks must share grid and time")
    v = np.vstack([omega.values, xi.values])
    v.setflags(write=False)
    return Path._wrap(v, omega.dt)


def augment(ap: AugmentedProblem) -> ControlProblem:
    """Block construction: drift (0; b-bar), diffusion (I; sigma-bar),
    generator and terminal read the state block only through its endpoint.
    """
    d, m = ap.noise_dim, ap.state_dim

    def drift(p: Path, u) -> np.ndarray:
        omega, xi = split_path(p, d)
        b = np.atleast_1d(np.asarray(ap.base_drift(omega, xi.values[:, -1], u), dtype=float))
        if b.shape != (m,):
            raise PathError(f"base drift must return an ({m},) vector")
        return np.concatenate([np.zeros(d), b])

    def diffusion(p: Path, u) -> np.ndarray:
        omega, xi = split_path(p, d)
        s = np.atleast_2d(np.asarray(ap.base_diffusion(omega, xi.values[:, -1], u), dtype=float))
        if s.shape != (m, d):
            raise PathError(f"base diffusion must return an ({m}, {d}) matrix")
        return np.vstack([np.eye(d), s])

    def gen(p: Path, y: float, z: np.ndarray, u) -> float:
        omega, xi = split_path(p, d)
        return float(ap.base_generator(omega, xi.values[:, -1], y, z, u))

    def term(p: Path) -> float:
        omega, xi = split_path(p, d)
        return float(ap.base_terminal(omega, xi.values[:, -1]))

    return ControlProblem(
        drift=drift,
        diffusion=diffusion,
        generator=gen,
        terminal=term,
        controls=ap.controls,
        grid=ap.grid,
    )


def _check_xu_free(ap: AugmentedProblem, seed: int, tol: float) -> None:
    rng = np.random.default_rng(seed)
    d = ap.noise_dim
    dt = ap.horizon / ap.steps
    for _ in range(6):
        k = int(rng.integers(0, ap.steps + 1))
        omega = Path(rng.normal(size=(d, k + 1)), dt)
        y = float(rng.normal())
        z = rng.normal(size=d)
        xs = [rng.normal(size=ap.state_dim) for _ in range(3)]
        q_ref = ap.base_generator(omega, xs[0], y, z, ap.controls[0])
        for x in xs:
            for u in ap.controls:
                if abs(ap.base_generator(omega, x, y, z, u) - q_ref) > tol:
                    raise PathError("generator depends on x or u; reduction check not applicable")
        f_ref = ap.base_terminal(omega, xs[0])
        for x in xs:
            if abs(ap.base_terminal(omega, x) - f_ref) > tol:
                raise PathError("terminal depends on x; reduction check not applicable")


def remark64_check(
    ap: AugmentedProblem,
    p_omega: Path,
    tolerance: float = 1e-12,
    x0: float | np.ndarray = 0.0,
) -> float:
    """|direct noise-path BSDE value - augmented value| at the noise path.

    Requires base generator and terminal independent of x and u (probed with
    ``tolerance``). The direct side solves the BSDE driven by the noise path
    alone on the exact tree; the augmented side runs the full value
    functional of the block problem started from (p_omega; constant x0).
    """
    if p_omega.d != ap.noise_dim:
        raise PathError("noise path dimension must match the problem noise_dim")
    _check_xu_free(ap, seed=0, tol=tolerance)
    d = ap.noise_dim
    u0 = ap.controls[0]
    x_fill = np.zeros(ap.state_dim) + np.asarray(x0, dtype=float)

    noise_cp = ControlProblem(
        drift=lambda p, u: np.zeros(d),
        diffusion=lambda p, u: np.eye(d),
        generator=lambda p, y, z, u: float(ap.base_generator(p, x_fill, y, z, u)),
        terminal=lambda p: float(ap.base_terminal(p, x_fill)),
        controls=(u0,),
        grid=GridConfig(ap.steps, ap.horizon, dim=d, noise_dim=d),
    )
    direct = cost(noise_cp, p_omega, ControlStrategy.constant(u0))

    xi0 = Path.constant(x_fill, p_omega.t_index, p_omega.dt)
    combined = stack_paths(p_omega, xi0)
    augmented = value(augment(ap), combined)
    return abs(direct - augmented)


@dataclass(frozen=True)
class MixedFunctional:
    """Functional v(omega_path, x) with optional analytic derivatives.

    Derivative fields mirror the mixed equation: dt (horizontal in omega),
    dgamma/dgammagamma (vertical in omega), dx/dxx (classical in x), and
    dxgamma with shape (m, d) holding d/dx_i of dgamma_j. Missing pieces fall
    back to finite differences.
    """

    eval: Callable[[Path, np.ndarray], float]
    dt: Optional[Callable] = None
    dgamma: Optional[Callable] = None
    dgammagamma: Optional[Callable] = None
    dx: Optional[Callable] = None
    dxx: Optional[Callable] = None
    dxgamma: Optional[Callable] = None

    def __call__(self, omega: Path, x) -> float:
        return float(self.eval(omega, np.atleast_1d(np.asarray(x, dtype=float))))


def _mixed_derivatives(v: MixedFunctional, omega: Path, x: np.ndarray, f0: float, scheme: FDScheme, end_index: Optional[int]):
    """(dt, dgamma, dgammagamma, dx, dxx, dxgamma) of v at (omega, x), with
    f0 = v(omega, x): analytic fields where given, else the funcalc stencils
    with one bump size in omega and in x. Only the (x, omega) cross stencil
    is local.
    """
    d = omega.d
    m = x.shape[0]
    h = scheme.h_vertical * (1.0 + float(np.linalg.norm(omega.values[:, -1])) + float(np.linalg.norm(x)))

    def in_omega(e):
        return v(vertical_bump(omega, e), x)

    def in_x(e):
        return v(omega, x + e)

    def field(fn, shape, fallback):
        return fallback() if fn is None else shape(np.asarray(fn(omega, x), dtype=float))

    if v.dt is not None:
        dt_v = float(v.dt(omega, x))
    else:
        dt_v = horizontal_derivative(PathFunctional(lambda om: v(om, x)), omega, scheme, end_index)
    dg = field(v.dgamma, np.atleast_1d, lambda: _central_gradient(in_omega, d, h))
    dgg = field(v.dgammagamma, np.atleast_2d, lambda: _central_hessian(in_omega, d, h, f0))
    dxv = field(v.dx, np.atleast_1d, lambda: _central_gradient(in_x, m, h))
    dxxv = field(v.dxx, np.atleast_2d, lambda: _central_hessian(in_x, m, h, f0))
    if v.dxgamma is not None:
        dxg = np.atleast_2d(np.asarray(v.dxgamma(omega, x), dtype=float))
    else:
        dxg = np.empty((m, d))
        for i in range(m):
            x_up = x + _axis(m, i, h)
            x_dn = x + _axis(m, i, -h)
            for j in range(d):
                om_up = vertical_bump(omega, _axis(d, j, h))
                om_dn = vertical_bump(omega, _axis(d, j, -h))
                cross = v(om_up, x_up) - v(om_dn, x_up) - v(om_up, x_dn) + v(om_dn, x_dn)
                dxg[i, j] = cross / (4 * h**2)
    return dt_v, dg, dgg, dxv, dxxv, dxg


def bshjb_residual(
    ap: AugmentedProblem,
    v: MixedFunctional,
    point: tuple[Path, float | np.ndarray],
    scheme: FDScheme = FDScheme(),
) -> float:
    """Mixed residual at (omega_t, x):

    dt_v + sup_u [ <dx_v, b-bar> + 0.5 tr(dxx_v sigma-bar sigma-bar^T)
        + 0.5 tr(dgammagamma_v) + tr(sigma-bar^T dxgamma_v)
        + q-bar(omega, x, v, dgamma_v + sigma-bar^T dx_v, u) ];

    zero for classical solutions of the mixed equation.
    """
    omega, x_in = point
    x = np.atleast_1d(np.asarray(x_in, dtype=float))
    if omega.d != ap.noise_dim or x.shape != (ap.state_dim,):
        raise PathError("point must be (noise path, m-vector state)")
    v0 = v(omega, x)
    dt_v, dg, dgg, dxv, dxxv, dxg = _mixed_derivatives(v, omega, x, v0, scheme, ap.steps)
    best = -np.inf
    for u in ap.controls:
        b = np.atleast_1d(np.asarray(ap.base_drift(omega, x, u), dtype=float))
        sig = np.atleast_2d(np.asarray(ap.base_diffusion(omega, x, u), dtype=float))
        term = float(dxv @ b)
        term += 0.5 * float(np.trace(dxxv @ (sig @ sig.T)))
        term += 0.5 * float(np.trace(dgg))
        term += float(np.trace(sig.T @ dxg))
        z = dg + sig.T @ dxv
        term += float(ap.base_generator(omega, x, v0, z, u))
        best = max(best, term)
    return dt_v + best
