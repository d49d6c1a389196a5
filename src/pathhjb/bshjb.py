"""Augmentation of Brownian-path-dependent control into the path framework,
and the reduction check for coefficients independent of state and control.

The augmented state stacks the driving noise path (replayed exactly through
an identity diffusion block) on top of the controlled state, so the combined
problem is an ordinary path-dependent one with state dimension d + m and
noise dimension d; the mixed residual is its PHJB residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .control import BoundGenerator, ControlProblem, ControlStrategy, _stack_checked, cost, value
from .funcalc import PathFunctional
from .pathspace import GridConfig, Path, PathError, _count
from .phjb import phjb_residual

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
    in x, as array forms (see ControlProblem) over N noise paths ``omega``,
    an (N, d, K) array, their states ``x``, an (N, m) array, and N controls
    ``us``: base_drift(omega, x, us) -> (N, m), base_diffusion(omega, x, us)
    -> (N, m, d), base_generator(omega, x, y, z, us) -> (N,) with y (N,) and
    z (N, d), base_terminal(omega at horizon, x) -> (N,). The base generator
    may be a BoundGenerator, which ``augment`` and ``remark64_check`` bind as
    it binds.
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
        for name in ("noise_dim", "state_dim"):
            object.__setattr__(self, name, _count(name, getattr(self, name), 1))
        object.__setattr__(self, "controls", tuple(self.controls))
        self.grid  # refuses a bad steps or horizon at construction, not at the first read

    @property
    def grid(self) -> GridConfig:
        return GridConfig(self.steps, self.horizon, dim=self.noise_dim + self.state_dim, noise_dim=self.noise_dim)


def split_path(p: Path, d: int) -> tuple[Path, Path]:
    """(noise block, state block) of a stacked path; blocks share the grid."""
    d = _count(f"noise block dimension of a {p.d}-dim path", d, 1, p.d - 1)
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


def _generator_through(ap: AugmentedProblem, head: Callable) -> Callable:
    """The generator form (vals, y, z, us) -> ap.base_generator(*head(vals), y, z, us):
    a BoundGenerator, bound as the base binds, when the base is one."""
    base = ap.base_generator
    if isinstance(base, BoundGenerator):
        return base.through(head)
    return lambda vals, y, z, us: base(*head(vals), y, z, us)


def augment(ap: AugmentedProblem) -> ControlProblem:
    """Block construction: drift (0; b-bar), diffusion (I; sigma-bar),
    generator and terminal read the state block only through its endpoint.
    """
    d, m = ap.noise_dim, ap.state_dim

    def blocks(vals):
        return vals[:, :d], vals[:, d:, -1]

    def drift(vals, us):
        b = _stack_checked("base drift", ap.base_drift(*blocks(vals), us), (vals.shape[0], m))
        return np.concatenate([np.zeros((vals.shape[0], d)), b], axis=1)

    def diffusion(vals, us):
        s = _stack_checked("base diffusion", ap.base_diffusion(*blocks(vals), us), (vals.shape[0], m, d))
        return np.concatenate([np.broadcast_to(np.eye(d), (vals.shape[0], d, d)), s], axis=1)

    return ControlProblem(
        drift=drift,
        diffusion=diffusion,
        generator=_generator_through(ap, blocks),
        terminal=lambda vals: ap.base_terminal(*blocks(vals)),
        controls=ap.controls,
        grid=ap.grid,
    )


def _check_xu_free(ap: AugmentedProblem) -> None:
    """Probe six random noise paths, each at three states under every control,
    in one generator and one terminal call per path."""
    rng = np.random.default_rng(0)
    d, n_u = ap.noise_dim, len(ap.controls)
    for _ in range(6):
        k = int(rng.integers(0, ap.steps + 1))
        omega = rng.normal(size=(1, d, k + 1))
        y = float(rng.normal())
        z = rng.normal(size=d)
        xs = np.array([rng.normal(size=ap.state_dim) for _ in range(3)])
        n = 3 * n_u  # rows (x, u), x-major
        args = np.repeat(omega, n, axis=0), np.repeat(xs, n_u, axis=0), np.full(n, y), np.tile(z, (n, 1)), ap.controls * 3
        q = _stack_checked("base generator", ap.base_generator(*args), (n,))
        if np.any(np.abs(q - q[0]) > 1e-12):
            raise PathError("generator depends on x or u; reduction check not applicable")
        f = _stack_checked("base terminal", ap.base_terminal(np.repeat(omega, 3, axis=0), xs), (3,))
        if np.any(np.abs(f - f[0]) > 1e-12):
            raise PathError("terminal depends on x; reduction check not applicable")


def remark64_check(ap: AugmentedProblem, p_omega: Path) -> float:
    """|direct noise-path BSDE value - augmented value| at the noise path.

    Requires base generator and terminal independent of x and u (probed to
    within 1e-12), so the value does not depend on the state start. The
    direct side solves the BSDE driven by the noise path alone on the exact
    tree; the augmented side runs the full value functional of the block
    problem started from (p_omega; constant 0).
    """
    if p_omega.d != ap.noise_dim:
        raise PathError("noise path dimension must match the problem noise_dim")
    _check_xu_free(ap)
    d, m = ap.noise_dim, ap.state_dim
    u0 = ap.controls[0]

    noise_cp = ControlProblem(
        drift=lambda vals, us: np.zeros((vals.shape[0], d)),
        diffusion=lambda vals, us: np.broadcast_to(np.eye(d), (vals.shape[0], d, d)),
        generator=_generator_through(ap, lambda vals: (vals, np.zeros((vals.shape[0], m)))),
        terminal=lambda vals: ap.base_terminal(vals, np.zeros((vals.shape[0], m))),
        controls=(u0,),
        grid=GridConfig(ap.steps, ap.horizon, dim=d, noise_dim=d),
    )
    direct = cost(noise_cp, p_omega, ControlStrategy.constant(u0))

    xi0 = Path.constant(np.zeros(m), p_omega.t_index, p_omega.dt)
    combined = stack_paths(p_omega, xi0)
    augmented = value(augment(ap), combined)
    return abs(direct - augmented)


@dataclass(frozen=True)
class MixedFunctional:
    """Functional v(omega_path, x) with optional analytic derivatives.

    Derivative fields mirror the mixed equation: dt (horizontal in omega),
    dgamma/dgammagamma (vertical in omega), dx/dxx (classical in x), and
    dxgamma with shape (m, d) holding d/dx_i of dgamma_j. They come in whole
    groups or not at all: dt; dgamma with dx; dgammagamma with dxx and
    dxgamma. A missing group falls back to finite differences.
    """

    eval: Callable[[Path, np.ndarray], float]
    dt: Optional[Callable] = None
    dgamma: Optional[Callable] = None
    dgammagamma: Optional[Callable] = None
    dx: Optional[Callable] = None
    dxx: Optional[Callable] = None
    dxgamma: Optional[Callable] = None

    def __post_init__(self):
        for group in (("dt",), ("dgamma", "dx"), ("dgammagamma", "dxx", "dxgamma")):
            if len({getattr(self, f) is None for f in group}) > 1:
                raise PathError(f"derivative fields {', '.join(group)} must be given together or not at all")

    def __call__(self, omega: Path, x) -> float:
        return float(self.eval(omega, np.atleast_1d(np.asarray(x, dtype=float))))


def _stacked(v: MixedFunctional, d: int) -> PathFunctional:
    """v on stacked paths (omega; xi), reading xi only at its endpoint. Its
    analytic gradient is (dgamma; dx) and its Hessian the block matrix
    [[dgammagamma, dxgamma^T], [dxgamma, dxx]], where v gives them."""

    def at(fn):
        def on_stacked(p: Path):
            omega, xi = split_path(p, d)
            return fn(omega, xi.values[:, -1])

        return on_stacked

    def grad(omega, x):
        return np.concatenate([np.atleast_1d(v.dgamma(omega, x)), np.atleast_1d(v.dx(omega, x))])

    def hess(omega, x):
        cross = np.atleast_2d(v.dxgamma(omega, x))
        return np.block([[np.atleast_2d(v.dgammagamma(omega, x)), cross.T], [cross, np.atleast_2d(v.dxx(omega, x))]])

    return PathFunctional(
        eval=at(v),
        analytic_dt=at(v.dt) if v.dt else None,
        analytic_dx=at(grad) if v.dx else None,
        analytic_dxx=at(hess) if v.dxx else None,
    )


def bshjb_residual(ap: AugmentedProblem, v: MixedFunctional, point: tuple[Path, float | np.ndarray]) -> float:
    """Mixed residual at (omega_t, x), t before the horizon:

    dt_v + sup_u [ <dx_v, b-bar> + 0.5 tr(dxx_v sigma-bar sigma-bar^T)
        + 0.5 tr(dgammagamma_v) + tr(sigma-bar^T dxgamma_v)
        + q-bar(omega, x, v, dgamma_v + sigma-bar^T dx_v, u) ];

    zero for classical solutions of the mixed equation. It is the PHJB
    residual of ``augment(ap)`` at the stacked path (omega; constant x), so
    the derivatives v lacks come from the funcalc stencils on the stacked
    endpoint.
    """
    omega, x_in = point
    x = np.atleast_1d(np.asarray(x_in, dtype=float))
    if omega.d != ap.noise_dim or x.shape != (ap.state_dim,):
        raise PathError("point must be (noise path, m-vector state)")
    stacked = stack_paths(omega, Path.constant(x, omega.t_index, omega.dt))
    return phjb_residual(augment(ap), _stacked(v, ap.noise_dim), stacked)
