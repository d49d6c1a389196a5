"""Named coefficient presets shared by the CLI, the tests and the acceptance
suite, plus seeded random instance factories.

Every preset is desk-scale: one-dimensional state and noise unless stated,
bounded coefficients, finite control sets. The *_solution builders return the
matching classical solutions with analytic derivatives.
"""

from __future__ import annotations

import numpy as np

from .control import ControlProblem
from .funcalc import PathFunctional, endpoint_functional, running_integral_functional
from .bshjb import AugmentedProblem
from .pathspace import GridConfig, PathError

__all__ = [
    "lq_problem",
    "lq_solution",
    "heat_problem",
    "heat_solution",
    "quartic_problem",
    "quartic_closed_form",
    "martingale_problem",
    "martingale_solution",
    "running_cost_problem",
    "running_cost_solution",
    "bangbang_problem",
    "random_problem",
    "random_augmented_problem",
    "PRESETS",
]


def _one_dimensional(grid: GridConfig) -> GridConfig:
    if grid.dim != 1 or grid.noise_dim != 1:
        raise PathError(f"one-dimensional preset needs dim = noise_dim = 1, got dim={grid.dim}, noise_dim={grid.noise_dim}")
    return grid


def lq_problem(grid: GridConfig, controls=(0.0, 0.5, 1.0)) -> ControlProblem:
    """Drift u, unit noise, running reward -u^2, terminal endpoint value.

    The per-node argmax of u - u^2 is path-independent, so open-loop
    enumeration attains the feedback value.
    """
    return ControlProblem(
        drift=lambda p, u: np.array([u]),
        diffusion=lambda p, u: np.array([[1.0]]),
        generator=lambda p, y, z, u: -u * u,
        terminal=lambda p: float(p.values[0, -1]),
        controls=tuple(controls),
        grid=_one_dimensional(grid),
    )


def lq_solution(grid: GridConfig, controls=(0.0, 0.5, 1.0)) -> PathFunctional:
    """v(gamma_t) = gamma_t(t) + max_u(u - u^2) (T - t)."""
    c = max(u - u * u for u in controls)
    return PathFunctional(
        eval=lambda p: float(p.values[0, -1]) + c * (grid.horizon - p.t),
        analytic_dt=lambda p: -c,
        analytic_dx=lambda p: np.array([1.0]),
        analytic_dxx=lambda p: np.zeros((1, 1)),
    )


def heat_problem(grid: GridConfig) -> ControlProblem:
    """Uncontrolled unit-noise martingale dynamics with terminal x^2."""
    return ControlProblem(
        drift=lambda p, u: np.zeros(1),
        diffusion=lambda p, u: np.array([[1.0]]),
        generator=lambda p, y, z, u: 0.0,
        terminal=lambda p: float(p.values[0, -1]) ** 2,
        controls=(0.0,),
        grid=_one_dimensional(grid),
    )


def heat_solution(grid: GridConfig) -> PathFunctional:
    """v(gamma_t) = gamma_t(t)^2 + (T - t)."""
    return PathFunctional(
        eval=lambda p: float(p.values[0, -1]) ** 2 + (grid.horizon - p.t),
        analytic_dt=lambda p: -1.0,
        analytic_dx=lambda p: np.array([2.0 * p.values[0, -1]]),
        analytic_dxx=lambda p: np.array([[2.0]]),
    )


def quartic_problem(grid: GridConfig) -> ControlProblem:
    """Heat dynamics with terminal x^4 (genuine discretization error)."""
    return ControlProblem(
        drift=lambda p, u: np.zeros(1),
        diffusion=lambda p, u: np.array([[1.0]]),
        generator=lambda p, y, z, u: 0.0,
        terminal=lambda p: float(p.values[0, -1]) ** 4,
        controls=(0.0,),
        grid=_one_dimensional(grid),
    )


def quartic_closed_form(x: float, t: float, horizon: float) -> float:
    """E[(x + W_{T-t})^4] = x^4 + 6 x^2 (T-t) + 3 (T-t)^2."""
    tau = horizon - t
    return x**4 + 6.0 * x**2 * tau + 3.0 * tau**2


def martingale_problem(grid: GridConfig) -> ControlProblem:
    """Unit-noise martingale with terminal endpoint value."""
    return ControlProblem(
        drift=lambda p, u: np.zeros(1),
        diffusion=lambda p, u: np.array([[1.0]]),
        generator=lambda p, y, z, u: 0.0,
        terminal=lambda p: float(p.values[0, -1]),
        controls=(0.0,),
        grid=_one_dimensional(grid),
    )


def martingale_solution(grid: GridConfig) -> PathFunctional:
    return endpoint_functional(lambda x: float(x[0]), grad=lambda x: np.array([1.0]), hess=lambda x: np.zeros((1, 1)))


def running_cost_problem(grid: GridConfig) -> ControlProblem:
    """Unit-noise martingale paying the running rectangle integral at T."""
    integral = running_integral_functional()
    return ControlProblem(
        drift=lambda p, u: np.zeros(1),
        diffusion=lambda p, u: np.array([[1.0]]),
        generator=lambda p, y, z, u: 0.0,
        terminal=integral.eval,
        controls=(0.0,),
        grid=_one_dimensional(grid),
    )


def running_cost_solution(grid: GridConfig) -> PathFunctional:
    """v(gamma_t) = sum_{j<=k} gamma(j dt) dt + gamma_t(t) (T - t).

    The horizontal derivative vanishes exactly on the grid (the new rectangle
    cancels the shrinking endpoint factor); the vertical gradient is
    (T - t) + dt because the running sum includes the current node.
    """
    integral = running_integral_functional()
    return PathFunctional(
        eval=lambda p: integral.eval(p) + float(p.values[0, -1]) * (grid.horizon - p.t),
        analytic_dt=lambda p: 0.0,
        analytic_dx=lambda p: np.array([grid.horizon - p.t + p.dt]),
        analytic_dxx=lambda p: np.zeros((1, 1)),
    )


def bangbang_problem(grid: GridConfig) -> ControlProblem:
    """Bang-bang drift u in {-1, +1}, unit noise, terminal |x|."""
    return ControlProblem(
        drift=lambda p, u: np.array([float(u)]),
        diffusion=lambda p, u: np.array([[1.0]]),
        generator=lambda p, y, z, u: 0.0,
        terminal=lambda p: abs(float(p.values[0, -1])),
        controls=(-1.0, 1.0),
        grid=_one_dimensional(grid),
    )


def random_problem(grid: GridConfig, seed: int, n_controls: int = 2, path_dependent: bool = True) -> ControlProblem:
    """Seeded bounded-coefficient instance with Lipschitz nonlinearities.

    Coefficients stay within tanh envelopes so the probed Lipschitz constant
    is small and the implicit BSDE step contracts at desk-scale dt.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, size=6)
    controls = tuple(np.round(rng.uniform(-1.0, 1.0, size=n_controls), 3))
    d, n = grid.dim, grid.noise_dim

    def hist(p):
        if not path_dependent:
            return 0.0
        return float(np.tanh(p.values.sum(axis=1)[0] * p.dt))

    def drift(p, u):
        x = p.values[:, -1]
        return a[0] * np.tanh(x) + a[1] * float(u) * np.ones(d) + a[2] * hist(p) * np.ones(d)

    def diffusion(p, u):
        x = p.values[:, -1]
        base = 0.5 + 0.25 * np.tanh(x[0]) + 0.1 * float(u)
        return base * np.eye(d, n)

    def gen(p, y, z, u):
        return float(a[3] * np.tanh(y) + a[4] * np.tanh(z[0]) + a[5] * hist(p) - 0.1 * float(u) ** 2)

    return ControlProblem(
        drift=drift,
        diffusion=diffusion,
        generator=gen,
        terminal=lambda p: float(np.tanh(p.values[0, -1]) + 0.2 * np.sqrt((p.values**2).sum(axis=0)).max()),
        controls=controls,
        grid=grid,
    )


def random_augmented_problem(steps: int, horizon: float, seed: int) -> AugmentedProblem:
    """Seeded instance with generator/terminal independent of x and u.

    Terminal pays the running max of the noise path; the generator is linear
    in y with a tanh path term, so the reduction identity applies.
    """
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.5, 0.5, size=4)

    def q_bar(omega, x, y, z, u):
        return float(c[0] + c[1] * np.tanh(omega.values[0, -1]) + c[2] * y + c[3] * np.tanh(z[0]))

    def phi_bar(omega, x):
        return float(omega.values[0].max() + 0.5 * omega.values[0, -1])

    return AugmentedProblem(
        base_drift=lambda omega, x, u: np.zeros(1),
        base_diffusion=lambda omega, x, u: np.zeros((1, 1)),
        base_generator=q_bar,
        base_terminal=phi_bar,
        controls=(0.0,),
        steps=steps,
        horizon=horizon,
        noise_dim=1,
        state_dim=1,
    )


PRESETS = {
    "lq": lq_problem,
    "heat": heat_problem,
    "quartic": quartic_problem,
    "martingale": martingale_problem,
    "running": running_cost_problem,
    "bangbang": bangbang_problem,
}


def build_preset(name: str, grid: GridConfig) -> ControlProblem:
    if name not in PRESETS:
        raise PathError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name](grid)
