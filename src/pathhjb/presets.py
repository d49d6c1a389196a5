"""Named coefficient presets shared by the CLI, the tests and the acceptance
suite, plus seeded random instance factories.

Every preset is desk-scale: one-dimensional state and noise unless stated,
bounded coefficients, finite control sets. The *_solution builders return the
matching classical solutions with analytic derivatives.

Every coefficient is an array form (see ControlProblem). Powers are taken by
Python per element, as numpy's ** rounds differently from libm.
"""

from __future__ import annotations

import numpy as np

from .control import BoundGenerator, ControlProblem
from .funcalc import PathFunctional, endpoint_functional, running_integral_functional
from .bshjb import AugmentedProblem
from .pathspace import GridConfig, PathError, _count, _sq_cols

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


def _unit_noise(vals, us):
    return np.ones((vals.shape[0], 1, 1))


def _zero_drift(vals, us):
    return np.zeros((vals.shape[0], 1))


def _zero_generator(vals, y, z, us):
    return np.zeros(vals.shape[0])


def _control_drift(vals, us):
    """Drift u."""
    return np.asarray(us, dtype=float).reshape(-1, 1)


def _endpoint_terminal(fn):
    """Terminal fn(x) of the endpoint x, with fn applied by Python per element."""
    per_element = np.frompyfunc(fn, 1, 1)

    def terminal(vals):
        return per_element(vals[:, 0, -1]).astype(float)

    return terminal


def _endpoint(vals):
    return vals[:, 0, -1]


def _uncontrolled(grid: GridConfig, terminal) -> ControlProblem:
    """Zero drift, unit noise, zero generator and the single control 0."""
    return ControlProblem(
        drift=_zero_drift,
        diffusion=_unit_noise,
        generator=_zero_generator,
        terminal=terminal,
        controls=(0.0,),
        grid=_one_dimensional(grid),
    )


_LQ_CONTROLS = (0.0, 0.5, 1.0)


def lq_problem(grid: GridConfig) -> ControlProblem:
    """Drift u, unit noise, running reward -u^2, terminal endpoint value.

    The per-node argmax of u - u^2 is path-independent, so open-loop
    enumeration attains the feedback value.
    """
    def reward(vals, y, z, us):
        u = np.asarray(us, dtype=float)
        return -u * u

    return ControlProblem(
        drift=_control_drift,
        diffusion=_unit_noise,
        generator=reward,
        terminal=_endpoint,
        controls=_LQ_CONTROLS,
        grid=_one_dimensional(grid),
    )


def lq_solution(grid: GridConfig) -> PathFunctional:
    """v(gamma_t) = gamma_t(t) + max_u(u - u^2) (T - t)."""
    c = max(u - u * u for u in _LQ_CONTROLS)
    return PathFunctional(
        eval=lambda p: float(p.values[0, -1]) + c * (grid.horizon - p.t),
        analytic_dt=lambda p: -c,
        analytic_dx=lambda p: np.array([1.0]),
        analytic_dxx=lambda p: np.zeros((1, 1)),
    )


def heat_problem(grid: GridConfig) -> ControlProblem:
    """Uncontrolled unit-noise martingale dynamics with terminal x^2."""
    return _uncontrolled(grid, _endpoint_terminal(lambda x: x**2))


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
    return _uncontrolled(grid, _endpoint_terminal(lambda x: x**4))


def quartic_closed_form(x: float, t: float, horizon: float) -> float:
    """E[(x + W_{T-t})^4] = x^4 + 6 x^2 (T-t) + 3 (T-t)^2."""
    tau = horizon - t
    return x**4 + 6.0 * x**2 * tau + 3.0 * tau**2


def martingale_problem(grid: GridConfig) -> ControlProblem:
    """Unit-noise martingale with terminal endpoint value."""
    return _uncontrolled(grid, _endpoint)


def martingale_solution(grid: GridConfig) -> PathFunctional:
    return endpoint_functional(lambda x: float(x[0]), grad=lambda x: np.array([1.0]), hess=lambda x: np.zeros((1, 1)))


def running_cost_problem(grid: GridConfig) -> ControlProblem:
    """Unit-noise martingale paying the running rectangle integral at T."""
    dt = grid.dt

    def integral(vals):
        return vals[:, 0].sum(axis=1) * dt

    return _uncontrolled(grid, integral)


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
        drift=_control_drift,
        diffusion=_unit_noise,
        generator=_zero_generator,
        terminal=lambda vals: np.abs(vals[:, 0, -1]),
        controls=(-1.0, 1.0),
        grid=_one_dimensional(grid),
    )


def random_problem(grid: GridConfig, seed: int, n_controls: int = 2) -> ControlProblem:
    """Seeded bounded-coefficient instance with Lipschitz nonlinearities.

    Coefficients stay within tanh envelopes so the probed Lipschitz constant
    is small and the implicit BSDE step contracts at desk-scale dt. The
    history term is tanh of the running integral of the first coordinate.
    The generator a3 tanh(y) + a4 tanh(z) + a5 hist - 0.1 u^2 is a
    BoundGenerator: its z, history and control terms are read once per
    implicit solve, and each fixed-point round adds them to a3 tanh(y).
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, size=6)
    controls = tuple(np.round(rng.uniform(-1.0, 1.0, size=_count("n_controls", n_controls, 1)), 3))
    d, n, dt = grid.dim, grid.noise_dim, grid.dt
    square = np.frompyfunc(lambda u: float(u) ** 2, 1, 1)  # Python's **, per element

    def hist(vals):
        return np.tanh(vals[:, 0].sum(axis=1) * dt)

    def drift(vals, us):
        u = np.asarray(us, dtype=float)
        return a[0] * np.tanh(vals[:, :, -1]) + (a[1] * u)[:, None] + (a[2] * hist(vals))[:, None]

    def diffusion(vals, us):
        base = 0.5 + 0.25 * np.tanh(vals[:, 0, -1]) + 0.1 * np.asarray(us, dtype=float)
        return base[:, None, None] * np.eye(d, n)

    def gen(vals, z, us):
        b, c, e = a[4] * np.tanh(z[:, 0]), a[5] * hist(vals), 0.1 * square(us).astype(float)
        return lambda y: a[3] * np.tanh(y) + b + c - e

    def terminal(vals):
        return np.tanh(vals[:, 0, -1]) + 0.2 * np.sqrt(_sq_cols(vals)).max(axis=1)

    return ControlProblem(drift=drift, diffusion=diffusion, generator=BoundGenerator(gen), terminal=terminal, controls=controls, grid=grid)


def random_augmented_problem(steps: int, horizon: float, seed: int) -> AugmentedProblem:
    """Seeded instance with generator/terminal independent of x and u.

    Terminal pays the running max of the noise path; the generator is linear
    in y with a tanh path term, so the reduction identity applies. The
    generator c0 + c1 tanh(omega) + c2 y + c3 tanh(z) is a BoundGenerator: its
    path and z terms are read once per implicit solve, and each fixed-point
    round adds c2 y between them, in the old left-to-right order.
    """
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.5, 0.5, size=4)

    def q_bar(omega, x, z, us):
        a, b = c[0] + c[1] * np.tanh(omega[:, 0, -1]), c[3] * np.tanh(z[:, 0])
        return lambda y: a + c[2] * y + b

    def phi_bar(omega, x):
        return omega[:, 0].max(axis=1) + 0.5 * omega[:, 0, -1]

    return AugmentedProblem(
        base_drift=lambda omega, x, us: np.zeros((omega.shape[0], 1)),
        base_diffusion=lambda omega, x, us: np.zeros((omega.shape[0], 1, 1)),
        base_generator=BoundGenerator(q_bar),
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
