"""Hamiltonian, generator, residual checks for classical/viscosity solutions,
the Markovian finite-difference oracle, and the doubling-of-variables
auxiliary functional.

Viscosity probes verify touch-point conditions on a seeded finite cloud of
later paths; a probe never claims more than cloud-maximality. The smooth
test-functional slice used by probes and tests is {quadratic in the endpoint}
+ {multiples of the anchored gauge functional} + {affine in t}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .control import ControlProblem, value
from .funcalc import (
    FDScheme,
    PathFunctional,
    space_gradient,
    space_hessian,
    time_derivative,
    vertical_gradient,
    vertical_hessian,
)
from .gauge import GaugeParams, upsilon, upsilon_single
from .pathspace import GridConfig, Path, PathError
from .sampling import path_cloud

__all__ = [
    "SmoothFunctional",
    "HamiltonianInput",
    "hamiltonian",
    "generator",
    "phjb_residual",
    "ProbeResult",
    "subsolution_probe",
    "supersolution_probe",
    "MarkovProblem",
    "MarkovProbeError",
    "CFLError",
    "XGrid",
    "markovian_reduction",
    "markov_fd_solve",
    "markov_consistency",
    "ConsistencyReport",
    "comparison_psi",
]


@dataclass(frozen=True)
class SmoothFunctional(PathFunctional):
    """A PathFunctional whose three analytic derivatives are all present."""

    def __post_init__(self):
        if not self.has_derivatives:
            raise PathError("SmoothFunctional requires analytic dt, dx and dxx")

    @classmethod
    def from_functional(cls, f: PathFunctional) -> "SmoothFunctional":
        return cls(f.eval, f.analytic_dt, f.analytic_dx, f.analytic_dxx)

    def spot_check(self, paths: Sequence[Path], scheme: FDScheme = FDScheme(), rtol: float = 1e-4) -> None:
        """Assert analytic-vs-FD agreement on the given probe paths."""
        for p in paths:
            g_fd = vertical_gradient(self, p, scheme)
            g_an = np.atleast_1d(self.analytic_dx(p))
            scale = max(1.0, float(np.linalg.norm(g_an)))
            if np.linalg.norm(g_fd - g_an) > rtol * scale:
                raise PathError(f"analytic gradient disagrees with FD at {p!r}")
            h_fd = vertical_hessian(self, p, scheme)
            h_an = np.atleast_2d(self.analytic_dxx(p))
            scale = max(1.0, float(np.linalg.norm(h_an)))
            if np.linalg.norm(h_fd - h_an) > 100 * rtol * scale:
                raise PathError(f"analytic Hessian disagrees with FD at {p!r}")


@dataclass(frozen=True)
class HamiltonianInput:
    path: Path
    r: float
    p: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        l = np.atleast_2d(np.asarray(self.l, dtype=float))
        if l.shape != (p.shape[0], p.shape[0]):
            raise PathError("l must be d x d for a d-vector p")
        if not np.allclose(l, l.T, atol=1e-12 * (1.0 + np.abs(l).max())):
            raise PathError("l must be symmetric")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "l", l)


def hamiltonian(cp: ControlProblem, hin: HamiltonianInput):
    """sup over controls of <p, b> + 0.5 tr(l sigma sigma^T) + q(path, r, sigma^T p, u).

    Returns (value, argmax control); ties break to the lowest control index.
    """
    bs, sigs = cp.coeffs((hin.path,) * len(cp.controls), cp.controls)
    vals = [_control_term(cp, hin.path, hin.r, hin.p, hin.l, b, sig, u) for b, sig, u in zip(bs, sigs, cp.controls)]
    i = int(np.argmax(vals))
    return vals[i], cp.controls[i]


def _control_term(cp: ControlProblem, path: Path, r: float, p, l, b, sig, u) -> float:
    # <p, b> + 0.5 tr(l sigma sigma^T) + q(path, r, sigma^T p, u), summed in that order
    val = float(p @ b)
    val += 0.5 * float(np.trace(l @ (sig @ sig.T)))
    return val + float(cp.generator(path, r, sig.T @ p, u))


def generator(cp: ControlProblem, phi: PathFunctional, p: Path, u) -> float:
    """dt_phi + <dx_phi, b> + 0.5 tr(dxx_phi sigma sigma^T) + q(p, phi, sigma^T dx_phi, u)."""
    (b,), (sig,) = cp.coeffs((p,), (u,))
    dxf = space_gradient(phi, p)
    return time_derivative(phi, p) + _control_term(cp, p, phi.eval(p), dxf, space_hessian(phi, p), b, sig, u)


def phjb_residual(cp: ControlProblem, v: PathFunctional, p: Path) -> float:
    """dt_v(p) + H(p, v(p), dx_v(p), dxx_v(p)); zero for classical solutions."""
    if p.t_index >= cp.grid.steps:
        raise PathError("residual is defined at interior times only")
    hin = HamiltonianInput(p, v.eval(p), space_gradient(v, p), space_hessian(v, p))
    hval, _ = hamiltonian(cp, hin)
    return time_derivative(v, p) + hval


class ProbeResult(NamedTuple):
    is_touch_point: bool
    residual: float


def _cloud(p: Path, cp: ControlProblem, n_cloud: int, seed: int) -> list[Path]:
    rng = np.random.default_rng(seed)
    return path_cloud(rng, p, cp.grid.steps, n_cloud)


def _probe(cp, w, test, p, n_cloud, seed, touch_tol, cloud, s: float) -> ProbeResult:
    # s = +1.0 tests w - test for a maximum, s = -1.0 tests w + test for a minimum
    if cloud is None:
        cloud = _cloud(p, cp, n_cloud, seed)
    touch = abs(w.eval(p) - s * test.eval(p)) <= touch_tol
    if touch:
        touch = not any(s * (w.eval(eta) - s * test.eval(eta)) > touch_tol for eta in cloud)
    hin = HamiltonianInput(p, s * test.eval(p), s * space_gradient(test, p), s * space_hessian(test, p))
    hval, _ = hamiltonian(cp, hin)
    return ProbeResult(touch, s * time_derivative(test, p) + hval)


def subsolution_probe(
    cp: ControlProblem,
    w: PathFunctional,
    test: PathFunctional,
    p: Path,
    n_cloud: int = 1000,
    seed: int = 0,
    touch_tol: float = 1e-9,
    cloud: Optional[Sequence[Path]] = None,
) -> ProbeResult:
    """Sampled max-touch check plus the subsolution residual at p.

    is_touch_point holds when (w - test)(p) = 0 and w - test <= 0 on the
    cloud (later-or-equal-time samples). The residual
    dt_test + H(p, test(p), dx_test, dxx_test) must be >= 0 for a
    subsolution; the caller interprets it.
    """
    return _probe(cp, w, test, p, n_cloud, seed, touch_tol, cloud, 1.0)


def supersolution_probe(
    cp: ControlProblem,
    w: PathFunctional,
    test: PathFunctional,
    p: Path,
    n_cloud: int = 1000,
    seed: int = 0,
    touch_tol: float = 1e-9,
    cloud: Optional[Sequence[Path]] = None,
) -> ProbeResult:
    """Sampled min-touch check plus the supersolution residual at p.

    is_touch_point holds when (w + test)(p) = 0 and w + test >= 0 on the
    cloud. The residual -dt_test + H(p, -test(p), -dx_test, -dxx_test) must
    be <= 0 for a supersolution.
    """
    return _probe(cp, w, test, p, n_cloud, seed, touch_tol, cloud, -1.0)


# ---------------------------------------------------------------------------
# Markovian reduction and the explicit finite-difference oracle (d = 1).


class MarkovProbeError(RuntimeError):
    """Coefficients claimed Markovian turned out path-dependent."""


class CFLError(RuntimeError):
    """Explicit scheme step restriction violated."""


@dataclass(frozen=True)
class MarkovProblem:
    """State-dependent coefficient bundle on (t, x), one-dimensional state.

    Every callable acts on a whole x grid ``xs`` and returns one value per
    node: drift(t, xs, u), diffusion(t, xs, u), generator(t, xs, y, z, u)
    with y and z shaped like xs, and terminal(xs).
    """

    drift: Callable[[float, np.ndarray, object], np.ndarray]
    diffusion: Callable[[float, np.ndarray, object], np.ndarray]
    generator: Callable[[float, np.ndarray, np.ndarray, np.ndarray, object], np.ndarray]
    terminal: Callable[[np.ndarray], np.ndarray]
    controls: tuple
    grid: GridConfig


@dataclass(frozen=True)
class XGrid:
    lo: float
    hi: float
    nx: int

    def __post_init__(self):
        if not (self.hi > self.lo and self.nx >= 3):
            raise PathError("need hi > lo and nx >= 3")

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / (self.nx - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.nx)


def markovian_reduction(cp: ControlProblem, seed: int = 0, probes: int = 8) -> MarkovProblem:
    """Project a path problem to (t, x) coefficients, probing state dependence.

    For random histories sharing (t, endpoint) every coefficient must agree;
    otherwise MarkovProbeError. The reduced coefficients evaluate the path
    coefficients on constant-history paths; off-grid times (the FD solver's
    substeps) are quantized to the nearest grid index k, an O(dt) effect only
    for coefficients that depend on t explicitly. The constant-history path of
    each (k, node) is built once, and drift and diffusion are evaluated once
    per (k, control) and returned read-only.
    """
    if cp.grid.dim != 1 or cp.grid.noise_dim != 1:
        raise PathError("markovian reduction implemented for d = n = 1")
    g = cp.grid
    rng = np.random.default_rng(seed)
    for _ in range(probes):
        k = int(rng.integers(0, g.steps + 1))
        x = float(rng.normal())
        hist = rng.normal(size=(1, k + 1))
        hist[0, -1] = x
        shuffled = Path(hist, g.dt)
        const = Path.constant(x, k, g.dt)
        y, z = float(rng.normal()), rng.normal(size=1)
        for u in cp.controls:
            q = (cp.generator(shuffled, y, z, u), cp.generator(const, y, z, u))
            for a, c in (*cp.coeffs((shuffled, const), (u, u)), q):
                if not np.allclose(a, c, atol=1e-12):
                    raise MarkovProbeError("coefficients depend on the path history")
        if k == g.steps and abs(cp.terminal(shuffled) - cp.terminal(const)) > 1e-12:
            raise MarkovProbeError("terminal functional depends on the path history")

    lattice: dict = {}

    def at(t: float, xs: np.ndarray):
        key = (int(round(t / g.dt)), xs.tobytes())
        if key not in lattice:
            lattice[key] = [Path.constant(x, key[0], g.dt) for x in xs]
        return key, lattice[key]

    memo: dict = {}

    def coeffs(t: float, xs: np.ndarray, u) -> tuple:
        key, paths = at(t, xs)
        if (key, u) not in memo:
            b, sig = cp.coeffs(paths, (u,) * len(paths))
            memo[key, u] = b[:, 0], sig[:, 0, 0]
        return memo[key, u]

    def generator(t, xs, y, z, u) -> np.ndarray:
        z = np.asarray(z, dtype=float).reshape(-1, 1)
        return np.array([float(cp.generator(p, yi, zi, u)) for p, yi, zi in zip(at(t, xs)[1], y, z, strict=True)])

    return MarkovProblem(
        drift=lambda t, xs, u: coeffs(t, xs, u)[0],
        diffusion=lambda t, xs, u: coeffs(t, xs, u)[1],
        generator=generator,
        terminal=lambda xs: np.array([float(cp.terminal(p)) for p in at(g.horizon, xs)[1]]),
        controls=cp.controls,
        grid=g,
    )


def _cfl_substeps(mp: MarkovProblem, x_grid: XGrid, safety: float = 0.9) -> int:
    """Smallest per-grid-step subdivision making the explicit scheme monotone
    at every grid index, which covers every time the solver's substeps use."""
    g = mp.grid
    xs = x_grid.nodes()
    dx = x_grid.dx
    worst = 0.0
    for k in range(g.steps + 1):
        for u in mp.controls:
            b = mp.drift(k * g.dt, xs, u)
            sig = mp.diffusion(k * g.dt, xs, u)
            worst = max(worst, float((sig**2 / dx**2 + np.abs(b) / dx).max()))
    if worst == 0.0:
        return 1
    return max(1, int(np.ceil(g.dt * worst / safety)))


def markov_fd_solve(mp: MarkovProblem, x_grid: XGrid, time_substeps: Optional[int] = None) -> np.ndarray:
    """Explicit backward scheme for the reduced equation, per-node max over U.

    Upwinded first differences per control, central second differences
    (one-sided 3-point stencil at the boundary). Each grid step is subdivided
    into ``time_substeps`` explicit updates (chosen automatically to satisfy
    the monotonicity restriction dt_sub * max(sigma^2/dx^2 + |b|/dx) <= 1
    when not given; an explicit value that violates it raises CFLError).
    Returns V of shape (steps+1, nx) with V[k] the solution at time k*dt.
    """
    g = mp.grid
    if time_substeps is None:
        time_substeps = _cfl_substeps(mp, x_grid)
    dt_sub = g.dt / time_substeps
    xs = x_grid.nodes()
    dx = x_grid.dx
    nx = x_grid.nx
    out = np.empty((g.steps + 1, nx))
    out[g.steps] = mp.terminal(xs)
    v = out[g.steps].copy()
    for k in range(g.steps - 1, -1, -1):
        for s in range(time_substeps):
            t = (k + 1) * g.dt - s * dt_sub
            d1 = (v[1:] - v[:-1]) / dx
            fwd, bwd = np.concatenate((d1, d1[-1:])), np.concatenate((d1[:1], d1))
            d2 = (v[2:] - 2 * v[1:-1] + v[:-2]) / dx**2
            snd = np.concatenate((d2[:1], d2, d2[-1:]))
            best = np.full(nx, -np.inf)
            for u in mp.controls:
                b = mp.drift(t, xs, u)
                sig = mp.diffusion(t, xs, u)
                rate = dt_sub * (sig**2 / dx**2 + np.abs(b) / dx).max()
                if rate > 1.0 + 1e-12:
                    raise CFLError(
                        f"dt={dt_sub} too large for dx={dx}: rate dt*max(sigma^2/dx^2 + |b|/dx) = {rate} > 1 "
                        f"(explicit scheme not monotone; the automatic choice is {_cfl_substeps(mp, x_grid)} substeps)"
                    )
                dvx = np.where(b >= 0, fwd, bwd)
                ham = b * dvx + 0.5 * sig**2 * snd
                ham += mp.generator(t, xs, v, sig * dvx, u)
                best = np.maximum(best, ham)
            v = v + dt_sub * best
        out[k] = v
    return out


class ConsistencyReport(NamedTuple):
    residual: float
    tree_value: float
    fd_value: float
    error_bound: float


def markov_consistency(
    cp: ControlProblem,
    p: Path,
    x_grid: XGrid,
    seed: int = 0,
    bound_const: Optional[float] = None,
) -> ConsistencyReport:
    """|tree value at p - FD solution at (t, p endpoint)|, with an error bound.

    The bound c*(dt_tree + dt_fd + dx^2) uses probed coefficient magnitudes
    by default; it is a reporting aid for the combined tree + scheme
    discretization error, not a proof.
    """
    x = float(p.values[0, -1])
    if not x_grid.lo <= x <= x_grid.hi:
        raise PathError("path endpoint outside the FD spatial grid")
    tree_v = value(cp, p)  # checks the node cap before any work
    mp = markovian_reduction(cp, seed)
    g = cp.grid
    substeps = _cfl_substeps(mp, x_grid)
    grid_v = markov_fd_solve(mp, x_grid, substeps)
    fd_v = float(np.interp(x, x_grid.nodes(), grid_v[p.t_index]))
    if bound_const is None:
        xs = x_grid.nodes()
        b = [float(np.abs(mp.drift(0.0, xs, u)).max()) for u in cp.controls]
        sig2 = [float((mp.diffusion(0.0, xs, u) ** 2).max()) for u in cp.controls]
        scale = max(1.0, *b, *sig2) * max(1.0, float(np.abs(grid_v[g.steps]).max()))
        bound_const = 10.0 * scale
    bound = bound_const * (g.dt + g.dt / substeps + x_grid.dx**2)
    return ConsistencyReport(abs(tree_v - fd_v), tree_v, fd_v, bound)


def comparison_psi(
    w1: PathFunctional,
    w2: PathFunctional,
    p: Path,
    q: Path,
    beta: float,
    eps: float,
    nu: float,
    horizon: float,
    gauge: GaugeParams = GaugeParams(),
) -> float:
    """Doubling-of-variables auxiliary value at an equal-time pair:

    W1(p) - W2(q) - beta*Upsilon(p,q) - beta^{1/3}|p(t)-q(t)|^2
        - eps*((nu*T - t)/(nu*T))*(Upsilon(p) + Upsilon(q)).
    """
    if p.t_index != q.t_index or p.dt != q.dt:
        raise PathError("comparison functional needs an equal-time pair")
    if not (beta > 0 and eps > 0 and nu > 1):
        raise PathError("need beta > 0, eps > 0, nu > 1")
    t = p.t
    egap = float(np.linalg.norm(p.values[:, -1] - q.values[:, -1]))
    out = w1.eval(p) - w2.eval(q)
    out -= beta * upsilon(p, q, gauge)
    out -= beta ** (1.0 / 3.0) * egap**2
    out -= eps * ((nu * horizon - t) / (nu * horizon)) * (
        upsilon_single(p, gauge) + upsilon_single(q, gauge)
    )
    return out
