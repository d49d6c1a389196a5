"""Hamiltonian, generator, residual checks for classical/viscosity solutions,
the Markovian finite-difference oracle, and the doubling-of-variables
auxiliary functional.

Viscosity probes verify touch-point conditions on a seeded finite cloud of
later paths; a probe never claims more than cloud-maximality. The smooth
test-functional slice used by probes and tests is {quadratic in the endpoint}
+ {multiples of the anchored gauge functional} + {affine in t}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .control import CapacityError, ControlProblem, _stack_checked, value
from .funcalc import PathFunctional, _jet, vertical_gradient, vertical_hessian
from .gauge import upsilon, upsilon_single
from .pathspace import GridConfig, Path, PathError, _joint_sq
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

    def spot_check(self, paths: Sequence[Path]) -> None:
        """Assert analytic-vs-FD agreement on the given probe paths: within
        1e-4 of max(1, |analytic|) for the gradient, 1e-2 for the Hessian."""
        if not paths:
            return
        _, g_ans, h_ans = _jet(self, paths)
        for p, g_an, h_an in zip(paths, g_ans, h_ans):
            g_fd = vertical_gradient(self, p)
            scale = max(1.0, float(np.linalg.norm(g_an)))
            if np.linalg.norm(g_fd - g_an) > 1e-4 * scale:
                raise PathError(f"analytic gradient disagrees with FD at {p!r}")
            h_fd = vertical_hessian(self, p)
            scale = max(1.0, float(np.linalg.norm(h_an)))
            if np.linalg.norm(h_fd - h_an) > 1e-2 * scale:
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
    terms = _control_terms(cp, hin.path, hin.r, hin.p, hin.l, cp.controls)
    i = int(np.argmax(terms))
    return terms[i], cp.controls[i]


def _control_terms(cp: ControlProblem, path: Path, r: float, p, l, us) -> list:
    """<p, b> + 0.5 tr(l sigma sigma^T) + q(path, r, sigma^T p, u) at each control
    of ``us``, summed per control in that order, from one coefficient read."""
    vals, n = path.values[None], len(us)
    bs, sigs = cp.coeffs(vals, us)
    zs = np.array([sig.T @ p for sig in sigs])
    qs = _stack_checked("generator", cp.generator(np.repeat(vals, n, axis=0), np.full(n, r), zs, us), (n,))
    terms = []
    for b, sig, q in zip(bs, sigs, qs.tolist()):
        val = float(p @ b)
        val += 0.5 * float(np.trace(l @ (sig @ sig.T)))
        terms.append(val + q)
    return terms


def generator(cp: ControlProblem, phi: PathFunctional, p: Path, u) -> float:
    """dt_phi + <dx_phi, b> + 0.5 tr(dxx_phi sigma sigma^T) + q(p, phi, sigma^T dx_phi, u)."""
    dtf, dxf, dxxf = _jet(phi, [p])
    return float(dtf[0]) + _control_terms(cp, p, phi.eval(p), dxf[0], dxxf[0], (u,))[0]


def _signed_residual(cp: ControlProblem, phi: PathFunctional, p: Path, s: float) -> float:
    """s dt_phi(p) + H(p, s phi(p), s dx_phi(p), s dxx_phi(p))."""
    dtf, dxf, dxxf = _jet(phi, [p])
    hval, _ = hamiltonian(cp, HamiltonianInput(p, s * phi.eval(p), s * dxf[0], s * dxxf[0]))
    return s * float(dtf[0]) + hval


def phjb_residual(cp: ControlProblem, v: PathFunctional, p: Path) -> float:
    """dt_v(p) + H(p, v(p), dx_v(p), dxx_v(p)); zero for classical solutions."""
    if p.t_index >= cp.grid.steps:
        raise PathError("residual is defined at interior times only")
    return _signed_residual(cp, v, p, 1.0)


class ProbeResult(NamedTuple):
    is_touch_point: bool
    residual: float


def _cloud(p: Path, cp: ControlProblem, n_cloud: int, seed: int) -> list[Path]:
    rng = np.random.default_rng(seed)
    return path_cloud(rng, p, cp.grid.steps, n_cloud)


_TOUCH_TOL = 1e-9


def _probe(cp, w, test, p, n_cloud, seed, cloud, s: float) -> ProbeResult:
    # s = +1.0 tests w - test for a maximum, s = -1.0 tests w + test for a minimum
    if cloud is None:
        cloud = _cloud(p, cp, n_cloud, seed)
    touch = abs(w.eval(p) - s * test.eval(p)) <= _TOUCH_TOL
    if touch:
        touch = not any(s * (w.eval(eta) - s * test.eval(eta)) > _TOUCH_TOL for eta in cloud)
    return ProbeResult(touch, _signed_residual(cp, test, p, s))


def subsolution_probe(
    cp: ControlProblem,
    w: PathFunctional,
    test: PathFunctional,
    p: Path,
    n_cloud: int = 1000,
    seed: int = 0,
    cloud: Optional[Sequence[Path]] = None,
) -> ProbeResult:
    """Sampled max-touch check plus the subsolution residual at p.

    is_touch_point holds when (w - test)(p) = 0 and w - test <= 0 on the
    cloud (later-or-equal-time samples), both within 1e-9. The residual
    dt_test + H(p, test(p), dx_test, dxx_test) must be >= 0 for a
    subsolution; the caller interprets it.
    """
    return _probe(cp, w, test, p, n_cloud, seed, cloud, 1.0)


def supersolution_probe(
    cp: ControlProblem,
    w: PathFunctional,
    test: PathFunctional,
    p: Path,
    n_cloud: int = 1000,
    seed: int = 0,
    cloud: Optional[Sequence[Path]] = None,
) -> ProbeResult:
    """Sampled min-touch check plus the supersolution residual at p.

    is_touch_point holds when (w + test)(p) = 0 and w + test >= 0 on the
    cloud, both within 1e-9. The residual
    -dt_test + H(p, -test(p), -dx_test, -dxx_test) must be <= 0 for a
    supersolution.
    """
    return _probe(cp, w, test, p, n_cloud, seed, cloud, -1.0)


# ---------------------------------------------------------------------------
# Markovian reduction and the explicit finite-difference oracle (d = 1).


class MarkovProbeError(RuntimeError):
    """Coefficients claimed Markovian turned out path-dependent."""


class CFLError(RuntimeError):
    """Explicit scheme step restriction violated."""


# Node updates (steps x substeps x nodes x controls) of one automatic FD solve:
# 2,700x the largest that the tests, the acceptance criteria, the CLI defaults
# and the benchmark run (16 x 14 x 161 x 1 = 36,064, markov-compare's default
# level 2). 6.2e7 updates at 1,921 nodes take 4 s on a 2-core desk machine.
FD_WORK_CAP = 10**8


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
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and math.isfinite(self.dx)):
            raise PathError(f"x grid needs finite lo, hi and dx, got lo={self.lo}, hi={self.hi}, nx={self.nx}")

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / (self.nx - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.nx)


def markovian_reduction(cp: ControlProblem, seed: int = 0) -> MarkovProblem:
    """Project a path problem to (t, x) coefficients, probing state dependence.

    For eight random histories, each against the constant history sharing its
    (t, endpoint), every coefficient must agree under every control, to
    np.allclose with atol 1e-12; otherwise MarkovProbeError. Each probe reads
    both histories under all controls in one coefficient read and one
    generator call. The reduced coefficients evaluate the path coefficients on
    constant-history paths; off-grid times (the FD solver's substeps) are
    quantized to the nearest grid index k, an O(dt) effect only for
    coefficients that depend on t explicitly. The lattice holds one read-only
    (nx, 1, k + 1) constant-history array per grid index k and x grid, which
    every coefficient reads in one call; drift and diffusion are read once
    per (k, control) and returned read-only.
    """
    if cp.grid.dim != 1 or cp.grid.noise_dim != 1:
        raise PathError("markovian reduction implemented for d = n = 1")
    g = cp.grid
    rng = np.random.default_rng(seed)
    n_u = len(cp.controls)
    for _ in range(8):
        k = int(rng.integers(0, g.steps + 1))
        x = float(rng.normal())
        hist = rng.normal(size=(1, k + 1))
        hist[0, -1] = x
        pair = np.stack([hist, np.full((1, k + 1), x)])  # the shuffled and the constant history
        y, z = float(rng.normal()), rng.normal(size=1)
        us, rows = cp.controls * 2, np.repeat(pair, n_u, axis=0)
        q = _stack_checked("generator", cp.generator(rows, np.full(2 * n_u, y), np.tile(z, (2 * n_u, 1)), us), (2 * n_u,))
        for a in (*cp.coeffs(pair, us), q):
            if not np.allclose(a[:n_u], a[n_u:], atol=1e-12):
                raise MarkovProbeError("coefficients depend on the path history")
        if k == g.steps:
            phi = _stack_checked("terminal", cp.terminal(pair), (2,))
            if abs(phi[0] - phi[1]) > 1e-12:
                raise MarkovProbeError("terminal functional depends on the path history")

    lattice: dict = {}

    def at(t: float, xs: np.ndarray):
        key = (int(round(t / g.dt)), xs.tobytes())
        if key not in lattice:
            if not np.isfinite(xs).all():
                raise PathError("path values must be finite")
            vals = np.repeat(np.asarray(xs, dtype=float)[:, None, None], key[0] + 1, axis=2)
            vals.setflags(write=False)
            lattice[key] = vals
        return key, lattice[key]

    memo: dict = {}

    def coeffs(t: float, xs: np.ndarray, u) -> tuple:
        key, vals = at(t, xs)
        if (key, u) not in memo:
            b, sig = cp.coeffs(vals, (u,) * len(vals))
            memo[key, u] = b[:, 0], sig[:, 0, 0]
        return memo[key, u]

    def generator(t, xs, y, z, u) -> np.ndarray:
        vals = at(t, xs)[1]
        y, z = np.asarray(y, dtype=float), np.asarray(z, dtype=float).reshape(-1, 1)
        return _stack_checked("generator", cp.generator(vals, y, z, (u,) * len(vals)), y.shape)

    def terminal(xs) -> np.ndarray:
        return _stack_checked("terminal", cp.terminal(at(g.horizon, xs)[1]), xs.shape)

    return MarkovProblem(
        drift=lambda t, xs, u: coeffs(t, xs, u)[0],
        diffusion=lambda t, xs, u: coeffs(t, xs, u)[1],
        generator=generator,
        terminal=terminal,
        controls=cp.controls,
        grid=g,
    )


def _cfl_substeps(mp: MarkovProblem, x_grid: XGrid) -> int:
    """Smallest per-grid-step subdivision keeping the explicit scheme's rate
    at most 0.9 at every grid index, which covers every time the solver's
    substeps use. A solve of more than FD_WORK_CAP node updates, or a rate
    that is not finite, raises CapacityError before any FD work."""
    g = mp.grid
    xs = x_grid.nodes()
    dx = x_grid.dx
    rates = []
    for k in range(g.steps + 1):
        for u in mp.controls:
            b = mp.drift(k * g.dt, xs, u)
            sig = mp.diffusion(k * g.dt, xs, u)
            rates.append(float((sig**2 / dx**2 + np.abs(b) / dx).max()))
    worst = max(rates) if np.isfinite(rates).all() else math.inf
    substeps = max(1.0, float(np.ceil(g.dt * worst / 0.9)))
    work = g.steps * substeps * x_grid.nx * len(mp.controls)
    if not work <= FD_WORK_CAP:
        raise CapacityError(
            f"explicit FD solve needs {g.steps} steps x {substeps:.0f} substeps x {x_grid.nx} nodes x "
            f"{len(mp.controls)} controls = {work:.3e} node updates, over the cap {FD_WORK_CAP:.0e}"
        )
    return int(substeps)


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
) -> ConsistencyReport:
    """|tree value at p - FD solution at (t, p endpoint)|, with an error bound.

    The bound c*(dt_tree + dt_fd + dx^2) takes c from the coefficient and
    terminal magnitudes at time 0; it is a reporting aid for the combined
    tree + scheme discretization error, not a proof.
    """
    x = float(p.values[0, -1])
    if not x_grid.lo <= x <= x_grid.hi:
        raise PathError("path endpoint outside the FD spatial grid")
    tree_v = value(cp, p)  # checks the node cap before any work
    mp = markovian_reduction(cp, seed)
    g = cp.grid
    substeps = _cfl_substeps(mp, x_grid)
    grid_v = markov_fd_solve(mp, x_grid, substeps)
    xs = x_grid.nodes()
    fd_v = float(np.interp(x, xs, grid_v[p.t_index]))
    b = [float(np.abs(mp.drift(0.0, xs, u)).max()) for u in cp.controls]
    sig2 = [float((mp.diffusion(0.0, xs, u) ** 2).max()) for u in cp.controls]
    scale = max(1.0, *b, *sig2) * max(1.0, float(np.abs(grid_v[g.steps]).max()))
    bound = 10.0 * scale * (g.dt + g.dt / substeps + x_grid.dx**2)
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
    egap = math.sqrt(_joint_sq(p, q)[-1])  # the e that upsilon(p, q) reads
    out = w1.eval(p) - w2.eval(q)
    out -= beta * upsilon(p, q)
    out -= beta ** (1.0 / 3.0) * egap**2
    out -= eps * ((nu * horizon - t) / (nu * horizon)) * (
        upsilon_single(p) + upsilon_single(q)
    )
    return out
