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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .control import CapacityError, ControlProblem, _check_root, _stack_checked, value
from .funcalc import PathFunctional, _jet, vertical_gradient, vertical_hessian
from .gauge import upsilon, upsilon_single
from .pathspace import GridConfig, Path, PathError, _count, _joint_sq
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
    _check_root(cp, hin.path)
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
    _check_root(cp, p)
    dtf, dxf, dxxf = _jet(phi, [p])
    return float(dtf[0]) + _control_terms(cp, p, phi.eval(p), dxf[0], dxxf[0], (u,))[0]


def _signed_residual(cp: ControlProblem, phi: PathFunctional, p: Path, s: float) -> float:
    """s dt_phi(p) + H(p, s phi(p), s dx_phi(p), s dxx_phi(p)), at interior times only."""
    _check_root(cp, p)
    if p.t_index >= cp.grid.steps:
        raise PathError("residual is defined at interior times only")
    dtf, dxf, dxxf = _jet(phi, [p])
    hval, _ = hamiltonian(cp, HamiltonianInput(p, s * phi.eval(p), s * dxf[0], s * dxxf[0]))
    return s * float(dtf[0]) + hval


def phjb_residual(cp: ControlProblem, v: PathFunctional, p: Path) -> float:
    """dt_v(p) + H(p, v(p), dx_v(p), dxx_v(p)); zero for classical solutions."""
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
    residual = _signed_residual(cp, test, p, s)  # refuses the horizon before any sampling
    if cloud is None:
        cloud = _cloud(p, cp, _count("probe n_cloud", n_cloud, 1), seed)
    elif len(cloud) == 0:
        raise PathError("probe needs a nonempty cloud")
    else:  # a generated cloud is on the grid and no earlier than p by construction
        for i, eta in enumerate(cloud):
            _check_root(cp, eta, f"cloud path {i}")
            if eta.t_index < p.t_index:
                raise PathError(f"cloud path {i} is at grid index {eta.t_index}, before the probe point's {p.t_index}")
    touch = abs(w.eval(p) - s * test.eval(p)) <= _TOUCH_TOL
    if touch:
        touch = not any(s * (w.eval(eta) - s * test.eval(eta)) > _TOUCH_TOL for eta in cloud)
    return ProbeResult(touch, residual)


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
    subsolution; the caller interprets it. A path off the grid, a point at or
    past the horizon, a bad n_cloud or an empty given cloud raises PathError.
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
    supersolution. A path off the grid, a point at or past the horizon, a bad
    n_cloud or an empty given cloud raises PathError.
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
class XGrid:
    lo: float
    hi: float
    nx: int

    def __post_init__(self):
        object.__setattr__(self, "nx", _count("nx", self.nx, 3))
        if not self.hi > self.lo:
            raise PathError(f"need hi > lo, got lo={self.lo}, hi={self.hi}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and math.isfinite(self.dx)):
            raise PathError(f"x grid needs finite lo, hi and dx, got lo={self.lo}, hi={self.hi}, nx={self.nx}")
        if not math.isfinite(self.dx * self.dx):  # the FD rates divide by dx^2
            raise PathError(f"x grid spacing dx={self.dx} has a square past the double range, from lo={self.lo}, hi={self.hi}, nx={self.nx}")

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / (self.nx - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.nx)


def _isclose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.isclose(a, b, rtol=1e-5, atol=1e-12) on float arrays, by its own formula."""
    with np.errstate(invalid="ignore"):
        return (np.abs(a - b) <= 1e-12 + 1e-5 * np.abs(b)) & np.isfinite(b) | (a == b)


def _scalar_grid(cp: ControlProblem) -> GridConfig:
    """cp's grid, once its state and noise are one-dimensional, as the FD oracle needs; else PathError."""
    g = cp.grid
    if g.dim != 1 or g.noise_dim != 1:
        raise PathError(f"markovian reduction implemented for d = n = 1, got d = {g.dim}, n = {g.noise_dim}")
    return g


def markovian_reduction(cp: ControlProblem, seed: int = 0) -> ControlProblem:
    """cp itself, once eight history probes find it Markovian: the FD oracle reads its own forms.

    For eight random histories, each against the constant history sharing its
    (grid index, endpoint), every coefficient must agree under every control,
    to np.isclose with atol 1e-12; otherwise MarkovProbeError, for the
    earliest-drawn probe that fails, its coefficients checked before its
    terminal. The probes are drawn first; those at one grid index are read
    together, both histories of each under all controls, in one generator
    call, one coefficient read and, at the horizon, one terminal call. A grid
    with d or n other than 1 raises PathError before any probe.
    """
    g = _scalar_grid(cp)
    rng = np.random.default_rng(seed)
    n_u, ks, pairs = len(cp.controls), [], []
    ys, zs = np.empty(8), np.empty(8)
    for i in range(8):
        k = int(rng.integers(0, g.steps + 1))
        x = float(rng.normal())
        hist = rng.normal(size=(1, k + 1))
        hist[0, -1] = x
        ks.append(k)
        pairs.append(np.stack([hist, np.full((1, k + 1), x)]))  # the shuffled and the constant history
        ys[i], zs[i] = rng.normal(), rng.normal()
    at_index: dict[int, list[int]] = {}
    for i, k in enumerate(ks):
        at_index.setdefault(k, []).append(i)
    # per probe, both histories' drift, diffusion and generator under each control, and terminals
    coef, phi = np.empty((8, 2, n_u, 3)), np.zeros((8, 2))
    for k, idx in at_index.items():
        m, stacked = len(idx), np.concatenate([pairs[i] for i in idx])
        us, rows = cp.controls * (2 * m), np.repeat(stacked, n_u, axis=0)
        y, z = np.repeat(ys[idx], 2 * n_u), np.repeat(zs[idx], 2 * n_u)[:, None]
        q = _stack_checked("generator", cp.generator(rows, y, z, us), (2 * m * n_u,))
        b, sig = cp.coeffs(stacked, us)
        coef[idx] = np.column_stack((b, sig[:, 0], q)).reshape(m, 2, n_u, 3)
        if k == g.steps:
            phi[idx] = _stack_checked("terminal", cp.terminal(stacked), (2 * m,)).reshape(m, 2)
    close = _isclose(coef[:, 0], coef[:, 1]).all(axis=(1, 2))
    failed = np.flatnonzero(~close | (np.abs(phi[:, 0] - phi[:, 1]) > 1e-12))
    if failed.size and not close[failed[0]]:
        raise MarkovProbeError("coefficients depend on the path history")
    if failed.size:
        raise MarkovProbeError("terminal functional depends on the path history")
    return cp


def _coefficient_table(cp: ControlProblem, x_grid: XGrid) -> tuple:
    """Drift and diffusion on the x grid as (steps+1, |U|, nx) arrays b and sig, the rates max over
    x of sigma^2/dx^2 + |b|/dx, (steps+1, |U|), and the read-only (nx, 1, k+1) arrays of the grid's
    constant-history paths they were read on, one per grid index k: one ``cp.coeffs`` call per
    grid index, under all controls. A grid with d or n other than 1 raises PathError."""
    g, xs, dx, nx = _scalar_grid(cp), x_grid.nodes(), x_grid.dx, x_grid.nx
    n_u, us, hists = len(cp.controls), cp.controls * nx, []
    b, sig = np.empty((2, g.steps + 1, n_u, nx))
    for k in range(g.steps + 1):
        hists.append(np.repeat(xs[:, None, None], k + 1, axis=2))
        hists[k].setflags(write=False)
        bk, sk = cp.coeffs(hists[k], us)  # node i under control u is row i * |U| + u
        b[k], sig[k] = bk.reshape(nx, n_u).T, sk.reshape(nx, n_u).T
    return b, sig, (sig**2 / dx**2 + np.abs(b) / dx).max(axis=2), hists


def _auto_substeps(dt: float, rates: np.ndarray) -> float:
    """The fewest substeps of a grid step ``dt`` keeping every rate of ``rates`` at most 0.9."""
    return max(1.0, float(np.ceil(dt * rates.max() / 0.9)))


def _cfl_substeps(cp: ControlProblem, x_grid: XGrid, rates: np.ndarray, given: Optional[int] = None) -> int:
    """Per-grid-step subdivision of an FD solve with the table's ``rates``: the ``given`` count,
    or else the automatic one. A rate that is not finite, or more than FD_WORK_CAP node updates,
    raises CapacityError; then the first rate over 1 the substeps read, in order, CFLError."""
    g = cp.grid
    given = given if given is None else _count("time_substeps", given, 1)
    if not np.isfinite(rates).all():
        raise CapacityError(f"explicit FD solve needs finite rates sigma^2/dx^2 + |b|/dx, got max {rates.max()}")
    substeps = _auto_substeps(g.dt, rates) if given is None else float(given)
    work = g.steps * substeps * x_grid.nx * len(cp.controls)
    if not work <= FD_WORK_CAP:
        raise CapacityError(
            f"explicit FD solve needs {g.steps} steps x {substeps:.0f} substeps x {x_grid.nx} nodes x "
            f"{len(cp.controls)} controls = {work:.3e} node updates, over the cap {FD_WORK_CAP:.0e}"
        )
    dt_sub = g.dt / substeps
    read = dt_sub * rates[list(dict.fromkeys(j for _, j in _substep_reads(g, int(substeps))))]
    over = np.flatnonzero(read > 1.0 + 1e-12)
    if over.size:
        raise CFLError(
            f"dt={dt_sub} too large for dx={x_grid.dx}: rate dt*max(sigma^2/dx^2 + |b|/dx) = {read.flat[over[0]]} > 1 "
            f"(explicit scheme not monotone; the automatic choice is {_auto_substeps(g.dt, rates):.0f} substeps)"
        )
    return int(substeps)


def _substep_reads(g: GridConfig, substeps: int):
    """(grid step k, grid index j) of each substep of an FD solve, in its order: k from the last,
    and substep s of step k reads the coefficient table at the grid index nearest its time."""
    dt_sub = g.dt / substeps
    return ((k, round(((k + 1) * g.dt - s * dt_sub) / g.dt)) for k in range(g.steps - 1, -1, -1) for s in range(substeps))


def markov_fd_solve(cp: ControlProblem, x_grid: XGrid, time_substeps: Optional[int] = None) -> np.ndarray:
    """Explicit backward scheme for the reduced equation, per-node max over U.

    Reads cp's own forms on the x grid's constant-history paths: ``cp`` is
    taken as ``markovian_reduction`` returns it, and the nodes of ``x_grid``
    are the paths' endpoints. Upwinded first differences per control, central
    second differences (one-sided 3-point stencil at the boundary), kept in
    two buffers that every substep rewrites. Drift and diffusion are read
    once per grid index, under all controls, into one table, with
    0.5 sigma^2 and the upwind side; a substep at time t reads it at grid
    index round(t / dt), and calls the generator there once per control.
    Each grid step takes ``time_substeps`` explicit updates, a count >= 1;
    when not given, the fewest with rate
    dt_sub * max(sigma^2/dx^2 + |b|/dx) <= 0.9 at every grid index. Over
    FD_WORK_CAP node updates, or at a rate that is not finite, either count
    raises CapacityError; a given count whose rate exceeds 1 where its
    substeps read raises CFLError. Every guard runs before any FD step and
    any call of the generator or the terminal. A coefficient value of
    another shape than one per node raises PathError naming its field, as
    does a grid with d or n other than 1.
    Returns V of shape (steps+1, nx) with V[k] the solution at time k*dt.
    """
    return _fd_solve(cp, x_grid, _coefficient_table(cp, x_grid), time_substeps)


def _fd_solve(cp: ControlProblem, x_grid: XGrid, table: tuple, time_substeps: Optional[int] = None) -> np.ndarray:
    """markov_fd_solve on ``table``, ``_coefficient_table(cp, x_grid)`` read by its caller."""
    g = cp.grid
    b, sig, rates, hists = table
    substeps = _cfl_substeps(cp, x_grid, rates, time_substeps)
    dt_sub, dx, nx = g.dt / substeps, x_grid.dx, x_grid.nx
    uss = [(u,) * nx for u in cp.controls]
    rows = [list(zip(uss, b[j], 0.5 * sig[j] ** 2, b[j] >= 0, sig[j])) for j in range(g.steps + 1)]
    out = np.empty((g.steps + 1, nx))
    out[g.steps] = _stack_checked("terminal", cp.terminal(hists[g.steps]), (nx,))
    v = out[g.steps].copy()
    # d1[1:nx] holds the first differences and d1[0], d1[nx] repeat its ends, so d1[:-1] is the
    # backward and d1[1:] the forward difference at each node; d2 likewise the second difference
    d1, d2 = np.empty(nx + 1), np.empty(nx)
    bwd, fwd, inner, mid = d1[:-1], d1[1:], d1[1:nx], d2[1:-1]
    for k, j in _substep_reads(g, substeps):
        np.subtract(v[1:], v[:-1], out=inner)
        inner /= dx
        d1[0], d1[nx] = d1[1], d1[nx - 1]
        np.multiply(v[1:-1], 2, out=mid)
        np.subtract(v[2:], mid, out=mid)
        mid += v[:-2]
        mid /= dx**2
        d2[0], d2[-1] = d2[1], d2[-2]
        best = None
        for us, bj, half_var, upwind, sj in rows[j]:
            dvx = np.where(upwind, fwd, bwd)
            ham = bj * dvx
            ham += half_var * d2
            ham += _stack_checked("generator", cp.generator(hists[j], v, (sj * dvx)[:, None], us), (nx,))
            best = ham if best is None else np.maximum(best, ham, out=best)
        best *= dt_sub
        v += best
        out[k] = v  # the last substep of step k leaves V at time k*dt
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

    The tree value comes first, then the reduction's probes, then one
    coefficient table and the ``markov_fd_solve`` on it, which picks the
    automatic substep count and runs the CFL guard once. The bound
    c*(dt_tree + dt_fd + dx^2) reads the same table: c from the drift,
    diffusion and terminal magnitudes at time 0, dt_fd from the same count
    off the table's rates.
    It is a reporting aid for the combined tree + scheme discretization
    error, not a proof.
    """
    x = float(p.values[0, -1])
    if not x_grid.lo <= x <= x_grid.hi:
        raise PathError("path endpoint outside the FD spatial grid")
    tree_v = value(cp, p)  # checks the node cap before any work
    cp = markovian_reduction(cp, seed)
    g = cp.grid
    table = _coefficient_table(cp, x_grid)
    grid_v = _fd_solve(cp, x_grid, table)
    b, sig, rates, _ = table
    fd_v = float(np.interp(x, x_grid.nodes(), grid_v[p.t_index]))
    mags = [*np.abs(b[0]).max(axis=1).tolist(), *(sig[0] ** 2).max(axis=1).tolist()]
    scale = max(1.0, *mags) * max(1.0, float(np.abs(grid_v[g.steps]).max()))
    bound = 10.0 * scale * (g.dt + g.dt / _auto_substeps(g.dt, rates) + x_grid.dx**2)
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
    if not (horizon > 0 and math.isfinite(horizon)):
        raise PathError(f"horizon must be finite and > 0, got {horizon}")
    t = p.t
    egap = math.sqrt(_joint_sq(p, q)[-1])  # the e that upsilon(p, q) reads
    out = w1.eval(p) - w2.eval(q)
    out -= beta * upsilon(p, q)
    out -= beta ** (1.0 / 3.0) * egap**2
    out -= eps * ((nu * horizon - t) / (nu * horizon)) * (
        upsilon_single(p) + upsilon_single(q)
    )
    return out
