"""Controlled path-dependent dynamics on two backends.

Monte Carlo Euler paths serve the statistical estimates (moment growth,
chain-rule residuals); an exact non-recombining tree whose noise increments
are +-sqrt(dt) per coordinate serves the identities (BSDE values, backward
semigroup nesting, dynamic programming). On the tree every conditional
expectation is a finite average, so the dynamic-programming residual is an
identity up to fixed-point tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .pathspace import (
    GridConfig,
    Path,
    PathError,
    _joint_gap,
    horizontal_extension,
    restrict,
    sup_norm,
)
from .sampling import bridge_pair

__all__ = [
    "CapacityError",
    "ContractError",
    "BlowupError",
    "ControlStrategy",
    "ControlProblem",
    "NoiseTree",
    "BsdeSolution",
    "simulate_psde",
    "simulate_tree",
    "solve_bsde_tree",
    "backward_semigroup",
    "cost",
    "value",
    "value_with_strategy",
    "ValueSolver",
    "dpp_check",
    "regularity_probe",
    "moment_probe",
]

DEFAULT_NODE_CAP = 2**18
FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAX_ITER = 50


class CapacityError(RuntimeError):
    """Tree size would exceed the configured node cap."""


class ContractError(RuntimeError):
    """Fixed-point iteration for the implicit generator step diverged."""


class BlowupError(RuntimeError):
    """Simulation produced a non-finite state."""


@dataclass(frozen=True)
class ControlStrategy:
    """Open-loop control sequence or feedback map on the observed path.

    Open-loop entries are indexed by absolute grid index minus start_index;
    a feedback map sees only the path up to the current node, so it is
    adapted by construction.
    """

    open_loop: Optional[tuple] = None
    feedback: Optional[Callable[[Path], object]] = None
    start_index: int = 0

    def __post_init__(self):
        if (self.open_loop is None) == (self.feedback is None):
            raise PathError("exactly one of open_loop/feedback must be given")
        if self.open_loop is not None:
            object.__setattr__(self, "open_loop", tuple(self.open_loop))

    @staticmethod
    def constant(u) -> "ControlStrategy":
        return ControlStrategy(feedback=lambda path: u)

    def control_at(self, path: Path):
        if self.feedback is not None:
            return self.feedback(path)
        j = path.t_index - self.start_index
        if not 0 <= j < len(self.open_loop):
            raise PathError(f"open-loop sequence has no control for grid index {path.t_index}")
        return self.open_loop[j]


@dataclass(frozen=True)
class ControlProblem:
    """Coefficient bundle (b, sigma, q, phi, U) on a uniform grid.

    drift(path, u) -> (d,), diffusion(path, u) -> (d, n), read through
    ``coeffs``; generator(path, y, z, u) -> real with z a float (n,) array;
    terminal(path at final index) -> real.
    """

    drift: Callable[[Path, object], np.ndarray]
    diffusion: Callable[[Path, object], np.ndarray]
    generator: Callable[[Path, float, np.ndarray, object], float]
    terminal: Callable[[Path], float]
    controls: tuple
    grid: GridConfig

    def __post_init__(self):
        if len(self.controls) == 0:
            raise PathError("control set must be nonempty")
        object.__setattr__(self, "controls", tuple(self.controls))

    def coeffs(self, paths, us) -> tuple[np.ndarray, np.ndarray]:
        """Drift and diffusion at each (path, u) pair, drift called first, as read-only
        float arrays of shape (N, d) and (N, d, n); the solvers' only reader of both.
        A scalar, wrong-length or ragged result raises PathError naming the shapes."""
        b, sig = [], []
        for path, u in zip(paths, us):
            b.append(self.drift(path, u))
            sig.append(self.diffusion(path, u))
        g = self.grid
        return _stack_checked("drift", b, (g.dim,)), _stack_checked("diffusion", sig, (g.dim, g.noise_dim))

    def lipschitz_probe(self, seed: int = 0, samples: int = 40) -> float:
        """Finite-difference Lipschitz estimate of (b, sigma, q) over random pairs.

        A sanity probe, not a certificate: the estimate L-hat should satisfy
        L-hat * dt < 0.5 for the implicit BSDE step to contract.
        """
        rng = np.random.default_rng(seed)
        g = self.grid
        est = 0.0
        for _ in range(samples):
            k = int(rng.integers(0, g.steps + 1))
            p, q = bridge_pair(rng, g.dim, g.dt, k)
            gap = _joint_gap(p, q)
            y = float(rng.normal())
            z = rng.normal(size=g.noise_dim)
            dy = float(rng.normal()) or 1.0
            dz = rng.normal(size=g.noise_dim)
            for u in self.controls:
                if gap > 0:
                    (bp, bq), (sp, sq) = self.coeffs((p, q), (u, u))
                    db, ds = np.linalg.norm(bp - bq), np.linalg.norm(sp - sq)
                    dq = abs(self.generator(p, y, z, u) - self.generator(q, y, z, u))
                    est = max(est, db / gap, ds / gap, dq / gap)
                q0 = self.generator(p, y, z, u)
                est = max(est, abs(self.generator(p, y + dy, z, u) - q0) / abs(dy))
                nz = np.linalg.norm(dz)
                if nz > 0:
                    est = max(est, abs(self.generator(p, y, z + dz, u) - q0) / nz)
        return est


def _stack_checked(name: str, rows: tuple, shape: tuple) -> np.ndarray:
    """Read-only float stack of ``rows``, each of which must have ``shape``."""
    try:
        out = np.array(rows, dtype=float)
    except (TypeError, ValueError):  # a ragged batch
        out = np.empty(0)
    if out.shape[1:] != shape:
        got = ", ".join(map(str, sorted({np.asarray(r, dtype=object).shape for r in rows})))
        raise PathError(f"{name} must return shape {shape} at each (path, control), got {got}")
    out.setflags(write=False)
    return out


def _increments(noise_dim: int, dt: float) -> np.ndarray:
    """All 2^n per-step noise moves, each coordinate +-sqrt(dt)."""
    r = np.sqrt(dt)
    rows = list(itertools.product((r, -r), repeat=noise_dim))
    return np.asarray(rows)


@dataclass(frozen=True)
class NoiseTree:
    """Non-recombining tree of exact +-sqrt(dt) noise increments.

    ``levels[k]`` holds the full path values of every depth-k node as an
    array of shape (branching^k, d, root_cols + k) and ``controls[k][j]`` the
    1-tuple of the control that expanded node j, both under the build
    strategy. Increments have exact mean 0 and variance dt per coordinate.
    """

    root: Path
    depth: int
    noise_dim: int
    increments: np.ndarray
    levels: tuple
    controls: tuple

    @property
    def branching(self) -> int:
        return self.increments.shape[0]

    @property
    def n_leaves(self) -> int:
        return self.branching**self.depth

    @property
    def dt(self) -> float:
        return self.root.dt

    def node_path(self, level: int, j: int) -> Path:
        return Path._wrap(self.levels[level][j], self.root.dt)

    def leaf_paths(self) -> list[Path]:
        return [self.node_path(self.depth, j) for j in range(self.levels[-1].shape[0])]


def _check_cap(fan: int, depth: int, cap: int) -> None:
    # fan = children per node: 2^n for a cost, |U| * 2^n for the value. No cap reaches 2^63.
    leaves = fan**depth if depth * math.log2(fan) <= 63 else math.inf
    if leaves > cap:
        raise CapacityError(f"tree of depth {depth} needs {fan}^{depth} = {leaves} leaves, over the node cap {cap}")


def _forward(cp: ControlProblem, root: Path, depth: int, incs: np.ndarray, dt: float, strategy=None):
    """Forward pass: level k's node paths as one (N_k, d, c + k) array. Each node
    is expanded under ``strategy``'s control or, for the value (``strategy``
    None), under all of U; children are ordered (node, control, move). The
    value merges identical internal children: links[k] maps each child slot
    of level k to its row of level k + 1, keys[k] holds each row's memo key."""
    b_count, n = incs.shape
    n_u = len(cp.controls) if strategy is None else 1
    first = root.values[None].copy()
    first.setflags(write=False)
    levels, ctrls, links, keys = [first], [], [], [[(root.t_index, root.values.tobytes())]]
    for k in range(depth):
        cur = levels[k]
        count, d, cols = cur.shape
        us = [cp.controls if strategy is None else (strategy.control_at(Path._wrap(row, dt)),) for row in cur]
        paths = (path for row in cur for path in itertools.repeat(Path._wrap(row, dt), n_u))  # one live at a time
        bvec, sig = cp.coeffs(paths, [u for u_j in us for u in u_j])
        sig = sig.reshape(count, n_u, d, n).swapaxes(-1, -2)
        steps = cur[:, None, None, :, -1] + bvec.reshape(count, n_u, 1, d) * dt + incs @ sig
        if not np.all(np.isfinite(steps)):
            raise BlowupError(f"non-finite state at grid index {root.t_index + k + 1}")
        kids = np.empty(steps.shape[:-1] + (d, cols + 1))
        kids[..., :cols] = cur[:, None, None]
        kids[..., cols] = steps
        kids, link = kids.reshape(-1, d, cols + 1), None
        if strategy is None and k + 1 < depth:
            t, size, buf, rows = root.t_index + k + 1, kids.strides[0], kids.tobytes(), {}
            link = np.array([rows.setdefault((t, buf[i * size : (i + 1) * size]), len(rows)) for i in range(len(kids))])
            if len(rows) < len(kids):
                kids = kids[np.unique(link, return_index=True)[1]]
            keys.append(list(rows))
        kids.setflags(write=False)
        levels.append(kids)
        ctrls.append(us)
        links.append(link)
    return levels, ctrls, links, keys


def _backward(cp: ControlProblem, levels, ctrls, links, keys, incs: np.ndarray, dt: float, terminal, memo=None):
    """Backward pass Y = E[Y'] + q(path, Y, Z, u) dt, Z = E[Y' dW^T] / dt over
    ``_forward``'s levels. Without ``memo`` returns (y_levels, z_levels); with
    it each node keeps its first control of maximal Y, recorded in ``memo``."""
    if callable(terminal):
        y = np.fromiter((float(terminal(Path._wrap(leaf, dt))) for leaf in levels[-1]), float, len(levels[-1]))
    else:
        y = np.asarray(terminal, dtype=float)
        if y.shape != (levels[-1].shape[0],):
            raise PathError(f"terminal data must have one value per leaf ({levels[-1].shape[0]})")
    if not np.all(np.isfinite(y)):
        raise BlowupError("non-finite terminal data")
    b_count, n = incs.shape
    y_levels, z_levels = [y], [np.zeros((y.shape[0], n))]
    for k in range(len(ctrls) - 1, -1, -1):
        count, n_u = levels[k].shape[0], 1 if memo is None else len(cp.controls)
        if links[k] is not None:
            y = y[links[k]]
        yc = y.reshape(count, n_u, b_count)
        e = yc.mean(axis=-1).tolist()
        # Two BLAS calls on purpose: they round differently in the last bit, and the
        # cost (one product over all rows) and value (one per row) outputs are pinned.
        rows = yc.reshape(-1, b_count) if memo is None else yc.reshape(-1, 1, b_count)
        z = (rows @ incs).reshape(count, n_u, n) / (b_count * dt)
        y_u = np.empty((count, n_u))
        for j, u_j in enumerate(ctrls[k]):
            path = Path._wrap(levels[k][j], dt)
            for i, u in enumerate(u_j):
                y_u[j, i] = _implicit_step(cp, path, e[j][i], z[j, i], u, dt)
        if memo is None:
            y, z = y_u[:, 0], z[:, 0]
        else:
            best = y_u.argmax(axis=1)
            y = y_u[np.arange(count), best]
            for key, y_j, i in zip(keys[k], y.tolist(), best.tolist()):
                memo[key] = (y_j, cp.controls[i])
        y_levels.append(y)
        z_levels.append(z)
    return y_levels[::-1], z_levels[::-1]


def simulate_tree(
    cp: ControlProblem, p0: Path, end_index: int, strategy: Optional[ControlStrategy] = None, cap: int = DEFAULT_NODE_CAP
) -> NoiseTree:
    """Build the exact noise tree from p0 to end_index under ``strategy``
    (default: the constant first control), keeping each node's control."""
    if end_index < p0.t_index:
        raise PathError("end_index before the root time")
    depth = end_index - p0.t_index
    n = cp.grid.noise_dim
    _check_cap(2**n, depth, cap)
    if strategy is None:
        strategy = ControlStrategy.constant(cp.controls[0])
    incs = _increments(n, p0.dt)
    levels, ctrls = _forward(cp, p0, depth, incs, p0.dt, strategy)[:2]
    return NoiseTree(root=p0, depth=depth, noise_dim=n, increments=incs, levels=tuple(levels), controls=tuple(ctrls))


@dataclass(frozen=True)
class BsdeSolution:
    """Per-node backward solution on a NoiseTree's levels: y_levels[k] has shape
    (branching^k,), z_levels[k] (branching^k, n) (zeros at the terminal layer)."""

    y_levels: tuple
    z_levels: tuple

    @property
    def root_value(self) -> float:
        return float(self.y_levels[0][0])


def _implicit_step(cp: ControlProblem, path: Path, e_y: float, z: np.ndarray, u, dt: float) -> float:
    # y = E[Y'] + q(path, y, z, u) dt, solved by fixed point; contraction
    # needs L*dt < 1 on the generator's y-slope.
    y = e_y
    for _ in range(FIXED_POINT_MAX_ITER):
        y_new = e_y + float(cp.generator(path, y, z, u)) * dt
        if not math.isfinite(y_new):
            raise ContractError("generator produced a non-finite value")
        if abs(y_new - y) <= FIXED_POINT_TOL * (1.0 + abs(y_new)):
            return y_new
        y = y_new
    raise ContractError("implicit generator step did not converge; check L*dt < 0.5")


def solve_bsde_tree(cp: ControlProblem, tree: NoiseTree, terminal=None) -> BsdeSolution:
    """Backward recursion Y_k = E[Y_{k+1}] + q(X_k, Y_k, Z_k, u_k) dt with
    Z_k = E[Y_{k+1} dW^T] / dt on the tree's states and controls.

    ``terminal`` overrides cp.terminal; it may be a callable on leaf paths or
    a per-leaf array ordered by leaf index.
    """
    links, terminal = (None,) * tree.depth, cp.terminal if terminal is None else terminal
    y_levels, z_levels = _backward(cp, tree.levels, tree.controls, links, None, tree.increments, tree.dt, terminal)
    return BsdeSolution(y_levels=tuple(y_levels), z_levels=tuple(z_levels))


def backward_semigroup(
    cp: ControlProblem, p0: Path, strategy: ControlStrategy, delta_steps: int, eta, cap: int = DEFAULT_NODE_CAP
) -> float:
    """Value at p0 of the BSDE over [t, t + delta] with terminal data eta."""
    tree = simulate_tree(cp, p0, p0.t_index + delta_steps, strategy, cap)
    return solve_bsde_tree(cp, tree, terminal=eta).root_value


def cost(cp: ControlProblem, p0: Path, strategy: ControlStrategy, cap: int = DEFAULT_NODE_CAP) -> float:
    """Root Y of the controlled BSDE over the full horizon."""
    tree = simulate_tree(cp, p0, cp.grid.steps, strategy, cap)
    return solve_bsde_tree(cp, tree).root_value


class ValueSolver:
    """Per-node maximization over the finite control set, level by level.

    ``memo`` maps (grid index, path bytes) to (value, first maximizing
    control) for every internal node solved; keying on the path is sound
    because the future law depends on the past only through the path.
    ``best_control`` reads it, solving from the path on a miss.
    """

    def __init__(self, cp: ControlProblem, end_index: int, terminal_fn: Callable[[Path], float], cap: int = DEFAULT_NODE_CAP):
        self.cp, self.end_index, self.terminal_fn, self.cap = cp, end_index, terminal_fn, cap
        self.incs = _increments(cp.grid.noise_dim, cp.grid.dt)
        self.memo: dict = {}

    def solve(self, p0: Path) -> float:
        cp, depth, key = self.cp, self.end_index - p0.t_index, (p0.t_index, p0.values.tobytes())
        if depth < 0:
            raise PathError(f"path at grid index {p0.t_index} is past the end index {self.end_index}")
        _check_cap(len(cp.controls) * self.incs.shape[0], depth, self.cap)
        if depth == 0:
            return float(self.terminal_fn(Path._wrap(p0.values, cp.grid.dt)))
        if key not in self.memo:
            fwd = _forward(cp, p0, depth, self.incs, cp.grid.dt)
            _backward(cp, *fwd, self.incs, cp.grid.dt, self.terminal_fn, self.memo)
        return self.memo[key][0]

    def best_control(self, path: Path):
        key = (path.t_index, path.values.tobytes())
        if key not in self.memo:
            self.solve(path)
        return self.memo[key][1]


def value(cp: ControlProblem, p0: Path, cap: int = DEFAULT_NODE_CAP) -> float:
    """Supremum of the BSDE cost over adapted controls, exact on the tree."""
    return ValueSolver(cp, cp.grid.steps, cp.terminal, cap).solve(p0)


def value_with_strategy(cp: ControlProblem, p0: Path, cap: int = DEFAULT_NODE_CAP):
    """Value plus the argmax feedback strategy that attains it."""
    solver = ValueSolver(cp, cp.grid.steps, cp.terminal, cap)
    v = solver.solve(p0)
    return v, ControlStrategy(feedback=solver.best_control)


def dpp_check(cp: ControlProblem, p0: Path, delta_steps: int, cap: int = DEFAULT_NODE_CAP) -> float:
    """|V(p0) - sup_u G_{t,t+delta}[V at t+delta]| on the exact tree."""
    mid = p0.t_index + delta_steps
    if mid > cp.grid.steps:
        raise PathError("delta_steps passes the horizon")
    v_direct = value(cp, p0, cap)
    inner = ValueSolver(cp, cp.grid.steps, cp.terminal, cap)
    outer = ValueSolver(cp, mid, lambda path: inner.solve(path), cap)
    return abs(v_direct - outer.solve(p0))


def _euler_path(coeffs: Callable[[Path], tuple], p0: Path, end_index: int, rng: np.random.Generator):
    """Euler-Maruyama path extending p0 to end_index, and its steps.

    coeffs(path) -> (b, sigma) at the current node, float arrays of shape
    (d,) and (d, n). The noise is drawn in one
    (steps, n) batch once sigma gives n, and each step adds dx = b dt + sigma dw.
    Returns the finished path and one (path, sigma, dx) record per step.
    Finiteness is checked once, for the whole path.
    """
    if end_index < p0.t_index:
        raise PathError("end_index before the start of the path")
    dt = p0.dt
    k0 = p0.t_index
    vals = np.empty((p0.d, end_index + 1))
    vals[:, : k0 + 1] = p0.values
    records = []
    draws = None
    for k in range(k0, end_index):
        view = vals[:, : k + 1]
        view.setflags(write=False)
        path = Path._wrap(view, dt) if k > k0 else p0
        b, sig = coeffs(path)
        if draws is None:
            draws = rng.normal(0.0, np.sqrt(dt), size=(end_index - k0, sig.shape[1]))
        dx = b * dt + sig @ draws[k - k0]
        vals[:, k + 1] = vals[:, k] + dx
        records.append((path, sig, dx))
    if not np.isfinite(vals).all():
        first = int(np.argmin(np.isfinite(vals).all(axis=0)))
        raise BlowupError(f"state blew up at step {first}")
    vals.setflags(write=False)
    return Path._wrap(vals, dt), records


def simulate_psde(cp: ControlProblem, p0: Path, strategy: ControlStrategy, end_index: int, seed: int) -> Path:
    """Euler-Maruyama path of the controlled dynamics, extending p0."""

    def coeffs(path: Path):
        b, sig = cp.coeffs((path,), (strategy.control_at(path),))
        return b[0], sig[0]

    return _euler_path(coeffs, p0, end_index, np.random.default_rng(seed))[0]


def regularity_probe(cp: ControlProblem, samples: int, seed: int, cap: int = DEFAULT_NODE_CAP):
    """(lipschitz_ratio, time_ratio) of the value functional over random probes.

    lipschitz_ratio: sup |V(p) - V(p')| / ||p - p'||_0 over same-time pairs;
    time_ratio: sup |V(p) - V(ext)| / ((1 + ||p||_0) sqrt(t' - t)) where ext
    holds the last value to a later time.
    """
    rng = np.random.default_rng(seed)
    g = cp.grid
    lip = 0.0
    tim = 0.0
    for _ in range(samples):
        k = int(rng.integers(0, g.steps))
        p, q = bridge_pair(rng, g.dim, g.dt, k)
        vp = value(cp, p, cap)
        gap = _joint_gap(p, q)
        if gap > 0:
            lip = max(lip, abs(vp - value(cp, q, cap)) / gap)
        k2 = int(rng.integers(k + 1, g.steps + 1))
        ext = horizontal_extension(p, k2)
        denom = (1.0 + sup_norm(p)) * np.sqrt((k2 - k) * g.dt)
        tim = max(tim, abs(vp - value(cp, ext, cap)) / denom)
    return lip, tim


def moment_probe(
    cp: ControlProblem,
    p0: Path,
    strategy: ControlStrategy,
    n_paths: int,
    seed: int,
    p: int = 2,
):
    """Monte Carlo moment constants for the controlled state.

    Returns (growth_c, continuity_c):
    growth_c fits E ||X_T||_0^p <= C (1 + ||gamma_t||_0^p);
    continuity_c fits E ||X_r - gamma_t||_0^p <= C (1 + ||gamma_t||_0^p) (r-t)^{p/2}
    as the max of the ratio over intermediate times r.
    """
    g = cp.grid
    n_steps = g.steps - p0.t_index
    base = 1.0 + sup_norm(p0) ** p
    sums_gap = np.zeros(n_steps)
    sum_end = 0.0
    for i in range(n_paths):
        x = simulate_psde(cp, p0, strategy, g.steps, seed + i)
        sum_end += sup_norm(x) ** p
        for j in range(1, n_steps + 1):
            xr = restrict(x, p0.t_index + j)
            sums_gap[j - 1] += _joint_gap(xr, p0) ** p
    growth_c = (sum_end / n_paths) / base
    ratios = [
        (sums_gap[j - 1] / n_paths) / (base * ((j * g.dt) ** (p / 2)))
        for j in range(1, n_steps + 1)
    ]
    return growth_c, max(ratios)
