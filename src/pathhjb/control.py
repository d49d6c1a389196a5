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
from typing import Callable, Optional, Sequence

import numpy as np

from .pathspace import (
    CapacityError,
    GridConfig,
    Path,
    PathError,
    _count,
    _joint_gap,
    _keys,
    _sq_cols,
    horizontal_extension,
    sup_norm,
)
from .sampling import _check_draws, bridge_pair

__all__ = [
    "CapacityError",
    "ContractError",
    "BlowupError",
    "ControlStrategy",
    "ControlProblem",
    "BoundGenerator",
    "per_path",
    "NoiseTree",
    "BsdeSolution",
    "simulate_psde",
    "simulate_tree",
    "solve_bsde_tree",
    "backward_semigroup",
    "cost",
    "value",
    "value_with_strategy",
    "dpp_check",
    "regularity_probe",
    "moment_probe",
]

DEFAULT_NODE_CAP = 2**18
FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAX_ITER = 50


class ContractError(RuntimeError):
    """Fixed-point iteration for the implicit generator step diverged."""


class BlowupError(RuntimeError):
    """Simulation produced a non-finite state."""


class _Constant:
    """The feedback map of ``ControlStrategy.constant``: u at every path."""

    def __init__(self, u):
        self.u = u

    def __call__(self, path: Path):
        return self.u


@dataclass(frozen=True)
class ControlStrategy:
    """Open-loop control sequence or feedback map on the observed path.

    Open-loop entries are indexed by absolute grid index;
    a feedback map sees only the path up to the current node, so it is
    adapted by construction.
    """

    open_loop: Optional[tuple] = None
    feedback: Optional[Callable[[Path], object]] = None

    def __post_init__(self):
        if (self.open_loop is None) == (self.feedback is None):
            raise PathError("exactly one of open_loop/feedback must be given")
        if self.open_loop is not None:
            object.__setattr__(self, "open_loop", tuple(self.open_loop))

    @staticmethod
    def constant(u) -> "ControlStrategy":
        return ControlStrategy(feedback=_Constant(u))

    def control_at(self, path: Path):
        if self.feedback is not None:
            return self.feedback(path)
        if path.t_index >= len(self.open_loop):
            raise PathError(f"open-loop sequence has no control for grid index {path.t_index}")
        return self.open_loop[path.t_index]


@dataclass(frozen=True)
class ControlProblem:
    """Coefficient bundle (b, sigma, q, phi, U) on a uniform grid.

    Every coefficient is an array form over ``vals``, an (N, d, K) array of N
    same-time paths on the grid's dt, and a sequence ``us`` of N controls:
    drift(vals, us) -> (N, d), diffusion(vals, us) -> (N, d, n),
    generator(vals, y, z, us) -> (N,) with y (N,) and z (N, n), and
    terminal(vals) -> (N,). The solvers read a whole tree level, Euler step or
    x grid in one call, and may pass ``vals`` read-only, such as a tree level
    itself: a form must not write into it, nor into a value it returned, which
    the solvers may read without a copy. A value of another shape raises
    PathError; an error the form raises reaches the caller as it is.
    Coefficients written per path enter through ``per_path``; a generator whose
    y-free reads are worth doing once per implicit solve, through
    ``BoundGenerator``.
    """

    drift: Callable[[np.ndarray, Sequence], np.ndarray]
    diffusion: Callable[[np.ndarray, Sequence], np.ndarray]
    generator: Callable[[np.ndarray, np.ndarray, np.ndarray, Sequence], np.ndarray]
    terminal: Callable[[np.ndarray], np.ndarray]
    controls: tuple
    grid: GridConfig

    def __post_init__(self):
        if len(self.controls) == 0:
            raise PathError("control set must be nonempty")
        object.__setattr__(self, "controls", tuple(self.controls))

    def coeffs(self, vals: np.ndarray, us) -> tuple[np.ndarray, np.ndarray]:
        """Drift and diffusion at N (path, control) pairs, as read-only float
        arrays of shape (N, d) and (N, d, n) for N controls ``us``; the solvers'
        only reader of both. ``vals`` is an (M, d, K) array of same-time paths
        on the grid's dt, each under N / M consecutive controls (a tree level).
        A value of another shape raises PathError naming the shapes."""
        g, n = self.grid, len(us)
        vals = vals if n == len(vals) else np.repeat(vals, n // len(vals), axis=0)  # a tree level under all of U
        return _stack_checked("drift", self.drift(vals, us), (n, g.dim)), _stack_checked(
            "diffusion", self.diffusion(vals, us), (n, g.dim, g.noise_dim)
        )


class BoundGenerator:
    """A generator split at y. Its form takes y, z and us last, as a ControlProblem's
    (vals, y, z, us) or an AugmentedProblem's (omega, x, y, z, us), and ``bind`` takes
    every argument but y, does every read that does not depend on y once and returns
    the (N,) form of y: the generator is ``bind(*args, z, us)(y)``. The implicit step
    binds once per batch of rows and once more after rows leave it, so each round
    reads only y; every other reader calls the form as any generator. Its module is
    ``bind``'s."""

    def __init__(self, bind: Callable[..., Callable[[np.ndarray], np.ndarray]]):
        self.bind = bind
        self.__module__ = bind.__module__

    def __call__(self, *args) -> np.ndarray:
        return self.bind(*args[:-3], *args[-2:])(args[-3])

    def through(self, head: Callable[..., tuple]) -> "BoundGenerator":
        """This generator read through ``head``, a map of the leading arguments of a
        new form to this one's: the form g(*args, y, z, us) = self(*head(*args), y,
        z, us), bound as this one binds. Its module is ``head``'s."""
        bind = self.bind
        out = BoundGenerator(lambda *args: bind(*head(*args[:-2]), *args[-2:]))
        out.__module__ = head.__module__
        return out


def per_path(fn: Callable, dt: float) -> Callable:
    """The array form of a coefficient written per path: fn(path, *row) at each
    row of ``vals``, as a Path on ``dt``, where row holds that row's entries of
    the other arguments (u; or y, z and u; or nothing). A real value goes
    through float(); the reader stacks the values and checks their shapes."""

    def form(vals: np.ndarray, *args):
        vals = vals.view()
        vals.setflags(write=False)  # each row becomes a read-only Path
        args = [a.tolist() if isinstance(a, np.ndarray) and a.ndim == 1 else a for a in args]
        out = [fn(Path._wrap(row, dt), *rest) for row, *rest in zip(vals, *args)]
        return [float(v) if np.ndim(v) == 0 else v for v in out]

    return form


def _stack_checked(name: str, rows, shape: tuple) -> np.ndarray:
    """Read-only float array of ``rows``, a coefficient's value or its list of
    per-path values, which must have ``shape``: one value of shape[1:] per
    evaluation, such as a (path, control) pair. A float64 ndarray is read
    through a read-only view, anything else through a float copy."""
    try:
        out = np.asarray(rows, dtype=float).view()
    except (TypeError, ValueError):  # a ragged list
        out = np.empty(0)
    if out.shape != shape:
        got = sorted({np.asarray(r, dtype=object).shape for r in rows}) if isinstance(rows, list) else [out.shape]
        raise PathError(
            f"{name} must return shape {shape[1:]} at each of {shape[0]} evaluations, got {', '.join(map(str, got))}"
        )
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
    array of shape (branching^k, d, root_cols + k) and ``controls[k]`` the
    control that expanded each node as a 1-D object array, both under the
    build strategy. Increments have exact mean 0 and variance dt per coordinate.
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


def _check_root(cp: ControlProblem, root: Path, what: str = "root path") -> float:
    """The grid's dt, which ``root`` must share, as it must the grid's
    dimension: the coefficients read their paths on both. A PathError names
    the path as ``what``."""
    if root.dt != cp.grid.dt:
        raise PathError(f"{what} has dt {root.dt}, the grid's is {cp.grid.dt}")
    if root.d != cp.grid.dim:
        raise PathError(f"{what} has dimension {root.d}, the grid's is {cp.grid.dim}")
    return root.dt


def _check_cap(fan: int, depth: int, cap: int, roots: int = 1) -> int:
    # fan = children per node: 2^n for a cost, |U| * 2^n for the value; a forest
    # of N roots has N times one tree's leaves. No cap reaches 2^63. Returns how
    # many roots a forest of this depth may have.
    cap = _count("cap", cap, 1)
    leaves = roots * fan**depth if depth * math.log2(fan) <= 63 else math.inf
    if leaves > cap:
        what, times = ("tree", "") if roots == 1 else (f"forest of {roots} trees", f"{roots} x ")
        raise CapacityError(f"{what} of depth {depth} needs {times}{fan}^{depth} = {leaves} leaves, over the node cap {cap}")
    return cap // fan**depth


def _controls_of(strategy: ControlStrategy, vals: np.ndarray, dt: float) -> np.ndarray:
    """``strategy``'s control at each row of ``vals``, read-only same-time paths
    on ``dt``, as a 1-D object array (controls may be tuples). A constant or
    open-loop strategy is read once: every row shares the grid index."""
    if isinstance(strategy.feedback, _Constant):
        u = strategy.feedback.u
    elif strategy.open_loop is not None:
        u = strategy.control_at(Path._wrap(vals[0], dt))
    else:
        return np.fromiter((strategy.control_at(Path._wrap(row, dt)) for row in vals), object, len(vals))
    return np.fromiter(itertools.repeat(u, len(vals)), object, len(vals))


def _forward(cp: ControlProblem, roots: np.ndarray, depth: int, incs: np.ndarray, strategy=None):
    """Forward pass from ``roots``, an (N, d, c) array of same-time paths at grid
    index c - 1 on the grid's dt: level k's node paths as one (N_k, d, c + k)
    array. Each node is expanded under ``strategy``'s control or, for the value
    (``strategy`` None), under all of U; children are ordered (node, control,
    move): node j's child under control i and move m is row (j * n_u + i) *
    2^n + m of the next level, and ctrls[k] holds level k's controls in that
    order as a 1-D object array. Returns (levels, ctrls)."""
    dt = cp.grid.dt
    b_count, n = incs.shape
    n_u = len(cp.controls) if strategy is None else 1
    every = np.fromiter(cp.controls, object, len(cp.controls))  # controls may be tuples
    first = np.array(roots, dtype=float)
    first.setflags(write=False)
    t0 = first.shape[-1] - 1
    levels, ctrls = [first], []
    for k in range(depth):
        cur = levels[k]
        count, d, cols = cur.shape
        us = every[None].repeat(count, axis=0).reshape(-1) if strategy is None else _controls_of(strategy, cur, dt)
        bvec, sig = cp.coeffs(cur, us)
        sig = sig.reshape(count, n_u, d, n).swapaxes(-1, -2)
        steps = cur[:, None, None, :, -1] + bvec.reshape(count, n_u, 1, d) * dt + incs @ sig
        if not np.isfinite(steps).all():
            raise BlowupError(f"non-finite state at grid index {t0 + k + 1}")
        kids = np.empty(steps.shape[:-1] + (d, cols + 1))
        kids[..., :cols] = cur[:, None, None]
        kids[..., cols] = steps
        kids = kids.reshape(-1, d, cols + 1)
        kids.setflags(write=False)
        levels.append(kids)
        ctrls.append(us)
    return levels, ctrls


def _backward(cp: ControlProblem, levels, ctrls, incs: np.ndarray, terminal):
    """Backward pass Y = E[Y'] + q(path, Y, Z, u) dt, Z = E[Y' dW^T] / dt over
    ``_forward``'s levels, with ``terminal`` an array form or one value per
    leaf. Each node keeps its first control of maximal Y: for a cost the one
    control it has, for the value the argmax over U. Returns (y_levels,
    z_levels, best_levels), best_levels[k] the kept control index of each
    internal node of level k. The terminal serves the leaves in one call, and
    each level's implicit steps are one masked fixed point."""
    dt, n_leaves = cp.grid.dt, levels[-1].shape[0]
    if callable(terminal):
        y = _stack_checked("terminal", terminal(levels[-1]), (n_leaves,))
    else:
        y = np.asarray(terminal, dtype=float)
        if y.shape != (n_leaves,):
            raise PathError(f"terminal data must have one value per leaf ({n_leaves})")
    if not np.isfinite(y).all():
        raise BlowupError("non-finite terminal data")
    b_count, n = incs.shape
    y_levels, z_levels, best_levels = [y], [np.zeros((y.shape[0], n))], []
    for k in range(len(ctrls) - 1, -1, -1):
        count = levels[k].shape[0]
        n_u = len(ctrls[k]) // count
        yc = y.reshape(-1, b_count)
        e = np.add.reduce(yc, axis=-1) / b_count  # numpy's own mean
        z = (yc[:, None] @ incs)[:, 0] / (b_count * dt)
        vals = levels[k] if n_u == 1 else np.repeat(levels[k], n_u, axis=0)
        y_u = _implicit(cp.generator, vals, e, z, ctrls[k], dt)
        best = y_u.reshape(count, n_u).argmax(axis=1)
        y, z = y_u[best + n_u * np.arange(count)], z[best + n_u * np.arange(count)]
        y_levels.append(y)
        z_levels.append(z)
        best_levels.append(best)
    return y_levels[::-1], z_levels[::-1], best_levels[::-1]


def simulate_tree(
    cp: ControlProblem, p0: Path, end_index: int, strategy: Optional[ControlStrategy] = None, cap: int = DEFAULT_NODE_CAP
) -> NoiseTree:
    """Build the exact noise tree from p0 to end_index under ``strategy``
    (default: the constant first control), keeping each node's control."""
    depth = _count("tree end_index", end_index, p0.t_index) - p0.t_index
    n = cp.grid.noise_dim
    _check_cap(2**n, depth, cap)
    if strategy is None:
        strategy = ControlStrategy.constant(cp.controls[0])
    incs = _increments(n, _check_root(cp, p0))
    levels, ctrls = _forward(cp, p0.values[None], depth, incs, strategy)
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


def _implicit(generator: Callable, vals: np.ndarray, e_y: np.ndarray, z: np.ndarray, us, dt: float) -> np.ndarray:
    """y = T(y) = e_y + q(vals, y, z, us) dt at N (node, control) rows, by one masked safeguarded
    secant on F(y) = T(y) - y from y0 = e_y: round 0 takes the plain step y1 = T(y0), each later
    round each row's secant step through its last two iterates, or the plain step where that is
    not finite. A row leaves the batch with T(y) once |F(y)| is within FIXED_POINT_TOL. The ratio
    |F(y1)| / |F(y0)| is the y-slope of q times dt between y0 and y1, at most L*dt: a row not yet
    converged whose ratio is 0.5 or more fails the L*dt < 0.5 contract. So does a row whose value
    is not finite, or that has not converged in FIXED_POINT_MAX_ITER rounds; the lowest-index
    failing row raises its own ContractError, and rows above it stop iterating. A BoundGenerator
    is bound before the first round and before the first round after rows leave, and each round
    calls the bound form on y; any other generator is called with every argument each round."""
    if isinstance(generator, BoundGenerator):
        bind = generator.bind
    else:
        bind = lambda vals, z, us: lambda y: generator(vals, y, z, us)
    out, rows, y, q = np.empty_like(e_y), np.arange(len(e_y)), e_y, None
    y_old = f_old = e_y  # the previous iterate and its F, read from round 1 on
    first_bad, error = len(e_y), None  # the lowest failing row and its message
    for r in range(FIXED_POINT_MAX_ITER):
        if q is None:  # the first round over these rows
            q = bind(vals, z, us)
        t = e_y + _stack_checked("generator", q(y), y.shape) * dt
        f = t - y
        done = np.abs(f) <= FIXED_POINT_TOL * (1.0 + np.abs(t))
        if r == 1 or not np.isfinite(t).all():  # else no row can fail this round
            failed = ~np.isfinite(t)
            if r == 1:
                ratio = np.abs(f) / np.abs(f_old)
                failed |= ~done & (ratio >= 0.5)
            i = int(failed.argmax())
            if failed[i]:
                first_bad = int(rows[i])
                error = "generator produced a non-finite value" if not np.isfinite(t[i]) else (
                    f"implicit generator step does not contract: observed contraction ratio {ratio[i]:.3g} (estimates L*dt; needs L*dt < 0.5)"
                )
        n_done = np.count_nonzero(done)
        if n_done == len(t):  # every row leaves: no gather
            out[rows] = t
            break
        if n_done or rows[-1] >= first_bad:  # else no row leaves
            out[rows[done]] = t[done]
            keep = (~done & (rows < first_bad)).nonzero()[0]
            if keep.size == 0:
                break
            rows, vals, e_y, z, us, y, t, f, y_old, f_old = (a[keep] for a in (rows, vals, e_y, z, us, y, t, f, y_old, f_old))
            q = None
        if r == FIXED_POINT_MAX_ITER - 1:
            c, p = float(abs(f[0])), float(abs(f_old[0]))
            raise ContractError(
                f"implicit generator step did not converge in {FIXED_POINT_MAX_ITER} iterations: last step change "
                f"{c:.3e}, ratio of the last two step changes {c / p:.3g} (the step needs L*dt < 0.5)"
            )
        if r:
            with np.errstate(all="ignore"):  # a zero denominator or an overflow takes the plain step
                step = y - f * (y - y_old) / (f - f_old)
            t = np.where(np.isfinite(step), step, t)
        y_old, f_old, y = y, f, t
    if error is not None:
        raise ContractError(error)
    return out


def solve_bsde_tree(cp: ControlProblem, tree: NoiseTree, terminal=None) -> BsdeSolution:
    """Backward recursion Y_k = E[Y_{k+1}] + q(X_k, Y_k, Z_k, u_k) dt with
    Z_k = E[Y_{k+1} dW^T] / dt on the tree's states and controls.

    ``terminal`` overrides cp.terminal; it may be a callable on leaf paths,
    read through ``per_path``, or a per-leaf array ordered by leaf index.
    """
    if terminal is None:
        terminal = cp.terminal
    elif callable(terminal):
        terminal = per_path(terminal, tree.dt)
    y_levels, z_levels, _ = _backward(cp, tree.levels, tree.controls, tree.increments, terminal)
    return BsdeSolution(y_levels=tuple(y_levels), z_levels=tuple(z_levels))


def backward_semigroup(
    cp: ControlProblem, p0: Path, strategy: ControlStrategy, delta_steps: int, eta, cap: int = DEFAULT_NODE_CAP
) -> float:
    """Value at p0 of the BSDE over [t, t + delta] with terminal data eta, a
    callable on the paths at t + delta or one value per leaf."""
    tree = simulate_tree(cp, p0, p0.t_index + _count("delta_steps", delta_steps, 0), strategy, cap)
    return solve_bsde_tree(cp, tree, terminal=eta).root_value


def cost(cp: ControlProblem, p0: Path, strategy: ControlStrategy, cap: int = DEFAULT_NODE_CAP) -> float:
    """Root Y of the controlled BSDE over the full horizon."""
    tree = simulate_tree(cp, p0, cp.grid.steps, strategy, cap)
    return solve_bsde_tree(cp, tree).root_value


def _solve_forest(cp: ControlProblem, roots: np.ndarray, end_index: int, terminal_fn: Callable, cap: int):
    """Per-node maximization over the finite control set from each row of
    ``roots``, an (N, d, c) array of paths at grid index c - 1 on the grid's
    dt, to end_index, level by level, with ``terminal_fn`` an array form on the
    paths at end_index. Returns the N root values, the node paths of each
    level and each internal node's first maximizing control index. The engine
    works row by row, so each root's value == its own solve's."""
    depth = end_index - (roots.shape[-1] - 1)
    if depth < 0:
        raise PathError(f"path at grid index {roots.shape[-1] - 1} is past the end index {end_index}")
    incs = _increments(cp.grid.noise_dim, cp.grid.dt)
    _check_cap(len(cp.controls) * incs.shape[0], depth, cap, roots.shape[0])
    levels, ctrls = _forward(cp, roots, depth, incs)
    y_levels, _, best_levels = _backward(cp, levels, ctrls, incs, terminal_fn)
    return y_levels[0], levels, best_levels


def _values(cp: ControlProblem, paths: Sequence[Path], cap: int = DEFAULT_NODE_CAP) -> np.ndarray:
    """V at each of ``paths``, in input order: one forest solve per grid index,
    in chunks of at most cap // fan^depth roots, so each forest's N x fan^depth
    leaves stay within the node cap (a path over it alone raises CapacityError
    as ``value`` does)."""
    out, groups, g = np.empty(len(paths)), {}, cp.grid
    for i, p in enumerate(paths):
        _check_root(cp, p)
        groups.setdefault(p.t_index, []).append(i)
    fan = len(cp.controls) * 2**g.noise_dim
    for k, idx in groups.items():
        size = _check_cap(fan, max(g.steps - k, 0), cap)
        for s in range(0, len(idx), size):
            chunk = idx[s : s + size]
            out[chunk] = _solve_forest(cp, np.stack([paths[i].values for i in chunk]), g.steps, cp.terminal, cap)[0]
    return out


def value(cp: ControlProblem, p0: Path, cap: int = DEFAULT_NODE_CAP) -> float:
    """Supremum of the BSDE cost over adapted controls, exact on the tree."""
    return float(_values(cp, [p0], cap)[0])


def value_with_strategy(cp: ControlProblem, p0: Path, cap: int = DEFAULT_NODE_CAP):
    """Value plus the argmax feedback strategy that attains it. The feedback reads a table from
    the ``Path.key()`` of each internal node the strategy plays from p0, 2^(n k) nodes at level
    k (63 keys for bang-bang at 6 steps, 511 at 9), to its first maximizing control (sound, as
    the future law depends on the past only through the path); off the table each lookup costs
    one solve from that path, whose root argmax it reads."""
    _check_root(cp, p0)
    y, levels, best_levels = _solve_forest(cp, p0.values[None], cp.grid.steps, cp.terminal, cap)
    n_u, b_count = len(cp.controls), 2**cp.grid.noise_dim
    table, played = {}, [0]  # the played nodes of level k, by index
    for k, best in enumerate(best_levels):
        kept = best[played].tolist()
        table.update(zip(_keys(p0.t_index + k, levels[k][played]), kept))
        played = [(j * n_u + i) * b_count + m for j, i in zip(played, kept) for m in range(b_count)]

    def best_control(path: Path):
        i = table.get(path.key())
        if i is None:
            if path.t_index == cp.grid.steps:
                raise PathError(f"no control is chosen at grid index {path.t_index}, the horizon")
            _check_root(cp, path)
            i = int(_solve_forest(cp, path.values[None], cp.grid.steps, cp.terminal, cap)[2][0][0])
        return cp.controls[i]

    return float(y[0]), ControlStrategy(feedback=best_control)


def dpp_check(cp: ControlProblem, p0: Path, delta_steps: int, cap: int = DEFAULT_NODE_CAP) -> float:
    """|V(p0) - sup_u G_{t,t+delta}[V at t+delta]| on the exact tree; V at the
    outer tree's leaves is one forest solve from them to the horizon, whose
    leaves are as many as the direct solve's, so the cap it passed holds."""
    delta_steps = _count(f"delta_steps from grid index {p0.t_index}", delta_steps, 0, cp.grid.steps - p0.t_index)
    v_direct = value(cp, p0, cap)
    inner = lambda vals: _solve_forest(cp, vals, cp.grid.steps, cp.terminal, cap)[0]
    return abs(v_direct - float(_solve_forest(cp, p0.values[None], p0.t_index + delta_steps, inner, cap)[0][0]))


def _euler_path(coeffs: Callable[[np.ndarray], tuple], p0: Path, end_index: int, n_paths: int, rng: np.random.Generator):
    """n_paths Euler-Maruyama paths extending p0 to end_index, stepped together.

    coeffs(vals) -> (b, sigma) at the current node of each path, with vals the
    read-only (N, d, k + 1) state up to the current grid index k, as float
    arrays of shape (N, d) and (N, d, n). The noise is drawn in one (N, steps, n)
    batch once sigma gives n, the same stream as one (steps, n) draw per path,
    and each step adds dx = b dt + sigma dw. Returns the read-only
    (N, d, end_index + 1) state and one (sigma, dx) record per step.
    Finiteness is checked once, after the last step; a non-finite state raises
    BlowupError naming the lowest-index blown-up path's first non-finite
    grid index.
    """
    dt = p0.dt
    k0 = p0.t_index
    end_index = _count("Euler end_index", end_index, k0)
    _check_draws("Euler batch", n_paths, p0.d, end_index + 1)
    vals = np.empty((n_paths, p0.d, end_index + 1))
    vals[:, :, : k0 + 1] = p0.values
    state = vals.view()
    state.setflags(write=False)  # columns 0..k are final once step k is taken
    records = []
    dw = None
    for k in range(k0, end_index):
        b, sig = coeffs(state[:, :, : k + 1])
        if dw is None:
            dw = rng.normal(0.0, np.sqrt(dt), size=(n_paths, end_index - k0, sig.shape[-1]))
        dx = b * dt + (sig @ dw[:, k - k0, :, None])[..., 0]
        vals[:, :, k + 1] = vals[:, :, k] + dx
        records.append((sig, dx))
    finite = np.isfinite(vals).all(axis=1)
    blown = np.flatnonzero(~finite.all(axis=1))
    if blown.size:
        i = int(blown[0])
        where = f" on path {i} of {n_paths}" if n_paths > 1 else ""
        raise BlowupError(f"state blew up at step {int(np.argmin(finite[i]))}{where}")
    return state, records


def _controlled(cp: ControlProblem, p0: Path, strategy: ControlStrategy) -> Callable[[np.ndarray], tuple]:
    """_euler_path's coefficient reader for paths extending p0: cp.coeffs under
    ``strategy``'s control at each path."""
    dt = _check_root(cp, p0)
    return lambda vals: cp.coeffs(vals, _controls_of(strategy, vals, dt))


def simulate_psde(cp: ControlProblem, p0: Path, strategy: ControlStrategy, end_index: int, seed: int) -> Path:
    """Euler-Maruyama path of the controlled dynamics, extending p0."""
    state, _ = _euler_path(_controlled(cp, p0, strategy), p0, end_index, 1, np.random.default_rng(seed))
    return Path._wrap(state[0], p0.dt)


def regularity_probe(cp: ControlProblem, samples: int, seed: int, cap: int = DEFAULT_NODE_CAP):
    """(lipschitz_ratio, time_ratio) of the value functional over random probes.

    lipschitz_ratio: sup |V(p) - V(p')| / ||p - p'||_0 over same-time pairs;
    time_ratio: sup |V(p) - V(ext)| / ((1 + ||p||_0) sqrt(t' - t)) where ext
    holds the last value to a later time. Every probe is drawn first, and V
    at all of them is solved by grid index.
    """
    rng = np.random.default_rng(seed)
    g = cp.grid
    probes = []
    for _ in range(_count("regularity_probe samples", samples, 1)):
        k = int(rng.integers(0, g.steps))
        p, q = bridge_pair(rng, g.dim, g.dt, k)
        probes += [p, q, horizontal_extension(p, int(rng.integers(k + 1, g.steps + 1)))]
    vals = _values(cp, probes, cap).tolist()
    lip = tim = 0.0
    for i in range(0, len(probes), 3):
        (p, q, ext), (vp, vq, ve) = probes[i : i + 3], vals[i : i + 3]
        gap = _joint_gap(p, q)
        if gap > 0:
            lip = max(lip, abs(vp - vq) / gap)
        denom = (1.0 + sup_norm(p)) * np.sqrt((ext.t_index - p.t_index) * g.dt)
        tim = max(tim, abs(vp - ve) / denom)
    return lip, tim


def moment_probe(cp: ControlProblem, p0: Path, strategy: ControlStrategy, n_paths: int, seed: int):
    """Monte Carlo second-moment constants for the controlled state.

    Returns (growth_c, continuity_c):
    growth_c fits E ||X_T||_0^2 <= C (1 + ||gamma_t||_0^2);
    continuity_c fits E ||X_r - gamma_t||_0^2 <= C (1 + ||gamma_t||_0^2) (r-t)
    as the max of the ratio over intermediate times r. The n_paths paths are
    one Euler batch on ``seed``; ||X_r - gamma_t||_0 is the sup gap after
    holding gamma_t's last value, the running max of the gap to its endpoint.
    """
    g = cp.grid
    n_paths = _count("moment_probe n_paths", n_paths, 1)
    if p0.t_index >= g.steps:
        raise PathError(f"moment_probe needs p0 before the horizon, got grid index {p0.t_index} of {g.steps}")
    state, _ = _euler_path(_controlled(cp, p0, strategy), p0, g.steps, n_paths, np.random.default_rng(seed))
    base = 1.0 + sup_norm(p0) ** 2
    sup_sq = np.sqrt(_sq_cols(state)).max(axis=-1) ** 2
    gaps = np.sqrt(_sq_cols(state[:, :, p0.t_index + 1 :] - p0.values[:, -1:]))
    gap_sq = np.maximum.accumulate(gaps, axis=-1) ** 2  # column j - 1: the gap of X restricted to t + j dt
    ratios = gap_sq.mean(axis=0) / (base * g.dt * np.arange(1, gap_sq.shape[1] + 1))
    return float(sup_sq.mean() / base), float(ratios.max())
