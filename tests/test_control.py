import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathhjb import control
from pathhjb.bshjb import augment
from pathhjb.control import (
    DEFAULT_NODE_CAP,
    BlowupError,
    BoundGenerator,
    CapacityError,
    FIXED_POINT_MAX_ITER,
    FIXED_POINT_TOL,
    ContractError,
    ControlProblem,
    ControlStrategy,
    backward_semigroup,
    cost,
    dpp_check,
    moment_probe,
    per_path,
    regularity_probe,
    simulate_psde,
    simulate_tree,
    solve_bsde_tree,
    _implicit,
    _stack_checked,
    _increments,
    _solve_forest,
    _values,
    value,
    value_with_strategy,
)
from pathhjb.expressions import inline_problem
from pathhjb.funcalc import constant_functional, ito_check
from pathhjb.pathspace import GridConfig, Path, PathError, _keys, horizontal_extension
from pathhjb.phjb import HamiltonianInput, XGrid, hamiltonian, markov_fd_solve, markovian_reduction
from pathhjb.presets import PRESETS, bangbang_problem, heat_problem, lq_problem, random_augmented_problem, random_problem
from pathhjb.sampling import random_path

GRID4 = GridConfig(4, 1.0, 1, 1)
CONST0 = ControlStrategy.constant(0.0)


COEFFICIENTS = ("drift", "diffusion", "generator", "terminal")


def _per_path(drift, diffusion, generator, terminal, controls, grid):
    """The ControlProblem of coefficients written per path."""
    forms = {name: per_path(fn, grid.dt) for name, fn in zip(COEFFICIENTS, (drift, diffusion, generator, terminal))}
    return ControlProblem(**forms, controls=controls, grid=grid)


def _plain(drift=0.0, sigma=1.0, q=None, phi=None, grid=GRID4, controls=(0.0,)):
    return _per_path(
        drift=lambda p, u: np.full(grid.dim, drift),
        diffusion=lambda p, u: sigma * np.eye(grid.dim, grid.noise_dim),
        generator=q or (lambda p, y, z, u: 0.0),
        terminal=phi or (lambda p: float(p.values[0, -1])),
        controls=controls,
        grid=grid,
    )


def test_strategy_validation():
    with pytest.raises(PathError):
        ControlStrategy()
    with pytest.raises(PathError):
        ControlStrategy(open_loop=(0.0,), feedback=lambda p: 0.0)
    s = ControlStrategy(open_loop=(1.0, 2.0))
    assert s.control_at(Path.constant(0.0, 1, 0.25)) == 2.0
    with pytest.raises(PathError):
        s.control_at(Path.constant(0.0, 3, 0.25))


def test_simulate_psde_constant_drift_exact():
    cp = _plain(drift=1.0, sigma=0.0)
    p0 = Path.constant(0.0, 0, GRID4.dt)
    x = simulate_psde(cp, p0, CONST0, 4, seed=0)
    assert x.values[0] == pytest.approx(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))


def test_simulate_psde_zero_dynamics_extends():
    cp = _plain(drift=0.0, sigma=0.0)
    p0 = Path(np.array([[0.3, -0.1]]), GRID4.dt)
    x = simulate_psde(cp, p0, CONST0, 4, seed=0)
    assert x == horizontal_extension(p0, 4)


def test_simulate_psde_blowup_reported():
    grid = GridConfig(8, 1.0, 1, 1)
    cp = _per_path(
        drift=lambda p, u: np.array([np.exp(p.values[0, -1])]) * 1e300,
        diffusion=lambda p, u: np.eye(1),
        generator=lambda p, y, z, u: 0.0,
        terminal=lambda p: 0.0,
        controls=(0.0,),
        grid=grid,
    )
    for k0 in (0, 3):
        # x0 = 5 stays finite for one step; the step named is the absolute grid index
        p0 = Path.constant(5.0, k0, grid.dt)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowupError) as ref:
                _reference_simulate_psde(cp, p0, CONST0, 8, seed=1)
            with pytest.raises(BlowupError) as got:
                simulate_psde(cp, p0, CONST0, 8, seed=1)
        assert str(got.value) == str(ref.value) == f"state blew up at step {k0 + 2}"


def test_moment_probe_growth_and_continuity():
    cp = _plain(drift=0.0, sigma=1.0)
    p0 = Path.constant(0.5, 0, GRID4.dt)
    g1, c1 = moment_probe(cp, p0, CONST0, n_paths=400, seed=2)
    g2, c2 = moment_probe(cp, p0, CONST0, n_paths=800, seed=3)
    assert np.isfinite(g1) and np.isfinite(c1)
    # fitted constants stable under doubling the sample
    assert abs(g2 - g1) <= 0.25 * max(g1, g2)
    assert abs(c2 - c1) <= 0.25 * max(c1, c2)


def test_moment_probe_equals_the_row_by_row_statistics_of_its_batch():
    from pathhjb.control import _controlled, _euler_path
    from pathhjb.pathspace import _joint_gap, restrict, sup_norm

    cp = _plain(drift=0.3, sigma=0.8)
    p0 = Path(np.array([[0.2, -0.1, 0.5]]), GRID4.dt)  # t_index 2: history before the start
    for n_paths, seed in ((1, 0), (50, 4)):
        state, _ = _euler_path(_controlled(cp, p0, CONST0), p0, GRID4.steps, n_paths, np.random.default_rng(seed))
        paths = [Path._wrap(x, GRID4.dt) for x in state]
        base = 1.0 + sup_norm(p0) ** 2
        growth = sum(sup_norm(x) ** 2 for x in paths) / n_paths / base
        ratios = [
            sum(_joint_gap(restrict(x, p0.t_index + j), p0) ** 2 for x in paths) / n_paths / (base * j * GRID4.dt)
            for j in range(1, GRID4.steps - p0.t_index + 1)
        ]
        got = moment_probe(cp, p0, CONST0, n_paths, seed)
        np.testing.assert_allclose(got, (growth, max(ratios)), rtol=1e-12, atol=0)


def test_tree_shape_and_exact_moments():
    cp = _plain()
    p0 = Path.constant(0.2, 0, GRID4.dt)
    tree = simulate_tree(cp, p0, p0.t_index)
    assert tree.depth == 0 and tree.n_leaves == 1
    assert tree.leaf_paths()[0] == p0

    tree3 = simulate_tree(cp, p0, 3)
    assert tree3.n_leaves == 8
    ends = np.array([p.values[0, -1] for p in tree3.leaf_paths()])
    assert np.sort(ends + 0.0) == pytest.approx(np.sort(-(ends - 0.4)))  # symmetric about 0.2
    assert abs(tree3.increments.mean()) <= 1e-14
    assert (tree3.increments**2).mean() == pytest.approx(GRID4.dt, abs=1e-14)


def test_tree_martingale_mean_exact():
    grid = GridConfig(5, 1.0, 1, 1)
    cp = _per_path(
        drift=lambda p, u: np.zeros(1),
        diffusion=lambda p, u: np.array([[1.0 + 0.3 * np.tanh(p.values[0, -1])]]),
        generator=lambda p, y, z, u: 0.0,
        terminal=lambda p: float(p.values[0, -1]),
        controls=(0.0,),
        grid=grid,
    )
    p0 = Path.constant(0.7, 0, grid.dt)
    tree = simulate_tree(cp, p0, 5)
    ends = np.array([p.values[0, -1] for p in tree.leaf_paths()])
    assert ends.mean() == pytest.approx(0.7, abs=1e-13)


def test_tree_two_dimensional_noise():
    grid = GridConfig(3, 0.75, 2, 2)
    cp = _per_path(
        drift=lambda p, u: np.zeros(2),
        diffusion=lambda p, u: np.array([[1.0, 0.2], [0.0, 0.8]]),
        generator=lambda p, y, z, u: 0.0,
        terminal=lambda p: float(p.values[:, -1].sum()),
        controls=(0.0,),
        grid=grid,
    )
    p0 = Path.constant(np.array([0.1, -0.2]), 0, grid.dt)
    tree = simulate_tree(cp, p0, 3)
    assert tree.branching == 4 and tree.n_leaves == 64
    assert tree.increments.shape == (4, 2)
    assert np.allclose(tree.increments.mean(axis=0), 0.0, atol=1e-15)
    assert np.allclose((tree.increments**2).mean(axis=0), grid.dt, atol=1e-15)
    sol = solve_bsde_tree(cp, tree)
    assert sol.root_value == pytest.approx(-0.1, abs=1e-13)  # martingale in both coords


def test_tree_cap_enforced():
    cp = _plain(grid=GridConfig(25, 1.0, 1, 1))
    with pytest.raises(CapacityError):
        simulate_tree(cp, Path.constant(0.0, 0, 0.04), 25)


def test_bsde_martingale_identity():
    cp = _plain()
    p0 = Path.constant(0.3, 0, GRID4.dt)
    tree = simulate_tree(cp, p0, 4)
    sol = solve_bsde_tree(cp, tree)
    assert sol.root_value == pytest.approx(0.3, abs=1e-13)
    # all Z entries are 1: Y_{k+1} = X_k +- sqrt(dt)
    for k in range(4):
        assert sol.z_levels[k] == pytest.approx(np.ones_like(sol.z_levels[k]))


def test_bsde_constant_generator():
    c = 0.7
    cp = _plain(q=lambda p, y, z, u: c)
    p0 = Path.constant(0.3, 0, GRID4.dt)
    assert cost(cp, p0, CONST0) == pytest.approx(0.3 + c * 1.0, abs=1e-12)


def test_bsde_linear_generator_matches_picard_oracle():
    grid = GridConfig(5, 1.0, 1, 1)
    cp = _plain(q=lambda p, y, z, u: y, phi=lambda p: float(p.values[0, -1]) ** 2, grid=grid)
    p0 = Path.constant(0.3, 0, grid.dt)
    tree = simulate_tree(cp, p0, 5)
    sol = solve_bsde_tree(cp, tree)
    # independent Picard iteration on the same tree
    leaves = np.array([float(p.values[0, -1]) ** 2 for p in tree.leaf_paths()])
    levels = [np.zeros(2**k) for k in range(6)]
    for _ in range(60):
        nxt = [None] * 6
        nxt[5] = leaves
        for k in range(4, -1, -1):
            e = nxt[k + 1].reshape(-1, 2).mean(axis=1)
            nxt[k] = e + levels[k] * grid.dt
        levels = nxt
    assert sol.root_value == pytest.approx(float(levels[0][0]), abs=1e-10)


def test_bsde_contract_error_on_stiff_generator():
    cp = _plain(q=lambda p, y, z, u: 10.0 * y)  # L*dt = 2.5, no contraction
    p0 = Path.constant(0.3, 0, GRID4.dt)
    tree = simulate_tree(cp, p0, 4)
    with pytest.raises(ContractError, match=r"does not contract: observed contraction ratio 2\.5 \(estimates L\*dt; needs L\*dt < 0\.5\)$"):
        solve_bsde_tree(cp, tree)


def test_semigroup_full_range_equals_cost():
    cp = lq_problem(GRID4)
    p0 = Path.constant(0.0, 0, GRID4.dt)
    strat = ControlStrategy(open_loop=(0.5, 0.5, 1.0, 0.0))
    g_full = backward_semigroup(cp, p0, strat, 4, eta=lambda p: float(p.values[0, -1]))
    assert g_full == pytest.approx(cost(cp, p0, strat), abs=1e-13)


def test_semigroup_zero_generator_is_expectation():
    cp = _plain()
    p0 = Path.constant(0.1, 0, GRID4.dt)
    eta = lambda path: float(path.values[0, -1]) ** 2  # noqa: E731
    g = backward_semigroup(cp, p0, CONST0, 2, eta)
    tree = simulate_tree(cp, p0, 2)
    leaf_values = np.array([eta(p) for p in tree.leaf_paths()])
    assert g == pytest.approx(leaf_values.mean(), abs=1e-13)
    # per-leaf array form of the terminal data is equivalent
    assert backward_semigroup(cp, p0, CONST0, 2, leaf_values) == pytest.approx(g, abs=1e-15)
    with pytest.raises(PathError):
        backward_semigroup(cp, p0, CONST0, 2, leaf_values[:-1])


def test_semigroup_nesting_identity():
    grid = GridConfig(4, 1.0, 1, 1)
    cp = _plain(q=lambda p, y, z, u: 0.4 * y + 0.1 * float(np.atleast_1d(z)[0]), grid=grid)
    p0 = Path.constant(0.2, 0, grid.dt)
    eta = lambda path: float(np.tanh(path.values[0, -1]))  # noqa: E731
    one_stage = backward_semigroup(cp, p0, CONST0, 4, eta)
    two_stage = backward_semigroup(
        cp, p0, CONST0, 2, lambda mid: backward_semigroup(cp, mid, CONST0, 2, eta)
    )
    assert abs(one_stage - two_stage) <= 1e-10


def test_semigroup_nesting_with_open_loop_controls():
    grid = GridConfig(4, 1.0, 1, 1)
    cp = lq_problem(grid)
    p0 = Path.constant(0.0, 0, grid.dt)
    strat = ControlStrategy(open_loop=(0.0, 0.5, 1.0, 0.5))
    eta = lambda p: float(p.values[0, -1])  # noqa: E731
    one_stage = backward_semigroup(cp, p0, strat, 4, eta)
    # the open-loop sequence is indexed by absolute grid index, so the same
    # strategy object drives both stages coherently
    two_stage = backward_semigroup(
        cp, p0, strat, 2, lambda mid: backward_semigroup(cp, mid, strat, 2, eta)
    )
    assert abs(one_stage - two_stage) <= 1e-10


def test_cost_deterministic_system():
    cp = _plain(drift=0.5, sigma=0.0, phi=lambda p: float(p.values[0, -1]) ** 2)
    p0 = Path.constant(0.0, 0, GRID4.dt)
    assert cost(cp, p0, CONST0) == pytest.approx(0.25, abs=1e-13)


def test_single_control_cost_equals_value():
    cp = heat_problem(GRID4)
    p0 = Path.constant(0.4, 0, GRID4.dt)
    assert value(cp, p0) == pytest.approx(cost(cp, p0, CONST0), abs=1e-13)


def test_value_vacuous_sup_is_expectation():
    # controls affect nothing
    cp = _plain(phi=lambda p: float(np.tanh(p.values[0, -1])), controls=(0.0, 1.0, 2.0))
    p0 = Path.constant(0.1, 0, GRID4.dt)
    tree = simulate_tree(cp, p0, 4)
    expected = np.mean([float(np.tanh(p.values[0, -1])) for p in tree.leaf_paths()])
    assert value(cp, p0) == pytest.approx(expected, abs=1e-12)


def test_lq_value_matches_enumeration_and_closed_form():
    cp = lq_problem(GRID4)
    p0 = Path.constant(0.0, 0, GRID4.dt)
    v, strat = value_with_strategy(cp, p0)
    assert v == pytest.approx(0.25, abs=1e-12)  # max_u (u - u^2) * T
    best = max(
        cost(cp, p0, ControlStrategy(open_loop=seq))
        for seq in itertools.product(cp.controls, repeat=4)
    )
    assert abs(v - best) <= 1e-10
    assert cost(cp, p0, strat) == pytest.approx(v, abs=1e-12)


def test_value_dominates_open_loop_on_random_instances():
    rng = np.random.default_rng(0)
    grid = GridConfig(3, 0.75, 1, 1)
    for s in range(5):
        cp = random_problem(grid, seed=20 + s)
        p0 = Path.constant(float(rng.normal() * 0.3), 0, grid.dt)
        v = value(cp, p0)
        for seq in itertools.product(cp.controls, repeat=3):
            assert v >= cost(cp, p0, ControlStrategy(open_loop=seq)) - 1e-12


def test_argmax_strategy_attains_value_on_random_instances():
    grid = GridConfig(4, 1.0, 1, 1)
    for s in range(5):
        cp = random_problem(grid, seed=40 + s)
        p0 = Path.constant(0.1, 0, grid.dt)
        v, strat = value_with_strategy(cp, p0)
        assert cost(cp, p0, strat) == pytest.approx(v, abs=1e-12)


def test_dpp_identity():
    cp = lq_problem(GRID4)
    p0 = Path.constant(0.0, 0, GRID4.dt)
    assert dpp_check(cp, p0, 0) == 0.0
    assert dpp_check(cp, p0, 4) <= 1e-12
    for delta in (1, 2, 3):
        assert dpp_check(cp, p0, delta) <= 1e-10
    with pytest.raises(PathError):
        dpp_check(cp, p0, 5)


def test_dpp_identity_random_instances():
    grid = GridConfig(4, 1.0, 1, 1)
    for s in range(5):
        cp = random_problem(grid, seed=60 + s)
        p0 = Path.constant(-0.2, 0, grid.dt)
        for delta in (1, 2, 3):
            assert dpp_check(cp, p0, delta) <= 1e-10


def test_regularity_probe_linear_value():
    # constant coefficients, terminal Lipschitz-1 in the endpoint
    grid = GridConfig(3, 0.75, 1, 1)
    cp = _plain(drift=0.3, sigma=1.0, grid=grid)
    lip, tim = regularity_probe(cp, samples=12, seed=4)
    assert lip <= 1.0 + 1e-6
    assert np.isfinite(tim)


def test_regularity_probe_constant_terminal():
    grid = GridConfig(3, 0.75, 1, 1)
    cp = _plain(phi=lambda p: 1.0, grid=grid)
    lip, tim = regularity_probe(cp, samples=10, seed=5)
    assert lip == 0.0 and tim == 0.0


def test_regularity_probe_stable_under_resampling():
    grid = GridConfig(3, 0.75, 1, 1)
    cp = lq_problem(grid)
    l1, t1 = regularity_probe(cp, samples=20, seed=6)
    l2, t2 = regularity_probe(cp, samples=40, seed=7)
    assert abs(l2 - l1) <= 0.2 * max(l1, l2) + 1e-9
    assert abs(t2 - t1) <= 0.2 * max(t1, t2) + 1e-9


def _one_row(fn, vals, *args):
    """An array form's value at the single path ``vals``, a (d, K) array."""
    vals = vals[None]
    vals.setflags(write=False)
    return np.asarray(fn(vals, *args))[0]


def _implicit_step(cp, vals, e_y, z, u, dt):
    """Reference oracle: the implicit step y = E[Y'] + q(path, y, z, u) dt of one row,
    one generator row per round: the plain step y1 = T(y0) from y0 = E[Y'], then the
    safeguarded secant on F(y) = T(y) - y, with the round-1 contraction check."""
    y = y_old = f_old = e_y
    for r in range(FIXED_POINT_MAX_ITER):
        t = e_y + float(_one_row(cp.generator, vals, np.array([y]), z[None], (u,))) * dt
        if not np.isfinite(t):
            raise ContractError("generator produced a non-finite value")
        f = t - y
        if abs(f) <= FIXED_POINT_TOL * (1.0 + abs(t)):
            return t
        if r == 1 and abs(f) / abs(f_old) >= 0.5:
            raise ContractError(
                f"implicit generator step does not contract: observed contraction ratio {abs(f) / abs(f_old):.3g} "
                "(estimates L*dt; needs L*dt < 0.5)"
            )
        if r == FIXED_POINT_MAX_ITER - 1:
            raise ContractError(
                f"implicit generator step did not converge in {FIXED_POINT_MAX_ITER} iterations: last step change "
                f"{abs(f):.3e}, ratio of the last two step changes {abs(f) / abs(f_old):.3g} (the step needs L*dt < 0.5)"
            )
        step = y - f * (y - y_old) / (f - f_old) if r and f != f_old else t
        y_old, f_old, y = y, f, step if np.isfinite(step) else t


def _plain_step(cp, vals, e_y, z, u, dt):
    """Second oracle: the plain fixed point y <- T(y) from y = E[Y'], one generator
    row per round, stopping on the same test as the engine; no contract check."""
    y = e_y
    for _ in range(FIXED_POINT_MAX_ITER):
        t = e_y + float(_one_row(cp.generator, vals, np.array([y]), z[None], (u,))) * dt
        if abs(t - y) <= FIXED_POINT_TOL * (1.0 + abs(t)):
            return t
        y = t
    raise AssertionError("the plain iteration did not converge")


class _RecursiveValue:
    """Reference oracle: the per-node memoized recursion the level-wise engine
    replaced, reading one row per coefficient call; ``terminal_fn`` is an
    array form."""

    def __init__(self, cp, end_index, terminal_fn):
        self.cp, self.end_index, self.terminal_fn = cp, end_index, terminal_fn
        self.incs = _increments(cp.grid.noise_dim, cp.grid.dt)
        self.memo = {}

    def solve(self, p0):
        return self._rec(p0.values, p0.t_index)

    def _rec(self, vals, k):
        cp, dt = self.cp, self.cp.grid.dt
        if k == self.end_index:
            return float(_one_row(self.terminal_fn, vals))
        key = (k, vals.tobytes())
        if key not in self.memo:
            best = (-np.inf, None)
            for u in cp.controls:
                bvec = np.atleast_1d(np.asarray(_one_row(cp.drift, vals, (u,)), dtype=float))
                sig = np.atleast_2d(np.asarray(_one_row(cp.diffusion, vals, (u,)), dtype=float))
                steps = vals[:, -1][None, :] + bvec[None, :] * dt + self.incs @ sig.T
                ys = np.array([self._rec(np.concatenate([vals, s[:, None]], axis=1), k + 1) for s in steps])
                y = _implicit_step(cp, vals, float(ys.mean()), ys @ self.incs / (len(ys) * dt), u, dt)
                if y > best[0]:
                    best = (y, u)
            self.memo[key] = best
        return self.memo[key][0]


def _counted(cp):
    """A copy of cp whose coefficients count the rows they serve."""
    counts = dict.fromkeys(COEFFICIENTS, 0)

    def wrap(name):
        fn = getattr(cp, name)

        def counted(vals, *args):
            counts[name] += len(vals)
            return fn(vals, *args)

        return counted

    return dataclasses.replace(cp, **{name: wrap(name) for name in counts}), counts


# dt = 1/6 makes sqrt(dt) inexact, so a changed summation order shows in the last bits
ORACLE_CASES = [
    (GridConfig(3, 0.75, 2, 2), 2),
    (GridConfig(3, 0.75, 2, 2), 3),
    (GridConfig(4, 1.0, 1, 1), 3),
    (GridConfig(3, 0.5, 2, 2), 2),
]


def _node_path(key, d, dt):
    """The path of an oracle memo key (grid index, path bytes)."""
    k, buf = key
    return Path._wrap(np.frombuffer(buf).reshape(d, k + 1), dt)


@pytest.mark.parametrize("grid,n_controls", ORACLE_CASES)
def test_engine_value_equals_recursive_oracle(grid, n_controls):
    for s in range(3):
        base = random_problem(grid, seed=80 + s, n_controls=n_controls)
        cp, engine_calls = _counted(base)
        ref_cp, oracle_calls = _counted(base)
        p0 = Path.constant(np.full(grid.dim, 0.1 * s), 0, grid.dt)
        v, strat = value_with_strategy(cp, p0)
        solve_calls = dict(engine_calls)  # before any lookup: one off the played table costs a solve
        oracle = _RecursiveValue(ref_cp, grid.steps, ref_cp.terminal)
        assert v == oracle.solve(p0)
        assert solve_calls == oracle_calls
        assert {key: strat.control_at(_node_path(key, grid.dim, grid.dt)) for key in oracle.memo} == {
            key: u for key, (_, u) in oracle.memo.items()
        }


@pytest.mark.parametrize("grid,n_controls", ORACLE_CASES)
def test_dpp_check_equals_recursive_oracle(grid, n_controls):
    cp = random_problem(grid, seed=90, n_controls=n_controls)
    p0 = Path.constant(np.full(grid.dim, -0.2), 0, grid.dt)
    v = _RecursiveValue(cp, grid.steps, cp.terminal).solve(p0)
    for delta in range(grid.steps + 1):
        inner = _RecursiveValue(cp, grid.steps, cp.terminal)
        outer = _RecursiveValue(cp, delta, per_path(inner.solve, grid.dt))
        assert dpp_check(cp, p0, delta) == abs(v - outer.solve(p0))


def test_engine_expands_the_plain_tree_when_children_coincide():
    # no noise and a drift that ignores u: each node's four children are one path
    base = _plain(sigma=0.0, drift=0.3, controls=(0.0, 1.0))
    cp, engine_calls = _counted(base)
    ref_cp, _ = _counted(base)
    p0 = Path.constant(0.2, 0, GRID4.dt)
    assert value(cp, p0) == _RecursiveValue(ref_cp, 4, ref_cp.terminal).solve(p0)
    assert engine_calls["drift"] == 2 * (1 + 4 + 16 + 64)  # every node of levels 0..3, under both controls
    cp, engine_calls = _counted(base)
    with pytest.raises(CapacityError, match=r"4\^4 = 256 leaves, over the node cap 255"):
        value(cp, p0, cap=255)
    assert engine_calls == dict.fromkeys(engine_calls, 0)


def test_argmax_replay_attains_value_in_two_noise_dimensions():
    grid = GridConfig(3, 0.75, 2, 2)
    cp = random_problem(grid, seed=5, n_controls=3)
    p0 = Path.constant(np.array([0.1, -0.1]), 0, grid.dt)
    v, strat = value_with_strategy(cp, p0)
    assert cost(cp, p0, strat) == pytest.approx(v, abs=1e-12)


def test_argmax_feedback_off_the_root_table():
    cp = lq_problem(GRID4)
    _, strat = value_with_strategy(cp, Path.constant(0.0, 0, GRID4.dt))
    off = Path.constant(0.7, 1, GRID4.dt)  # no node of the root's tree
    assert strat.control_at(off) == value_with_strategy(cp, off)[1].control_at(off)
    with pytest.raises(PathError, match="grid index 4, the horizon"):
        strat.control_at(Path.constant(0.0, 4, GRID4.dt))
    # off the table the feedback reads the root argmax of one solve from the path
    cp, calls = _counted(random_problem(GRID4, seed=3, n_controls=3))
    _, strat = value_with_strategy(cp, Path.constant(0.0, 0, GRID4.dt))
    rng = np.random.default_rng(8)
    for off in [random_path(rng, 1, GRID4.dt, k) for k in (0, 1, 2, 3) for _ in range(3)]:
        calls["terminal"] = 0
        got = strat.control_at(off)
        assert calls["terminal"] == 6 ** (4 - off.t_index)  # the leaves of one solve
        assert got == value_with_strategy(cp, off)[1].control_at(off)
    with pytest.raises(PathError, match="path at grid index 5 is past the end index 4"):
        strat.control_at(Path.constant(0.0, 5, GRID4.dt))
    with pytest.raises(PathError, match=r"root path has dt 0\.5, the grid's is 0\.25"):
        strat.control_at(Path.constant(0.0, 1, 0.5))


def _table(strategy: ControlStrategy) -> dict:
    """The argmax table a value_with_strategy feedback reads."""
    fn = strategy.feedback
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))["table"]


def test_the_argmax_table_keys_each_played_node_by_its_path_key():
    cp = random_problem(GRID4, seed=3, n_controls=3)
    p0 = Path(np.array([[0.1, -0.2]]), GRID4.dt)
    _, strat = value_with_strategy(cp, p0)
    _, levels, best_levels = _solve_forest(cp, p0.values[None], GRID4.steps, cp.terminal, DEFAULT_NODE_CAP)
    want, played = {}, [0]
    for k, best in enumerate(best_levels):
        for j in played:
            want.setdefault(Path._wrap(levels[k][j], GRID4.dt).key(), int(best[j]))
        # node j's children under control i: rows (j * |U| + i) * 2 + m of the next level
        played = [(j * 3 + int(best[j])) * 2 + m for j in played for m in (0, 1)]
    assert _table(strat) == want
    assert len(want) == 2 ** (GRID4.steps - p0.t_index) - 1  # no two played nodes share a path here


def _full_table(cp, p0):
    """Reference oracle: the argmax table value_with_strategy built over every internal node of
    the root's full tree, from its path key to its first maximizing control index."""
    _, levels, best_levels = _solve_forest(cp, p0.values[None], cp.grid.steps, cp.terminal, DEFAULT_NODE_CAP)
    return {
        key: i for k, best in enumerate(best_levels) for key, i in zip(_keys(p0.t_index + k, levels[k]), best.tolist())
    }


# each case: the problem, then the played table's and the full table's sizes
PLAYED_CASES = {
    **{
        f"random-{i}": (
            lambda g=g, n=n: random_problem(g, seed=80, n_controls=n),
            sum(2 ** (g.noise_dim * k) for k in range(g.steps)),
            sum((n * 2**g.noise_dim) ** k for k in range(g.steps)),
        )
        for i, (g, n) in enumerate(ORACLE_CASES)
    },
    "bangbang-6": (lambda: bangbang_problem(GridConfig(6, 0.75, 1, 1)), 63, 1365),
    "lq-5": (lambda: lq_problem(GridConfig(5, 1.0, 1, 1)), 31, 1555),
    "coinciding-children": (lambda: _plain(sigma=0.0, drift=0.3, controls=(0.0, 1.0)), 4, 4),
}


@pytest.mark.parametrize("case", PLAYED_CASES)
def test_the_played_table_answers_as_the_full_table_did(case):
    make, played_size, full_size = PLAYED_CASES[case]
    cp, calls = _counted(make())
    g = cp.grid
    p0 = Path.constant(np.full(g.dim, 0.1), 0, g.dt)
    full = _full_table(cp, p0)
    _, strat = value_with_strategy(cp, p0)
    table = _table(strat)
    assert (len(table), len(full)) == (played_size, full_size)
    # the played subtree: the internal nodes of the tree the feedback itself builds from p0
    replay = simulate_tree(cp, p0, g.steps, strat)
    assert set(table) == {replay.node_path(k, j).key() for k in range(g.steps) for j in range(len(replay.levels[k]))}
    fan = len(cp.controls) * 2**g.noise_dim
    for key, i in full.items():
        calls.update(dict.fromkeys(calls, 0))
        assert strat.control_at(_node_path(key, g.dim, g.dt)) == cp.controls[i]
        if key in table:
            assert calls == dict.fromkeys(calls, 0)
        else:  # one solve from the node: its leaves
            assert calls["terminal"] == fan ** (g.steps - key[0])


def test_value_cap_counts_control_fan_out():
    grid = GridConfig(7, 1.0, 1, 1)
    cp, calls = _counted(lq_problem(grid))  # |U| = 3: (3 * 2)^7 leaves
    p0 = Path.constant(0.0, 0, grid.dt)
    assert (len(cp.controls) * 2) ** 7 > DEFAULT_NODE_CAP >= 2**7
    with pytest.raises(CapacityError, match=r"6\^7 = 279936 leaves, over the node cap 262144"):
        value(cp, p0)
    assert calls == dict.fromkeys(calls, 0)  # the cap fires before any node is expanded
    simulate_tree(cp, p0, 7)  # the cost tree of the same depth is within the cap
    with pytest.raises(PathError, match="path at grid index 4 is past the end index 3"):
        _solve_forest(cp, np.zeros((1, 1, 5)), 3, cp.terminal, DEFAULT_NODE_CAP)


# An inline problem as the CLI builds it: path statistics, u, y and z in every coefficient
INLINE_2D = {
    "drift": ["0.1*u + 0.2*tanh(x1) - 0.1*rint0", "0.3*tanh(rint1) - 0.1*u*x0"],
    "diffusion": [["0.5", "0.1*tanh(rmax)"], ["0.05*x1", "0.4 + 0.1*tanh(x0)"]],
    "generator": "0.1*tanh(y) + 0.05*z0 - 0.03*z1*u - 0.1*u*u",
    "terminal": "tanh(x1) + 0.1*rint1 + 0.1*rmax - 0.2*x0**2",
    "controls": [-0.5, 0.0, 1.0],
}


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["random-1d", "random-2d", "inline-2d"]), seed=st.integers(0, 2**16), data=st.data())
def test_forest_values_equal_one_solve_per_root(kind, seed, data):
    if kind == "inline-2d":
        cp = inline_problem(INLINE_2D, GridConfig(3, 0.75, 2, 2))
    else:
        cp = random_problem(GridConfig(3, 0.75, 2, 2) if kind == "random-2d" else GRID4, seed=seed)
    g, rng = cp.grid, np.random.default_rng(seed)
    ks = data.draw(st.lists(st.integers(0, g.steps), min_size=1, max_size=8))  # mixed grid indices
    paths = [random_path(rng, g.dim, g.dt, k) for k in ks]
    paths += [paths[i] for i in data.draw(st.lists(st.integers(0, len(ks) - 1), max_size=3))]  # duplicate rows
    assert _values(cp, paths).tolist() == [value(cp, p) for p in paths]


def test_forest_splits_its_roots_into_chunks_within_the_cap(monkeypatch):
    cp = random_problem(GridConfig(3, 0.75, 1, 1), seed=7)  # fan 2 * 2 = 4
    paths = [random_path(np.random.default_rng(i), 1, cp.grid.dt, k) for i, k in enumerate((0, 1, 0, 1, 0, 1, 2, 0, 1))]
    want = [value(cp, p) for p in paths]
    sizes = []

    def counted(cp, roots, *args):
        sizes.append(roots.shape[0])
        return _solve_forest(cp, roots, *args)

    monkeypatch.setattr(control, "_solve_forest", counted)
    # cap 128: two roots of depth 3 (4^3 leaves each), eight of depth 2, 32 of depth 1 per forest
    assert _values(cp, paths, cap=128).tolist() == want
    assert sizes == [2, 2, 4, 1]


def test_forest_cap_counts_every_root_before_any_coefficient_call():
    grid = GridConfig(4, 1.0, 1, 1)
    cp, calls = _counted(lq_problem(grid))  # |U| = 3: fan 6
    roots = np.zeros((5, 1, 1))
    with pytest.raises(CapacityError, match=r"forest of 5 trees of depth 4 needs 5 x 6\^4 = 6480 leaves, over the node cap 6000"):
        _solve_forest(cp, roots, grid.steps, cp.terminal, 6000)
    assert calls == dict.fromkeys(calls, 0)
    p0 = Path.constant(0.0, 0, grid.dt)
    assert _values(cp, [p0] * 5, cap=6000).tolist() == [value(cp, p0)] * 5  # four roots, then one
    with pytest.raises(CapacityError, match=r"tree of depth 4 needs 6\^4 = 1296 leaves, over the node cap 1000"):
        _values(cp, [p0], cap=1000)


def _outcome(fn):
    """fn()'s value, or the type and message of the PathError or CapacityError it raises."""
    try:
        return fn()
    except (PathError, CapacityError) as exc:
        return type(exc), str(exc)


# one control (every cost level, and a one-control value) skips the argmax and its gathers
SKIP_CASES = {
    "random-1": lambda: random_problem(GRID4, seed=21, n_controls=1),
    "random-2": lambda: random_problem(GRID4, seed=21, n_controls=2),
    "random-2d-1": lambda: random_problem(GridConfig(3, 0.75, 2, 2), seed=22, n_controls=1),
    **{name: lambda build=build: build(GRID4) for name, build in PRESETS.items()},
}


@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_value_is_one_forest_and_one_control_levels_keep_the_oracle_bits(case):
    cp = SKIP_CASES[case]()
    g = cp.grid
    fan = len(cp.controls) * 2**g.noise_dim
    rng = np.random.default_rng(4)
    for p0 in [Path.constant(np.full(g.dim, 0.1), 0, g.dt)] + [random_path(rng, g.dim, g.dt, k) for k in range(g.steps + 1)]:
        oracle = _RecursiveValue(cp, g.steps, cp.terminal)
        v = oracle.solve(p0)
        assert value(cp, p0) == _values(cp, [p0])[0] == v
        if p0.t_index == g.steps:
            continue
        # the cost of each constant strategy is the value of the problem with that control alone
        for u in cp.controls:
            one = _RecursiveValue(dataclasses.replace(cp, controls=(u,)), g.steps, cp.terminal)
            assert cost(cp, p0, ControlStrategy.constant(u)) == one.solve(p0)
        # the played argmax table holds the oracle's first maximizing control at each of its nodes
        v_strat, strat = value_with_strategy(cp, p0)
        assert v_strat == v
        assert {key: cp.controls[i] for key, i in _table(strat).items()} == {key: oracle.memo[key][1] for key in _table(strat)}
    # value and the grouped _values fail alike: over the cap, a bad cap (also past the horizon),
    # past the horizon, another dt or another dimension
    p0, past = Path.constant(np.zeros(g.dim), 0, g.dt), Path.constant(np.zeros(g.dim), g.steps + 1, g.dt)
    cases = [(p0, fan**g.steps - 1), (p0, 0), (p0, True), (past, 0), (past, 2.0), (past, DEFAULT_NODE_CAP)]
    cases += [(Path.constant(np.zeros(g.dim), 1, g.dt / 2), DEFAULT_NODE_CAP), (Path.constant(np.zeros(g.dim + 1), 1, g.dt), DEFAULT_NODE_CAP)]
    for p, cap in cases:
        got = _outcome(lambda: value(cp, p, cap))
        assert isinstance(got, tuple) and got == _outcome(lambda: float(_values(cp, [p], cap)[0])), (p, cap)


def test_regularity_probe_numbers_are_those_of_one_solve_per_probe():
    # taken when every probe was its own value solve; the second re-taken for the secant implicit step
    assert regularity_probe(lq_problem(GridConfig(3, 0.75, 1, 1)), 20, 6) == (1.000000000000005, 0.1874758497710766)
    cp = random_problem(GridConfig(3, 0.75, 2, 2), seed=3, n_controls=2)
    assert regularity_probe(cp, 15, 11) == (0.8502971409461848, 0.06715855183524587)


def test_probes_reject_vacuous_inputs_naming_the_value():
    cp = lq_problem(GRID4)
    with pytest.raises(PathError, match="^regularity_probe samples must be an integer >= 1, got 0$"):
        regularity_probe(cp, 0, seed=1)
    with pytest.raises(PathError, match=r"^delta_steps from grid index 0 must be an integer in \[0, 4\], got -1$"):
        dpp_check(cp, Path.constant(0.0, 0, GRID4.dt), -1)
    with pytest.raises(PathError, match=r"^delta_steps from grid index 2 must be an integer in \[0, 2\], got 3$"):
        dpp_check(cp, Path.constant(0.0, 2, GRID4.dt), 3)


def test_every_entry_point_rejects_a_root_of_another_dimension():
    cp = lq_problem(GRID4)  # one-dimensional
    p0 = Path.constant([0.0, 0.0], 0, GRID4.dt)
    calls = [
        lambda: value(cp, p0),
        lambda: value_with_strategy(cp, p0),
        lambda: _values(cp, [p0]),
        lambda: dpp_check(cp, p0, 2),
        lambda: cost(cp, p0, CONST0),
        lambda: simulate_tree(cp, p0, 2),
        lambda: backward_semigroup(cp, p0, CONST0, 2, lambda p: 0.0),
        lambda: simulate_psde(cp, p0, CONST0, 4, seed=0),
        lambda: moment_probe(cp, p0, CONST0, n_paths=4, seed=0),
    ]
    for call in calls:
        with pytest.raises(PathError, match="root path has dimension 2, the grid's is 1"):
            call()
    _, strat = value_with_strategy(cp, Path.constant(0.0, 0, GRID4.dt))
    with pytest.raises(PathError, match="root path has dimension 2, the grid's is 1"):
        strat.control_at(Path.constant([0.0, 0.0], 1, GRID4.dt))  # off the table


def test_moment_probe_rejects_a_start_at_the_horizon():
    with pytest.raises(PathError, match="p0 before the horizon, got grid index 4 of 4"):
        moment_probe(_plain(), Path(np.zeros((1, 5)), GRID4.dt), CONST0, n_paths=10, seed=0)


def test_moment_probe_rejects_an_empty_sample():
    with pytest.raises(PathError, match="^moment_probe n_paths must be an integer >= 1, got 0$"):
        moment_probe(_plain(), Path.constant(0.0, 0, GRID4.dt), CONST0, n_paths=0, seed=0)


# ---------------------------------------------------------------------------
# Reference oracle: the per-step Euler loop simulate_psde ran before it
# shared one stepper with ito_check.


def _reference_simulate_psde(cp, p0, strategy, end_index, seed):
    rng = np.random.default_rng(seed)
    dt = p0.dt
    vals = np.empty((p0.d, end_index + 1))
    vals[:, : p0.t_index + 1] = p0.values
    for k in range(p0.t_index, end_index):
        view = vals[:, : k + 1]
        view.setflags(write=False)
        path = Path._wrap(view, dt) if k > p0.t_index else p0
        u = strategy.control_at(path)
        bvec = np.atleast_1d(np.asarray(_one_row(cp.drift, view, (u,)), dtype=float))
        sig = np.atleast_2d(np.asarray(_one_row(cp.diffusion, view, (u,)), dtype=float))
        dw = rng.normal(0.0, np.sqrt(dt), size=sig.shape[1])
        vals[:, k + 1] = vals[:, k] + bvec * dt + sig @ dw
        if not np.all(np.isfinite(vals[:, k + 1])):
            raise BlowupError(f"state blew up at step {k + 1}")
    return Path(vals, dt)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_simulate_psde_agrees_with_reference_loop(d, n):
    grid = GridConfig(6, 1.0, d, n)
    base = random_problem(grid, seed=d * 10 + n, n_controls=3)
    seen = []
    strategies = [
        ControlStrategy(feedback=lambda p: seen.append(p.t_index) or base.controls[p.t_index % 3]),
        ControlStrategy(open_loop=base.controls * 2),
    ]
    for strategy, k0 in itertools.product(strategies, (0, 2, 6)):
        p0 = Path(np.random.default_rng(k0).normal(size=(d, k0 + 1)), grid.dt)
        cp, calls = _counted(base)
        ref_cp, ref_calls = _counted(base)
        seen.clear()
        got = simulate_psde(cp, p0, strategy, grid.steps, seed=k0 + 7)
        got_seen = list(seen)
        seen.clear()
        want = _reference_simulate_psde(ref_cp, p0, strategy, grid.steps, seed=k0 + 7)
        assert got.values.shape == want.values.shape
        # one addition is regrouped, (x + b dt) + sigma dw -> x + (b dt + sigma dw)
        assert np.max(np.abs(got.values - want.values), initial=0.0) <= 1e-14
        assert np.array_equal(got.values[:, : k0 + 1], p0.values)
        assert calls == ref_calls and got_seen == seen


# ---------------------------------------------------------------------------
# A cost builds and solves one tree.


def test_cost_calls_each_coefficient_once_per_internal_node():
    grid = GridConfig(3, 0.75, 2, 2)
    p0 = Path.constant(np.array([0.1, -0.1]), 0, grid.dt)
    internal = 1 + 4 + 16  # branching 4, depth 3
    for run in (
        lambda cp: cost(cp, p0, ControlStrategy.constant(cp.controls[1])),
        lambda cp: backward_semigroup(cp, p0, ControlStrategy.constant(cp.controls[1]), 3, lambda p: _one_row(cp.terminal, p.values)),
    ):
        cp, calls = _counted(random_problem(grid, seed=4, n_controls=2))
        run(cp)
        assert calls["drift"] == calls["diffusion"] == internal
    strat = ControlStrategy(open_loop=cp.controls + cp.controls[:1])
    tree = simulate_tree(cp, p0, 3, strat)
    assert [set(level) for level in tree.controls] == [{u} for u in strat.open_loop]
    before = dict(calls)
    solve_bsde_tree(cp, tree)
    assert calls["drift"] == before["drift"] and calls["diffusion"] == before["diffusion"]


# ---------------------------------------------------------------------------
# Coefficient shape contract: drift (d,), diffusion (d, n), checked by
# ControlProblem.coeffs for every solver and by ito_check for bare callables.


def _shaped(grid, drift, diffusion=lambda p, u: np.eye(1)):
    return _per_path(
        drift=drift,
        diffusion=diffusion,
        generator=lambda p, y, z, u: 0.0,
        terminal=lambda p: float(p.values[0, -1]),
        controls=(0.0, 1.0),
        grid=grid,
    )


GRID2 = GridConfig(4, 1.0, 2, 2)
BAD_SHAPES = {
    "1-vector on a 2-d grid": _shaped(GRID2, lambda p, u: np.full(1, 0.5)),
    "2-vector on a 1-d grid": _shaped(GRID4, lambda p, u: np.full(2, 0.5)),
    "scalar drift": _shaped(GRID4, lambda p, u: 0.5),
    "length changes with the path": _shaped(GRID4, lambda p, u: np.zeros(2 if p.values[0, -1] > 0.2 else 1)),
}


def _hamiltonian_sweep(cp, p0):
    d = cp.grid.dim
    for k in range(cp.grid.steps):
        hamiltonian(cp, HamiltonianInput(horizontal_extension(p0, k), 0.0, np.ones(d), np.eye(d)))


def _reduced_coefficients(cp, p0):
    markov_fd_solve(markovian_reduction(cp), XGrid(-1.0, 1.0, 5))


def _ito(cp, p0):
    u = cp.controls[0]
    drift, diffusion = (lambda p: _one_row(cp.drift, p.values, (u,))), (lambda p: _one_row(cp.diffusion, p.values, (u,)))
    ito_check(constant_functional(0.0), drift, diffusion, p0, cp.grid.steps, 4, 0)


SHAPE_READERS = {
    "value": lambda cp, p0: value(cp, p0),
    "cost": lambda cp, p0: cost(cp, p0, ControlStrategy.constant(cp.controls[0])),
    "simulate_psde": lambda cp, p0: simulate_psde(cp, p0, ControlStrategy.constant(cp.controls[0]), cp.grid.steps, 0),
    "hamiltonian": _hamiltonian_sweep,
    "markovian_reduction": _reduced_coefficients,
    "ito_check": _ito,
}


@pytest.mark.parametrize("reader", sorted(SHAPE_READERS))
@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_wrong_coefficient_shapes_raise_path_error(reader, case):
    cp = BAD_SHAPES[case]
    with pytest.raises(PathError):
        for x0 in (0.0, 0.5):  # from 0.5 every reader meets the path-dependent length at once
            SHAPE_READERS[reader](cp, Path.constant(np.full(cp.grid.dim, x0), 0, cp.grid.dt))


def test_coeffs_names_expected_and_received_shapes():
    cp = BAD_SHAPES["length changes with the path"]
    p, q = Path.constant(0.0, 0, GRID4.dt), Path.constant(0.5, 0, GRID4.dt)
    with pytest.raises(PathError, match=r"drift must return shape \(1,\) .*, got \(1,\), \(2,\)"):
        cp.coeffs(np.stack([p.values, q.values]), (0.0, 0.0))
    cp = _shaped(GRID2, lambda p, u: np.zeros(2), lambda p, u: np.zeros((2, 1)))
    with pytest.raises(PathError, match=r"diffusion must return shape \(2, 2\) .*, got \(2, 1\)"):
        cp.coeffs(Path.constant(np.zeros(2), 0, GRID2.dt).values[None], (0.0,))
    # an array form's value of another shape is named whole
    form = dataclasses.replace(cp, drift=lambda vals, us: np.zeros((len(us), 3)))
    with pytest.raises(PathError, match=r"drift must return shape \(2,\) at each of 1 .*, got \(1, 3\)"):
        form.coeffs(Path.constant(np.zeros(2), 0, GRID2.dt).values[None], (0.0,))
    # one path under three controls
    b, sig = _plain(drift=0.3, grid=GRID2).coeffs(Path.constant(np.zeros(2), 0, GRID2.dt).values[None], (0.0,) * 3)
    assert b.shape == (3, 2) and sig.shape == (3, 2, 2) and not b.flags.writeable
    assert np.array_equal(b, np.full((3, 2), 0.3)) and np.array_equal(sig, np.broadcast_to(np.eye(2), (3, 2, 2)))


# ---------------------------------------------------------------------------
# The masked fixed point raises the error of its lowest-index failing row.


@pytest.mark.parametrize(
    "kinds",
    [(0, 1, 2), (0, 2, 1), (2, 1, 0), (1, 1, 0), (0, 0, 0), (0, 3, 0), (3, 2, 0), (0, 3, 4), (0, 4, 3), (4, 2, 3), (2, 4, 0)],
)
def test_masked_fixed_point_raises_the_lowest_failing_rows_error(kinds):
    # kind 0 contracts; kind 1 is steep at ratio 2.5 (slope 10 at dt 0.25) and kind 3 at
    # ratio 0.75 (slope 3), both caught at round 1; kind 2 is not finite; kind 4 passes the
    # round-1 check (ratio 2/11) but jumps over its would-be root, so it never converges
    def generator(vals, y, z, us):
        e, kind = vals[:, 0, 0], vals[:, 0, -1]
        jump = 4.0 * (0.1 + 0.01 * np.where(y - e <= 0.1, 1.0, -1.0))
        return np.select([kind == 1, kind == 2, kind == 3, kind == 4], [10.0 * y, np.inf, 3.0 * y, jump], 0.5 * np.tanh(y))

    cp = ControlProblem(drift=None, diffusion=None, generator=generator, terminal=None, controls=(0.0,), grid=GRID4)
    e_y, z, us = np.array([0.3, -0.2, 0.1]), np.zeros((3, 1)), np.zeros(3, dtype=object)
    vals = np.stack([e_y, np.array(kinds, dtype=float)], axis=-1).reshape(-1, 1, 2)
    want = []
    for i in range(3):
        try:
            want.append(_implicit_step(cp, vals[i], e_y[i], z[i], us[i], GRID4.dt))
        except ContractError as exc:
            with pytest.raises(ContractError) as got:
                _implicit(generator, vals, e_y, z, us, GRID4.dt)
            assert str(got.value) == str(exc)
            return
    assert _implicit(generator, vals, e_y, z, us, GRID4.dt).tolist() == want


def test_a_linear_generator_converges_in_three_rounds_per_level():
    # q = a y with a dt = 0.45: the secant through the first two iterates is exact, so each level
    # takes the plain step, the secant step onto y = E[Y'] / (1 - a dt), and the convergence check
    calls = []

    def generator(vals, y, z, us):
        calls.append(len(y))
        return 1.8 * y

    cp = dataclasses.replace(_plain(), generator=generator)
    sol = solve_bsde_tree(cp, simulate_tree(cp, Path.constant(0.3, 0, GRID4.dt), 4))
    assert calls == [8, 8, 8, 4, 4, 4, 2, 2, 2, 1, 1, 1]  # one array call per round over a level's rows
    for k in range(4):
        e = sol.y_levels[k + 1].reshape(-1, 2).mean(axis=1)
        assert np.allclose(sol.y_levels[k], e / (1 - 0.45), rtol=4 * FIXED_POINT_TOL, atol=0)


@pytest.mark.parametrize("a,ratio", [(2.0, "0.5"), (3.0, "0.75"), (10.0, "2.5")])
def test_the_round_one_ratio_enforces_the_contract(a, ratio):
    # q = a y at dt = 0.25: the plain iteration converges at a dt = 0.5 and the secant would
    # solve a dt = 2.5, but each breaks L*dt < 0.5 and is refused after two rounds
    calls = []

    def generator(vals, y, z, us):
        calls.append(len(y))
        return a * y

    e_y = np.array([1.0, -0.5])
    with pytest.raises(ContractError) as got:
        _implicit(generator, np.zeros((2, 1, 1)), e_y, np.zeros((2, 1)), np.zeros(2, dtype=object), GRID4.dt)
    assert str(got.value) == (
        f"implicit generator step does not contract: observed contraction ratio {ratio} (estimates L*dt; needs L*dt < 0.5)"
    )
    assert calls == [2, 2]


def test_a_row_that_jumps_over_its_root_fails_after_the_last_round():
    # kind 4 of the lowest-failing-row test alone: it passes the round-1 check and never converges
    calls = []

    def generator(vals, y, z, us):
        calls.append(len(y))
        return 4.0 * (0.1 + 0.01 * np.where(y - 0.3 <= 0.1, 1.0, -1.0))

    with pytest.raises(
        ContractError,
        match=r"did not converge in 50 iterations: last step change 1\.\d+e-02, ratio of the last two step changes 0\.618 \(the step needs L\*dt < 0\.5\)$",
    ):
        _implicit(generator, np.zeros((1, 1, 1)), np.array([0.3]), np.zeros((1, 1)), np.zeros(1, dtype=object), GRID4.dt)
    assert calls == [1] * FIXED_POINT_MAX_ITER


def test_a_zero_secant_denominator_takes_the_plain_step():
    # F(y) = T(y) - y is 1 - 0.75 y up to y = 1, 0.25 on [1, 1.4] and 0.25 - 0.5 (y - 1.4) after,
    # so the secant step lands on the plateau, where F equals its last value
    def generator(vals, y, z, us):
        return 4.0 * (y + np.where(y <= 1.4, np.maximum(1.0 - 0.75 * y, 0.25), 0.25 - 0.5 * (y - 1.4)))

    cp = ControlProblem(drift=None, diffusion=None, generator=generator, terminal=None, controls=(0.0,), grid=GRID4)
    args = (np.zeros((1, 1, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros(1, dtype=object), GRID4.dt)
    out = _implicit(generator, *args)
    assert out.tolist() == [_implicit_step(cp, *(a[0] for a in args[:4]), GRID4.dt)]
    assert out[0] == pytest.approx(1.9, rel=4 * FIXED_POINT_TOL)


# the bench's inline problem shape: a y coefficient of size 0.2, z and rint terms
BENCH_INLINE = {
    "drift": ["0.12*u + -0.21*tanh(x) + 0.05*tanh(rint)"],
    "diffusion": [["0.6 + 0.1*tanh(rmax)"]],
    "generator": "-0.1*u*u + -0.2*tanh(y) + 0.17*tanh(z) + -0.23*tanh(rint)",
    "terminal": "tanh(x) + 0.2*rmax + 0.15*sin(rint)",
    "controls": [-0.4, 0.6],
}


@pytest.mark.parametrize("kind", ["random-1d", "random-2d", "bench-inline"])
def test_the_secant_agrees_with_the_plain_iteration(kind, monkeypatch):
    # every implicit row of a value solve, against the plain fixed point the secant replaced
    if kind == "bench-inline":
        cp = inline_problem(BENCH_INLINE, GRID4)
    else:
        cp = random_problem(GridConfig(3, 0.75, 2, 2) if kind == "random-2d" else GRID4, seed=11, n_controls=3)
    batches = []

    def recorded(generator, vals, e_y, z, us, dt):
        out = _implicit(generator, vals, e_y, z, us, dt)
        batches.append((vals, e_y, z, us, dt, out))
        return out

    monkeypatch.setattr(control, "_implicit", recorded)
    value(cp, Path.constant(np.full(cp.grid.dim, 0.2), 0, cp.grid.dt))
    assert sum(len(b[1]) for b in batches) > 100
    for vals, e_y, z, us, dt, out in batches:
        for i in range(len(e_y)):
            want = _plain_step(cp, vals[i], e_y[i], z[i], us[i], dt)
            assert abs(out[i] - want) <= 4 * FIXED_POINT_TOL * (1 + abs(want))


def _linear_in_z(a: float, steps: int, phi) -> ControlProblem:
    """q = a z, unit noise, no drift on [0, 1]; ``phi`` a function of the endpoint."""
    return ControlProblem(
        drift=lambda vals, us: np.zeros((len(vals), 1)),
        diffusion=lambda vals, us: np.ones((len(vals), 1, 1)),
        generator=lambda vals, y, z, us: a * z[:, 0],
        terminal=lambda vals: phi(vals[:, 0, -1]),
        controls=(0.0,),
        grid=GridConfig(steps, 1.0, 1, 1),
    )


def _biased_walk(a: float, steps: int, phi) -> float:
    """E[phi(x_T)] from x_0 = 0 by enumeration of the +-sqrt(dt) walk, each step
    weighted (1 +- a sqrt(dt)) / 2: a probability only when a sqrt(dt) <= 1."""
    r = np.sqrt(1.0 / steps)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=steps)))
    weights = np.prod((1.0 + a * r * signs) / 2.0, axis=1)
    return float(weights @ phi(r * signs.sum(axis=1)))


HINGE = lambda x: np.maximum(-x - 0.2, 0.0)
INDICATOR = lambda x: (x < -0.2).astype(float)


@pytest.mark.parametrize(
    "steps,phi,want",
    [
        (4, np.zeros_like, 0.0),
        (4, HINGE, -0.05546875),
        (4, INDICATOR, -0.07421875),
        (16, HINGE, 1.3087725732674468e-05),
        (16, INDICATOR, 3.7095467963155215e-05),
    ],
)
def test_a_generator_linear_in_z_values_the_biased_walk(steps, phi, want):
    # Y = E[Y'] + a Z dt weights child b by (1 + a dW_b) / 2, so the tree value is exact
    # enumeration under those weights. At a = 3, a sqrt(dt) is 1.5 at 4 steps, outside the
    # bound sqrt(dt) |dq/dz| <= 1: two nonnegative terminals get negative values, below the
    # zero terminal's 0, so comparison fails there. At 16 steps (0.75) it holds again.
    cp = _linear_in_z(3.0, steps, phi)
    got = value(cp, Path.constant(0.0, 0, cp.grid.dt))
    assert abs(got - _biased_walk(3.0, steps, phi)) <= 1e-15
    assert abs(got - want) <= 1e-15
    assert (got < 0.0) == (steps == 4 and phi is not np.zeros_like)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ordered_data_give_ordered_values(seed):
    # random_problem keeps |dq/dz| <= 0.5, inside sqrt(dt) |dq/dz| <= 1 at every dt <= 4
    grid = GridConfig(3, 0.75, 1, 1)
    low = random_problem(grid, seed=seed, n_controls=2)
    bump = lambda vals: 0.1 * np.abs(np.tanh(vals[:, 0, -1]))  # >= 0, and 0 at x = 0
    higher = {
        "terminal": dataclasses.replace(low, terminal=lambda vals: low.terminal(vals) + bump(vals)),
        "generator": dataclasses.replace(low, generator=lambda vals, y, z, us: low.generator(vals, y, z, us) + bump(vals)),
    }
    higher["both"] = dataclasses.replace(higher["terminal"], generator=higher["generator"].generator)
    rng = np.random.default_rng(seed)
    paths = [random_path(rng, 1, grid.dt, int(rng.integers(0, grid.steps + 1))) for _ in range(40)]
    v_low = _values(low, paths)
    for name, high in higher.items():
        v_high = _values(high, paths)
        assert (v_high >= v_low).all(), name
        assert (v_high > v_low).any(), name


# ---------------------------------------------------------------------------
# The engine against its earlier form, kept here as an oracle: the same iterates, the same
# rows per coefficient call, the same outputs to the bit and the same errors.


def _parent_implicit(generator, vals, e_y, z, us, dt):
    """The masked secant as it was when every round built its failure and keep masks and
    gathered every array with the keep mask."""
    out, rows, y = np.empty_like(e_y), np.arange(len(e_y)), e_y
    y_old = f_old = e_y
    first_bad, error = len(e_y), None
    for r in range(FIXED_POINT_MAX_ITER):
        t = e_y + _stack_checked("generator", generator(vals, y, z, us), y.shape) * dt
        f = t - y
        done = np.abs(f) <= FIXED_POINT_TOL * (1.0 + np.abs(t))
        failed = ~np.isfinite(t)
        if r == 1:
            ratio = np.abs(f) / np.abs(f_old)
            failed |= ~done & (ratio >= 0.5)
        if failed.any():
            i = int(np.flatnonzero(failed)[0])
            first_bad = int(rows[i])
            error = "generator produced a non-finite value" if not np.isfinite(t[i]) else (
                f"implicit generator step does not contract: observed contraction ratio {ratio[i]:.3g} (estimates L*dt; needs L*dt < 0.5)"
            )
        keep = ~done & (rows < first_bad)
        if not keep.all():
            out[rows[done]] = t[done]
            rows, vals, e_y, z, us, y, t, f, y_old, f_old = (a[keep] for a in (rows, vals, e_y, z, us, y, t, f, y_old, f_old))
            if rows.size == 0:
                break
        if r == FIXED_POINT_MAX_ITER - 1:
            c, p = float(abs(f[0])), float(abs(f_old[0]))
            raise ContractError(
                f"implicit generator step did not converge in {FIXED_POINT_MAX_ITER} iterations: last step change "
                f"{c:.3e}, ratio of the last two step changes {c / p:.3g} (the step needs L*dt < 0.5)"
            )
        if r:
            with np.errstate(all="ignore"):
                step = y - f * (y - y_old) / (f - f_old)
            t = np.where(np.isfinite(step), step, t)
        y_old, f_old, y = y, f, t
    if error is not None:
        raise ContractError(error)
    return out


def _parent_forward(cp, roots, depth, incs, strategy=None):
    """The forward pass as it was when every level was repeated once per control, also for one."""
    dt = cp.grid.dt
    b_count, n = incs.shape
    n_u = len(cp.controls) if strategy is None else 1
    every = np.fromiter(cp.controls, object, len(cp.controls))
    first = np.array(roots, dtype=float)
    first.setflags(write=False)
    t0 = first.shape[-1] - 1
    levels, ctrls = [first], []
    for k in range(depth):
        cur = levels[k]
        count, d, cols = cur.shape
        us = np.tile(every, count) if strategy is None else control._controls_of(strategy, cur, dt)
        rows = np.repeat(cur, len(us) // count, axis=0)
        bvec = _stack_checked("drift", cp.drift(rows, us), (len(us), d))
        sig = _stack_checked("diffusion", cp.diffusion(rows, us), (len(us), d, n))
        sig = sig.reshape(count, n_u, d, n).swapaxes(-1, -2)
        steps = cur[:, None, None, :, -1] + bvec.reshape(count, n_u, 1, d) * dt + incs @ sig
        if not np.all(np.isfinite(steps)):
            raise BlowupError(f"non-finite state at grid index {t0 + k + 1}")
        kids = np.empty(steps.shape[:-1] + (d, cols + 1))
        kids[..., :cols] = cur[:, None, None]
        kids[..., cols] = steps
        kids = kids.reshape(-1, d, cols + 1)
        kids.setflags(write=False)
        levels.append(kids)
        ctrls.append(us)
    return levels, ctrls


def _parent_backward(cp, levels, ctrls, incs, terminal):
    """The backward pass as it was when E[Y'] was a mean, Z went through (count, n_u, n) and
    every level was repeated once per control, also for one."""
    dt, n_leaves = cp.grid.dt, levels[-1].shape[0]
    y = _stack_checked("terminal", terminal(levels[-1]), (n_leaves,))
    if not np.all(np.isfinite(y)):
        raise BlowupError("non-finite terminal data")
    b_count, n = incs.shape
    y_levels, z_levels, best_levels = [y], [np.zeros((y.shape[0], n))], []
    for k in range(len(ctrls) - 1, -1, -1):
        count = levels[k].shape[0]
        n_u = len(ctrls[k]) // count
        yc = y.reshape(count, n_u, b_count)
        e = yc.mean(axis=-1)
        z = (yc.reshape(-1, 1, b_count) @ incs).reshape(count, n_u, n) / (b_count * dt)
        vals = np.repeat(levels[k], n_u, axis=0)
        y_u = _parent_implicit(cp.generator, vals, e.reshape(-1), z.reshape(-1, n), ctrls[k], dt).reshape(count, n_u)
        rows, best = np.arange(count), y_u.argmax(axis=1)
        y, z = y_u[rows, best], z[rows, best]
        y_levels.append(y)
        z_levels.append(z)
        best_levels.append(best)
    return y_levels[::-1], z_levels[::-1], best_levels[::-1]


def _outcome(fn):
    """fn()'s value, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


# generator families by row, the kind in vals[:, 0, 0] and parameters a, c, e_y and dt after it
TANH, LINEAR, SQUARE, INF_PAST, NAN_PAST, JUMP = range(6)
KINDS = [TANH] * 4 + [LINEAR, SQUARE, INF_PAST, NAN_PAST, JUMP]  # mostly rows that converge


def _families(vals, y, z, us):
    kind, a, c, e, dt = (vals[:, 0, j] for j in range(5))
    with np.errstate(all="ignore"):
        return np.select(
            [kind == TANH, kind == LINEAR, kind == SQUARE, kind == INF_PAST, kind == NAN_PAST],
            [
                a * np.tanh(y) + 0.3 * z[:, 0],  # contracts while |a| dt < 0.5
                a * y + c,  # |a| up to 3: round 1 refuses |a| dt >= 0.5
                a * y * y + c,  # blows up to inf from a large enough start
                np.where(y > c, np.inf, 0.4 * np.tanh(y)),  # a row at inf is both done and failed
                np.where(y > c, np.nan, 0.4 * np.tanh(y)),
            ],
            4.0 * (0.1 + 0.01 * np.where(y - e <= 0.4 * dt, 1.0, -1.0)),  # no root: 50 rounds, then refused
        )


@st.composite
def _implicit_batches(draw):
    n, dt = draw(st.integers(1, 9)), draw(st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0]))
    unit, huge = st.floats(-2.0, 2.0), st.sampled_from([1e155, -1e200, 1e300])  # a huge E[Y'] overflows y*y
    rows = [
        (draw(st.sampled_from(KINDS)), draw(st.floats(-3.0, 3.0)), draw(unit), draw(st.one_of(unit, huge)), dt)
        for _ in range(n)
    ]
    vals = np.array(rows, dtype=float)[:, None, :]
    e_y, z = vals[:, 0, 3].copy(), np.array([[draw(unit)] for _ in range(n)])
    return vals, e_y, z, np.array([draw(st.sampled_from([0.0, -0.5])) for _ in range(n)], dtype=object), dt


@settings(max_examples=400, deadline=None)
@given(_implicit_batches())
def test_the_implicit_step_repeats_its_parent_bit_for_bit(batch):
    got, want = [], []

    def logged(calls):
        def generator(vals, y, z, us):
            calls.append((vals.tobytes(), y.tobytes(), z.tobytes(), tuple(us)))
            return _families(vals, y, z, us)

        return generator

    new = _outcome(lambda: _implicit(logged(got), *batch).tobytes())
    old = _outcome(lambda: _parent_implicit(logged(want), *batch).tobytes())
    assert new == old
    assert got == want  # the same iterates at the same rows, round by round


@settings(max_examples=400, deadline=None)
@given(_implicit_batches())
def test_the_implicit_step_binds_a_bound_generator_once_per_batch_of_rows(batch):
    # the twin of the test above with _families as a BoundGenerator: the same bytes and errors
    # as the parent's plain calls, the same iterates at the same rows, and one bind before the
    # first round and before the first round after rows leave, whose rows every round reads
    binds, rounds, want = [], [], []

    def bind(vals, z, us):
        binds.append(len(vals))

        def at(y):
            rounds.append((vals.tobytes(), y.tobytes(), z.tobytes(), tuple(us)))
            return _families(vals, y, z, us)

        return at

    def plain(vals, y, z, us):
        want.append((vals.tobytes(), y.tobytes(), z.tobytes(), tuple(us)))
        return _families(vals, y, z, us)

    new = _outcome(lambda: _implicit(BoundGenerator(bind), *batch).tobytes())
    old = _outcome(lambda: _parent_implicit(plain, *batch).tobytes())
    assert new == old
    assert rounds == want
    sizes = [len(y) // 8 for _, y, _, _ in rounds]  # rows only leave, so each batch has its own size
    assert binds == [n for i, n in enumerate(sizes) if i == 0 or n != sizes[i - 1]]


@pytest.mark.parametrize(
    "kind,a,c,e,want",
    [
        (TANH, 0.5, 0.0, 0.2, None),
        (LINEAR, 3.0, 0.0, 0.2, "implicit generator step does not contract: observed contraction ratio 0.75 "),
        (SQUARE, 1.0, 0.0, 1e200, "generator produced a non-finite value"),
        (INF_PAST, 0.0, 0.1, 0.2, "generator produced a non-finite value"),
        (NAN_PAST, 0.0, 0.1, 0.2, "generator produced a non-finite value"),
        (JUMP, 0.0, 0.0, 0.2, "implicit generator step did not converge in 50 iterations"),
    ],
)
def test_each_fuzzed_family_reaches_its_outcome(kind, a, c, e, want):
    # next to a converging row, each family ends as the fuzz above relies on; the INF_PAST row
    # is at inf in round 0, so both done and failed
    vals = np.array([(TANH, 0.5, 0.0, 0.3, 0.25), (kind, a, c, e, 0.25)])[:, None, :]
    args = (vals, vals[:, 0, 3].copy(), np.zeros((2, 1)), np.zeros(2, dtype=object), 0.25)
    got = _outcome(lambda: _implicit(_families, *args))
    if want is None:
        assert np.isfinite(got).all()
    else:
        assert got[0] is ContractError and got[1].startswith(want)


def _logged(cp):
    """A copy of cp whose coefficients log (name, rows) per call."""
    calls = []

    def wrap(name):
        fn = getattr(cp, name)

        def logged(vals, *args):
            calls.append((name, len(vals)))
            return fn(vals, *args)

        return logged

    return dataclasses.replace(cp, **{name: wrap(name) for name in COEFFICIENTS}), calls


ENGINE_CASES = [
    ("random-1d", 1),
    ("random-1d", 3),
    ("random-2d", 2),
    ("random-2d", 3),
    ("bench-inline", 2),
    ("lq", 3),
]


def _engine_problem(kind, n_controls, seed):
    if kind == "bench-inline":
        return inline_problem(BENCH_INLINE, GRID4)
    if kind == "lq":
        return lq_problem(GRID4)
    return random_problem(GridConfig(3, 0.75, 2, 2) if kind == "random-2d" else GRID4, seed=seed, n_controls=n_controls)


@settings(max_examples=24, deadline=None)
@given(case=st.sampled_from(ENGINE_CASES), seed=st.integers(0, 50), cost_of=st.sampled_from([None, 0, -1]))
def test_the_engine_repeats_its_parent_bit_for_bit(case, seed, cost_of):
    # a value (every control per node) or a cost (one control per node), with the parent's
    # passes on a twin of the problem: the same levels, values, z, argmax and coefficient calls
    base = _engine_problem(*case, seed)
    rng = np.random.default_rng(seed)
    roots = rng.normal(size=(2, base.grid.dim, 2))
    strategy = None if cost_of is None else ControlStrategy.constant(base.controls[cost_of])
    incs = _increments(base.grid.noise_dim, base.grid.dt)
    depth = base.grid.steps - 1
    results = []
    for forward, backward in ((control._forward, control._backward), (_parent_forward, _parent_backward)):
        cp, calls = _logged(base)
        levels, ctrls = forward(cp, roots, depth, incs, strategy)
        y_levels, z_levels, best_levels = backward(cp, levels, ctrls, incs, cp.terminal)
        arrays = [*levels, *y_levels, *z_levels, *best_levels]
        results.append(([a.tobytes() for a in arrays], [a.dtype for a in arrays], [list(c) for c in ctrls], calls))
    assert results[0] == results[1]


@pytest.mark.parametrize("kind,module", [("random-1d", "pathhjb.presets"), ("bench-inline", "pathhjb.expressions")])
def test_a_bound_generator_solves_as_its_plain_form(kind, module):
    # value, cost and dpp_check == those of the same problem whose generator is re-wrapped as a
    # plain form, called whole once per fixed-point round on the rows the bound form reads y at
    base = _engine_problem(kind, 2, 5)
    assert isinstance(base.generator, BoundGenerator) and base.generator.__module__ == module
    binds, rounds, plain_rounds = [], [], []

    def bind(vals, z, us):
        binds.append(len(vals))
        at = base.generator.bind(vals, z, us)

        def logged(y):
            rounds.append(len(y))
            return at(y)

        return logged

    def plain(vals, y, z, us):
        plain_rounds.append(len(y))
        return base.generator(vals, y, z, us)

    p0 = Path.constant(0.2, 0, GRID4.dt)
    strategy = ControlStrategy.constant(base.controls[-1])
    results = [
        (value(cp, p0), cost(cp, p0, strategy), dpp_check(cp, p0, 2))
        for cp in (base, dataclasses.replace(base, generator=BoundGenerator(bind)), dataclasses.replace(base, generator=plain))
    ]
    assert results[0] == results[1] == results[2]
    assert rounds == plain_rounds
    assert 0 < len(binds) < len(rounds) / 2


@pytest.mark.parametrize("seed", [5, 9])
def test_an_augmented_bound_generator_solves_as_its_plain_form(seed):
    # augment passes a bound base generator on bound: value, cost and dpp_check == those of the
    # same problem whose generator is re-wrapped as a plain form, one whole call per round
    base = augment(random_augmented_problem(GRID4.steps, GRID4.horizon, seed))
    assert isinstance(base.generator, BoundGenerator) and base.generator.__module__ == "pathhjb.bshjb"
    binds, rounds, plain_rounds = [], [], []

    def bind(vals, z, us):
        binds.append(len(vals))
        at = base.generator.bind(vals, z, us)
        return lambda y: rounds.append(len(y)) or at(y)

    def plain(vals, y, z, us):
        plain_rounds.append(len(y))
        return base.generator(vals, y, z, us)

    p0 = Path.constant(np.full(2, 0.2), 0, GRID4.dt)  # the noise and state blocks
    strategy = ControlStrategy.constant(base.controls[0])
    results = [
        (value(cp, p0), cost(cp, p0, strategy), dpp_check(cp, p0, 2))
        for cp in (base, dataclasses.replace(base, generator=BoundGenerator(bind)), dataclasses.replace(base, generator=plain))
    ]
    assert results[0] == results[1] == results[2]
    assert rounds == plain_rounds
    assert 0 < len(binds) < len(rounds)


def test_a_five_argument_bound_generator_is_its_bind_without_y():
    # an AugmentedProblem's base generator (omega, x, y, z, us), bound at (omega, x, z, us): the
    # bytes of the plain form it replaced, c0 + c1 tanh(omega) + c2 y + c3 tanh(z) left to right
    q_bar = random_augmented_problem(4, 1.0, seed=3).base_generator
    assert isinstance(q_bar, BoundGenerator) and q_bar.__module__ == "pathhjb.presets"
    rng = np.random.default_rng(3)
    c = np.random.default_rng(3).uniform(-0.5, 0.5, size=4)
    omega, x, y, z, us = rng.normal(size=(5, 1, 3)), rng.normal(size=(5, 1)), rng.normal(size=5), rng.normal(size=(5, 1)), [0.0] * 5
    got = q_bar(omega, x, y, z, us)
    assert got.tobytes() == q_bar.bind(omega, x, z, us)(y).tobytes()
    assert got.tobytes() == (c[0] + c[1] * np.tanh(omega[:, 0, -1]) + c[2] * y + c[3] * np.tanh(z[:, 0])).tobytes()
    # read through a map of the leading arguments, as augment reads it on stacked paths
    through = q_bar.through(lambda vals: (vals[:, :1], vals[:, 1:, -1]))
    vals = np.concatenate([omega, np.repeat(x[:, :, None], 3, axis=2)], axis=1)
    assert through(vals, y, z, us).tobytes() == through.bind(vals, z, us)(y).tobytes() == got.tobytes()
    assert through.__module__ == __name__


def test_a_form_that_writes_into_vals_meets_a_read_only_array():
    # a cost reads each tree level itself: a form must not write into its paths
    def writes(vals, *args):
        vals[:, 0, -1] = 0.0

    for name in COEFFICIENTS:
        cp = dataclasses.replace(_plain(), **{name: writes})
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            cost(cp, Path.constant(0.3, 0, GRID4.dt), CONST0)


def test_stack_checked_reads_a_float_array_through_a_read_only_view():
    a = np.arange(6.0).reshape(3, 2)
    out = _stack_checked("drift", a, (3, 2))
    assert np.shares_memory(out, a) and not out.flags.writeable and a.flags.writeable
    for other in (a.tolist(), a.astype(np.float32), np.arange(6).reshape(3, 2), a.astype(">f8")):
        out = _stack_checked("drift", other, (3, 2))
        assert type(out) is np.ndarray and out.dtype == np.float64 and not out.flags.writeable
        assert out.tolist() == a.tolist() and not np.shares_memory(out, np.asarray(other))


def test_a_form_keeps_its_own_returned_array_writable():
    # the solvers read a form's float64 value without a copy, and flag only their own view read-only
    base = random_problem(GRID4, seed=2, n_controls=3)
    returned = []

    def keeping(fn):
        def form(*args):
            out = fn(*args)
            returned.append(out)
            return out

        return form

    cp = dataclasses.replace(base, **{name: keeping(getattr(base, name)) for name in COEFFICIENTS})
    p0 = Path.constant(0.2, 1, GRID4.dt)
    assert (value(cp, p0), cost(cp, p0, CONST0)) == (value(base, p0), cost(base, p0, CONST0))
    assert len(returned) > 10 and all(type(a) is np.ndarray and a.flags.writeable for a in returned)


def _parent_controls_of(strategy, vals, dt):
    """Reference oracle: a strategy's control read at each row of ``vals`` on its own."""
    return np.fromiter((strategy.control_at(Path._wrap(row, dt)) for row in vals), object, len(vals))


def test_an_open_loop_strategy_is_read_once_per_level(monkeypatch):
    # tuple controls: the drift reads u[0] and the diffusion u[1]
    cp = _per_path(
        drift=lambda p, u: np.array([u[0]]),
        diffusion=lambda p, u: np.array([[u[1]]]),
        generator=lambda p, y, z, u: 0.2 * np.tanh(y) - 0.1 * u[0] ** 2,
        terminal=lambda p: float(np.tanh(p.values[0, -1])),
        controls=((0.0, 1.0), (0.5, 0.5)),
        grid=GRID4,
    )
    p0 = Path.constant(0.1, 0, GRID4.dt)
    seq = (cp.controls[0], cp.controls[1], cp.controls[1], cp.controls[0])
    reads, read = [], ControlStrategy.control_at
    monkeypatch.setattr(ControlStrategy, "control_at", lambda self, path: reads.append(path.t_index) or read(self, path))
    runs = {
        "tree": lambda s: simulate_tree(cp, p0, 4, s),
        "cost": lambda s: cost(cp, p0, s),
        "psde": lambda s: simulate_psde(cp, p0, s, 4, seed=3).values.tobytes(),
        "moments": lambda s: moment_probe(cp, p0, s, n_paths=5, seed=3),
    }
    got = {}
    for name, run in runs.items():
        reads.clear()
        got[name] = run(ControlStrategy(open_loop=seq))
        assert reads == [0, 1, 2, 3], name
    tree = got.pop("tree")
    assert [list(level) for level in tree.controls] == [[u] * 2**k for k, u in enumerate(seq)]
    assert all(level.dtype == object for level in tree.controls)
    one_read = control._controls_of
    monkeypatch.setattr(control, "_controls_of", _parent_controls_of)
    assert got == {name: runs[name](ControlStrategy(open_loop=seq)) for name in got}
    # a sequence too short fails at the same level, with the same message
    for controls_of in (one_read, _parent_controls_of):
        monkeypatch.setattr(control, "_controls_of", controls_of)
        counted, calls = _counted(cp)
        with pytest.raises(PathError, match="^open-loop sequence has no control for grid index 2$"):
            cost(counted, p0, ControlStrategy(open_loop=seq[:2]))
        assert calls["drift"] == 1 + 2  # levels 0 and 1 were expanded


def test_a_constant_strategy_is_read_once_per_level(monkeypatch):
    # the same control object at every row, with no control_at per row; every value is the
    # per-row read's
    cp = random_problem(GRID4, seed=11, n_controls=3)
    p0 = Path.constant(0.2, 0, GRID4.dt)
    reads, read = [], ControlStrategy.control_at
    monkeypatch.setattr(ControlStrategy, "control_at", lambda self, path: reads.append(path.t_index) or read(self, path))
    tree = simulate_tree(cp, p0, 4, ControlStrategy.constant(cp.controls[1]))
    assert [len(level) for level in tree.controls] == [1, 2, 4, 8]
    assert all(level.dtype == object and all(u is cp.controls[1] for u in level) for level in tree.controls)
    runs = {
        "tree": lambda s: [level.tobytes() for level in simulate_tree(cp, p0, 4, s).levels],
        "default": lambda s: [level.tobytes() for level in simulate_tree(cp, p0, 4).levels],
        "cost": lambda s: cost(cp, p0, s),
        "semigroup": lambda s: backward_semigroup(cp, p0, s, 2, lambda p: float(np.tanh(p.values[0, -1]))),
        "psde": lambda s: simulate_psde(cp, p0, s, 4, seed=3).values.tobytes(),
        "moments": lambda s: moment_probe(cp, p0, s, n_paths=5, seed=3),
    }
    got = {name: run(ControlStrategy.constant(cp.controls[1])) for name, run in runs.items()}
    assert reads == []
    monkeypatch.setattr(control, "_controls_of", _parent_controls_of)
    assert got == {name: run(ControlStrategy.constant(cp.controls[1])) for name, run in runs.items()}
    assert reads


@pytest.mark.parametrize("grid", [GRID4, GridConfig(3, 0.75, 2, 2)])
def test_every_open_loop_cost_is_unchanged_by_one_read_per_level(grid, monkeypatch):
    cp = random_problem(grid, seed=11, n_controls=3)
    p0 = Path.constant(np.full(grid.dim, 0.2), 0, grid.dt)
    seqs = list(itertools.product(cp.controls, repeat=grid.steps))
    got = [cost(cp, p0, ControlStrategy(open_loop=seq)) for seq in seqs]
    monkeypatch.setattr(control, "_controls_of", _parent_controls_of)
    assert got == [cost(cp, p0, ControlStrategy(open_loop=seq)) for seq in seqs]
