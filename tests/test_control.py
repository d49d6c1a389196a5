import dataclasses
import itertools

import numpy as np
import pytest

from pathhjb.control import (
    DEFAULT_NODE_CAP,
    BlowupError,
    CapacityError,
    ContractError,
    ControlProblem,
    ControlStrategy,
    backward_semigroup,
    cost,
    dpp_check,
    moment_probe,
    regularity_probe,
    simulate_psde,
    simulate_tree,
    solve_bsde_tree,
    ValueSolver,
    _implicit_step,
    _increments,
    value,
    value_with_strategy,
)
from pathhjb.funcalc import constant_functional, ito_check
from pathhjb.pathspace import GridConfig, Path, PathError, horizontal_extension
from pathhjb.phjb import HamiltonianInput, hamiltonian, markovian_reduction
from pathhjb.presets import heat_problem, lq_problem, random_problem

GRID4 = GridConfig(4, 1.0, 1, 1)
CONST0 = ControlStrategy.constant(0.0)


def _plain(drift=0.0, sigma=1.0, q=None, phi=None, grid=GRID4, controls=(0.0,)):
    return ControlProblem(
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
    cp = ControlProblem(
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
    cp = ControlProblem(
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
    cp = ControlProblem(
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
    leaves = np.array([cp.terminal(p) for p in tree.leaf_paths()])
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
    with pytest.raises(ContractError):
        solve_bsde_tree(cp, tree)


def test_semigroup_full_range_equals_cost():
    cp = lq_problem(GRID4)
    p0 = Path.constant(0.0, 0, GRID4.dt)
    strat = ControlStrategy(open_loop=(0.5, 0.5, 1.0, 0.0))
    g_full = backward_semigroup(cp, p0, strat, 4, eta=cp.terminal)
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
    eta = cp.terminal
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
    expected = np.mean([cp.terminal(p) for p in tree.leaf_paths()])
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


def test_lipschitz_probe_bounded():
    grid = GridConfig(4, 1.0, 1, 1)
    cp = random_problem(grid, seed=11)
    lhat = cp.lipschitz_probe(seed=0, samples=30)
    assert np.isfinite(lhat)
    assert lhat * grid.dt < 0.5


class _RecursiveValue:
    """Reference oracle: the per-node memoized recursion the level-wise engine replaced."""

    def __init__(self, cp, end_index, terminal_fn):
        self.cp, self.end_index, self.terminal_fn = cp, end_index, terminal_fn
        self.incs = _increments(cp.grid.noise_dim, cp.grid.dt)
        self.memo = {}

    def solve(self, p0):
        return self._rec(p0.values, p0.t_index)

    def _rec(self, vals, k):
        cp, dt = self.cp, self.cp.grid.dt
        if k == self.end_index:
            return float(self.terminal_fn(Path._wrap(vals, dt)))
        key = (k, vals.tobytes())
        if key not in self.memo:
            path, best = Path._wrap(vals, dt), (-np.inf, None)
            for u in cp.controls:
                bvec = np.atleast_1d(np.asarray(cp.drift(path, u), dtype=float))
                sig = np.atleast_2d(np.asarray(cp.diffusion(path, u), dtype=float))
                steps = vals[:, -1][None, :] + bvec[None, :] * dt + self.incs @ sig.T
                ys = np.array([self._rec(np.concatenate([vals, s[:, None]], axis=1), k + 1) for s in steps])
                y = _implicit_step(cp, path, float(ys.mean()), ys @ self.incs / (len(ys) * dt), u, dt)
                if y > best[0]:
                    best = (y, u)
            self.memo[key] = best
        return self.memo[key][0]


def _counted(cp):
    """A copy of cp whose coefficient callables count their calls."""
    counts = dict.fromkeys(("drift", "diffusion", "generator", "terminal"), 0)

    def wrap(name):
        fn = getattr(cp, name)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    return dataclasses.replace(cp, **{name: wrap(name) for name in counts}), counts


# dt = 1/6 makes sqrt(dt) inexact, so a changed summation order shows in the last bits
ORACLE_CASES = [
    (GridConfig(3, 0.75, 2, 2), 2),
    (GridConfig(3, 0.75, 2, 2), 3),
    (GridConfig(4, 1.0, 1, 1), 3),
    (GridConfig(3, 0.5, 2, 2), 2),
]


@pytest.mark.parametrize("grid,n_controls", ORACLE_CASES)
def test_engine_value_equals_recursive_oracle(grid, n_controls):
    for s in range(3):
        base = random_problem(grid, seed=80 + s, n_controls=n_controls)
        cp, engine_calls = _counted(base)
        ref_cp, oracle_calls = _counted(base)
        p0 = Path.constant(np.full(grid.dim, 0.1 * s), 0, grid.dt)
        engine = ValueSolver(cp, grid.steps, cp.terminal)
        oracle = _RecursiveValue(ref_cp, grid.steps, ref_cp.terminal)
        assert engine.solve(p0) == oracle.solve(p0)
        assert engine.memo == oracle.memo
        assert engine_calls == oracle_calls


@pytest.mark.parametrize("grid,n_controls", ORACLE_CASES)
def test_dpp_check_equals_recursive_oracle(grid, n_controls):
    cp = random_problem(grid, seed=90, n_controls=n_controls)
    p0 = Path.constant(np.full(grid.dim, -0.2), 0, grid.dt)
    v = _RecursiveValue(cp, grid.steps, cp.terminal).solve(p0)
    for delta in range(grid.steps + 1):
        inner = _RecursiveValue(cp, grid.steps, cp.terminal)
        outer = _RecursiveValue(cp, delta, inner.solve)
        assert dpp_check(cp, p0, delta) == abs(v - outer.solve(p0))


def test_engine_merges_identical_children():
    # no noise and a drift that ignores u: each node's four children are one path
    base = _plain(sigma=0.0, drift=0.3, controls=(0.0, 1.0))
    cp, engine_calls = _counted(base)
    ref_cp, oracle_calls = _counted(base)
    p0 = Path.constant(0.2, 0, GRID4.dt)
    engine = ValueSolver(cp, 4, cp.terminal)
    oracle = _RecursiveValue(ref_cp, 4, ref_cp.terminal)
    assert engine.solve(p0) == oracle.solve(p0)
    assert engine.memo == oracle.memo and len(engine.memo) == 4
    assert engine_calls == oracle_calls
    assert engine_calls["drift"] == 2 * 4  # one node per level, under both controls
    engine.solve(p0)  # a solved root is read from the memo
    assert engine_calls == oracle_calls


def test_argmax_replay_attains_value_in_two_noise_dimensions():
    grid = GridConfig(3, 0.75, 2, 2)
    cp = random_problem(grid, seed=5, n_controls=3)
    p0 = Path.constant(np.array([0.1, -0.1]), 0, grid.dt)
    v, strat = value_with_strategy(cp, p0)
    assert cost(cp, p0, strat) == pytest.approx(v, abs=1e-12)


def test_value_cap_counts_control_fan_out():
    grid = GridConfig(7, 1.0, 1, 1)
    cp, calls = _counted(lq_problem(grid))  # |U| = 3: (3 * 2)^7 leaves
    p0 = Path.constant(0.0, 0, grid.dt)
    assert (len(cp.controls) * 2) ** 7 > DEFAULT_NODE_CAP >= 2**7
    with pytest.raises(CapacityError, match=r"6\^7 = 279936 leaves, over the node cap 262144"):
        value(cp, p0)
    assert calls == dict.fromkeys(calls, 0)  # the cap fires before any node is expanded
    simulate_tree(cp, p0, 7)  # the cost tree of the same depth is within the cap
    with pytest.raises(PathError):
        ValueSolver(cp, 3, cp.terminal).solve(Path.constant(0.0, 4, grid.dt))


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
        bvec = np.atleast_1d(np.asarray(cp.drift(path, u), dtype=float))
        sig = np.atleast_2d(np.asarray(cp.diffusion(path, u), dtype=float))
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
        lambda cp: backward_semigroup(cp, p0, ControlStrategy.constant(cp.controls[1]), 3, cp.terminal),
    ):
        cp, calls = _counted(random_problem(grid, seed=4, n_controls=2))
        run(cp)
        assert calls["drift"] == calls["diffusion"] == internal
    strat = ControlStrategy(open_loop=cp.controls + cp.controls[:1])
    tree = simulate_tree(cp, p0, 3, strat)
    assert [set(level) for level in tree.controls] == [{(u,)} for u in strat.open_loop]
    before = dict(calls)
    solve_bsde_tree(cp, tree)
    assert calls["drift"] == before["drift"] and calls["diffusion"] == before["diffusion"]


# ---------------------------------------------------------------------------
# Coefficient shape contract: drift (d,), diffusion (d, n), checked by
# ControlProblem.coeffs for every solver and by ito_check for bare callables.


def _shaped(grid, drift, diffusion=lambda p, u: np.eye(1)):
    return ControlProblem(
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
    mp = markovian_reduction(cp)
    for k in range(cp.grid.steps + 1):
        mp.drift(k * cp.grid.dt, np.linspace(-1.0, 1.0, 5), cp.controls[0])


def _ito(cp, p0):
    u = cp.controls[0]
    ito_check(constant_functional(0.0), lambda p: cp.drift(p, u), lambda p: cp.diffusion(p, u), p0, cp.grid.steps, 4, 0)


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
        cp.coeffs((p, q), (0.0, 0.0))
    cp = _shaped(GRID2, lambda p, u: np.zeros(2), lambda p, u: np.zeros((2, 1)))
    with pytest.raises(PathError, match=r"diffusion must return shape \(2, 2\) .*, got \(2, 1\)"):
        cp.coeffs((Path.constant(np.zeros(2), 0, GRID2.dt),), (0.0,))
    b, sig = _plain(drift=0.3, grid=GRID2).coeffs((Path.constant(np.zeros(2), 0, GRID2.dt),) * 3, (0.0,) * 3)
    assert b.shape == (3, 2) and sig.shape == (3, 2, 2) and not b.flags.writeable
    assert np.array_equal(b, np.full((3, 2), 0.3)) and np.array_equal(sig, np.broadcast_to(np.eye(2), (3, 2, 2)))
