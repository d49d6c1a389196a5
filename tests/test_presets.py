"""The array forms of every problem builder in presets against the scalar
callables they replaced, kept here as the reference: element by element, and
through the solvers when the scalar callables enter through ``per_path``."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathhjb import control, phjb
from pathhjb.control import ControlProblem, ControlStrategy, per_path
from pathhjb.funcalc import running_integral_functional
from pathhjb.pathspace import GridConfig, Path, PathError
from pathhjb.presets import PRESETS, random_augmented_problem, random_problem

COEFFICIENTS = ("drift", "diffusion", "generator", "terminal")
GRID = GridConfig(4, 0.5, 1, 1)
_FLOATS = st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-300, -2.5])


# ---------------------------------------------------------------------------
# The scalar reference: each builder's coefficients written per path, as
# presets defined them before every coefficient became an array form.


def _endpoint(fn):
    return lambda p: fn(float(p.values[0, -1]))


def _uncontrolled(terminal):
    return {
        "drift": lambda p, u: np.zeros(1),
        "diffusion": lambda p, u: np.array([[1.0]]),
        "generator": lambda p, y, z, u: 0.0,
        "terminal": terminal,
    }


def _controlled(generator, terminal):
    return {
        "drift": lambda p, u: np.array([float(u)]),
        "diffusion": lambda p, u: np.array([[1.0]]),
        "generator": generator,
        "terminal": terminal,
    }


SCALAR_PRESETS = {
    "lq": _controlled(lambda p, y, z, u: -u * u, _endpoint(float)),
    "heat": _uncontrolled(_endpoint(lambda x: x**2)),
    "quartic": _uncontrolled(_endpoint(lambda x: x**4)),
    "martingale": _uncontrolled(_endpoint(float)),
    "running": _uncontrolled(running_integral_functional().eval),
    "bangbang": _controlled(lambda p, y, z, u: 0.0, _endpoint(abs)),
}


def _scalar_random_problem(grid, seed, n_controls=2):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, size=6)
    rng.uniform(-1.0, 1.0, size=n_controls)  # the controls
    d, n = grid.dim, grid.noise_dim

    def hist(p):
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

    def terminal(p):
        return float(np.tanh(p.values[0, -1]) + 0.2 * np.sqrt((p.values**2).sum(axis=0)).max())

    return {"drift": drift, "diffusion": diffusion, "generator": gen, "terminal": terminal}


def _scalar_random_augmented_problem(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.5, 0.5, size=4)

    def q_bar(omega, x, y, z, u):
        return float(c[0] + c[1] * np.tanh(omega.values[0, -1]) + c[2] * y + c[3] * np.tanh(z[0]))

    def phi_bar(omega, x):
        return float(omega.values[0].max() + 0.5 * omega.values[0, -1])

    return {
        "drift": lambda omega, x, u: np.zeros(1),
        "diffusion": lambda omega, x, u: np.zeros((1, 1)),
        "generator": q_bar,
        "terminal": phi_bar,
    }


RANDOM_GRIDS = {"random_d1": (GridConfig(4, 0.5, 1, 1), 7, 2), "random_d2": (GridConfig(3, 0.5, 2, 2), 8, 3)}


def _builder(name):
    """(problem, its scalar reference, augmented?) of a builder name."""
    if name in PRESETS:
        return PRESETS[name](GRID), SCALAR_PRESETS[name], False
    if name in RANDOM_GRIDS:
        grid, seed, n_controls = RANDOM_GRIDS[name]
        return random_problem(grid, seed, n_controls), _scalar_random_problem(grid, seed, n_controls), False
    return random_augmented_problem(GRID.steps, GRID.horizon, seed=9), _scalar_random_augmented_problem(9), True


BUILDERS = sorted(PRESETS) + ["augmented", "random_d1", "random_d2"]


@st.composite
def _batches(draw, cp):
    """N same-time paths on the problem's grid, a control for each, y and z,
    and for an augmented problem the paths' (N, 1) states."""
    grid = cp.grid
    n, k = draw(st.integers(1, 6)), draw(st.integers(0, grid.steps))

    def array(*shape):
        return np.array(draw(st.lists(_FLOATS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))).reshape(shape)

    d = grid.dim if isinstance(cp, ControlProblem) else grid.noise_dim
    vals = array(n, d, k + 1)
    vals.setflags(write=False)
    us = draw(st.lists(st.sampled_from(cp.controls), min_size=n, max_size=n))
    return vals, array(n, 1), us, array(n), array(n, grid.noise_dim)


def _scalar_rows(scalar, name, dt, augmented, vals, x, us, y, z):
    paths = [Path(row, dt) for row in vals]
    fn = scalar[name]
    if augmented:
        fn = {
            "drift": lambda p, u, x_i: scalar["drift"](p, x_i, u),
            "diffusion": lambda p, u, x_i: scalar["diffusion"](p, x_i, u),
            "generator": lambda p, y_i, z_i, u, x_i: scalar["generator"](p, x_i, y_i, z_i, u),
            "terminal": lambda p, x_i: scalar["terminal"](p, x_i),
        }[name]
    extra = (x,) if augmented else ()
    if name == "terminal":
        return np.array([float(fn(p, *e)) for p, *e in zip(paths, *extra)])
    if name == "generator":
        return np.array([float(fn(p, y_i, z_i, u, *e)) for p, y_i, z_i, u, *e in zip(paths, y, z, us, *extra)])
    return np.array([fn(p, u, *e) for p, u, *e in zip(paths, us, *extra)], dtype=float)


def _array_rows(problem, name, augmented, vals, x, us, y, z):
    if augmented:
        form = getattr(problem, f"base_{name}")
        args = {"drift": (x, us), "diffusion": (x, us), "generator": (x, y, z, us), "terminal": (x,)}[name]
    else:
        form = getattr(problem, name)
        args = {"drift": (us,), "diffusion": (us,), "generator": (y, z, us), "terminal": ()}[name]
    return np.asarray(form(vals, *args), dtype=float)


@pytest.mark.parametrize("preset", BUILDERS)
@pytest.mark.parametrize("name", COEFFICIENTS)
def test_each_array_form_element_equals_the_scalar_value(preset, name):
    problem, scalar, augmented = _builder(preset)
    dt = problem.grid.dt

    @settings(max_examples=60, deadline=None)
    @given(_batches(problem))
    def check(batch):
        got = _array_rows(problem, name, augmented, *batch)
        want = _scalar_rows(scalar, name, dt, augmented, *batch)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    check()


@pytest.mark.parametrize("preset", BUILDERS)
def test_the_terminal_form_equals_the_scalar_one_on_many_endpoints(preset):
    # numpy's x**2 and x**4 differ from Python's in the last bit at a few per
    # cent of these endpoints, which the drawn batches above may miss
    problem, scalar, augmented = _builder(preset)
    n, rng = 20_000, np.random.default_rng(5)
    d = problem.grid.noise_dim if augmented else problem.grid.dim
    vals = rng.uniform(-1e3, 1e3, size=(n, d, 1))
    vals[::101] = 0.0
    x = rng.normal(size=(n, 1))
    got = _array_rows(problem, "terminal", augmented, vals, x, None, None, None)
    np.testing.assert_array_equal(got, _scalar_rows(scalar, "terminal", problem.grid.dt, augmented, vals, x, None, None, None))


def test_the_random_forms_equal_the_scalar_ones_on_many_rows():
    # np.tanh on arrays against its calls on one value, over long rows
    for name in ("random_d1", "random_d2"):
        cp, scalar, _ = _builder(name)
        grid, rng, n = cp.grid, np.random.default_rng(6), 3000
        vals = rng.normal(scale=3.0, size=(n, grid.dim, grid.steps + 1))
        us = list(rng.choice(np.array(cp.controls, dtype=object), size=n))
        y, z = rng.normal(scale=3.0, size=n), rng.normal(scale=3.0, size=(n, grid.noise_dim))
        for coeff in COEFFICIENTS:
            got = _array_rows(cp, coeff, False, vals, None, us, y, z)
            np.testing.assert_array_equal(got, _scalar_rows(scalar, coeff, grid.dt, False, vals, None, us, y, z))


# ---------------------------------------------------------------------------
# The solvers on the array forms against the solvers on the scalar reference.


def _per_path_copy(cp, scalar, names=COEFFICIENTS):
    """cp with the coefficients ``names`` replaced by the per_path adapters of
    their scalar reference."""
    return dataclasses.replace(cp, **{f: per_path(scalar[f], cp.grid.dt) for f in names})


def _tree_results(cp, p0):
    v, strategy = control.value_with_strategy(cp, p0)
    replay = control.cost(cp, p0, strategy)
    costs = [
        control.cost(cp, p0, ControlStrategy(open_loop=seq))
        for seq in itertools.islice(itertools.product(cp.controls, repeat=cp.grid.steps), 8)
    ]
    return v, replay, costs, [control.dpp_check(cp, p0, delta) for delta in range(1, cp.grid.steps + 1)]


def _reduction_arrays(cp, xg):
    cp = phjb.markovian_reduction(cp)
    b, sig, _, hists = phjb._coefficient_table(cp, xg)
    rng = np.random.default_rng(3)
    y, z = rng.normal(size=xg.nx), rng.normal(size=(xg.nx, 1))
    out = [b, sig, cp.terminal(hists[-1])]
    for hist, u in itertools.product(hists, cp.controls):
        out.append(cp.generator(hist, y, z, (u,) * xg.nx))
    return out


def _assert_same_arrays(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_the_forms_give_the_scalar_path_results(preset):
    cp = PRESETS[preset](GRID)
    ref = _per_path_copy(cp, SCALAR_PRESETS[preset])
    p0 = Path.constant(0.37, 0, GRID.dt)
    assert _tree_results(cp, p0) == _tree_results(ref, p0)
    xg = phjb.XGrid(-4.0, 4.0, 41)
    if preset == "running":  # the running integral reads the history: no reduction
        for problem in (cp, ref):
            with pytest.raises(phjb.MarkovProbeError):
                phjb.markovian_reduction(problem)
        return
    _assert_same_arrays(_reduction_arrays(cp, xg), _reduction_arrays(ref, xg))
    assert phjb.markov_consistency(cp, p0, xg) == phjb.markov_consistency(ref, p0, xg)


def _failing_form(calls):
    def form(vals, *args):
        calls.append(len(vals))
        raise OverflowError("array form failed")

    return form


@pytest.mark.parametrize("preset", ["lq", "quartic", "bangbang"])
@pytest.mark.parametrize("name", COEFFICIENTS)
def test_a_failing_form_gives_the_same_results_through_the_fallback(preset, name):
    # The engine keeps no fallback of its own: a form's error reaches the caller
    # as it is. The fallback is the per_path copy of the scalar callable, which
    # serves beside the other coefficients' forms with the same results.
    cp = PRESETS[preset](GRID)
    calls = []
    failing = dataclasses.replace(cp, **{name: _failing_form(calls)})
    p0 = Path.constant(-0.21, 0, GRID.dt)
    xg = phjb.XGrid(-3.0, 3.0, 31)
    for solve in (lambda: _tree_results(failing, p0), lambda: _reduction_arrays(failing, xg)):
        with pytest.raises(OverflowError, match="array form failed"):
            solve()
    assert calls
    fallback = _per_path_copy(cp, SCALAR_PRESETS[preset], (name,))
    assert _tree_results(fallback, p0) == _tree_results(cp, p0)
    _assert_same_arrays(_reduction_arrays(fallback, xg), _reduction_arrays(cp, xg))
    assert phjb.markov_consistency(fallback, p0, xg) == phjb.markov_consistency(cp, p0, xg)


def test_a_root_on_another_dt_raises_path_error():
    cp = PRESETS["lq"](GRID)
    p0 = Path.constant(0.1, 0, GRID.dt / 2)
    strategy = ControlStrategy.constant(cp.controls[0])
    solves = {
        "value": lambda: control.value(cp, p0),
        "value_with_strategy": lambda: control.value_with_strategy(cp, p0),
        "cost": lambda: control.cost(cp, p0, strategy),
        "dpp_check": lambda: control.dpp_check(cp, p0, 1),
        "simulate_tree": lambda: control.simulate_tree(cp, p0, 2),
        "simulate_psde": lambda: control.simulate_psde(cp, p0, strategy, GRID.steps, 0),
        "markov_consistency": lambda: phjb.markov_consistency(cp, p0, phjb.XGrid(-3.0, 3.0, 31)),
    }
    for name, solve in solves.items():
        with pytest.raises(PathError, match=f"root path has dt {GRID.dt / 2}, the grid's is {GRID.dt}"):
            solve()
    _, strategy = control.value_with_strategy(cp, Path.constant(0.1, 0, GRID.dt))
    with pytest.raises(PathError, match="root path has dt"):
        strategy.control_at(Path.constant(0.7, 1, GRID.dt / 2))  # off the root's table: a solve
