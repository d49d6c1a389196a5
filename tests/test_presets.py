"""The named presets' array forms against their scalar callables, and the
solvers' results with the forms against the results without them."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathhjb import control, phjb
from pathhjb.control import ControlStrategy
from pathhjb.pathspace import GridConfig, Path
from pathhjb.presets import PRESETS

COEFFICIENTS = ("drift", "diffusion", "generator", "terminal")
GRID = GridConfig(4, 0.5, 1, 1)
_FLOATS = st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-300, -2.5])


@st.composite
def _batches(draw, cp):
    """N same-time paths on the preset's grid, a control for each, and y and z."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(0, cp.grid.steps))
    vals = np.array(draw(st.lists(_FLOATS, min_size=n * (k + 1), max_size=n * (k + 1)))).reshape(n, 1, k + 1)
    vals.setflags(write=False)
    us = draw(st.lists(st.sampled_from(cp.controls), min_size=n, max_size=n))
    y = np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)))
    z = np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n))).reshape(n, 1)
    return vals, us, y, z


def _scalar_rows(cp, name, vals, us, y, z):
    paths = [Path(row, cp.grid.dt) for row in vals]
    if name == "terminal":
        return np.array([float(cp.terminal(p)) for p in paths])
    if name == "generator":
        return np.array([float(cp.generator(p, y_i, z_i, u)) for p, y_i, z_i, u in zip(paths, y, z, us)])
    return np.array([getattr(cp, name)(p, u) for p, u in zip(paths, us)], dtype=float)


def _array_rows(cp, name, vals, us, y, z):
    form = getattr(cp, name).batched
    args = {"drift": (vals, us), "diffusion": (vals, us), "generator": (vals, y, z, us), "terminal": (vals,)}[name]
    return np.asarray(form(*args), dtype=float)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("name", COEFFICIENTS)
def test_each_array_form_element_equals_the_scalar_value(preset, name):
    cp = PRESETS[preset](GRID)

    @settings(max_examples=60, deadline=None)
    @given(_batches(cp))
    def check(batch):
        got, want = _array_rows(cp, name, *batch), _scalar_rows(cp, name, *batch)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    check()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_the_terminal_form_equals_the_scalar_one_on_many_endpoints(preset):
    # numpy's x**2 and x**4 differ from Python's in the last bit at a few per
    # cent of these endpoints, which the drawn batches above may miss
    cp = PRESETS[preset](GRID)
    n = 20_000
    vals = np.random.default_rng(5).uniform(-1e3, 1e3, size=(n, 1, 1))
    vals[::101] = 0.0
    got = _array_rows(cp, "terminal", vals, None, None, None)
    np.testing.assert_array_equal(got, _scalar_rows(cp, "terminal", vals, None, None, None))


def _scalar_only(fn):
    return lambda *args: fn(*args)


def _stripped(cp):
    """cp with every array form dropped, as dataclasses.replace drops it."""
    return dataclasses.replace(cp, **{f: _scalar_only(getattr(cp, f)) for f in COEFFICIENTS})


def _tree_results(cp, p0):
    v, strategy = control.value_with_strategy(cp, p0)
    replay = control.cost(cp, p0, strategy)
    costs = [
        control.cost(cp, p0, ControlStrategy(open_loop=seq))
        for seq in itertools.islice(itertools.product(cp.controls, repeat=cp.grid.steps), 8)
    ]
    return v, replay, costs, [control.dpp_check(cp, p0, delta) for delta in range(1, cp.grid.steps + 1)]


def _reduction_arrays(cp, xg):
    mp = phjb.markovian_reduction(cp)
    xs, rng = xg.nodes(), np.random.default_rng(3)
    y, z = rng.normal(size=xg.nx), rng.normal(size=xg.nx)
    out = [mp.terminal(xs)]
    for k, u in itertools.product(range(cp.grid.steps + 1), cp.controls):
        t = k * cp.grid.dt
        out += [mp.drift(t, xs, u), mp.diffusion(t, xs, u), mp.generator(t, xs, y, z, u)]
    return out


def _assert_same_arrays(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_the_forms_give_the_scalar_path_results(preset):
    cp = PRESETS[preset](GRID)
    ref = _stripped(cp)
    assert all(hasattr(getattr(cp, f), "batched") and not hasattr(getattr(ref, f), "batched") for f in COEFFICIENTS)
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


def _failing_form(fn, calls):
    def scalar(*args):
        return fn(*args)

    def form(*args):
        calls.append(len(args[0]))
        raise OverflowError("array form failed")

    scalar.batched = form
    return scalar


@pytest.mark.parametrize("preset", ["lq", "quartic", "bangbang"])
@pytest.mark.parametrize("name", COEFFICIENTS)
def test_a_failing_form_gives_the_same_results_through_the_fallback(preset, name):
    cp = PRESETS[preset](GRID)
    calls = []
    failing = dataclasses.replace(cp, **{name: _failing_form(getattr(cp, name), calls)})
    p0 = Path.constant(-0.21, 0, GRID.dt)
    assert _tree_results(failing, p0) == _tree_results(cp, p0)
    xg = phjb.XGrid(-3.0, 3.0, 31)
    _assert_same_arrays(_reduction_arrays(failing, xg), _reduction_arrays(cp, xg))
    assert phjb.markov_consistency(failing, p0, xg) == phjb.markov_consistency(cp, p0, xg)
    assert calls  # the form was tried, and each failure redone by the scalar callable
