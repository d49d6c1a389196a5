import numpy as np
import pytest

from pathhjb.funcalc import (
    PathFunctional,
    add_functionals,
    bump_size,
    constant_functional,
    endpoint_functional,
    horizontal_derivative,
    ito_check,
    running_integral_functional,
    scale_functional,
    time_functional,
    vertical_gradient,
    vertical_hessian,
)
from pathhjb.gauge import GaugeParams, grad_upsilon, hess_upsilon, upsilon_functional
from pathhjb.pathspace import Path, PathError
from pathhjb.phjb import SmoothFunctional

SQUARE = endpoint_functional(
    lambda x: float(x @ x),
    grad=lambda x: 2.0 * x,
    hess=lambda x: 2.0 * np.eye(x.shape[0]),
)


def test_vertical_gradient_examples():
    p = Path(np.array([[1.0, 3.0]]), 0.5)
    g = vertical_gradient(SQUARE, p)
    assert g == pytest.approx(np.array([6.0]), abs=1e-8)
    # functional of the initial value only: bump-invariant, exactly zero
    f0 = PathFunctional(eval=lambda q: float(q.values[0, 0]))
    assert np.all(vertical_gradient(f0, p) == 0.0)


def test_vertical_hessian_examples():
    p = Path(np.array([[1.0, 0.5], [0.0, -0.25]]), 0.5)
    h = vertical_hessian(SQUARE, p)
    assert h == pytest.approx(2.0 * np.eye(2), abs=1e-6)
    lin = endpoint_functional(lambda x: float(x.sum()))
    assert vertical_hessian(lin, p) == pytest.approx(np.zeros((2, 2)), abs=1e-7)


def test_horizontal_derivative_examples():
    p = Path(np.array([[0.3, 1.1, 0.7]]), 0.25)
    clock = PathFunctional(eval=lambda q: q.t)
    assert horizontal_derivative(clock, p) == pytest.approx(1.0, abs=1e-14)
    end = PathFunctional(eval=lambda q: float(q.values[0, -1]))
    assert horizontal_derivative(end, p) == 0.0
    integ = running_integral_functional()
    assert horizontal_derivative(integ, p) == pytest.approx(0.7, abs=1e-14)


def test_fd_matches_analytic_on_gauge_family():
    rng = np.random.default_rng(0)
    g = GaugeParams(3, 3.0)
    checked = 0
    while checked < 50:
        anchor = Path(rng.normal(size=(2, 3)) * 0.5, 0.25)
        p = Path(rng.normal(size=(2, 5)) * 0.5, 0.25)
        e = np.linalg.norm(p.values[:, -1] - anchor.values[:, -1])
        ext = np.concatenate([anchor.values, np.tile(anchor.values[:, -1:], (1, 2))], axis=1)
        interior = np.sqrt(((p.values[:, :-1] - ext[:, :-1]) ** 2).sum(axis=0)).max()
        if abs(e - interior) < 10 * bump_size(p) or e < 1e-6:
            continue
        f = upsilon_functional(anchor, g)
        an = grad_upsilon(p, anchor, g)
        assert np.linalg.norm(vertical_gradient(f, p) - an) <= 1e-6 * max(1.0, np.linalg.norm(an))
        anh = hess_upsilon(p, anchor, g)
        assert np.linalg.norm(vertical_hessian(f, p) - anh) <= 1e-4 * max(1.0, np.linalg.norm(anh))
        checked += 1


def test_fd_matches_analytic_across_builder_functionals():
    # every functional carrying analytic derivatives agrees with the stencil
    rng = np.random.default_rng(1)
    quad = endpoint_functional(
        lambda x: float(x @ x) + 0.3 * float(x.sum()),
        grad=lambda x: 2.0 * x + 0.3,
        hess=lambda x: 2.0 * np.eye(x.shape[0]),
    )
    integ = running_integral_functional()
    clock = time_functional(lambda t: 0.5 * t, dg=lambda t: 0.5)
    for f in (quad, integ, clock):
        for _ in range(100):
            d = int(rng.integers(1, 3))
            k = int(rng.integers(1, 6))
            p = Path(rng.normal(size=(d, k + 1)), 0.25)
            an_g = np.atleast_1d(f.analytic_dx(p))
            fd_g = vertical_gradient(f, p)
            assert np.linalg.norm(an_g - fd_g) <= max(1e-6, 1e-4 * abs(f.eval(p)))
            an_h = np.atleast_2d(f.analytic_dxx(p))
            fd_h = vertical_hessian(f, p)
            assert np.linalg.norm(an_h - fd_h) <= max(1e-6, 1e-4 * abs(f.eval(p)))


def test_combinators_compose_derivatives():
    p = Path(np.array([[0.2, 0.8]]), 0.5)
    f = add_functionals(scale_functional(SQUARE, 2.0), constant_functional(1.0))
    assert f.eval(p) == pytest.approx(2 * 0.64 + 1.0)
    assert f.analytic_dx(p) == pytest.approx(np.array([3.2]))
    assert f.analytic_dxx(p) == pytest.approx(np.array([[4.0]]))
    assert f.analytic_dt(p) == 0.0
    tf = time_functional(lambda t: t**2, dg=lambda t: 2 * t)
    assert tf.analytic_dt(p) == pytest.approx(2 * p.t)


ZERO_DRIFT = lambda p: np.zeros(p.d)  # noqa: E731
UNIT_DIFFUSION = lambda p: np.eye(p.d)  # noqa: E731


def test_ito_check_telescoping_identity():
    # endpoint functional: residual is exactly the telescoped sum, zero
    end = endpoint_functional(
        lambda x: float(x[0]), grad=lambda x: np.ones(1), hess=lambda x: np.zeros((1, 1))
    )
    p0 = Path.constant(0.2, 0, 1.0 / 16)
    drift = lambda p: np.full(1, 0.3)  # noqa: E731
    res = ito_check(end, drift, UNIT_DIFFUSION, p0, 16, n_paths=200, seed=1)
    assert res <= 1e-10


def test_ito_check_affine_insensitive_to_dt():
    aff = endpoint_functional(
        lambda x: 2.0 * float(x[0]) - 0.7,
        grad=lambda x: np.array([2.0]),
        hess=lambda x: np.zeros((1, 1)),
    )
    for steps in (4, 32):
        p0 = Path.constant(-0.4, 0, 1.0 / steps)
        assert ito_check(aff, ZERO_DRIFT, UNIT_DIFFUSION, p0, steps, 100, seed=2) <= 1e-10


def test_ito_check_square_residual_shrinks():
    res = []
    for steps in (8, 16):
        p0 = Path.constant(0.0, 0, 1.0 / steps)
        res.append(ito_check(SQUARE, ZERO_DRIFT, UNIT_DIFFUSION, p0, steps, 1500, seed=3))
    assert res[1] < res[0]


def test_ito_check_gauge_functional_residual_shrinks():
    g = GaugeParams(3, 3.0)
    res = []
    for steps in (6, 24):
        anchor = Path.constant(0.3, 0, 1.0 / steps)
        f = upsilon_functional(anchor, g)
        p0 = Path.constant(0.0, 0, 1.0 / steps)
        res.append(ito_check(f, ZERO_DRIFT, UNIT_DIFFUSION, p0, steps, 1200, seed=4))
    assert res[1] < res[0]


def test_ito_check_fd_fallback_close_to_analytic():
    p0 = Path.constant(0.1, 0, 1.0 / 8)
    plain = PathFunctional(eval=SQUARE.eval)
    with_an = ito_check(SQUARE, ZERO_DRIFT, UNIT_DIFFUSION, p0, 8, 50, seed=5)
    with_fd = ito_check(plain, ZERO_DRIFT, UNIT_DIFFUSION, p0, 8, 50, seed=5)
    assert with_fd == pytest.approx(with_an, rel=1e-5, abs=1e-7)


# ---------------------------------------------------------------------------
# Reference oracle: the Euler loop ito_check kept before it ran on the shared
# control stepper.


def _reference_ito_check(f, drift, diffusion, p0, end_index, n_paths, seed):
    # the per-path dispatch funcalc kept before its one jet reader; it reads an endpoint
    # functional through its per-path fields, at a Path, where ito_check reads g, grad and hess
    def time_derivative(f, p):
        return float(f.analytic_dt(p)) if f.analytic_dt is not None else horizontal_derivative(f, p)

    def space_gradient(f, p):
        if f.analytic_dx is not None:
            return np.atleast_1d(np.asarray(f.analytic_dx(p), dtype=float))
        return vertical_gradient(f, p)

    def space_hessian(f, p):
        if f.analytic_dxx is not None:
            h = np.asarray(f.analytic_dxx(p), dtype=float)
            return 0.5 * (h + h.T)
        return vertical_hessian(f, p)

    rng = np.random.default_rng(seed)
    dt = p0.dt
    k0 = p0.t_index
    sqdt = np.sqrt(dt)
    n_steps = end_index - k0
    total = 0.0
    f_start = f.eval(p0)
    for _ in range(n_paths):
        vals = np.empty((p0.d, end_index + 1))
        vals[:, : k0 + 1] = p0.values
        acc = 0.0
        draws = None
        for k in range(k0, end_index):
            view = vals[:, : k + 1]
            view.setflags(write=False)
            pk = Path._wrap(view, dt) if k > k0 else p0
            b = np.atleast_1d(np.asarray(drift(pk), dtype=float))
            sig = np.atleast_2d(np.asarray(diffusion(pk), dtype=float))
            if draws is None:
                draws = rng.normal(0.0, sqdt, size=(n_steps, sig.shape[1]))
            dx = b * dt + sig @ draws[k - k0]
            dtf = time_derivative(f, pk)
            dxf = space_gradient(f, pk)
            dxxf = space_hessian(f, pk)
            acc += dtf * dt + 0.5 * float(np.trace(dxxf @ (sig @ sig.T))) * dt + float(dxf @ dx)
            vals[:, k + 1] = vals[:, k] + dx
        vals.setflags(write=False)
        total += abs(f.eval(Path._wrap(vals, dt)) - f_start - acc)
    return total / n_paths


def _path_functional(present):
    # path-dependent through a running sum; analytic fields are the true ones
    def ev(p):
        end = p.values[:, -1]
        return float(np.sin(end.sum()) + 0.5 * (end @ end) + p.values.sum() * p.dt * end[0])

    def dx(p):
        end = p.values[:, -1]
        g = np.cos(end.sum()) + end
        g[0] += p.values.sum() * p.dt + p.dt * end[0]
        return g

    def dxx(p):
        d = p.d
        h = -np.sin(p.values[:, -1].sum()) * np.ones((d, d)) + np.eye(d)
        h[0, :] += p.dt
        h[:, 0] += p.dt
        return h

    fields = {"analytic_dt": lambda p: float(p.values[:, -1].sum() * p.values[0, -1]), "analytic_dx": dx, "analytic_dxx": dxx}
    return PathFunctional(eval=ev, **{k: fields[k] for k in present})


def _endpoint_functional(present):
    # g of the endpoint alone; grad and hess, where present, are its true derivatives
    def grad(x):
        g = np.cos(x.sum()) + x
        g[0] += 3.0 * x[0] ** 2
        return g

    def hess(x):
        h = -np.sin(x.sum()) * np.ones((x.shape[0], x.shape[0])) + np.eye(x.shape[0])
        h[0, 0] += 6.0 * x[0]
        return h

    fields = {"grad": grad, "hess": hess}
    return endpoint_functional(lambda x: float(np.sin(x.sum()) + 0.5 * (x @ x) + x[0] ** 3), **{k: fields[k] for k in present})


def _reference_functionals():
    # each analytic field of a path-dependent functional present or not; each of an endpoint
    # functional's grad and hess present or not; and functionals derived from endpoint ones
    import itertools

    names = ("analytic_dt", "analytic_dx", "analytic_dxx")
    for mask in itertools.product([False, True], repeat=3):
        yield _path_functional([k for k, on in zip(names, mask) if on])
    for mask in itertools.product([False, True], repeat=2):
        yield _endpoint_functional([k for k, on in zip(("grad", "hess"), mask) if on])
    full = _endpoint_functional(["grad", "hess"])
    yield add_functionals(full, _endpoint_functional(["grad"]))
    yield scale_functional(full, -1.5)
    yield SmoothFunctional.from_functional(full)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ito_check_equals_reference_loop(d, n):
    rng = np.random.default_rng(d * 10 + n)
    mix = rng.normal(size=(d, n))
    drift = lambda p: np.tanh(p.values[:, -1]) * 0.4 + 0.1  # noqa: E731
    diffusion = lambda p: mix * (1.0 + 0.2 * np.tanh(p.values[0, -1]))  # noqa: E731
    for f in _reference_functionals():
        # a zero-step run (end_index at the start), one step and a few steps
        for k0, end_index in ((2, 2), (1, 2), (0, 4)):
            p0 = Path(rng.normal(size=(d, k0 + 1)), 0.2)
            seed = int(rng.integers(1000))
            for n_paths in (1, 40):
                got = ito_check(f, drift, diffusion, p0, end_index, n_paths, seed)
                assert np.array_equal(got, _reference_ito_check(f, drift, diffusion, p0, end_index, n_paths, seed))


@pytest.mark.parametrize("endpoint", [True, False])
def test_ito_check_reads_the_start_step_once(endpoint):
    # every path is p0 at the start step: drift, diffusion and each derivative are read once there
    # and once per path at each later step; f's value once at p0 and once per final state
    from collections import Counter

    calls, drift_at = Counter(), Counter()

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)

        return wrapper

    if endpoint:
        fields = {"g": lambda x: float(x @ x), "grad": lambda x: 2.0 * x, "hess": lambda x: 2.0 * np.eye(x.shape[0])}
        f = endpoint_functional(*(counted(name, fn) for name, fn in fields.items()))
    else:
        fields = {name: getattr(SQUARE, name) for name in ("eval", "analytic_dt", "analytic_dx", "analytic_dxx")}
        f = PathFunctional(*(counted(name, fn) for name, fn in fields.items()))
    drift = lambda p: np.full(2, 0.1)  # noqa: E731
    diffusion = lambda p: np.eye(2)  # noqa: E731

    def drift_counted(p):
        drift_at[p.t_index] += 1
        return drift(p)

    n_paths, k0, end_index = 5, 1, 4
    p0 = Path(np.arange(4.0).reshape(2, 2), 0.25)
    res = ito_check(f, drift_counted, counted("diffusion", diffusion), p0, end_index, n_paths, seed=3)
    assert drift_at == {k0: 1, **{k: n_paths for k in range(k0 + 1, end_index)}}
    want = dict.fromkeys([*fields, "diffusion"], 1 + (end_index - k0 - 1) * n_paths)
    want["g" if endpoint else "eval"] = 1 + n_paths
    assert calls == want
    assert res == _reference_ito_check(SQUARE, drift, diffusion, p0, end_index, n_paths, seed=3)


def test_ito_check_blowup_on_a_later_path_is_reported_before_any_derivative():
    from pathhjb.control import BlowupError

    # Zero drift below the threshold c and an infinite one above it, so a path
    # blows up one step after it first passes c; c is chosen so that path 0
    # never passes it and some later path does.
    n_paths, steps, seed = 6, 8, 3
    dt = 1.0 / steps
    walks = np.cumsum(np.random.default_rng(seed).normal(0.0, np.sqrt(dt), size=(n_paths, steps)), axis=1)
    c = walks[0].max()
    j = int(np.argmax(walks.max(axis=1) > c))
    k = int(np.argmax(walks[j] > c)) + 1  # the grid index of the first state above c
    assert j > 0 and k < steps
    drift = lambda p: np.array([np.inf if p.values[0, -1] > c else 0.0])  # noqa: E731
    evaluated = []

    def ev(p):
        evaluated.append(p)
        return SQUARE.eval(p)

    fd_only = PathFunctional(eval=ev)  # no analytic fields: its stencils would fail on a blown-up path
    with np.errstate(invalid="ignore"), pytest.raises(BlowupError) as err:
        ito_check(fd_only, drift, UNIT_DIFFUSION, Path.constant(0.0, 0, dt), steps, n_paths, seed)
    assert str(err.value) == f"state blew up at step {k + 1} on path {j} of {n_paths}"
    assert len(evaluated) == 1  # f at the start only


def test_ito_check_blowup_names_the_first_non_finite_step():
    from pathhjb.control import BlowupError

    p0 = Path.constant(0.0, 1, 0.25)
    drift = lambda p: np.array([np.inf if p.t_index >= 2 else 0.0])  # noqa: E731
    with pytest.raises(BlowupError, match="at step 3"):
        ito_check(SQUARE, drift, UNIT_DIFFUSION, p0, 4, 2, seed=0)
    with pytest.raises(PathError):
        ito_check(SQUARE, ZERO_DRIFT, UNIT_DIFFUSION, p0, 0, 2, seed=0)


def test_ito_check_reads_coefficients_through_the_shared_reader():
    # n is fixed by the first diffusion value; a later value of another shape is rejected
    p0 = Path.constant(0.0, 0, 0.25)
    with pytest.raises(PathError, match=r"drift must return shape \(1,\) .*, got \(\)"):
        ito_check(SQUARE, lambda p: 0.0, UNIT_DIFFUSION, p0, 2, 2, seed=0)
    with pytest.raises(PathError, match=r"diffusion must return shape \(1, 1\) .*, got \(1,\)"):
        ito_check(SQUARE, ZERO_DRIFT, lambda p: np.ones(1), p0, 2, 2, seed=0)
    with pytest.raises(PathError, match=r"diffusion must return shape \(1, 2\) .*, got \(1, 1\)"):
        ito_check(SQUARE, ZERO_DRIFT, lambda p: np.ones((1, 2 if p.t_index == 0 else 1)), p0, 2, 2, seed=0)


def test_ito_check_rejects_a_derivative_of_the_wrong_shape():
    # the derivatives are stacked by the coefficient reader's checked stack
    p0 = Path.constant(0.0, 0, 0.25)
    wide = PathFunctional(eval=SQUARE.eval, analytic_dt=SQUARE.analytic_dt, analytic_dx=lambda p: np.ones(2), analytic_dxx=SQUARE.analytic_dxx)
    with pytest.raises(PathError, match=r"^analytic_dx must return shape \(1,\) at each of 3 evaluations, got \(2,\)$"):
        ito_check(wide, ZERO_DRIFT, UNIT_DIFFUSION, p0, 2, 3, seed=0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_endpoint_functional_shapes_its_jet_as_atleast_1d_and_2d(d):
    # each return kind of grad and hess: the jet reads it as np.atleast_1d / np.atleast_2d,
    # the very object when that is what they return
    p = Path(np.arange(3.0 * d).reshape(d, 3), 0.25)
    kinds = [1.5, np.array(2.5), [0.5] * d, np.arange(1.0, d + 1), np.arange(float(d * d)).reshape(d, d), [[1, 2]] * d]
    for ret in kinds:
        f = endpoint_functional(lambda x: 0.0, grad=lambda x: ret, hess=lambda x: ret)
        for got, want in ((f.analytic_dx(p), np.atleast_1d(ret)), (f.analytic_dxx(p), np.atleast_2d(ret))):
            assert type(got) is np.ndarray and got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert (got is ret) == (want is ret)


def test_endpoint_functional_jet_of_the_wrong_shape_is_named_by_ito_check():
    p0 = Path.constant(np.zeros(2), 0, 0.25)
    drift, diffusion = (lambda p: np.zeros(2)), (lambda p: np.eye(2))
    ones = lambda x: np.ones(2)
    wide = endpoint_functional(lambda x: 0.0, grad=lambda x: np.ones(3), hess=lambda x: np.eye(2))
    with pytest.raises(PathError, match=r"^analytic_dx must return shape \(2,\) at each of 3 evaluations, got \(3,\)$"):
        ito_check(wide, drift, diffusion, p0, 2, 3, seed=0)
    flat = endpoint_functional(lambda x: 0.0, grad=ones, hess=ones)  # a (d,) Hessian reads as (1, d)
    with pytest.raises(PathError, match=r"^analytic_dxx must return shape \(2, 2\) at each of 3 evaluations, got \(1, 2\)$"):
        ito_check(flat, drift, diffusion, p0, 2, 3, seed=0)
