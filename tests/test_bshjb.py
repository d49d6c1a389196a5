import dataclasses
import re

import numpy as np
import pytest

from pathhjb.bshjb import (
    AugmentedProblem,
    MixedFunctional,
    _check_xu_free,
    augment,
    bshjb_residual,
    remark64_check,
    split_path,
    stack_paths,
)
from pathhjb.control import per_path, simulate_tree, value
from pathhjb.pathspace import Path, PathError
from pathhjb.presets import random_augmented_problem
from pathhjb.sampling import random_path


def _frozen_ap(**kw):
    """An AugmentedProblem of base coefficients written per noise path."""
    defaults = dict(
        base_drift=lambda om, x, u: np.zeros(1),
        base_diffusion=lambda om, x, u: np.zeros((1, 1)),
        base_generator=lambda om, x, y, z, u: 0.0,
        base_terminal=lambda om, x: float(om.values[0, -1]),
        controls=(0.0,),
        steps=3,
        horizon=0.75,
        noise_dim=1,
        state_dim=1,
    )
    defaults.update(kw)
    dt = defaults["horizon"] / defaults["steps"]
    for name in ("base_drift", "base_diffusion", "base_generator", "base_terminal"):
        defaults[name] = per_path(defaults[name], dt)
    return AugmentedProblem(**defaults)


def _one_row(fn, vals, *args):
    """An array form's value at the single path ``vals``, a (d, K) array."""
    vals = vals[None]
    vals.setflags(write=False)
    return np.asarray(fn(vals, *args))[0]


def test_stack_split_roundtrip():
    om = Path(np.array([[0.1, 0.2]]), 0.25)
    xi = Path(np.array([[1.0, 2.0]]), 0.25)
    st = stack_paths(om, xi)
    om2, xi2 = split_path(st, 1)
    assert om2 == om and xi2 == xi
    with pytest.raises(PathError):
        stack_paths(om, Path(np.array([[1.0]]), 0.25))


def test_augment_block_structure():
    ap = _frozen_ap()
    cp = augment(ap)
    om = Path(np.array([[0.1, -0.4]]), 0.25)
    combined = stack_paths(om, Path.constant(2.0, 1, 0.25))
    b = _one_row(cp.drift, combined.values, (0.0,))
    sig = _one_row(cp.diffusion, combined.values, (0.0,))
    assert np.all(b == 0.0)
    assert sig.shape == (2, 1)
    assert sig[0, 0] == 1.0 and sig[1, 0] == 0.0
    assert cp.grid.dim == 2 and cp.grid.noise_dim == 1


def test_augment_zero_drift_first_block_everywhere():
    rng = np.random.default_rng(0)
    ap = _frozen_ap(
        base_drift=lambda om, x, u: np.array([np.tanh(x[0]) + u]),
        base_diffusion=lambda om, x, u: np.array([[0.5]]),
        controls=(-1.0, 1.0),
    )
    cp = augment(ap)
    for _ in range(20):
        om = random_path(rng, 1, 0.25, int(rng.integers(0, 3)))
        xi = random_path(rng, 1, 0.25, om.t_index)
        combined = stack_paths(om, xi)
        for u in ap.controls:
            assert _one_row(cp.drift, combined.values, (u,))[0] == 0.0


def test_augmented_tree_replays_noise_exactly():
    ap = _frozen_ap(
        base_drift=lambda om, x, u: np.array([0.3 * x[0]]),
        base_diffusion=lambda om, x, u: np.array([[0.7]]),
    )
    cp = augment(ap)
    om = Path(np.array([[0.2]]), 0.25)
    combined = stack_paths(om, Path.constant(1.0, 0, 0.25))
    tree = simulate_tree(cp, combined, 3)
    sq = np.sqrt(0.25)
    for level in range(1, 4):
        lv = tree.levels[level]
        for j in range(lv.shape[0]):
            incs = np.diff(lv[j, 0, :])
            assert np.all(np.isin(np.round(incs, 12), (sq, -sq)))


def test_augmented_value_ignores_state_history():
    rng = np.random.default_rng(1)
    ap = _frozen_ap(
        base_drift=lambda om, x, u: np.array([0.2 * np.tanh(x[0])]),
        base_diffusion=lambda om, x, u: np.array([[0.4]]),
        base_terminal=lambda om, x: float(np.tanh(x[0]) + om.values[0, -1]),
    )
    cp = augment(ap)
    om = random_path(rng, 1, 0.25, 1)
    xi_hist = rng.normal(size=(1, 2))
    xi_a = Path(xi_hist, 0.25)
    shuffled = xi_hist.copy()
    shuffled[0, 0] += 2.0  # same endpoint, different history
    xi_b = Path(shuffled, 0.25)
    va = value(cp, stack_paths(om, xi_a))
    vb = value(cp, stack_paths(om, xi_b))
    assert va == pytest.approx(vb, abs=1e-13)


def test_remark64_martingale():
    ap = _frozen_ap()
    om = Path(np.array([[0.0, 0.4]]), 0.25)
    assert remark64_check(ap, om) <= 1e-13


def test_remark64_constant_generator():
    c = 0.6
    ap = _frozen_ap(base_generator=lambda om, x, y, z, u: c)
    om = Path(np.array([[0.1]]), 0.25)
    # both sides equal E[phi] + c (T - t)
    assert remark64_check(ap, om) <= 1e-12


def test_remark64_random_instances():
    rng = np.random.default_rng(2)
    for s in range(8):
        ap = random_augmented_problem(6, 0.75, seed=100 + s)
        om = random_path(rng, 1, 0.75 / 6, int(rng.integers(0, 3)))
        assert remark64_check(ap, om) <= 1e-10


def test_remark64_rejects_x_dependent_generator():
    ap = _frozen_ap(base_generator=lambda om, x, y, z, u: float(x[0]))
    om = Path(np.array([[0.1]]), 0.25)
    with pytest.raises(PathError):
        remark64_check(ap, om)


def test_bshjb_residual_state_functional():
    ap = _frozen_ap()
    v = MixedFunctional(eval=lambda om, x: float(x[0]))
    rng = np.random.default_rng(3)
    om = random_path(rng, 1, 0.25, 2)
    assert abs(bshjb_residual(ap, v, (om, 0.7))) <= 1e-9


def test_bshjb_residual_checks_the_noise_path_against_the_grid():
    ap = _frozen_ap()  # grid dt 0.25
    v = MixedFunctional(eval=lambda om, x: float(x[0]))
    with pytest.raises(PathError, match=r"^root path has dt 0\.5, the grid's is 0\.25$"):
        bshjb_residual(ap, v, (Path.constant(0.1, 1, 0.5), 0.7))


def test_bshjb_residual_noise_endpoint_functional():
    ap = _frozen_ap()
    v = MixedFunctional(eval=lambda om, x: float(om.values[0, -1]))
    rng = np.random.default_rng(4)
    om = random_path(rng, 1, 0.25, 1)
    assert abs(bshjb_residual(ap, v, (om, 0.0))) <= 1e-9


def test_bshjb_residual_heat_in_noise():
    d = 1
    ap = _frozen_ap()
    v = MixedFunctional(
        eval=lambda om, x: float((om.values[:, -1] ** 2).sum()) + (0.75 - om.t) * d,
        dt=lambda om, x: -float(d),
        dgamma=lambda om, x: 2.0 * om.values[:, -1],
        dgammagamma=lambda om, x: 2.0 * np.eye(d),
        dx=lambda om, x: np.zeros(1),
        dxx=lambda om, x: np.zeros((1, 1)),
        dxgamma=lambda om, x: np.zeros((1, d)),
    )
    rng = np.random.default_rng(5)
    om = random_path(rng, 1, 0.25, 1)
    assert abs(bshjb_residual(ap, v, (om, 0.3))) <= 1e-8
    # finite-difference fallback agrees
    v_fd = MixedFunctional(eval=v.eval)
    assert abs(bshjb_residual(ap, v_fd, (om, 0.3))) <= 1e-6


def test_bshjb_residual_cross_term():
    # v = omega(t) * x with sigma-bar = s: residual = s (cross term) + drift terms
    s = 0.6
    ap = _frozen_ap(
        base_diffusion=lambda om, x, u: np.array([[s]]),
    )
    v = MixedFunctional(
        eval=lambda om, x: float(om.values[0, -1] * x[0]),
        dt=lambda om, x: 0.0,
        dgamma=lambda om, x: np.array([float(x[0])]),
        dgammagamma=lambda om, x: np.zeros((1, 1)),
        dx=lambda om, x: np.array([float(om.values[0, -1])]),
        dxx=lambda om, x: np.zeros((1, 1)),
        dxgamma=lambda om, x: np.ones((1, 1)),
    )
    rng = np.random.default_rng(6)
    om = random_path(rng, 1, 0.25, 1)
    assert bshjb_residual(ap, v, (om, 0.4)) == pytest.approx(s, abs=1e-12)


def test_augmented_problem_validation():
    with pytest.raises(PathError):
        _frozen_ap(noise_dim=0)


@pytest.mark.parametrize(
    "field,bad,message",
    [
        ("steps", 2.5, "steps must be an integer >= 1, got 2.5"),
        ("steps", 0, "steps must be an integer >= 1, got 0"),
        ("horizon", -1.0, "horizon must be finite and > 0, got -1.0"),
        ("horizon", np.nan, "horizon must be finite and > 0, got nan"),
    ],
)
def test_augmented_problem_checks_steps_and_horizon_at_construction(field, bad, message):
    # checked when built, and again by dataclasses.replace, before remark64_check draws a probe
    with pytest.raises(PathError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(random_augmented_problem(4, 1.0, 0), **{field: bad})


# ---------------------------------------------------------------------------
# Reference oracle: the hand-written mixed stencils and the sup over controls
# that bshjb_residual replaced with the PHJB residual of the augmented problem.


def _reference_mixed_derivatives(v, omega, x, end_index):
    from pathhjb.pathspace import horizontal_extension, restrict, vertical_bump

    def unit(n, i):
        e = np.zeros(n)
        e[i] = 1.0
        return e

    def omega_bump(j, h):
        e = np.zeros(omega.d)
        e[j] = h
        return vertical_bump(omega, e)

    d = omega.d
    m = x.shape[0]
    h = 1e-4 * (1.0 + float(np.linalg.norm(omega.values[:, -1])) + float(np.linalg.norm(x)))
    if v.dt is not None:
        dt_v = float(v.dt(omega, x))
    else:
        step = 1
        if end_index is not None and omega.t_index + step > end_index:
            base = restrict(omega, omega.t_index - step)
            dt_v = (v(horizontal_extension(base, omega.t_index), x) - v(base, x)) / (step * omega.dt)
        else:
            dt_v = (v(horizontal_extension(omega, omega.t_index + step), x) - v(omega, x)) / (step * omega.dt)
    if v.dgamma is not None:
        dg = np.atleast_1d(np.asarray(v.dgamma(omega, x), dtype=float))
    else:
        dg = np.array([(v(omega_bump(j, h), x) - v(omega_bump(j, -h), x)) / (2 * h) for j in range(d)])
    if v.dgammagamma is not None:
        dgg = np.atleast_2d(np.asarray(v.dgammagamma(omega, x), dtype=float))
    else:
        dgg = np.empty((d, d))
        f0 = v(omega, x)
        for j in range(d):
            dgg[j, j] = (v(omega_bump(j, h), x) - 2 * f0 + v(omega_bump(j, -h), x)) / h**2
        for a in range(d):
            for b in range(a + 1, d):
                ea, eb = h * unit(d, a), h * unit(d, b)
                pp = v(vertical_bump(omega, ea + eb), x)
                pm = v(vertical_bump(omega, ea - eb), x)
                mp = v(vertical_bump(omega, -ea + eb), x)
                mm = v(vertical_bump(omega, -ea - eb), x)
                dgg[a, b] = dgg[b, a] = (pp - pm - mp + mm) / (4 * h**2)
        dgg = 0.5 * (dgg + dgg.T)

    def ex(i, s):
        e = np.zeros(m)
        e[i] = s * h
        return x + e

    if v.dx is not None:
        dxv = np.atleast_1d(np.asarray(v.dx(omega, x), dtype=float))
    else:
        dxv = np.array([(v(omega, ex(i, 1)) - v(omega, ex(i, -1))) / (2 * h) for i in range(m)])
    if v.dxx is not None:
        dxxv = np.atleast_2d(np.asarray(v.dxx(omega, x), dtype=float))
    else:
        dxxv = np.empty((m, m))
        f0 = v(omega, x)
        for i in range(m):
            dxxv[i, i] = (v(omega, ex(i, 1)) - 2 * f0 + v(omega, ex(i, -1))) / h**2
        for a in range(m):
            for b in range(a + 1, m):
                pp = v(omega, x + h * (unit(m, a) + unit(m, b)))
                pm = v(omega, x + h * (unit(m, a) - unit(m, b)))
                mp = v(omega, x + h * (-unit(m, a) + unit(m, b)))
                mm = v(omega, x - h * (unit(m, a) + unit(m, b)))
                dxxv[a, b] = dxxv[b, a] = (pp - pm - mp + mm) / (4 * h**2)
        dxxv = 0.5 * (dxxv + dxxv.T)
    if v.dxgamma is not None:
        dxg = np.atleast_2d(np.asarray(v.dxgamma(omega, x), dtype=float))
    else:
        dxg = np.empty((m, d))
        for i in range(m):
            for j in range(d):
                pp = v(omega_bump(j, h), ex(i, 1))
                pm = v(omega_bump(j, -h), ex(i, 1))
                mp = v(omega_bump(j, h), ex(i, -1))
                mm = v(omega_bump(j, -h), ex(i, -1))
                dxg[i, j] = (pp - pm - mp + mm) / (4 * h**2)
    return dt_v, dg, dgg, dxv, dxxv, dxg


def _reference_residual(ap, v, omega, x):
    dt_v, dg, dgg, dxv, dxxv, dxg = _reference_mixed_derivatives(v, omega, x, ap.steps)
    v0 = v(omega, x)
    best = -np.inf
    for u in ap.controls:
        b = np.atleast_1d(np.asarray(_one_row(ap.base_drift, omega.values, x[None], (u,)), dtype=float))
        sig = np.atleast_2d(np.asarray(_one_row(ap.base_diffusion, omega.values, x[None], (u,)), dtype=float))
        term = float(dxv @ b)
        term += 0.5 * float(np.trace(dxxv @ (sig @ sig.T)))
        term += 0.5 * float(np.trace(dgg))
        term += float(np.trace(sig.T @ dxg))
        term += float(_one_row(ap.base_generator, omega.values, x[None], np.array([v0]), (dg + sig.T @ dxv)[None], (u,)))
        best = max(best, term)
    return dt_v + best


_MIXED_GROUPS = (("dt",), ("dgamma", "dx"), ("dgammagamma", "dxx", "dxgamma"))


def _mixed_functional(d, m, present):
    # a smooth v(omega, x) coupling the whole noise path, its endpoint and x;
    # the analytic fields are arbitrary shaped stand-ins, passed through as given
    a = np.linspace(0.3, 1.1, d)
    c = np.linspace(-0.7, 0.4, m)

    def ev(om, x):
        end = om.values[:, -1]
        return float(np.sin(a @ end) * np.cos(c @ x) + om.values.sum() * om.dt * x[0] + 0.3 * (end @ end) * (x @ x))

    stand_ins = {
        "dt": lambda om, x: 0.5 * x[0] + om.t,
        "dgamma": lambda om, x: om.values[:, -1] * x[0],
        "dgammagamma": lambda om, x: np.outer(a, a) * x[-1],
        "dx": lambda om, x: c * om.values[0, -1],
        "dxx": lambda om, x: np.outer(c, c) + np.eye(m),
        "dxgamma": lambda om, x: np.outer(x, om.values[:, -1]),
    }
    return MixedFunctional(eval=ev, **{k: stand_ins[k] for k in present})


def _coupled_problem(d, m):
    # three controls; drift, diffusion and generator depend on x, u and the noise path
    s = np.linspace(-0.5, 0.8, m * d).reshape(m, d)
    return _frozen_ap(
        base_drift=lambda om, x, u: np.tanh(x) * u + 0.1 * om.values[0].mean(),
        base_diffusion=lambda om, x, u: s * (1.0 + 0.3 * u) + 0.2 * np.outer(np.cos(x), om.values[:, -1]),
        base_generator=lambda om, x, y, z, u: -0.5 * u * u + 0.3 * y * np.sin(x[0]) + 0.2 * float(z @ z) * u,
        controls=(-0.5, 0.25, 1.0),
        steps=4,
        horizon=1.0,
        noise_dim=d,
        state_dim=m,
    )


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_mixed_derivatives_equal_reference_stencils(d, m):
    # The residual through the augmented problem agrees with the hand-written
    # mixed stencils, relative to max(1, |reference|): to rounding where every
    # group is analytic, and to the stencil error where a group falls back to
    # finite differences, whose bump 1e-4 (1 + |(omega end; x)|) differs from
    # the reference's 1e-4 (1 + |omega end| + |x|).
    import itertools

    rng = np.random.default_rng(10 * d + m)
    ap = _coupled_problem(d, m)
    for mask in itertools.product([False, True], repeat=len(_MIXED_GROUPS)):
        v = _mixed_functional(d, m, [f for group, on in zip(_MIXED_GROUPS, mask) if on for f in group])
        tol = 1e-13 if all(mask) else 1e-7
        for t_index in range(ap.steps):
            omega = random_path(rng, d, 0.25, t_index)
            x = rng.normal(size=m)
            want = _reference_residual(ap, v, omega, x)
            assert abs(bshjb_residual(ap, v, (omega, x)) - want) <= tol * max(1.0, abs(want))


def test_bshjb_residual_rejects_non_finite_stencil_values():
    ap = _frozen_ap()
    v = MixedFunctional(eval=lambda om, x: np.inf if x[0] > 0.5 else 1.0)  # finite at the point only
    with pytest.raises(PathError, match="non-finite"):
        bshjb_residual(ap, v, (Path(np.array([[0.1, 0.2]]), 0.25), 0.5))


def test_mixed_functional_groups_and_interior_times():
    ev = lambda om, x: float(x[0])  # noqa: E731
    with pytest.raises(PathError, match="dgamma, dx must be given together"):
        MixedFunctional(eval=ev, dx=lambda om, x: np.ones(1))
    with pytest.raises(PathError, match="dgammagamma, dxx, dxgamma"):
        MixedFunctional(eval=ev, dgammagamma=lambda om, x: np.zeros((1, 1)), dxx=lambda om, x: np.zeros((1, 1)))
    with pytest.raises(PathError, match="interior times"):
        bshjb_residual(_frozen_ap(), MixedFunctional(eval=ev), (Path.constant(0.0, 3, 0.25), 0.0))


@pytest.mark.parametrize(
    "gen_at,term_at,want,raise_at",
    [
        (5, 7, "terminal", None),  # probe 0 (index 7) fails its terminal before probe 1 its generator
        (7, 5, "generator", None),
        (6, 6, "generator", None),  # one probe fails both: its generator first
        (3, 5, "terminal", None),  # probe 1 (index 5) is drawn before probe 3 (index 3)
        (None, 3, "terminal", None),
        (5, 7, "terminal", 6),  # probe 0 fails before probe 2's generator call raises
        (3, 6, "raise", 5),  # probe 1's generator call raises before probe 2 fails
    ],
)
def test_the_earliest_drawn_failing_probe_raises(gen_at, term_at, want, raise_at):
    # the bench's instances (steps 8) draw grid indices 7, 5, 6, 3, 6, 5; a generator that reads
    # x at one grid index only, and a terminal at another, or a generator that raises at a third
    def gen(omega, x, y, z, us):
        if omega.shape[-1] - 1 == raise_at:
            raise RuntimeError("base generator failed")
        return y + (x[:, 0] if omega.shape[-1] - 1 == gen_at else 0.0)

    def term(omega, x):
        return omega[:, 0, -1] + (x[:, 0] if omega.shape[-1] - 1 == term_at else 0.0)

    ap = dataclasses.replace(random_augmented_problem(8, 1.0, seed=4), base_generator=gen, base_terminal=term)
    if want == "raise":
        with pytest.raises(RuntimeError, match="^base generator failed$"):
            _check_xu_free(ap)
        return
    message = {"generator": "generator depends on x or u", "terminal": "terminal depends on x"}[want]
    with pytest.raises(PathError, match=f"^{message}; reduction check not applicable$"):
        _check_xu_free(ap)


@pytest.mark.parametrize("seed", [0, 5, 17])
def test_remark64_of_a_bound_base_generator_is_its_plain_forms(seed):
    # the bound base generator, passed on bound to both trees, against a plain re-wrap of it
    ap = random_augmented_problem(4, 1.0, seed=seed)
    plain = dataclasses.replace(ap, base_generator=lambda omega, x, y, z, us: ap.base_generator(omega, x, y, z, us))
    omega = random_path(np.random.default_rng(seed), 1, 0.25, seed % 3)
    assert remark64_check(ap, omega) == remark64_check(plain, omega)
    cp, ref = augment(ap), augment(plain)
    p0 = stack_paths(omega, Path.constant(0.3, omega.t_index, 0.25))
    assert value(cp, p0) == value(ref, p0)
    assert bshjb_residual(ap, MixedFunctional(eval=lambda om, x: float(np.tanh(x[0]))), (omega, 0.3)) == bshjb_residual(
        plain, MixedFunctional(eval=lambda om, x: float(np.tanh(x[0]))), (omega, 0.3)
    )
