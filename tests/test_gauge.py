import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pathhjb.funcalc import PathFunctional, bump_size, vertical_gradient, vertical_hessian
from pathhjb.gauge import (
    GaugeParams,
    grad_power,
    grad_s,
    grad_upsilon,
    hess_power,
    hess_s,
    hess_upsilon,
    pair_sweep,
    s_functional,
    s_m,
    subadditivity_gap,
    upsilon,
    upsilon_bar,
    upsilon_bar_functional,
    upsilon_functional,
    upsilon_single,
)
from pathhjb.gauge import _core, _gaps
from pathhjb.phjb import comparison_psi
from pathhjb.pathspace import Path, PathError, _joint_gap, add_paths, d_infty, sub_paths, sup_norm, vertical_bump, zero_like
from pathhjb.sampling import random_pair, random_path

G33 = GaugeParams(3, 3.0)


def _interior_sup(p: Path, anchor: Path) -> float:
    # sup over nodes strictly before the final one, after common extension
    k = max(p.t_index, anchor.t_index)
    a = np.concatenate([p.values, np.tile(p.values[:, -1:], (1, k - p.t_index))], axis=1)
    b = np.concatenate([anchor.values, np.tile(anchor.values[:, -1:], (1, k - anchor.t_index))], axis=1)
    return float(np.sqrt(((a - b)[:, :-1] ** 2).sum(axis=0)).max())


def _nonboundary_pair(rng, g, d_max=3, scale=0.5):
    # random (path, anchor) away from the branch boundary and the singular
    # set; the band is relative because the closed-form gradient degenerates
    # (and FD truncation dominates) as the two branches meet
    while True:
        d = int(rng.integers(1, d_max + 1))
        k = int(rng.integers(1, 6))
        anchor = Path(rng.normal(size=(d, k + 1)) * scale, 0.25)
        p = Path(rng.normal(size=(d, k + 3)) * scale, 0.25)
        e = float(np.linalg.norm(p.values[:, -1] - anchor.values[:, -1]))
        interior = _interior_sup(p, anchor)
        big = _joint_gap(p, anchor)
        if big < 1e-8 or e < 1e-6:
            continue
        if abs(e - interior) > max(10 * bump_size(p), 0.05 * (1.0 + big)):
            return p, anchor


def test_gauge_params_validation():
    with pytest.raises(PathError):
        GaugeParams(0, 3.0)
    with pytest.raises(PathError):
        GaugeParams(7, 3.0)  # m capped to keep powers in double range
    for m in (True, False, 2.0, "2"):  # a bool is no integer here, as for GridConfig's counts
        with pytest.raises(PathError, match=f"^{re.escape(f'm must be an integer in [1, 6], got {m!r}')}$"):
            GaugeParams(m, 3.0)
    assert GaugeParams(np.int64(2), 3.0) == GaugeParams(2, 3.0) and type(GaugeParams(np.int64(2)).m) is int
    for big_m in ("3", None, [3.0], 1j, np.inf, -np.inf, np.nan):
        with pytest.raises(PathError, match="^M must be a finite real, got "):
            GaugeParams(2, big_m)
    for big_m in (3, 3.0, np.float64(5.0), np.int64(4), 10**400):
        assert GaugeParams(2, big_m).M == big_m


def test_s_m_examples():
    p = Path(np.array([[0.2, 1.4, -0.3]]), 0.5)
    assert s_m(p, p, G33) == 0.0
    # endpoints equal, paths differ: numerator collapses to D^{2m}
    a = Path(np.array([[0.0, 5.0, 1.0]]), 0.5)
    b = Path(np.array([[0.0, 0.0, 1.0]]), 0.5)
    assert s_m(a, b, G33) == pytest.approx(5.0**6, rel=1e-15)
    # constant difference: endpoint gap equals sup gap, so the core vanishes
    c = Path.constant(1.0, 3, 0.5)
    d = Path.constant(0.0, 3, 0.5)
    assert s_m(c, d, G33) == 0.0


def test_s_m_range():
    rng = np.random.default_rng(3)
    for _ in range(500):
        p, q = random_pair(rng, 2, 0.25, 5)
        val = s_m(p, q, G33)
        assert 0.0 <= val <= _joint_gap(p, q) ** 6 + 1e-12


def test_upsilon_examples():
    c = Path.constant(2.0, 4, 0.5)
    assert upsilon_single(c, G33) == pytest.approx(3 * 2.0**6, rel=1e-15)
    assert upsilon(c, c, G33) == 0.0


def test_upsilon_bound_sweep():
    rng = np.random.default_rng(4)
    for m in (1, 2, 3):
        g = GaugeParams(m, 3.0)
        for _ in range(2000):
            p, q = random_pair(rng, 1, 0.25, 6, scale=0.5)
            gap = _joint_gap(p, q) ** (2 * m)
            val = upsilon(p, q, g)
            assert val - gap >= -1e-12
            assert g.M * gap - val >= -1e-12


def test_upsilon_translation_identity():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p, q = random_pair(rng, 2, 0.25, 4)
        assert upsilon(p, q, G33) == pytest.approx(upsilon_single(sub_paths(p, q), G33), rel=1e-12, abs=1e-14)


def test_upsilon_single_is_upsilon_against_zero_path():
    rng = np.random.default_rng(6)
    for d in (1, 2, 9):
        for k in (0, 3):
            for p in (*random_pair(rng, d, 0.25, k), Path(np.zeros((d, k + 1)), 0.25)):
                for g in (G33, GaugeParams(1, 5.0)):
                    assert upsilon_single(p, g) == upsilon(p, zero_like(p), g)


def test_upsilon_bar_examples():
    p = Path(np.array([[0.4, -0.2]]), 0.5)
    assert upsilon_bar(p, p, G33) == 0.0
    q = Path(np.array([[0.1, 0.2]]), 0.5)
    assert upsilon_bar(p, q, G33) == upsilon(p, q, G33)  # equal times
    r = Path.constant(0.1, 3, 0.5)
    assert upsilon_bar(p, r, G33) == pytest.approx(upsilon(p, r, G33) + 1.0**2)


def test_upsilon_bar_gauge_lower_bound():
    # the (0612d) inequality: upsilon_bar >= sup-gap^6 + time-gap^2
    rng = np.random.default_rng(6)
    for _ in range(2000):
        ka, kb = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        p = Path(rng.normal(size=(1, ka + 1)) * 0.5, 0.25)
        q = Path(rng.normal(size=(1, kb + 1)) * 0.5, 0.25)
        lower = _joint_gap(p, q) ** 6 + (p.t - q.t) ** 2
        assert upsilon_bar(p, q, G33) >= lower - 1e-12


def test_upsilon_bar_is_gauge_type():
    # smallness of upsilon_bar forces d_infty-closeness: take delta = min(eps^6, eps^2)/2
    rng = np.random.default_rng(7)
    for eps in (0.5, 0.25, 0.1):
        delta = min(eps**6, eps**2) / 2.0
        for _ in range(500):
            ka, kb = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            p = Path(rng.normal(size=(1, ka + 1)) * 0.4, 0.25)
            q = Path(rng.normal(size=(1, kb + 1)) * 0.4, 0.25)
            if upsilon_bar(p, q, G33) <= delta:
                assert d_infty(p, q) < eps


def test_grad_s_zero_branches():
    p = Path.constant(1.0, 3, 0.5)
    assert np.all(grad_s(p, p, G33) == 0.0)
    # endpoint-dominant branch: gradient vanishes
    anchor = Path.constant(0.0, 1, 0.5)
    spike = Path(np.array([[0.0, 0.1, 0.0, 2.0]]), 0.5)  # endpoint gap 2 > interior 0.1
    assert np.all(grad_s(spike, anchor, G33) == 0.0)
    assert np.all(hess_s(spike, anchor, G33) == 0.0)


def test_hess_s_endpoint_zero_cases():
    # interior-dominant with zero endpoint gap: -6I for m=1, zero for m>=2
    anchor = Path(np.array([[0.0, 0.0]]), 0.5)
    p = Path(np.array([[0.0, 3.0, 0.0]]), 0.5)
    h1 = hess_s(p, anchor, GaugeParams(1, 3.0))
    assert h1 == pytest.approx(np.array([[-6.0]]))
    assert np.all(hess_s(p, anchor, GaugeParams(2, 3.0)) == 0.0)


def test_grad_hess_anchor_time_precondition():
    p = Path.constant(0.5, 1, 0.5)
    anchor = Path.constant(0.0, 3, 0.5)
    with pytest.raises(PathError):
        grad_s(p, anchor, G33)


def test_grad_s_matches_fd():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p, anchor = _nonboundary_pair(rng, G33)
        f = s_functional(anchor, G33)
        an = grad_s(p, anchor, G33)
        fd = vertical_gradient(f, p)
        assert np.linalg.norm(an - fd) <= 1e-6 * max(1.0, np.linalg.norm(an))


def test_hess_s_matches_fd():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p, anchor = _nonboundary_pair(rng, G33)
        f = s_functional(anchor, G33)
        an = hess_s(p, anchor, G33)
        fd = vertical_hessian(f, p)
        assert np.linalg.norm(an - fd) <= 1e-4 * max(1.0, np.linalg.norm(an))


def test_power_derivative_examples():
    p = Path(np.array([[1.0, 3.0]]), 0.5)
    assert grad_power(p, [0.0], 1) == pytest.approx(np.array([6.0]))
    assert hess_power(p, [0.0], 1) == pytest.approx(np.array([[2.0]]))
    at = Path.constant(0.7, 2, 0.5)
    for m in (2, 3):
        assert np.all(grad_power(at, [0.7], m) == 0.0)
        assert np.all(hess_power(at, [0.7], m) == 0.0)


def test_power_derivatives_match_fd():
    from pathhjb.funcalc import endpoint_functional

    rng = np.random.default_rng(10)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a = rng.normal(size=d) * 0.5
        p = Path(rng.normal(size=(d, 4)) * 0.5, 0.25)
        if np.linalg.norm(p.values[:, -1] - a) < 1e-2:
            continue
        f = endpoint_functional(lambda x, a=a, m=m: float(np.linalg.norm(x - a) ** (2 * m)))
        fd = vertical_gradient(f, p)
        an = grad_power(p, a, m)
        assert np.linalg.norm(fd - an) <= 1e-6 * max(1.0, np.linalg.norm(an))
        fdh = vertical_hessian(f, p)
        anh = hess_power(p, a, m)
        assert np.linalg.norm(fdh - anh) <= 1e-4 * max(1.0, np.linalg.norm(anh))


@pytest.mark.parametrize("d", range(2, 10))
def test_endpoint_gap_is_read_once_from_the_norm_pass(d):
    # grad_s, hess_s and upsilon read e from _gaps; the power terms and
    # comparison_psi must use the same rounding of e, not a second norm
    rng, m = np.random.default_rng(40 + d), 3
    zero = PathFunctional(eval=lambda p: 0.0)
    for _ in range(100):
        p, q = Path(rng.normal(size=(d, 3)), 0.25), Path(rng.normal(size=(d, 3)), 0.25)
        e, x, a = _gaps(p, q)[1], p.values[:, -1] - q.values[:, -1], q.values[:, -1]
        assert np.array_equal(grad_power(p, a, m), 2.0 * m * e**4 * x)
        assert np.array_equal(hess_power(p, a, m), 2.0 * m * e**4 * np.eye(d) + 4.0 * m * (m - 1) * e**2 * np.outer(x, x))
        psi = comparison_psi(zero, zero, p, q, beta=2.0, eps=0.1, nu=2.0, horizon=1.0)
        assert psi == -2.0 * upsilon(p, q) - 2.0 ** (1.0 / 3.0) * e**2 - 0.1 * ((2.0 - p.t) / 2.0) * (
            upsilon_single(p) + upsilon_single(q)
        )


def test_upsilon_functional_consistency():
    rng = np.random.default_rng(11)
    p, anchor = _nonboundary_pair(rng, G33)
    f = upsilon_functional(anchor, G33)
    assert f.eval(p) == upsilon(p, anchor, G33)
    assert np.allclose(f.analytic_dx(p), grad_upsilon(p, anchor, G33))
    assert np.allclose(f.analytic_dxx(p), hess_upsilon(p, anchor, G33))
    assert f.analytic_dt(p) == 0.0


def test_upsilon_bar_functional_time_derivative():
    from pathhjb.funcalc import horizontal_derivative

    anchor = Path.constant(0.3, 1, 0.25)
    f = upsilon_bar_functional(anchor, G33)
    rng = np.random.default_rng(14)
    for k in (2, 4):
        p = Path(rng.normal(size=(1, k + 1)) * 0.5, 0.25)
        # the time term |t - t_anchor|^2 differentiates to 2(t - t_anchor);
        # the gauge part has zero horizontal derivative
        fd = horizontal_derivative(f, p)
        expected = f.analytic_dt(p)
        # forward quotient of t^2 carries an O(dt) offset: ((t+dt)^2 - t^2)/dt = 2t + dt
        assert fd == pytest.approx(expected + p.dt, abs=1e-10)


def test_subadditivity_examples():
    z = zero_like(Path.constant(0.0, 3, 0.5))
    assert subadditivity_gap(z, z, G33) == 0.0
    rng = np.random.default_rng(12)
    p = Path(rng.normal(size=(1, 4)) * 0.5, 0.5)
    gap = subadditivity_gap(p, zero_like(p), G33)
    expected = (2.0 ** (2 * 3 - 1) - 1.0) * upsilon_single(p, G33)
    assert gap == pytest.approx(expected, rel=1e-12)
    assert gap >= 0.0


def test_subadditivity_sweep():
    rng = np.random.default_rng(13)
    for m in (1, 2, 3):
        for big_m in (3.0, 5.0):
            g = GaugeParams(m, big_m)
            for _ in range(1000):
                p, q = random_pair(rng, 1, 0.25, 5, scale=0.5)
                assert subadditivity_gap(p, q, g) >= -1e-12


def test_subadditivity_needs_equal_times():
    p = Path.constant(1.0, 2, 0.5)
    q = Path.constant(1.0, 3, 0.5)
    with pytest.raises(PathError):
        subadditivity_gap(p, q, G33)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    st.integers(1, 3),
)
def test_pinch_bound_property(xs, ys, m):
    # relative slack: the bound is exact in real arithmetic, and rounding
    # noise scales with the magnitudes being subtracted (tiny inputs reach
    # subnormal powers, large ones reach 1e4-scale sixth powers)
    g = GaugeParams(m, 3.0)
    p = Path(np.array([xs]), 0.5)
    q = Path(np.array([ys]), 0.5)
    gap = _joint_gap(p, q) ** (2 * m)
    val = upsilon(p, q, g)
    assert np.isfinite(val)
    assert val - gap >= -1e-12 * max(1.0, gap)
    assert g.M * gap - val >= -1e-12 * max(1.0, gap)


# ---------------------------------------------------------------------------
# The batched pair sweep against the scalar per-pair loop it replaces.


def _reference_pair_sweep(rng, g, pairs, d, dt, t_index, scale):
    rows = []
    for _ in range(pairs):
        p, q = random_pair(rng, d, dt, t_index, scale)
        ups = upsilon(p, q, g)
        gap = _joint_gap(p, q) ** (2 * g.m)
        rows.append((ups - gap, g.M * gap - ups, subadditivity_gap(p, q, g)))
    return [np.array(col) for col in zip(*rows)]


@pytest.mark.parametrize("d", [1, 2, 9])  # from d = 8 numpy's pairwise sum could regroup the endpoint gap
@pytest.mark.parametrize("m", [1, 3, 6])
def test_pair_sweep_equals_the_scalar_loop(d, m):
    for big_m, t_index in ((3.0, 8), (5.0, 0)):
        g = GaugeParams(m, big_m)
        got_rng, want_rng = np.random.default_rng(d * 10 + m), np.random.default_rng(d * 10 + m)
        got = pair_sweep(got_rng, g, 300, d, 0.125, t_index, 0.5)
        want = _reference_pair_sweep(want_rng, g, 300, d, 0.125, t_index, 0.5)
        for a, b in zip(got, want):
            assert a.shape == (300,) and np.array_equal(a, b)
        assert got_rng.standard_normal() == want_rng.standard_normal()  # the same draws consumed


def test_pair_sweep_zero_branch_at_d_zero():
    for m in (1, 3, 6):
        # D = 0, an underflowing D^{4m}, and D = e (a zero numerator) take the zero branch
        got = [_core(a, b, m) for a, b in ((0.0, 0.0), (1e-200, 0.0), (0.5, 0.5), (0.5, 0.25))]
        assert got[0] == got[1] == got[2] == 0.0 and got[3] > 0.0
    # a zero scale gives zero paths: D = e = 0 for every pair and its sum
    lower, upper, sub = pair_sweep(np.random.default_rng(0), G33, 4, 2, 0.125, 3, 0.0)
    assert not np.any(lower) and not np.any(upper) and not np.any(sub)


def test_pair_sweep_rejects_what_random_pair_cannot_build():
    rng = np.random.default_rng(0)
    for d, dt, t_index, scale in ((0, 0.125, 3, 0.5), (1, 0.0, 3, 0.5), (1, 0.125, -1, 0.5), (1, 0.125, 3, -1.0), (1, 0.125, 3, np.inf)):
        with pytest.raises(PathError):
            pair_sweep(rng, G33, 4, d, dt, t_index, scale)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(PathError, match="finite"):
        pair_sweep(rng, G33, 4, 1, 1e10, 3, 1e305)


# ---------------------------------------------------------------------------
# The one norm pass against the formulas it replaced: a sqrt per column, then
# the max, and the endpoint gap as its own reduction over the last column.


def _sup_norm_oracle(p):
    return float(np.sqrt((p.values**2).sum(axis=0)).max())


def _joint_gap_oracle(p, q):
    k = max(p.t_index, q.t_index)
    a = np.concatenate([p.values, np.repeat(p.values[:, -1:], k - p.t_index, axis=1)], axis=1)
    b = np.concatenate([q.values, np.repeat(q.values[:, -1:], k - q.t_index, axis=1)], axis=1)
    return float(np.sqrt(((a - b) ** 2).sum(axis=0)).max())


def _gaps_oracle(p, q):
    return _joint_gap_oracle(p, q), float(np.sqrt(((p.values[:, -1] - q.values[:, -1]) ** 2).sum()))


def _upsilon_single_oracle(p, g):
    e = float(np.sqrt((p.values[:, -1] ** 2).sum()))
    return _core(_sup_norm_oracle(p), e, g.m) + g.M * e ** (2 * g.m)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.integers(0, 8),
    st.integers(0, 8),
    st.sampled_from([0.0, 0.5, 1.0, 1e-3, 40.0]),
    st.sampled_from([G33, GaugeParams(1, 5.0), GaugeParams(6, 3.0)]),
)
def test_norm_pass_equals_the_replaced_formulas(seed, d, kp, kq, scale, g):
    # d < 8: numpy sums a column of fewer than 8 values in sequence, so the
    # endpoint gap read from the column sums is the replaced reduction's
    rng = np.random.default_rng(seed)
    p, q = random_path(rng, d, 0.25, kp, scale), random_path(rng, d, 0.25, kq, scale)
    same_time = random_path(rng, d, 0.25, kp, scale)
    for m in range(1, 7):  # one stacked norm pass == the composition it replaced, at every m
        for big_m in (3.0, 5.0):
            h = GaugeParams(m, big_m)
            assert subadditivity_gap(p, same_time, h) == _subadditivity_oracle(p, same_time, h)
    for x in (p, q):
        assert sup_norm(x) == _sup_norm_oracle(x) and type(sup_norm(x)) is float
        assert upsilon_single(x, g) == _upsilon_single_oracle(x, g)
    assert _joint_gap(p, q) == _joint_gap_oracle(p, q) and type(_joint_gap(p, q)) is float
    assert _gaps(p, q) == _gaps_oracle(p, q) and _gaps(q, p) == _gaps_oracle(q, p)
    d_sup, e = _gaps_oracle(p, q)
    assert upsilon(p, q, g) == _core(d_sup, e, g.m) + g.M * e ** (2 * g.m)
    if kp == kq:
        assert subadditivity_gap(p, q, g) == 2.0 ** (2 * g.m - 1) * (
            _upsilon_single_oracle(p, g) + _upsilon_single_oracle(q, g)
        ) - _upsilon_single_oracle(Path(p.values + q.values, 0.25), g)


def _subadditivity_oracle(p, q, g):
    # the composition subadditivity_gap was: add_paths' checks and sum, then three upsilon_single reads
    return 2.0 ** (2 * g.m - 1) * (upsilon_single(p, g) + upsilon_single(q, g)) - upsilon_single(add_paths(p, q), g)


def _outcome(fn, *args):
    # repr of the value, or the exception's type and message: inf and nan compare by repr
    try:
        return repr(fn(*args))
    except (PathError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("m", range(1, 7))
def test_subadditivity_gap_keeps_the_composed_oracle_at_overflow_and_errors(m):
    g = GaugeParams(m, 3.0)
    big, huge = 1e60, 1.5e308  # a finite square whose power overflows a float; a square (and a sum) that is inf
    cases = [([[huge, 1.0, 2.0]], [[huge, 0.5, 1.0]]), ([[1.0, 2.0, huge]], [[0.5, 1.0, huge]]),
             ([[huge, -huge], [1.0, 2.0]], [[-huge, huge], [3.0, 4.0]]), ([[1.0, big]], [[2.0, 0.5]]),
             ([[1.0, 2.0]], [[huge, -huge]]), ([[0.0, 1e-200]], [[0.0, 1e-200]])]
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in cases:
            p, q = Path(np.array(a), 0.5), Path(np.array(b), 0.5)
            assert _outcome(subadditivity_gap, p, q, g) == _outcome(_subadditivity_oracle, p, q, g)
        want = _PAST_RANGE  # the squares of the first case are inf: upsilon_single(p) raises before add_paths' checks
        assert _outcome(subadditivity_gap, *[Path(np.array(a), 0.5) for a in cases[0]], g) == want
    p, big_end = Path.constant(1.0, 2, 0.5), Path(np.array([[1.0, 1.0, big]]), 0.5)
    for q in (Path.constant(1.0, 2, 0.25), Path.constant(np.ones(2), 2, 0.5), Path.constant(1.0, 3, 0.5)):
        for x, y in ((p, q), (q, p)):
            want = _outcome(add_paths, x, y)
            assert want[0] == "PathError" and _outcome(subadditivity_gap, x, y, g) == want
        for x, y in ((big_end, q), (q, big_end)):  # upsilon_single(big_end) overflows at m >= 2, before add_paths' checks
            want = _outcome(_subadditivity_oracle, x, y, g)
            assert want[0] == ("OverflowError" if m >= 2 else "PathError") and _outcome(subadditivity_gap, x, y, g) == want


def test_the_surgeries_refuse_an_overflowed_path():
    # no Path holds inf: add_paths, sub_paths and vertical_bump check what they build, pair_sweep
    # the sum it reads; subadditivity_gap reads upsilon_single(p) first, whose square is inf
    finite = ("PathError", "path values must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        for col in range(3):
            v = np.ones((1, 3))
            v[0, col] = 1e308
            p, neg = Path(v, 0.5), Path(-v, 0.5)
            assert _outcome(add_paths, p, p) == _outcome(sub_paths, p, neg) == finite
            assert _outcome(vertical_bump, p, [1e308]) == (finite if col == 2 else repr(vertical_bump(p, [1e308])))
            assert _outcome(vertical_bump, p, [np.inf]) == _outcome(vertical_bump, p, [np.nan]) == finite
            for m in range(1, 7):
                assert _outcome(subadditivity_gap, p, p, GaugeParams(m, 3.0)) == _PAST_RANGE
        # the sum's check runs after the single reads, as in the composed oracle: their overflow comes first
        big_end = Path(np.array([[1.0, 1.0, 1e60]]), 0.5)
        assert _outcome(subadditivity_gap, big_end, big_end, GaugeParams(3, 3.0))[0] == "OverflowError"
        # seed 6 draws two pairs of finite walks, and the second pair's sum overflows
        rng = np.random.default_rng(6)
        assert all(np.isfinite(x.values).all() for _ in range(2) for x in random_pair(rng, 1, 0.5, 0, 1e308))
        with pytest.raises(PathError, match="^path values must be finite$"):
            pair_sweep(np.random.default_rng(6), G33, 2, 1, 0.5, 0, 1e308)
        assert sup_norm(add_paths(Path([[1e154, 1.0]], 0.5), Path([[1e154, 1.0]], 0.5))) == np.inf  # finite, its square is not


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(0, 6), st.integers(0, 6), st.floats(1.0, 50.0))
def test_sup_gap_is_never_below_the_endpoint_gap(seed, d, kp, kq, lift):
    # the endpoint column lifted above the others, so D and e are the same
    # real number and only the summation order could tell them apart
    rng = np.random.default_rng(seed)
    p, q = random_path(rng, d, 0.25, kp, 0.5), random_path(rng, d, 0.25, kq, 0.5)
    v = p.values.copy()
    v[:, -1] = q.values[:, -1] + lift * (p.values[:, -1] - q.values[:, -1] + 1.0)
    p = Path(v, 0.25)
    d_sup, e = _gaps(p, q)
    assert d_sup >= e
    assert s_m(p, q) >= 0.0 and s_m(q, p) >= 0.0


def test_gauge_values_reject_incomparable_paths():
    p = Path.constant(1.0, 2, 0.1)
    other_dim = Path.constant(np.zeros(2), 2, 0.1)
    other_dt = Path.constant(0.0, 2, 0.2)
    for q in (other_dim, other_dt):
        for fn in (s_m, upsilon, upsilon_bar, grad_s, hess_s, grad_upsilon, hess_upsilon):
            with pytest.raises(PathError, match="paths have different"):
                fn(p, q)
            with pytest.raises(PathError, match="paths have different"):
                fn(q, p)


_PAST_RANGE = ("OverflowError", "(34, 'Numerical result out of range')")


def test_a_square_past_the_double_range_is_an_overflow_not_a_nan():
    # D >= 1.34e154 squares to inf, so D^{2m} is past the double range at every m: the
    # reads that take D or e from the squares raise Python's power OverflowError, upsilon too
    with np.errstate(over="ignore"):
        for d, v in ((1, 1e200), (2, 1e200), (1, -1.5e308)):
            p = Path.constant(np.full(d, v), 8, 0.125)
            at_end = Path(np.concatenate([np.zeros((d, 8)), p.values[:, -1:]], axis=1), 0.125)
            for m in range(1, 7):
                g = GaugeParams(m, 3.0)
                for x in (p, at_end):
                    zero = zero_like(x)
                    assert _outcome(upsilon_single, x, g) == _PAST_RANGE
                    for fn in (upsilon, upsilon_bar, s_m, grad_s, hess_s, grad_upsilon, hess_upsilon):
                        assert _outcome(fn, x, zero, g) == _PAST_RANGE
                    for fn in (grad_power, hess_power):
                        assert _outcome(fn, x, np.zeros(d), m) == _PAST_RANGE
        # only the endpoint gap enters the power derivatives: an overflowing square before it does not
        early = Path(np.array([[1e200, 1.0], [0.0, 1.0]]), 0.5)
        assert np.isfinite(grad_power(early, [0.0, 0.0], 3)).all() and np.isfinite(hess_power(early, [0.0, 0.0], 3)).all()
    # the power overflows first where the square stays finite: m = 6 and a gap of 1e13
    p = Path.constant(1e13, 2, 0.5)
    assert _outcome(s_m, p, zero_like(p), GaugeParams(6, 3.0)) == _PAST_RANGE


def test_pair_sweep_overflows_without_a_warning_or_a_nan():
    # scale 1e160 walks are finite, their squares are not; one errstate covers the sweep
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e160, 1e200):
            with pytest.raises(OverflowError, match=re.escape(_PAST_RANGE[1])):
                pair_sweep(np.random.default_rng(0), G33, 5, 1, 0.125, 8, scale)
        # an overflowing sum is still the finiteness error, and it comes first
        with pytest.raises(PathError, match="^path values must be finite$"):
            pair_sweep(np.random.default_rng(6), G33, 2, 1, 0.5, 0, 1e308)
    lo, hi, sub = pair_sweep(np.random.default_rng(0), G33, 50, 1, 0.125, 8, 1e10)
    assert np.isfinite(np.concatenate([lo, hi, sub])).all()


@pytest.mark.parametrize("m", range(1, 7))
def test_subadditivity_gap_is_an_overflow_where_a_single_read_leaves_the_double_range(m):
    # a finite sum p + q whose square is inf read inf - inf = nan while upsilon read inf there
    g = GaugeParams(m, 3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in (([[1.0, 2.0]], [[1.5e308, -1.5e308]]), ([[0.0, 1e160]], [[0.0, 0.0]])):
            p, q = Path(np.array(a), 0.5), Path(np.array(b), 0.5)
            assert _outcome(subadditivity_gap, p, q, g) == _outcome(subadditivity_gap, q, p, g) == _PAST_RANGE


_WIDE = st.builds(lambda u, neg: -(10.0**u) if neg else 10.0**u, st.floats(40.0, 300.0), st.booleans()) | st.just(0.0)


@st.composite
def _wide_pair(draw):
    """Two finite equal-time paths whose entries, and so their gaps, are log-uniform in 1e40..1e300."""
    d, k = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    entries = st.lists(_WIDE, min_size=d * (k + 1), max_size=d * (k + 1))
    return tuple(Path(np.reshape(draw(entries), (d, k + 1)), 0.5) for _ in range(2))


def _against_zero(*row):
    return Path(np.array([row]), 0.5), Path(np.zeros((1, len(row))), 0.5)


@settings(max_examples=300, deadline=None)
@given(_wide_pair(), st.integers(1, 6))
# D^{4m} finite, a product of gap powers in a derivative not: at m = 1 near D = 1e77, at m = 2 near 6e30
@example(_against_zero(0.0, 7.7e76, 5.39e76), 1)
@example(_against_zero(0.0, 8.19e76, 2.457e76), 1)
@example(_against_zero(0.0, 6.03e30, 4.221e30), 2)
def test_a_gauge_read_is_finite_or_an_overflow(pair, m):
    p, q = pair
    g, zero = GaugeParams(m, 3.0), PathFunctional(eval=lambda x: 0.0)
    reads = [
        (upsilon, p, q, g), (upsilon_single, p, g), (upsilon_bar, p, q, g), (s_m, p, q, g),
        (subadditivity_gap, p, q, g), (grad_s, p, q, g), (hess_s, p, q, g), (grad_upsilon, p, q, g),
        (hess_upsilon, p, q, g), (grad_power, p, q.values[:, -1], m), (hess_power, p, q.values[:, -1], m),
        (comparison_psi, zero, zero, p, q, 1.0, 0.5, 2.0, 1.0),
    ]
    with np.errstate(over="ignore", invalid="ignore"):  # numpy may warn before the error
        for fn, *args in reads:
            try:
                value = fn(*args)
            except PathError:
                continue
            except OverflowError as exc:
                assert str(exc) == _PAST_RANGE[1], fn.__name__
                continue
            assert np.isfinite(value).all(), fn.__name__
        assert _outcome(subadditivity_gap, p, q, g) == _outcome(_subadditivity_oracle, p, q, g)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4), st.integers(1, 2), st.integers(0, 3), st.floats(40.0, 300.0))
def test_pair_sweep_raises_exactly_where_a_scalar_read_does(seed, m, pairs, d, t_index, log_scale):
    g, scale = GaugeParams(m, 3.0), 10.0**log_scale
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = _reference_pair_sweep(np.random.default_rng(seed), g, pairs, d, 0.125, t_index, scale)
        except (OverflowError, PathError):
            with pytest.raises((OverflowError, PathError)):
                pair_sweep(np.random.default_rng(seed), g, pairs, d, 0.125, t_index, scale)
            return
    got = pair_sweep(np.random.default_rng(seed), g, pairs, d, 0.125, t_index, scale)
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and np.isfinite(a).all()


def test_a_boolean_is_no_weight():
    for big_m in (True, False, np.bool_(True)):
        with pytest.raises(PathError, match=f"^{re.escape(f'M must be a finite real, got {big_m!r}')}$"):
            GaugeParams(3, big_m)
