import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathhjb.pathspace import Path, PathError
from pathhjb import sampling
from pathhjb.sampling import _PY_DRAW, _walks, bridge_pair, random_pair, random_path

# ---------------------------------------------------------------------------
# The one walk sampler against the per-path draws it replaced: two rng.normal
# calls per path (increments, then the start), each validated by Path.


def _random_path_oracle(rng, d, dt, t_index, scale=1.0):
    incs = rng.normal(0.0, scale * np.sqrt(dt), size=(d, t_index + 1))
    incs[:, 0] = rng.normal(0.0, scale, size=d)
    return Path(incs.cumsum(axis=1), dt)


def _random_pair_oracle(rng, d, dt, t_index, scale=1.0):
    return _random_path_oracle(rng, d, dt, t_index, scale), _random_path_oracle(rng, d, dt, t_index, scale)


def _assert_same_path(got: Path, want: Path):
    assert got == want and got.key() == want.key()  # key bytes tell +0.0 from -0.0
    assert not got.values.flags.writeable
    assert type(got.dt) is float and got.dt == want.dt


# _PY_DRAW's own value, and values that send every draw down one route: a draw of at most
# _PY_DRAW normals is summed in Python floats (_summed), a larger one in numpy (_scaled)
_ROUTES = {"by size": _PY_DRAW, "python": 10**9, "numpy": 0}

_ARGS = dict(
    route=st.sampled_from(sorted(_ROUTES)),
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 7),
    dt=st.sampled_from([0.125, 0.1, 0.25, 1.0, 1e-3]),
    t_index=st.integers(0, 10),
    scale=st.sampled_from([0.0, 1.0, 0.5, 0.6, 3.0, 1e-300]),
)


@settings(max_examples=150, deadline=None)
@given(**_ARGS)
def test_random_path_equals_the_per_path_draws(route, seed, d, dt, t_index, scale):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(sampling, "_PY_DRAW", _ROUTES[route]):
        for _ in range(2):
            _assert_same_path(random_path(got_rng, d, dt, t_index, scale), _random_path_oracle(want_rng, d, dt, t_index, scale))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(**_ARGS)
def test_random_pair_equals_two_per_path_draws(route, seed, d, dt, t_index, scale):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(sampling, "_PY_DRAW", _ROUTES[route]):
        pair = random_pair(got_rng, d, dt, t_index, scale)
    for got, want in zip(pair, _random_pair_oracle(want_rng, d, dt, t_index, scale)):
        _assert_same_path(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_zero_scale_walks_are_positive_zeros():
    w = _walks(np.random.default_rng(3), 4, 2, 0.25, 5, 0.0)
    assert w.shape == (4, 2, 6) and not w.flags.writeable
    assert not np.signbit(w).any() and not w.any()


@pytest.mark.parametrize("sampler", [random_path, random_pair])
@pytest.mark.parametrize(
    "d,dt,t_index,scale",
    [(0, 0.125, 3, 1.0), (1, 0.125, -1, 1.0), (1, 0.0, 3, 1.0), (1, np.inf, 0, 1.0), (1, np.nan, 3, 1.0), (1, 0.125, 3, -1.0), (1, 0.125, 3, np.inf), (1, 0.125, 3, np.nan)],
)
def test_sampler_rejects_arguments_before_drawing(sampler, d, dt, t_index, scale):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    rule = "d must be an integer >= 1" if d < 1 else "t_index must be an integer >= 0" if t_index < 0 else "needs 0 < dt < inf and 0 <= scale < inf"
    with pytest.raises(PathError, match=f"^{sampler.__name__} {rule}, got "):
        sampler(rng, d, dt, t_index, scale)
    assert rng.bit_generator.state == before


def test_sampler_rejects_overflowing_walks():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(PathError, match="finite"):
        random_path(np.random.default_rng(0), 1, 1e10, 3, 1e305)


@pytest.mark.parametrize("sampler", [random_path, random_pair])
@pytest.mark.parametrize(
    "d,dt,t_index,scale,where",
    [(1, 1e10, 3, 1e305, "increment"), (3, 1e-6, 0, 1.7e308, "start"), (1, 0.25, 40, 8e307, "partial sum")],
)
def test_an_overflowing_walk_raises_after_its_draws(sampler, d, dt, t_index, scale, where):
    # the check reads the last column of the cumulative sum, where an overflow
    # anywhere in the walk shows; the batch is drawn first, as for a finite walk
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    n, k1 = (2 if sampler is random_pair else 1), t_index + 1
    z = twin.standard_normal((n, d * k1 + d))
    with np.errstate(over="ignore", invalid="ignore"):
        steps, starts = z[:, : d * k1].reshape(n, d, k1)[..., 1:] * (scale * np.sqrt(dt)), z[:, d * k1 :] * scale
        overflows = {"increment": not np.isfinite(steps).all(), "start": not np.isfinite(starts).all()}
        assert [k for k, v in overflows.items() if v] == ([where] if where in overflows else [])  # else only a sum overflows
        with pytest.raises(PathError, match="^path values must be finite$"):
            sampler(rng, d, dt, t_index, scale)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("sampler", [random_path, random_pair])
@pytest.mark.parametrize(
    "d,dt,t_index,scale",
    [(1, 1e10, 3, 1e305), (3, 1e-6, 0, 1.7e308), (1, 0.25, 40, 8e307), (1, 5e-324, 2, 1.7e308), (2, 1.0, 3, 1e308)],
)
def test_an_overflowing_walk_raises_without_a_warning(sampler, d, dt, t_index, scale):
    # warnings as errors: a walk past the double range is a PathError, with no RuntimeWarning
    # on the way; at dt = 5e-324 the step is below 1e150 and only the start overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PathError, match="^path values must be finite$"):
            for seed in range(4):  # a start past the range needs a normal above 1.06 at 5e-324
                sampler(np.random.default_rng(seed), d, dt, t_index, scale)


def test_walks_at_the_largest_unguarded_scale_stay_finite_without_a_warning():
    # below 1e150 for the step and the start no product or sum can overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sampler in (random_path, random_pair):
            sampler(np.random.default_rng(1), 2, 1.0, 50, 1e150)
        bridge_pair(np.random.default_rng(1), 2, 1e300, 5)


# ---------------------------------------------------------------------------
# Both arithmetic routes keep the oracle's bits and errors, at the switch and past the range.


def _paths(drawn) -> tuple:
    return drawn if isinstance(drawn, tuple) else (drawn,)


def _outcome(sampler, rng, *args):
    """The drawn paths' (key, dt), or the PathError's message."""
    try:
        drawn = sampler(rng, *args)
    except PathError as exc:
        return str(exc)
    return [(p.key(), p.dt) for p in _paths(drawn)]


_ORACLES = {random_path: _random_path_oracle, random_pair: _random_pair_oracle}


@pytest.mark.parametrize("sampler", [random_path, random_pair])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("draw", ["last python", "first numpy", "far numpy"])
@pytest.mark.parametrize("scale", [1.0, 0.5, 0.0, 1e-300])
def test_the_route_switches_past_py_draw_normals(sampler, d, draw, scale, monkeypatch):
    # the largest draw of the Python route, the smallest of numpy's, and one over ten times larger
    n = 2 if sampler is random_pair else 1
    t_index = _PY_DRAW // (n * d) - 2 + {"last python": 0, "first numpy": 1, "far numpy": 10 * _PY_DRAW // (n * d)}[draw]
    normals = n * (d * (t_index + 1) + d)
    assert (normals <= _PY_DRAW) == (draw == "last python") and (draw != "far numpy" or normals > 10 * _PY_DRAW)
    taken = []
    for route in ("_summed", "_scaled"):
        monkeypatch.setattr(sampling, route, lambda *a, _f=getattr(sampling, route), _r=route: taken.append(_r) or _f(*a))
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            got = _paths(sampler(got_rng, d, 0.125, t_index, scale))
            for g, w in zip(got, _paths(_ORACLES[sampler](want_rng, d, 0.125, t_index, scale)), strict=True):
                _assert_same_path(g, w)
                if scale == 0.0:  # +0.0 everywhere, as numpy's normal gives
                    assert not np.signbit(g.values).any() and not g.values.any()
    assert taken == ["_summed" if draw == "last python" else "_scaled"] * 2
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("route", ["python", "numpy"])
@pytest.mark.parametrize("sampler", [random_path, random_pair])
@pytest.mark.parametrize(
    "d,dt,t_index,scale",
    [(1, 1e10, 3, 1e305), (3, 1e-6, 0, 1.7e308), (1, 0.25, 40, 8e307), (1, 5e-324, 2, 1.7e308), (2, 1.0, 3, 1e308),
     (1, np.float64(1e10), 3, np.float64(1e305)), (2, 1.0, 3, np.float64(1e308))],
)
def test_an_overflowing_walk_raises_on_either_route_after_its_draws(route, sampler, d, dt, t_index, scale, monkeypatch):
    # the cases of the two tests above, and numpy scalar arguments: the oracle's outcome, the
    # stream moved past the whole batch, and no RuntimeWarning on the way
    monkeypatch.setattr(sampling, "_PY_DRAW", _ROUTES[route])
    n, k1 = (2 if sampler is random_pair else 1), t_index + 1
    raised = False
    for seed in (0, 1, 2, 3, 5):
        rng, twin, oracle_rng = (np.random.default_rng(seed) for _ in range(3))
        twin.standard_normal((n, d * k1 + d))
        with np.errstate(over="ignore", invalid="ignore"):
            want = _outcome(_ORACLES[sampler], oracle_rng, d, dt, t_index, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(sampler, rng, d, dt, t_index, scale)
        assert got == want
        assert rng.bit_generator.state == twin.bit_generator.state
        raised |= got == "path values must be finite"
    assert raised  # a start past the range needs large enough normals
