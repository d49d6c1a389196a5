import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathhjb.pathspace import (
    GridConfig,
    Path,
    PathError,
    _sq_cols,
    d_infty,
    horizontal_extension,
    restrict,
    sup_norm,
    vertical_bump,
    zero_like,
)
from pathhjb.sampling import random_path


def test_path_shape_and_invariants():
    p = Path(np.array([[1.0, 2.0, 3.0]]), 0.5)
    assert p.d == 1 and p.t_index == 2 and p.t == 1.0
    with pytest.raises(PathError):
        Path(np.array([[np.inf, 0.0]]), 0.5)
    for dt in (0.0, -0.5, np.inf, np.nan):
        with pytest.raises(PathError, match="dt must be a positive real"):
            Path(np.array([[1.0, 2.0]]), dt)
    with pytest.raises(PathError):
        random_path(np.random.default_rng(0), 1, np.inf, 0)  # its one column is drawn without dt


def test_path_values_are_frozen():
    p = Path(np.array([[1.0, 2.0]]), 0.5)
    with pytest.raises(ValueError):
        p.values[0, 0] = 7.0


def test_path_equality_and_hash():
    a = Path(np.array([[1.0, 2.0]]), 0.5)
    b = Path(np.array([[1.0, 2.0]]), 0.5)
    c = Path(np.array([[1.0, 2.5]]), 0.5)
    assert a == b and hash(a) == hash(b)
    assert a != c
    zero, signed = Path.constant(0.0, 0, 1.0), Path.constant(-0.0, 0, 1.0)  # one identity: the bits
    assert zero != signed and len({zero, signed}) == 2


@st.composite
def _small_paths(draw):
    # few values, shapes and dts, so equal pairs and signed-zero near misses are common;
    # (d, k) = (2, 0) and (1, 1) share their byte count
    d, k = draw(st.sampled_from([(1, 0), (1, 1), (2, 0), (1, 2)]))
    vals = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=d * (k + 1), max_size=d * (k + 1)))
    return Path(np.reshape(vals, (d, k + 1)), draw(st.sampled_from([0.25, 0.5])))


@settings(max_examples=300, deadline=None)
@given(_small_paths(), _small_paths())
def test_equality_and_hash_follow_dt_and_key(a, b):
    same = a.dt == b.dt and a.key() == b.key()
    assert (a == b) is same and (a != b) is not same
    if same:
        assert hash(a) == hash(b)
    assert len({a, b}) == (1 if same else 2)


def test_grid_config():
    g = GridConfig(4, 1.0, 2, 1)
    assert g.dt == 0.25
    with pytest.raises(PathError):
        GridConfig(0, 1.0)


@pytest.mark.parametrize(
    "args,message",
    [
        ((2.5, 1.0), "steps must be an integer >= 1, got 2.5"),
        ((3, 0.75, 2.0, 2), "dim must be an integer >= 1, got 2.0"),
        ((3, 0.75, 1, True), "noise_dim must be an integer >= 1, got True"),
        ((True, 1.0), "steps must be an integer >= 1, got True"),
        ((4, float("inf")), "horizon must be finite and > 0, got inf"),
        ((4, float("nan")), "horizon must be finite and > 0, got nan"),
    ],
)
def test_grid_config_rejects_non_integer_counts_and_an_infinite_horizon(args, message):
    with pytest.raises(PathError, match=f"^{message}$"):
        GridConfig(*args)


def test_sup_norm_examples():
    assert sup_norm(zero_like(Path.constant(0.0, 3, 0.1))) == 0.0
    assert sup_norm(Path.constant(2.0, 4, 0.1)) == 2.0
    assert sup_norm(Path(np.array([[1.0, -3.0, 2.0]]), 0.1)) == 3.0


def test_sup_norm_euclidean_columns():
    p = Path(np.array([[3.0, 0.0], [4.0, 0.0]]), 0.1)
    assert sup_norm(p) == 5.0


def test_d_infty_examples():
    p = Path(np.array([[1.0, 2.0, -1.0]]), 0.5)
    assert d_infty(p, p) == 0.0
    # both constant zero, times 1 vs 2 on a dt=0.5 grid
    a = Path.constant(0.0, 2, 0.5)
    b = Path.constant(0.0, 4, 0.5)
    assert d_infty(a, b) == pytest.approx(1.0, abs=0)
    # value gap only
    c = Path.constant(0.0, 4, 0.25)
    d = Path.constant(2.0, 4, 0.25)
    assert d_infty(c, d) == 2.0


def test_d_infty_mismatch_errors():
    p = Path.constant(0.0, 2, 0.5)
    with pytest.raises(PathError):
        d_infty(p, Path.constant(0.0, 2, 0.25))
    with pytest.raises(PathError):
        d_infty(p, Path.constant(np.zeros(2), 2, 0.5))


def test_vertical_bump_examples():
    p = Path(np.array([[1.0, 3.0]]), 0.5)
    assert vertical_bump(p, [0.0]) == p
    q = vertical_bump(p, [1.0])
    assert q.values[0, -1] == 4.0 and q.values[0, 0] == 1.0
    # two basis bumps compose into one
    r = Path(np.array([[1.0, 1.0], [2.0, 2.0]]), 0.5)
    one = vertical_bump(vertical_bump(r, [1.0, 0.0]), [0.0, 2.0])
    both = vertical_bump(r, [1.0, 2.0])
    assert one == both
    with pytest.raises(PathError):
        vertical_bump(p, [1.0, 2.0])


def test_horizontal_extension_examples():
    p = Path(np.array([[1.0, 5.0]]), 0.5)
    assert horizontal_extension(p, p.t_index) == p
    q = horizontal_extension(p, 4)
    assert q.t_index == 4
    assert np.all(q.values[0, 1:] == 5.0)
    assert restrict(q, p.t_index) == p
    with pytest.raises(PathError):
        horizontal_extension(p, 0)


def test_restrict_examples():
    p = Path(np.array([[1.0, 2.0, 3.0]]), 0.5)
    assert restrict(p, 2) == p
    assert restrict(p, 0).values.shape == (1, 1)
    assert sup_norm(restrict(p, 1)) <= sup_norm(p)
    with pytest.raises(PathError):
        restrict(p, 5)


def test_extension_preserves_sup_norm():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(0, 8))
        p = Path(rng.normal(size=(2, k + 1)), 0.25)
        assert sup_norm(horizontal_extension(p, k + 3)) == sup_norm(p)


def test_triangle_inequality_bulk():
    rng = np.random.default_rng(1)
    for _ in range(10000):
        k = rng.integers(0, 6, size=3)
        p, q, r = (Path(rng.normal(size=(1, ki + 1)), 0.25) for ki in k)
        assert d_infty(p, r) <= d_infty(p, q) + d_infty(q, r) + 1e-12


def test_zero_distance_iff_equal():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = Path(rng.normal(size=(1, 4)), 0.25)
        q = Path(rng.normal(size=(1, 4)), 0.25)
        if d_infty(p, q) == 0.0:
            assert p == q
        if p == q:
            assert d_infty(p, q) == 0.0
    p = Path(np.array([[0.3, 0.1]]), 0.25)
    assert d_infty(p, Path(np.array([[0.3, 0.1]]), 0.25)) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=8),
    st.lists(st.floats(-50, 50), min_size=1, max_size=8),
)
def test_d_infty_symmetry_property(xs, ys):
    p = Path(np.array([xs]), 0.5)
    q = Path(np.array([ys]), 0.5)
    assert d_infty(p, q) == d_infty(q, p)
    assert d_infty(p, q) >= 0.0


def test_norm_pass_is_numpys_column_reduction_at_every_batch_rank():
    # A loop over the rows (sq += r * r) would be faster but not the same sums:
    # with one column and d >= 8 add.reduce adds in unrolled blocks. Each batch
    # slice must also read as its own (d, k+1) pass, which the stacked gauge reads rely on.
    rng = np.random.default_rng(24)
    for d in range(1, 13):
        for t_index in range(9):
            for batch in ((), (3,), (2, 3)):
                for _ in range(8 if batch else 24):
                    x = rng.normal(size=(*batch, d, t_index + 1))
                    got = _sq_cols(x)
                    assert got.shape == (*batch, t_index + 1)
                    assert got.tobytes() == np.add.reduce(x * x, axis=-2).tobytes()
                    for idx in np.ndindex(*batch):
                        assert got[idx].tobytes() == np.add.reduce(x[idx] * x[idx], axis=0).tobytes()


def test_one_row_norm_pass_is_the_reduction_at_subnormal_zero_and_inf_squares():
    # at d = 1 the norm pass returns the squares themselves: the same bytes as the one-term
    # reduction, since a square is never -0.0, also where it underflows, is zero or overflows
    with np.errstate(over="ignore", under="ignore"):
        for values in ([1e-160, -1e-170, 2e-155, 1e-200], [0.0, -0.0, 0.0, -0.0], [1e200, -1e155, 1.5e308, -1e308]):
            for batch in ((), (3,), (2, 3)):
                x = np.broadcast_to(np.array(values), (*batch, 1, 4)).copy()
                got = _sq_cols(x)
                assert got.shape == (*batch, 4)
                assert got.tobytes() == np.add.reduce(x * x, axis=-2).tobytes()
        assert _sq_cols(np.array([[-0.0]])).tobytes() == np.zeros(1).tobytes()


@pytest.mark.parametrize("d", [1, 2, 8])
def test_writing_into_the_norm_pass_leaves_its_input(d):
    x = np.random.default_rng(3).normal(size=(2, d, 5))
    kept = x.copy()
    got = _sq_cols(x)
    got[...] = 7.0
    assert x.tobytes() == kept.tobytes()
    assert not np.shares_memory(got, x)
