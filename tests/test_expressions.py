"""The inline grammar's array evaluation against Python's scalar evaluation, and
the engine's reads of the array forms against row-by-row reads of them."""

import ast
import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathhjb import control
from pathhjb.control import FIXED_POINT_MAX_ITER, ContractError, ControlStrategy
from pathhjb.expressions import ExpressionError, compile_expression, inline_problem
from pathhjb.pathspace import GridConfig, Path

_MATH = {"abs": abs, "sqrt": math.sqrt, "exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos}
_MATH.update(tanh=math.tanh, min=min, max=max)


@functools.lru_cache
def _reference(text: str):
    """``text`` evaluated by Python on floats, with the grammar's error mapping:
    the reference each element of the array evaluation must equal."""
    tree = ast.parse(text, mode="eval")
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            node.value = float(node.value)
    code = compile(tree, "<reference>", "eval")

    def scalar(env: dict):
        try:
            out = eval(code, {"__builtins__": {}, **_MATH}, env)
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise ExpressionError(f"expression {text!r} failed to evaluate: {exc}") from None
        if isinstance(out, complex):
            raise ExpressionError(f"expression {text!r} evaluated to a complex number")
        return out

    return scalar


def _outcome(fn, *args):
    """The value's repr (so NaN equals NaN), or the error's type and message."""
    try:
        return repr(float(fn(*args)))
    except Exception as exc:
        return type(exc), str(exc)


VARS = frozenset({"x", "y", "u"})

# Total on the sampled environments, so the whole array evaluates.
TOTAL = [
    "exp(tanh(x) * 3) * tanh(y) - log(abs(u) + 1)",
    "(abs(x) + 0.5) ** y + x ** 2 - u ** 3",
    "sqrt(abs(x)) / (1 + y * y) - -u",
    "min(x, y, u) + max(x, -y) - min(u, 2) * max(y, 1, x)",
    "sin(x) * cos(y) + sin(u * 100) - cos(1e6 * x)",
    "(x - y) ** 2 / 3 + abs(u) ** 0.5 + 2 ** x",
    "x * y * u / 7 + (x + y) * (u - 1)",
    "abs(x ** 0.5)",  # a complex intermediate at x < 0, made real again by abs
    "tanh(x / 0.3) + exp(-y * y) + log(1 + x * x) / (abs(u) + 1e-3)",
    "1 + 2 * 3",
]


@pytest.mark.parametrize("text", TOTAL)
def test_array_evaluation_equals_the_scalar_one(text):
    rng = np.random.default_rng(1)
    n = 20_000
    env = {v: rng.normal(scale=2.0, size=n) for v in sorted(VARS)}
    env["x"][::97] = 0.0
    env["y"][::89] = -0.0
    env["u"][::83] = np.nan  # min and max keep Python's order-dependent NaN handling
    got = np.broadcast_to(compile_expression(text, VARS)(env), (n,))
    scalar = _reference(text)
    want = np.array([scalar({v: float(a[i]) for v, a in env.items()}) for i in range(n)])
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


ERRORS = [
    ("log(x)", 0.0),
    ("sqrt(x)", -1.0),
    ("x / 0", 1.0),
    ("1 / (x - x)", 3.0),
    ("(-8) ** (1 / 3)", 0.0),
    ("x ** (1 / 3)", -8.0),
    ("sqrt(x ** 0.5)", -4.0),
    ("exp(x)", 1000.0),
    ("10 ** 400", 0.0),
    ("x ** -1", 0.0),
    ("min(x, y) + max(y, x)", math.nan),
    ("min(x)", 1.0),
    ("sqrt()", 1.0),
    ("sqrt(x, x)", 1.0),
    ("sin(x)", math.inf),
]


@pytest.mark.parametrize("text,x", ERRORS)
def test_errors_match_python_in_type_and_message(text, x):
    fn = compile_expression(text, VARS)
    want = _outcome(_reference(text), {"x": x, "y": 2.0, "u": 0.0})
    assert _outcome(lambda: fn({"x": np.array([x]), "y": np.array([2.0]), "u": np.array([0.0])})[0]) == want
    # among good elements, the failing one decides the array's outcome
    xs = np.array([1.5, x, 2.5])
    if not isinstance(want, tuple):  # nothing raised: compare the first element
        want = _outcome(_reference(text), {"x": 1.5, "y": 2.0, "u": 0.0})
    got = _outcome(lambda: fn({"x": xs, "y": np.full(3, 2.0), "u": np.zeros(3)})[0])
    assert got == want


_SCALARS = frozenset({"t", "T", "dt"})
_SCALAR_ENV = {"t": 0.5, "T": 1.0, "dt": 0.25}


@pytest.mark.parametrize("text", ["-((-1.5) ** t)", "2*((-1.5) ** t)", "((-1.5) ** t) - 1", "0*((-1.5) ** t)"])
def test_a_complex_value_of_scalar_operands_is_an_expression_error(text):
    # numpy's ops on the 0-d object array of a complex power return its element, a Python complex
    with pytest.raises(ExpressionError, match=f"^{re.escape(f'expression {text!r} evaluated to a complex number')}$"):
        compile_expression(text, _SCALARS)(_SCALAR_ENV)
    assert repr(compile_expression("abs((-1.5) ** t)", _SCALARS)(_SCALAR_ENV)) == "1.224744871391589"


def _scalar_expressions():
    # (-1.5) drawn as often as the other leaves together: a negative base to a fractional power is complex
    leaves = st.just("(-1.5)") | st.sampled_from(["0", "1", "2", "0.5", "3", "t", "T", "dt"])

    def extend(sub):
        unary = st.tuples(st.sampled_from(["abs", "sqrt", "exp", "log", "sin", "cos", "tanh", "-"]), sub)
        binary = st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "**"]), sub)
        pair = st.tuples(st.sampled_from(["min", "max"]), sub, sub)
        return st.one_of(
            unary.map(lambda a: f"{a[0]}({a[1]})"),
            binary.map(lambda a: f"({a[0]} {a[1]} {a[2]})"),
            pair.map(lambda a: f"{a[0]}({a[1]}, {a[2]})"),
        )

    return st.recursive(leaves, extend, max_leaves=5)


@settings(max_examples=400, deadline=None)
@given(_scalar_expressions())
def test_an_expression_of_scalar_operands_is_real_or_an_expression_error(text):
    try:
        out = compile_expression(text, _SCALARS)(_SCALAR_ENV)
    except ExpressionError:
        return
    assert np.asarray(out).dtype == np.float64, (text, out)


# ---------------------------------------------------------------------------
# The engine with and without array forms.


def _bench_shaped(rng):
    """An inline spec shaped like the benchmark's: rint, rmax, y and z through tanh and sin."""
    a = [round(float(c), 6) for c in rng.uniform(-0.3, 0.3, size=3)]
    b0, b1 = round(float(rng.uniform(0.5, 0.7)), 6), round(float(rng.uniform(0.05, 0.2)), 6)
    c = [0.2 * float(rng.choice((-1, 1)))] + [round(float(v), 6) for v in rng.uniform(-0.3, 0.3, size=2)]
    d = [round(float(v), 6) for v in rng.uniform(0.1, 0.3, size=2)]
    spec = {
        "drift": [f"{a[0]}*u + {a[1]}*tanh(x) + {a[2]}*tanh(rint)"],
        "diffusion": [[f"{b0} + {b1}*tanh(rmax)"]],
        "generator": f"-0.1*u*u + {c[0]}*tanh(y) + {c[1]}*tanh(z) + {c[2]}*tanh(rint)",
        "terminal": f"tanh(x) + {d[0]}*rmax + {d[1]}*sin(rint)",
        "controls": sorted(round(float(u), 3) for u in rng.uniform(-1.0, 1.0, size=2)),
    }
    return spec, GridConfig(4, 1.0, 1, 1), round(float(rng.uniform(-0.5, 0.5)), 6)


TWO_D = (
    {
        "drift": ["0.1*u + 0.2*tanh(x1) - 0.1*rint0", "0.3*tanh(rint1) - 0.1*u*x0"],
        "diffusion": [["0.5", "0.1*tanh(rmax)"], ["0.05*x1", "0.4 + 0.1*tanh(x0)"]],
        "generator": "0.1*tanh(y) + 0.05*z0 - 0.03*z1*u - 0.1*u*u + 0.01*exp(-rmax)",
        "terminal": "tanh(x1) + 0.1*rint1 + 0.1*rmax - 0.2*x0**2",
        "controls": [-0.5, 0.0, 1.0],
    },
    GridConfig(3, 0.75, 2, 2),
    0.1,
)

CASES = [_bench_shaped(np.random.default_rng(s)) for s in range(6)] + [TWO_D]


def _row_by_row(cp):
    """cp with each coefficient read one row per call, through per_path: the
    scalar path of its array forms."""

    def one_row(fn):
        return lambda path, *row: fn(path.values[None], *(np.asarray([a]) for a in row))[0]

    fields = ("drift", "diffusion", "generator", "terminal")
    return dataclasses.replace(cp, **{f: control.per_path(one_row(getattr(cp, f)), cp.grid.dt) for f in fields})


@pytest.mark.parametrize("spec,grid,start", CASES)
def test_array_forms_give_the_scalar_path_results(spec, grid, start):
    cp = inline_problem(spec, grid)
    ref = _row_by_row(cp)
    p0 = Path.constant(np.full(grid.dim, start), 0, grid.dt)
    assert control.value(cp, p0) == control.value(ref, p0)
    (v, strat), (v_ref, strat_ref) = control.value_with_strategy(cp, p0), control.value_with_strategy(ref, p0)
    assert v == v_ref
    assert control.cost(cp, p0, strat) == control.cost(ref, p0, strat_ref)
    for seq in itertools.islice(itertools.product(cp.controls, repeat=grid.steps), 16):
        strategy = ControlStrategy(open_loop=seq)
        assert control.cost(cp, p0, strategy) == control.cost(ref, p0, strategy)
    for delta in range(1, grid.steps + 1):
        assert control.dpp_check(cp, p0, delta) == control.dpp_check(ref, p0, delta)


def _failure(fn):
    with pytest.raises((ContractError, ExpressionError)) as info:
        fn()
    return info.type, str(info.value)


def _small(**coeffs):
    spec = {"drift": ["u"], "diffusion": [["1"]], "generator": "0", "terminal": "x", "controls": [0.0, 1.0]}
    return inline_problem({**spec, **coeffs}, GridConfig(4, 1.0, 1, 1))


@pytest.mark.parametrize(
    "coeffs,start",
    [
        ({"generator": "8*y"}, 0.3),  # slope 2 on dt = 0.25: refused at round 1, observed ratio 2
        ({"generator": "1e300*1e300*y"}, 0.3),  # non-finite
        ({"drift": ["sqrt(x)"]}, 0.3),  # fails at the level-1 nodes below 0 only
    ],
)
def test_a_failed_batch_raises_the_scalar_path_error(coeffs, start):
    # the form's own error reaches the caller, the one the first failing row raises alone
    cp = _small(**coeffs)
    ref = _row_by_row(cp)
    p0 = Path.constant(start, 0, cp.grid.dt)
    assert _failure(lambda: control.value(cp, p0)) == _failure(lambda: control.value(ref, p0))
    strategy = ControlStrategy.constant(1.0)
    assert _failure(lambda: control.cost(cp, p0, strategy)) == _failure(lambda: control.cost(ref, p0, strategy))


def test_the_drift_failure_starts_below_the_root():
    # the root's drift is fine; only the array form of a deeper level raises
    cp = _small(drift=["sqrt(x)"])
    p0 = Path.constant(0.3, 0, cp.grid.dt)
    b, _ = cp.coeffs(p0.values[None], (0.0, 1.0))
    assert b.shape == (2, 1)
    with pytest.raises(ExpressionError, match="math domain error"):
        cp.drift(np.array([[[0.3, -0.2]]]), [0.0])


def test_array_generator_calls_are_bounded_by_the_fixed_point_rounds():
    spec, grid, start = CASES[0]
    cp = inline_problem(spec, grid)
    calls = []

    def generator(vals, *args):
        calls.append(len(vals))
        return cp.generator(vals, *args)

    counted = dataclasses.replace(cp, generator=generator)
    p0 = Path.constant(start, 0, grid.dt)
    assert control.value(counted, p0) == control.value(cp, p0)
    # one call per round of each level's fixed point, over the rows not yet converged
    assert grid.steps <= len(calls) <= grid.steps * FIXED_POINT_MAX_ITER
