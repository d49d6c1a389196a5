"""Counts decided in one place: every public count goes through pathspace._count,
which takes a Python or numpy integer (never a bool or a float) within its
bounds and raises PathError("<name> must be an integer >= <lo>, got <value!r>")
or "... in [<lo>, <hi>] ...". Batches of sampled path values stay within the
draw cap, else CapacityError before any draw."""

import dataclasses
import re

import numpy as np
import pytest

from pathhjb.bshjb import split_path
from pathhjb.control import (
    CapacityError,
    backward_semigroup,
    ControlStrategy,
    cost,
    dpp_check,
    moment_probe,
    regularity_probe,
    simulate_psde,
    simulate_tree,
    value,
    value_with_strategy,
)
from pathhjb.funcalc import endpoint_functional, ito_check
from pathhjb.gauge import GaugeParams, pair_sweep
from pathhjb.pathspace import GridConfig, Path, PathError, _count, horizontal_extension, restrict
from pathhjb.phjb import XGrid, markov_fd_solve, markovian_reduction, subsolution_probe, supersolution_probe
from pathhjb.presets import heat_problem, heat_solution, lq_problem, random_augmented_problem, random_problem
from pathhjb.sampling import DRAW_CAP, path_cloud, random_pair, random_path

GRID = GridConfig(4, 1.0)
DT = GRID.dt
LQ = lq_problem(GRID)
HEAT, HEAT_V = heat_problem(GRID), heat_solution(GRID)
P2 = Path.constant(0.1, 2, DT)  # at grid index 2 of 4
CONST0 = ControlStrategy.constant(0.0)
AFFINE = endpoint_functional(lambda x: float(x[0]), grad=lambda x: np.ones(1), hess=lambda x: np.zeros((1, 1)))


def _rng():
    return np.random.default_rng(0)


def _listed(arrays):
    return [a.tolist() for a in arrays]


def _outcome(call, v):
    """call(v), or the class and message of the PathError or CapacityError it raises."""
    try:
        return call(v)
    except (PathError, CapacityError) as exc:
        return type(exc), str(exc)


# (name in the message, lo, hi, a valid value, the entry point on one count as a comparable result)
CASES = {
    "GridConfig.steps": ("steps", 1, None, 2, lambda v: GridConfig(v, 1.0)),
    "GridConfig.dim": ("dim", 1, None, 2, lambda v: GridConfig(2, 1.0, v, 1)),
    "GridConfig.noise_dim": ("noise_dim", 1, None, 2, lambda v: GridConfig(2, 1.0, 1, v)),
    "XGrid.nx": ("nx", 3, None, 5, lambda v: XGrid(-1.0, 1.0, v)),
    "markov_fd_solve.time_substeps": (
        "time_substeps", 1, None, 2, lambda v: markov_fd_solve(markovian_reduction(HEAT), XGrid(-2.0, 2.0, 7), v).tolist()
    ),
    "GaugeParams.m": ("m", 1, 6, 2, lambda v: GaugeParams(v)),
    "moment_probe.n_paths": ("moment_probe n_paths", 1, None, 3, lambda v: moment_probe(LQ, P2, CONST0, v, 0)),
    "regularity_probe.samples": ("regularity_probe samples", 1, None, 2, lambda v: regularity_probe(LQ, v, 0)),
    "ito_check.n_paths": (
        "ito_check n_paths", 1, None, 3, lambda v: ito_check(AFFINE, lambda p: np.zeros(1), lambda p: np.ones((1, 1)), P2, 4, v, 0)
    ),
    "subsolution_probe.n_cloud": ("probe n_cloud", 1, None, 5, lambda v: subsolution_probe(HEAT, HEAT_V, HEAT_V, P2, n_cloud=v)),
    "supersolution_probe.n_cloud": ("probe n_cloud", 1, None, 5, lambda v: supersolution_probe(HEAT, HEAT_V, HEAT_V, P2, n_cloud=v)),
    "random_path.d": ("random_path d", 1, None, 2, lambda v: random_path(_rng(), v, DT, 3)),
    "random_path.t_index": ("random_path t_index", 0, None, 3, lambda v: random_path(_rng(), 1, DT, v)),
    "random_pair.d": ("random_pair d", 1, None, 2, lambda v: random_pair(_rng(), v, DT, 3)),
    "random_pair.t_index": ("random_pair t_index", 0, None, 3, lambda v: random_pair(_rng(), 1, DT, v)),
    "pair_sweep.d": ("pair_sweep d", 1, None, 2, lambda v: _listed(pair_sweep(_rng(), GaugeParams(), 3, v, DT, 3))),
    "AugmentedProblem.noise_dim": (
        "noise_dim", 1, None, 1, lambda v: dataclasses.replace(random_augmented_problem(4, 1.0, 0), noise_dim=v).grid
    ),
    "AugmentedProblem.state_dim": (
        "state_dim", 1, None, 1, lambda v: dataclasses.replace(random_augmented_problem(4, 1.0, 0), state_dim=v).grid
    ),
    "Path.constant.t_index": ("t_index", 0, None, 3, lambda v: Path.constant(0.5, v, DT)),
    "horizontal_extension": ("extension index", 2, None, 4, lambda v: horizontal_extension(P2, v)),
    "restrict": ("restriction index", 0, 2, 1, lambda v: restrict(P2, v)),
    "simulate_tree.end_index": ("tree end_index", 2, None, 4, lambda v: _listed(simulate_tree(LQ, P2, v).levels)),
    "simulate_psde.end_index": ("Euler end_index", 2, None, 4, lambda v: simulate_psde(LQ, P2, CONST0, v, 0)),
    "ito_check.end_index": (
        "Euler end_index", 2, None, 4, lambda v: ito_check(AFFINE, lambda p: np.zeros(1), lambda p: np.ones((1, 1)), P2, v, 3, 0)
    ),
    "backward_semigroup.delta_steps": (
        "delta_steps", 0, None, 2, lambda v: backward_semigroup(LQ, P2, CONST0, v, lambda p: float(p.values[0, -1]))
    ),
    "split_path.d": ("noise block dimension of a 2-dim path", 1, 1, 1, lambda v: split_path(Path.constant([0.1, 0.2], 2, DT), v)),
    "dpp_check.delta_steps": ("delta_steps from grid index 2", 0, 2, 1, lambda v: dpp_check(LQ, P2, v)),
    "path_cloud.n": ("path_cloud n", 0, None, 3, lambda v: path_cloud(_rng(), P2, 4, v)),
    "path_cloud.max_t_index": ("path_cloud max_t_index", 2, None, 4, lambda v: path_cloud(_rng(), P2, v, 3)),
    "pair_sweep.pairs": ("pair_sweep pairs", 1, None, 3, lambda v: _listed(pair_sweep(_rng(), GaugeParams(), v, 1, DT, 3))),
    "random_problem.n_controls": ("n_controls", 1, None, 2, lambda v: random_problem(GRID, 0, v).controls),
    "value.cap": ("cap", 1, None, 10**4, lambda v: value(LQ, P2, v)),
    "value_with_strategy.cap": ("cap", 1, None, 10**4, lambda v: value_with_strategy(LQ, P2, v)[0]),
    "cost.cap": ("cap", 1, None, 10**4, lambda v: cost(LQ, P2, CONST0, v)),
    "simulate_tree.cap": ("cap", 1, None, 10**4, lambda v: _listed(simulate_tree(LQ, P2, 4, None, v).levels)),
    "dpp_check.cap": ("cap", 1, None, 10**4, lambda v: dpp_check(LQ, P2, 1, v)),
    "regularity_probe.cap": ("cap", 1, None, 10**4, lambda v: regularity_probe(LQ, 2, 0, v)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_public_count_is_refused_with_the_one_message(case):
    name, lo, hi, _, call = CASES[case]
    rule = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    for bad in (2.5, float(lo + 1), True, "3", lo - 1) + (() if hi is None else (hi + 1,)):
        with pytest.raises(PathError, match=f"^{re.escape(f'{name} must be an integer {rule}, got {bad!r}')}$"):
            call(bad)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_numpy_integer_counts_as_the_python_int(case):
    _, lo, hi, good, call = CASES[case]
    assert call(np.int64(good)) == call(good)
    assert _outcome(call, np.int64(lo)) == _outcome(call, lo)


def test_count_returns_a_python_int():
    for v in (3, np.int64(3), np.uint8(3), np.int32(3)):
        got = _count("n", v, 0, 3)
        assert got == 3 and type(got) is int
    for bad in (np.bool_(True), np.float64(3.0), 3 + 0j, None, [3]):
        with pytest.raises(PathError, match=f"^n must be an integer >= 0, got {re.escape(repr(bad))}$"):
            _count("n", bad, 0)


# ---------------------------------------------------------------------------
# The draw cap: a batch of more than DRAW_CAP path values is refused before it is drawn.


def test_an_absurd_walk_batch_is_refused_before_drawing():
    rng = _rng()
    before = rng.bit_generator.state
    with pytest.raises(CapacityError, match=r"^pair_sweep needs 2000000000000000000 paths x 1 x 4 = 8000000000000000000 path values, over the draw cap 1e\+08$"):
        pair_sweep(rng, GaugeParams(), 10**18, 1, DT, 3)
    assert rng.bit_generator.state == before
    with pytest.raises(CapacityError, match=r"^random_path needs 1 paths x 1 x 100000001 = 100000001 path values"):
        random_path(rng, 1, DT, DRAW_CAP)
    assert random_path(rng, 1, DT, 3).t_index == 3


def test_an_absurd_euler_batch_is_refused_before_any_work():
    calls = []

    def drift(p):
        calls.append(p)
        return np.zeros(1)

    with pytest.raises(CapacityError, match=r"^Euler batch needs 1000000000000000000 paths x 1 x 5 = 5000000000000000000 path values, over the draw cap 1e\+08$"):
        ito_check(AFFINE, drift, lambda p: np.ones((1, 1)), Path.constant(0.0, 0, DT), 4, 10**18, 0)
    assert calls == []
    with pytest.raises(CapacityError, match=r"^Euler batch needs 1 paths x 1 x 100000002 = 100000002 path values"):
        simulate_psde(LQ, Path.constant(0.0, 0, DT), CONST0, DRAW_CAP + 1, 0)


def test_capacity_error_is_one_class_for_every_cap():
    from pathhjb import control, pathspace, phjb

    assert control.CapacityError is pathspace.CapacityError is phjb.CapacityError
