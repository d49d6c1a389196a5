import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathhjb import phjb
from pathhjb.cli import COMPARISON_DEFAULT, MARKOV_DEFAULT, run_comparison_demo, run_markov_compare
from pathhjb.control import CapacityError, ControlProblem, per_path, value
from pathhjb.funcalc import (
    PathFunctional,
    add_functionals,
    constant_functional,
    horizontal_derivative,
    scale_functional,
    vertical_gradient,
    vertical_hessian,
)
from pathhjb.gauge import GaugeParams, upsilon_bar, upsilon_bar_functional, upsilon_single
from pathhjb.pathspace import GridConfig, Path, PathError
from pathhjb.phjb import (
    CFLError,
    _cfl_substeps,
    _coefficient_table,
    HamiltonianInput,
    MarkovProbeError,
    SmoothFunctional,
    XGrid,
    comparison_psi,
    generator,
    hamiltonian,
    markov_consistency,
    markov_fd_solve,
    markovian_reduction,
    phjb_residual,
    subsolution_probe,
    supersolution_probe,
)
from pathhjb.presets import (
    bangbang_problem,
    heat_problem,
    heat_solution,
    lq_problem,
    lq_solution,
    martingale_problem,
    martingale_solution,
    quartic_closed_form,
    quartic_problem,
    running_cost_problem,
    running_cost_solution,
)
from pathhjb.sampling import random_path

GRID = GridConfig(6, 0.75, 1, 1)


def _per_path(drift, diffusion, generator, terminal, controls, grid):
    """The ControlProblem of coefficients written per path."""
    return ControlProblem(
        drift=per_path(drift, grid.dt),
        diffusion=per_path(diffusion, grid.dt),
        generator=per_path(generator, grid.dt),
        terminal=per_path(terminal, grid.dt),
        controls=controls,
        grid=grid,
    )


def _one_row(fn, vals, *args):
    """An array form's value at the single path ``vals``, a (d, K) array."""
    vals = vals[None]
    vals.setflags(write=False)
    return np.asarray(fn(vals, *args))[0]


def _hin(path, r=0.0, p=0.0, l=0.0):
    return HamiltonianInput(path, r, np.atleast_1d(p), np.atleast_2d(l))


def test_hamiltonian_single_control():
    cp = heat_problem(GRID)
    path = Path.constant(0.3, 2, GRID.dt)
    val, arg = hamiltonian(cp, _hin(path, r=1.0, p=0.5, l=2.0))
    assert val == pytest.approx(0.5 * 2.0)  # only the trace term, sigma = 1
    assert arg == 0.0


def test_hamiltonian_trace_example():
    grid = GridConfig(4, 1.0, 2, 2)
    cp = _per_path(
        drift=lambda p, u: np.zeros(2),
        diffusion=lambda p, u: np.eye(2),
        generator=lambda p, y, z, u: 0.0,
        terminal=lambda p: 0.0,
        controls=(0.0,),
        grid=grid,
    )
    path = Path.constant(np.zeros(2), 1, grid.dt)
    val, _ = hamiltonian(cp, HamiltonianInput(path, 0.0, np.zeros(2), np.eye(2)))
    assert val == pytest.approx(1.0)


def test_hamiltonian_argmax_tie_breaks_to_lowest_index():
    cp = _per_path(
        drift=lambda p, u: np.zeros(1),
        diffusion=lambda p, u: np.eye(1),
        generator=lambda p, y, z, u: abs(u),  # ties between +1 and -1
        terminal=lambda p: 0.0,
        controls=(1.0, -1.0),
        grid=GRID,
    )
    path = Path.constant(0.0, 1, GRID.dt)
    _, arg = hamiltonian(cp, _hin(path))
    assert arg == 1.0  # the first of the tied controls


def test_smooth_functional_requires_all_derivatives_and_spot_checks():
    with pytest.raises(PathError):
        SmoothFunctional(eval=lambda p: 0.0)
    sol = SmoothFunctional.from_functional(heat_solution(GRID))
    rng = np.random.default_rng(11)
    sol.spot_check([random_path(rng, 1, GRID.dt, 2) for _ in range(5)])
    broken = SmoothFunctional(
        eval=sol.eval,
        analytic_dt=sol.analytic_dt,
        analytic_dx=lambda p: np.array([17.0]),  # wrong on purpose
        analytic_dxx=sol.analytic_dxx,
    )
    with pytest.raises(PathError):
        broken.spot_check([random_path(rng, 1, GRID.dt, 2)])


_WIDE_DX = {
    "phjb_residual": phjb_residual,
    "subsolution_probe": lambda cp, f, p: subsolution_probe(cp, f, f, p, cloud=[p]),
    "supersolution_probe": lambda cp, f, p: supersolution_probe(cp, f, f, p, cloud=[p]),
    "generator": lambda cp, f, p: generator(cp, f, p, cp.controls[0]),
    "spot_check": lambda cp, f, p: f.spot_check([p, p]),
}


@pytest.mark.parametrize("consumer", sorted(_WIDE_DX))
def test_jet_consumers_reject_a_gradient_of_the_wrong_shape(consumer):
    sol = heat_solution(GRID)
    wide = SmoothFunctional(eval=sol.eval, analytic_dt=sol.analytic_dt, analytic_dx=lambda p: np.ones(2), analytic_dxx=sol.analytic_dxx)
    n = 2 if consumer == "spot_check" else 1
    msg = rf"^analytic_dx must return shape \(1,\) at each of {n} evaluations, got \(2,\)$"
    with pytest.raises(PathError, match=msg):
        _WIDE_DX[consumer](heat_problem(GRID), wide, Path.constant(0.3, 1, GRID.dt))


def test_hamiltonian_requires_symmetric_l():
    path = Path.constant(0.0, 1, GRID.dt)
    with pytest.raises(PathError):
        HamiltonianInput(path, 0.0, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hamiltonian_monotone_in_r_with_modulus():
    # generator strictly decreasing in y with slope -K
    K = 0.8
    cp = _per_path(
        drift=lambda p, u: np.array([u]),
        diffusion=lambda p, u: np.eye(1),
        generator=lambda p, y, z, u: -K * y + 0.3 * float(np.atleast_1d(z)[0]) + u,
        terminal=lambda p: 0.0,
        controls=(-1.0, 0.5, 1.0),
        grid=GRID,
    )
    rng = np.random.default_rng(0)
    for _ in range(200):
        path = random_path(rng, 1, GRID.dt, int(rng.integers(0, 5)))
        r1, r2 = sorted(rng.normal(size=2))
        if r1 == r2:
            continue
        p_vec, l_mat = rng.normal(), rng.normal()
        h1, _ = hamiltonian(cp, _hin(path, r1, p_vec, l_mat))
        h2, _ = hamiltonian(cp, _hin(path, r2, p_vec, l_mat))
        assert h1 - h2 >= K * (r2 - r1) - 1e-10


def test_hamiltonian_convex_in_p_l_for_z_affine_generator():
    cp = _per_path(
        drift=lambda p, u: np.array([u]),
        diffusion=lambda p, u: np.array([[1.0 + 0.2 * u]]),
        generator=lambda p, y, z, u: 0.4 * y + 0.7 * float(np.atleast_1d(z)[0]) - u * u,
        terminal=lambda p: 0.0,
        controls=(-1.0, 0.0, 1.0),
        grid=GRID,
    )
    rng = np.random.default_rng(1)
    path = Path.constant(0.2, 2, GRID.dt)
    for _ in range(200):
        p1, p2 = rng.normal(size=2)
        l1, l2 = rng.normal(size=2)
        lam = rng.uniform()
        r = rng.normal()
        h1, _ = hamiltonian(cp, _hin(path, r, p1, l1))
        h2, _ = hamiltonian(cp, _hin(path, r, p2, l2))
        hm, _ = hamiltonian(cp, _hin(path, r, lam * p1 + (1 - lam) * p2, lam * l1 + (1 - lam) * l2))
        assert hm <= lam * h1 + (1 - lam) * h2 + 1e-10


def test_generator_examples():
    cp = heat_problem(GRID)
    path = Path.constant(0.3, 2, GRID.dt)
    endpoint = SmoothFunctional(
        eval=lambda p: float(p.values[0, -1]),
        analytic_dt=lambda p: 0.0,
        analytic_dx=lambda p: np.ones(1),
        analytic_dxx=lambda p: np.zeros((1, 1)),
    )
    assert generator(cp, endpoint, path, 0.0) == pytest.approx(0.0)
    clock = SmoothFunctional(
        eval=lambda p: p.t,
        analytic_dt=lambda p: 1.0,
        analytic_dx=lambda p: np.zeros(1),
        analytic_dxx=lambda p: np.zeros((1, 1)),
    )
    assert generator(cp, clock, path, 0.0) == pytest.approx(1.0)


def test_generator_sup_equals_hamiltonian():
    cp = lq_problem(GRID)
    sol = SmoothFunctional.from_functional(lq_solution(GRID))
    rng = np.random.default_rng(2)
    for _ in range(50):
        path = random_path(rng, 1, GRID.dt, int(rng.integers(0, 5)))
        sup_gen = max(generator(cp, sol, path, u) for u in cp.controls)
        hin = HamiltonianInput(path, sol.eval(path), sol.analytic_dx(path), sol.analytic_dxx(path))
        hval, _ = hamiltonian(cp, hin)
        # generator includes the horizontal term, the Hamiltonian does not
        assert sup_gen == pytest.approx(sol.analytic_dt(path) + hval, abs=1e-12)


@pytest.mark.parametrize(
    "problem,solution",
    [
        (martingale_problem, martingale_solution),
        (running_cost_problem, running_cost_solution),
        (heat_problem, heat_solution),
    ],
)
def test_classical_solutions_have_zero_residual(problem, solution):
    cp = problem(GRID)
    sol = solution(GRID)
    rng = np.random.default_rng(3)
    for _ in range(50):
        path = random_path(rng, 1, GRID.dt, int(rng.integers(0, GRID.steps)))
        assert abs(phjb_residual(cp, sol, path)) <= 1e-8


def test_phjb_residual_rejects_terminal_paths():
    cp = heat_problem(GRID)
    with pytest.raises(PathError):
        phjb_residual(cp, heat_solution(GRID), Path.constant(0.0, GRID.steps, GRID.dt))


_OFF_GRID = {
    "hamiltonian": lambda cp, v, p: hamiltonian(cp, HamiltonianInput(p, 0.0, np.zeros(p.d), np.zeros((p.d, p.d)))),
    "generator": lambda cp, v, p: generator(cp, v, p, 0.0),
    "phjb_residual": phjb_residual,
    "subsolution_probe": lambda cp, v, p: subsolution_probe(cp, v, v, p, n_cloud=5),
    "supersolution_probe": lambda cp, v, p: supersolution_probe(cp, v, v, p, n_cloud=5),
}


@pytest.mark.parametrize("entry", sorted(_OFF_GRID))
@pytest.mark.parametrize(
    "path,message",
    [
        (Path.constant(0.2, 1, 0.5), "root path has dt 0.5, the grid's is 0.125"),
        (Path.constant([0.2, 0.1], 1, 0.125), "root path has dimension 2, the grid's is 1"),
    ],
)
def test_residuals_and_probes_check_their_path_against_the_grid(entry, path, message):
    # as every solver does, before any coefficient or derivative is read
    grid = GridConfig(8, 1.0, 1, 1)
    reads = []
    base = running_cost_problem(grid)
    cp = dataclasses.replace(base, drift=lambda vals, us: reads.append("drift") or base.drift(vals, us))
    sol = running_cost_solution(grid)
    v = PathFunctional(eval=sol.eval, analytic_dt=sol.analytic_dt, analytic_dx=lambda p: reads.append("dx") or sol.analytic_dx(p), analytic_dxx=sol.analytic_dxx)
    with pytest.raises(PathError, match=f"^{re.escape(message)}$"):
        _OFF_GRID[entry](cp, v, path)
    assert reads == []


def test_subsolution_probe_touch_and_residual():
    cp = heat_problem(GRID)
    sol = heat_solution(GRID)
    rng = np.random.default_rng(4)
    p = random_path(rng, 1, GRID.dt, 2)
    probe = subsolution_probe(cp, sol, sol, p, n_cloud=300, seed=5)
    assert probe.is_touch_point
    assert probe.residual >= -1e-8


def test_subsolution_probe_constructed_maximum():
    cp = heat_problem(GRID)
    rng = np.random.default_rng(5)
    p = random_path(rng, 1, GRID.dt, 2)
    w = PathFunctional(eval=lambda q: float(np.cos(q.values[0, -1])))
    test = add_functionals(w, PathFunctional(eval=lambda q: upsilon_bar(q, p)))
    probe = subsolution_probe(cp, w, test, p, n_cloud=300, seed=6)
    assert probe.is_touch_point


def test_subsolution_probe_false_touch_is_result():
    cp = heat_problem(GRID)
    sol = heat_solution(GRID)
    rng = np.random.default_rng(6)
    p = random_path(rng, 1, GRID.dt, 2)
    shifted = add_functionals(sol, PathFunctional(eval=lambda q: -1.0 + 0.0 * q.t))
    probe = subsolution_probe(cp, sol, shifted, p, n_cloud=100, seed=7)
    assert not probe.is_touch_point


def test_subsolution_probe_lq_majorant():
    grid = GridConfig(4, 1.0, 1, 1)
    cp = lq_problem(grid)
    w = PathFunctional(eval=lambda q: value(cp, q))
    rng = np.random.default_rng(7)
    p = random_path(rng, 1, grid.dt, 1)
    majorant = add_functionals(lq_solution(grid), upsilon_bar_functional(p))
    probe = subsolution_probe(cp, w, majorant, p, n_cloud=60, seed=8)
    assert probe.is_touch_point
    assert probe.residual >= -1e-6


def test_supersolution_probe_classical_solution():
    cp = heat_problem(GRID)
    sol = heat_solution(GRID)
    rng = np.random.default_rng(8)
    p = random_path(rng, 1, GRID.dt, 3)
    probe = supersolution_probe(cp, sol, scale_functional(sol, -1.0), p, n_cloud=300, seed=9)
    assert probe.is_touch_point
    assert probe.residual <= 1e-8


@pytest.mark.parametrize("probe", [subsolution_probe, supersolution_probe])
def test_probes_refuse_the_horizon_and_empty_clouds(probe):
    cp, sol = heat_problem(GRID), heat_solution(GRID)
    for k in (GRID.steps, GRID.steps + 1):
        with pytest.raises(PathError, match="residual is defined at interior times only"):
            probe(cp, sol, sol, Path.constant(0.3, k, GRID.dt), n_cloud=10)
    p = Path.constant(0.3, 2, GRID.dt)
    for n_cloud in (0, -3):
        with pytest.raises(PathError, match=f"^probe n_cloud must be an integer >= 1, got {n_cloud}$"):
            probe(cp, sol, sol, p, n_cloud=n_cloud)
    with pytest.raises(PathError, match="probe needs a nonempty cloud"):
        probe(cp, sol, sol, p, cloud=[])


_BAD_CLOUDS = {
    "earlier": (Path.constant(0.3, 1, GRID.dt), "cloud path 1 is at grid index 1, before the probe point's 2"),
    "half dt": (Path.constant(0.3, 4, GRID.dt / 2), f"cloud path 1 has dt {GRID.dt / 2}, the grid's is {GRID.dt}"),
    "2-D": (Path.constant(np.zeros(2), 3, GRID.dt), "cloud path 1 has dimension 2, the grid's is 1"),
}


@pytest.mark.parametrize("probe", [subsolution_probe, supersolution_probe])
@pytest.mark.parametrize("case", sorted(_BAD_CLOUDS))
def test_probes_check_a_given_cloud_against_the_grid(probe, case):
    cp, sol = heat_problem(GRID), heat_solution(GRID)
    p = Path.constant(0.3, 2, GRID.dt)
    evals = []
    w = PathFunctional(eval=lambda path: evals.append(path) or sol.eval(path))
    bad, message = _BAD_CLOUDS[case]
    with pytest.raises(PathError, match=f"^{re.escape(message)}$"):
        probe(cp, w, sol, p, cloud=[Path.constant(0.3, 2, GRID.dt), bad])
    assert evals == []  # refused before any evaluation
    probe(cp, w, sol, p, cloud=[Path.constant(0.3, 2, GRID.dt), Path.constant(0.1, GRID.steps, GRID.dt)])


def test_markovian_reduction_probes_history():
    cp = _per_path(
        drift=lambda p, u: np.array([p.values[0].mean()]),  # genuinely path-dependent
        diffusion=lambda p, u: np.eye(1),
        generator=lambda p, y, z, u: 0.0,
        terminal=lambda p: float(p.values[0, -1]),
        controls=(0.0,),
        grid=GRID,
    )
    with pytest.raises(MarkovProbeError):
        markovian_reduction(cp)


@pytest.mark.parametrize("lo,hi,nx", [(-np.inf, 4.0, 41), (-4.0, np.inf, 41), (-np.inf, np.inf, 5), (-1e308, 1e308, 41)])
def test_x_grid_needs_finite_bounds_and_spacing(lo, hi, nx):
    with pytest.raises(PathError, match=re.escape(f"x grid needs finite lo, hi and dx, got lo={lo}, hi={hi}, nx={nx}")):
        XGrid(lo, hi, nx)
    with pytest.raises(PathError, match="need hi > lo"):
        XGrid(np.nan, hi, nx)
    assert XGrid(-1e153, 1e153, 3).dx == 1e153  # a wide span is fine while dx^2 is finite
    with pytest.raises(PathError, match=re.escape("x grid spacing dx=1e+307 has a square past the double range")):
        XGrid(-1e307, 1e307, 3)


@pytest.mark.parametrize("nx", [41.0, 2, -3, True, "41"])
def test_x_grid_needs_an_integer_nx_of_at_least_3(nx):
    with pytest.raises(PathError, match=re.escape(f"nx must be an integer >= 3, got {nx!r}")):
        XGrid(-3.0, 3.0, nx)
    assert XGrid(-3.0, 3.0, np.int64(3)).nodes().tolist() == [-3.0, 0.0, 3.0]


def test_markov_fd_martingale_terminal():
    grid = GridConfig(8, 0.5, 1, 1)
    mp = markovian_reduction(martingale_problem(grid))
    xg = XGrid(-3.0, 3.0, 61)
    v = markov_fd_solve(mp, xg)
    for k in (0, 4, 8):
        assert v[k] == pytest.approx(xg.nodes(), abs=1e-12)


def test_markov_fd_heat_closed_form():
    grid = GridConfig(8, 0.5, 1, 1)
    mp = markovian_reduction(heat_problem(grid))
    xg = XGrid(-3.0, 3.0, 61)
    v = markov_fd_solve(mp, xg)
    expected = xg.nodes() ** 2 + 0.5
    assert v[0] == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("make", [quartic_problem, heat_problem, bangbang_problem])
def test_one_solve_reads_each_form_a_counted_number_of_times(make, monkeypatch):
    # drift and diffusion once per grid index under all controls, the terminal once, the
    # generator once per substep and control; every read on arrays, no Path built
    grid = GridConfig(4, 0.5, 1, 1)
    base = make(grid)
    names = ("drift", "diffusion", "generator", "terminal", "paths")
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    cp = dataclasses.replace(base, **{name: counted(name, getattr(base, name)) for name in names[:4]})
    xg = XGrid(-3.0, 3.0, 21)
    substeps = _auto_substeps(cp, xg)
    counts.update(dict.fromkeys(names, 0))
    monkeypatch.setattr(Path, "__post_init__", counted("paths", Path.__post_init__))
    got = markov_fd_solve(cp, xg)
    monkeypatch.undo()
    assert counts == {
        "drift": grid.steps + 1,
        "diffusion": grid.steps + 1,
        "generator": grid.steps * substeps * len(cp.controls),
        "terminal": 1,
        "paths": 0,
    }
    assert np.array_equal(got, markov_fd_solve(base, xg))


@pytest.mark.parametrize("dim,noise_dim", [(2, 2), (2, 1), (1, 2)])
def test_the_fd_oracle_needs_a_one_dimensional_grid(dim, noise_dim):
    from pathhjb.presets import random_problem

    cp = random_problem(GridConfig(4, 0.5, dim, noise_dim), 0)
    message = re.escape(f"markovian reduction implemented for d = n = 1, got d = {dim}, n = {noise_dim}")
    for read in (markovian_reduction, lambda cp: markov_fd_solve(cp, XGrid(-3.0, 3.0, 21))):
        with pytest.raises(PathError, match=message):
            read(cp)


def _auto_substeps(mp, xg):
    return _cfl_substeps(mp, xg, _coefficient_table(mp, xg)[2])


def test_markov_fd_cfl_guard():
    grid = GridConfig(4, 0.5, 1, 1)
    mp = markovian_reduction(heat_problem(grid))
    xg = XGrid(-3.0, 3.0, 61)
    with pytest.raises(CFLError) as exc:
        markov_fd_solve(mp, xg, time_substeps=1)
    rate = grid.dt * (1.0 / xg.dx**2 + 0.0 / xg.dx)  # sigma = 1, b = 0
    auto = _auto_substeps(mp, xg)
    assert auto == int(np.ceil(rate / 0.9)) > 1
    assert f"= {rate} > 1" in str(exc.value)
    assert f"automatic choice is {auto} substeps" in str(exc.value)
    markov_fd_solve(mp, xg, time_substeps=auto)


def test_markov_fd_cfl_guard_quotes_an_automatic_count_over_the_cap():
    # one substep is within the cap but not monotone; the automatic count, 38,580,247 substeps,
    # is quoted without its own cap check, which it would fail
    grid = GridConfig(4, 0.5, 1, 1)
    mp = markovian_reduction(heat_problem(grid))
    xg = XGrid(-3.0, 3.0, 100001)
    with pytest.raises(CFLError) as exc:
        markov_fd_solve(mp, xg, 1)
    assert f"= {grid.dt * (1.0 / xg.dx**2 + 0.0 / xg.dx)} > 1" in str(exc.value)  # sigma = 1, b = 0
    assert str(exc.value).endswith("(explicit scheme not monotone; the automatic choice is 38580247 substeps)")
    with pytest.raises(CapacityError, match="4 steps x 38580247 substeps x 100001 nodes"):
        _auto_substeps(mp, xg)


def _first_cfl_violation(mp, rates, substeps):
    """Reference oracle: the rate the FD loop's own guard met first, reading grid step k
    from the last, then substep s, then control u, as the solve reads its table."""
    dt = mp.grid.dt
    dt_sub = dt / substeps
    for k in range(mp.grid.steps - 1, -1, -1):
        for s in range(substeps):
            for rate in dt_sub * rates[round(((k + 1) * dt - s * dt_sub) / dt)]:
                if rate > 1.0 + 1e-12:
                    return rate, dt_sub
    return None


@pytest.mark.parametrize("substeps", [1, 2, 3])
def test_markov_fd_cfl_guard_runs_before_any_fd_step(substeps):
    # diffusion 1.0 below grid index 2 and 0.05 from there: the substeps at grid indices 4, 3 and 2
    # are monotone, and the first that reads grid index 1 is not; two controls with different
    # rates show the guard quotes the first violation in reading order, not the largest
    grid = GridConfig(4, 0.5, 1, 1)
    heat = markovian_reduction(heat_problem(grid))
    calls = []
    mp = dataclasses.replace(
        heat,
        diffusion=lambda vals, us: np.array([1.0 + u if vals.shape[-1] - 1 < 2 else 0.05 for u in us])[:, None, None],
        generator=lambda vals, *args: calls.append(vals.shape[-1] - 1) or heat.generator(vals, *args),
        terminal=lambda vals: calls.append("terminal") or heat.terminal(vals),
        controls=(0.0, 0.5),
    )
    xg = XGrid(-3.0, 3.0, 61)
    with pytest.raises(CFLError) as exc:
        markov_fd_solve(mp, xg, time_substeps=substeps)
    assert calls == []
    rates = _coefficient_table(mp, xg)[2]
    rate, dt_sub = _first_cfl_violation(mp, rates, substeps)
    assert rate < dt_sub * rates.max()
    assert str(exc.value) == (
        f"dt={dt_sub} too large for dx={xg.dx}: rate dt*max(sigma^2/dx^2 + |b|/dx) = {rate} > 1 "
        f"(explicit scheme not monotone; the automatic choice is {_auto_substeps(mp, xg)} substeps)"
    )


@pytest.mark.parametrize("bad", [-2, 0, 2.5, True])
def test_markov_fd_time_substeps_must_be_an_integer_of_at_least_1(bad):
    mp = markovian_reduction(heat_problem(GridConfig(4, 0.5, 1, 1)))
    with pytest.raises(PathError, match=re.escape(f"time_substeps must be an integer >= 1, got {bad!r}")):
        markov_fd_solve(mp, XGrid(-3.0, 3.0, 61), time_substeps=bad)


def test_markov_fd_explicit_substeps_pass_the_cap_before_any_fd_step():
    from pathhjb.control import CapacityError

    grid = GridConfig(4, 0.5, 1, 1)
    mp = markovian_reduction(heat_problem(grid))
    xg = XGrid(-3.0, 3.0, 61)
    steps_run = []
    counted = dataclasses.replace(mp, generator=lambda vals, *args: steps_run.append(vals.shape[-1] - 1) or mp.generator(vals, *args))
    with pytest.raises(CapacityError, match=re.escape("4 steps x 10000000 substeps x 61 nodes x 1 controls = 2.440e+09 node updates, over the cap 1e+08")):
        markov_fd_solve(counted, xg, time_substeps=10**7)
    blowup = dataclasses.replace(counted, drift=lambda vals, us: np.where(vals[:, :, -1] > 2.0, np.inf, 0.0))
    for substeps in (None, 1, 100):
        with pytest.raises(CapacityError, match="explicit FD solve needs finite rates"):
            markov_fd_solve(blowup, xg, substeps)
    assert steps_run == []
    auto = _auto_substeps(mp, xg)
    assert np.array_equal(markov_fd_solve(counted, xg, np.int64(auto)), markov_fd_solve(mp, xg))
    assert len(steps_run) == grid.steps * auto


def test_markov_fd_solve_reads_a_rewrapped_reduction():
    # the benchmark's traced run rewraps the four forms of the problem the reduction returns
    # with dataclasses.replace
    grid = GridConfig(4, 0.5, 1, 1)
    xg = XGrid(-3.0, 3.0, 25)
    for problem in (quartic_problem, bangbang_problem):
        mp = markovian_reduction(problem(grid))
        calls = dict.fromkeys(("drift", "diffusion", "generator", "terminal"), 0)

        def wrapped(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        rewrapped = dataclasses.replace(mp, **{name: wrapped(name, getattr(mp, name)) for name in calls})
        assert np.array_equal(markov_fd_solve(rewrapped, xg), markov_fd_solve(mp, xg))
        assert all(calls.values()), calls


def test_markov_fd_bangbang_symmetric():
    from pathhjb.presets import bangbang_problem

    grid = GridConfig(6, 0.5, 1, 1)
    mp = markovian_reduction(bangbang_problem(grid))
    xg = XGrid(-3.0, 3.0, 61)
    v = markov_fd_solve(mp, xg)
    assert v[0] == pytest.approx(v[0][::-1], abs=1e-10)


def test_markov_consistency_deterministic_instance():
    # sigma = 0, affine terminal: upwind scheme and tree are both exact
    grid = GridConfig(4, 0.5, 1, 1)
    cp = _per_path(
        drift=lambda p, u: np.array([u]),
        diffusion=lambda p, u: np.zeros((1, 1)),
        generator=lambda p, y, z, u: 0.0,
        terminal=lambda p: float(p.values[0, -1]),
        controls=(-1.0, 0.5),
        grid=grid,
    )
    p = Path.constant(0.25, 0, grid.dt)
    rep = markov_consistency(cp, p, XGrid(-3.0, 3.0, 25))
    assert rep.residual <= 1e-8


def test_markov_consistency_heat_with_history():
    grid = GridConfig(6, 0.5, 1, 1)
    cp = heat_problem(grid)
    rng = np.random.default_rng(9)
    hist = rng.normal(size=(1, 3)) * 0.5
    p = Path(hist, grid.dt)
    rep = markov_consistency(cp, p, XGrid(-4.0, 4.0, 81))
    assert rep.residual <= rep.error_bound
    # the tree side is exact for the quadratic; the FD side only pays the
    # linear-interpolation error between spatial nodes
    closed = float(p.values[0, -1]) ** 2 + (grid.horizon - p.t)
    assert abs(rep.tree_value - closed) <= 1e-12
    # same endpoint, shuffled history: identical value output
    hist2 = hist.copy()
    hist2[0, 0] += 0.7
    rep2 = markov_consistency(cp, Path(hist2, grid.dt), XGrid(-4.0, 4.0, 81))
    assert rep2.tree_value == pytest.approx(rep.tree_value, abs=1e-13)


def test_markov_consistency_quartic_refinement():
    # also the reference oracle for the markov-compare ladder at its default config
    res, rows = [], []
    for lvl in range(3):
        grid = GridConfig(4 * 2**lvl, 0.5, 1, 1)
        cp = quartic_problem(grid)
        p = Path.constant(0.4, 0, grid.dt)
        xg = XGrid(-4.0, 4.0, 40 * 2**lvl + 1)
        rep = markov_consistency(cp, p, xg)
        assert rep.residual <= rep.error_bound
        res.append(rep.residual)
        rows.append((lvl, grid.dt, xg.dx, rep.tree_value, rep.fd_value, rep.residual, rep.error_bound))
    assert res[0] > res[1] > res[2]
    assert rows == run_markov_compare(MARKOV_DEFAULT, 0)[1]
    # closed form pins the limit
    assert quartic_closed_form(0.4, 0.0, 0.5) == pytest.approx(3.0 * 0.25 + 6 * 0.16 * 0.5 + 0.4**4)


def _deterministic_problem(grid, drift=lambda p, u: np.array([u])):
    # sigma = 0, affine terminal: upwind scheme and tree are both exact
    return _per_path(
        drift=drift,
        diffusion=lambda p, u: np.zeros((1, 1)),
        generator=lambda p, y, z, u: 0.0,
        terminal=lambda p: float(p.values[0, -1]),
        controls=(-1.0, 0.5),
        grid=grid,
    )


def _pointwise_fd(cp, xg, substeps=None):
    """Reference oracle: the per-point reduction and FD loop that the whole-grid
    coefficients replaced (one constant-history path per coefficient call)."""
    g, xs, dx, nx = cp.grid, xg.nodes(), xg.dx, xg.nx
    at = lambda t, x: Path.constant(x, int(round(t / g.dt)), g.dt).values
    drift = lambda t, x, u: float(np.atleast_1d(_one_row(cp.drift, at(t, x), (u,)))[0])
    diffusion = lambda t, x, u: float(np.atleast_2d(_one_row(cp.diffusion, at(t, x), (u,)))[0, 0])
    terminal = lambda x: float(_one_row(cp.terminal, at(g.horizon, x)))
    rates = lambda t, u: np.array([diffusion(t, x, u) ** 2 / dx**2 + abs(drift(t, x, u)) / dx for x in xs])
    worst = max(float(rates(t, u).max()) for t in np.linspace(0.0, g.horizon, 5) for u in cp.controls)
    if substeps is None:
        substeps = max(1, int(np.ceil(g.dt * worst / 0.9))) if worst > 0 else 1
    dt_sub = g.dt / substeps
    out = np.empty((g.steps + 1, nx))
    out[g.steps] = [terminal(x) for x in xs]
    v = out[g.steps].copy()
    for k in range(g.steps - 1, -1, -1):
        for s in range(substeps):
            t = (k + 1) * g.dt - s * dt_sub
            fwd, bwd, snd = np.empty(nx), np.empty(nx), np.empty(nx)
            fwd[:-1] = (v[1:] - v[:-1]) / dx
            fwd[-1] = (v[-1] - v[-2]) / dx
            bwd[1:] = (v[1:] - v[:-1]) / dx
            bwd[0] = (v[1] - v[0]) / dx
            snd[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / dx**2
            snd[0] = (v[2] - 2 * v[1] + v[0]) / dx**2
            snd[-1] = (v[-1] - 2 * v[-2] + v[-3]) / dx**2
            best = np.full(nx, -np.inf)
            for u in cp.controls:
                b = np.array([drift(t, x, u) for x in xs])
                sig = np.array([diffusion(t, x, u) for x in xs])
                dvx = np.where(b >= 0, fwd, bwd)
                ham = b * dvx + 0.5 * sig**2 * snd
                ham += np.array([float(_one_row(cp.generator, at(t, xs[i]), v[i : i + 1], np.array([[sig[i] * dvx[i]]]), (u,))) for i in range(nx)])
                best = np.maximum(best, ham)
            v = v + dt_sub * best
        out[k] = v
    mags = [max(abs(drift(0.0, x, u)) for x in xs) for u in cp.controls]
    mags += [max(diffusion(0.0, x, u) ** 2 for x in xs) for u in cp.controls]
    scale = max(1.0, *mags) * max(1.0, max(abs(terminal(x)) for x in xs))
    return out, substeps, 10.0 * scale


_ORACLE_CASES = {
    "heat": heat_problem,
    "quartic": quartic_problem,
    "lq": lq_problem,
    "bangbang": bangbang_problem,
    "sigma0": _deterministic_problem,
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_markov_fd_solve_equals_pointwise_oracle(name):
    grid = GridConfig(4, 0.5, 1, 1)
    cp = _ORACLE_CASES[name](grid)
    xg = XGrid(-3.0, 3.0, 25)
    ref, substeps, _ = _pointwise_fd(cp, xg)
    mp = markovian_reduction(cp)
    assert _auto_substeps(mp, xg) == substeps
    assert np.array_equal(markov_fd_solve(mp, xg), ref)


def test_markov_fd_solve_equals_pointwise_oracle_with_time_dependent_drift():
    # drift t: every substep time is quantized to its nearest grid index
    grid = GridConfig(4, 0.5, 1, 1)
    cp = _deterministic_problem(grid, drift=lambda p, u: np.array([u * p.t]))
    xg = XGrid(-3.0, 3.0, 25)
    for substeps in (1, 2, 3, 5):
        ref, _, _ = _pointwise_fd(cp, xg, substeps)
        assert np.array_equal(markov_fd_solve(markovian_reduction(cp), xg, substeps), ref)


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_markov_consistency_equals_pointwise_oracle(name):
    grid = GridConfig(4, 0.5, 1, 1)
    cp = _ORACLE_CASES[name](grid)
    xg = XGrid(-3.0, 3.0, 25)
    p = Path(np.array([[0.1, -0.3]]), grid.dt)
    ref, substeps, bound_const = _pointwise_fd(cp, xg)
    tree_v = value(cp, p)
    fd_v = float(np.interp(-0.3, xg.nodes(), ref[1]))
    bound = bound_const * (grid.dt + grid.dt / substeps + xg.dx**2)
    rep = markov_consistency(cp, p, xg)
    assert rep.residual == abs(tree_v - fd_v)
    assert rep.tree_value == tree_v
    assert rep.fd_value == fd_v
    assert rep.error_bound == bound


def test_markov_consistency_work_is_bounded_by_the_lattice(monkeypatch):
    grid = GridConfig(4, 0.5, 1, 1)
    base = heat_problem(grid)
    p = Path.constant(0.3, 0, grid.dt)
    xg = XGrid(-4.0, 4.0, 41)
    names = ("drift", "diffusion", "generator", "terminal", "paths")
    counts = dict.fromkeys(names, 0)
    in_tree = [False]

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += not in_tree[0]
            return fn(*args)

        return wrapper

    def tree_value(*args, **kwargs):
        in_tree[0] = True
        try:
            return value(*args, **kwargs)
        finally:
            in_tree[0] = False

    monkeypatch.setattr(Path, "__post_init__", counted("paths", Path.__post_init__))
    monkeypatch.setattr(phjb, "value", tree_value)
    cp = dataclasses.replace(base, **{name: counted(name, getattr(base, name)) for name in names[:4]})
    markovian_reduction(cp)
    # the eight probes read their two histories under all controls in one drift, diffusion
    # and generator call per distinct grid index, and one terminal call at the horizon
    probed = _probe_indices(grid, seed=0)
    assert len(probed) == 4  # seed 0 draws grid indices 4, 3, 0, 4, 4, 3, 1, 4
    assert counts["drift"] == counts["diffusion"] == counts["generator"] == len(probed)
    assert counts["terminal"] == (grid.steps in probed) and counts["paths"] == 0
    counts.update(dict.fromkeys(names, 0))
    rep = markov_consistency(cp, p, xg)
    assert rep.residual <= rep.error_bound
    # the FD solve and the bound read one table, in one coeffs call per grid index
    assert counts["drift"] == counts["diffusion"] == len(probed) + grid.steps + 1
    assert counts["paths"] == 0


def _probe_indices(grid, seed):
    """The distinct grid indices of the reduction's eight probes, drawn from ``seed``'s stream
    as the reduction draws them: grid index, endpoint, history, y and z per probe."""
    rng, ks = np.random.default_rng(seed), []
    for _ in range(8):
        ks.append(int(rng.integers(0, grid.steps + 1)))
        rng.normal(), rng.normal(size=(1, ks[-1] + 1)), rng.normal(), rng.normal(size=1)
    return set(ks)


def test_markov_consistency_runs_the_cfl_guard_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _cfl_substeps(*args)

    monkeypatch.setattr(phjb, "_cfl_substeps", counted)
    grid = GridConfig(4, 0.5, 1, 1)
    for problem in (heat_problem, bangbang_problem):
        calls.clear()
        markov_consistency(problem(grid), Path.constant(0.3, 0, grid.dt), XGrid(-4.0, 4.0, 41))
        assert len(calls) == 1 and calls[0][3] is None  # the automatic count


# a scalar, an (N, 1) column where one value per node is due, or an (N, 1) diffusion where (N, 1, 1) is
_SHAPE_CASES = {
    "scalar-terminal": ("terminal", dict(terminal=lambda vals: 1.0)),
    "column-terminal": ("terminal", dict(terminal=lambda vals: vals[:, :, -1] ** 2)),
    "scalar-generator": ("generator", dict(generator=lambda vals, y, z, us: 0.0)),
    "scalar-drift": ("drift", dict(drift=lambda vals, us: 0.0)),
    "column-diffusion": ("diffusion", dict(diffusion=lambda vals, us: np.ones((len(us), 1)))),
}


@pytest.mark.parametrize("case", sorted(_SHAPE_CASES))
def test_markov_fd_solve_needs_one_value_per_node(case):
    name, fields = _SHAPE_CASES[case]
    mp = dataclasses.replace(heat_problem(GridConfig(4, 0.5, 1, 1)), **fields)
    with pytest.raises(PathError, match=f"^{name} must return shape"):
        markov_fd_solve(mp, XGrid(-3.0, 3.0, 21))


def _stencil_fd(mp, xg, substeps=None):
    """Reference oracle: the FD loop the buffered sweep replaced, which rebuilds its stencils by
    concatenation at every substep and takes the max over U from -inf."""
    g = mp.grid
    b, sig, rates, hists = _coefficient_table(mp, xg)
    substeps = _cfl_substeps(mp, xg, rates, substeps)
    dt_sub = g.dt / substeps
    dx, nx = xg.dx, xg.nx
    out = np.empty((g.steps + 1, nx))
    out[g.steps] = mp.terminal(hists[g.steps])
    v = out[g.steps].copy()
    for k, j in phjb._substep_reads(g, substeps):
        d1 = (v[1:] - v[:-1]) / dx
        fwd, bwd = np.concatenate((d1, d1[-1:])), np.concatenate((d1[:1], d1))
        d2 = (v[2:] - 2 * v[1:-1] + v[:-2]) / dx**2
        snd = np.concatenate((d2[:1], d2, d2[-1:]))
        best = np.full(nx, -np.inf)
        for u, bj, sj in zip(mp.controls, b[j], sig[j]):
            dvx = np.where(bj >= 0, fwd, bwd)
            ham = bj * dvx + 0.5 * sj**2 * snd
            ham += mp.generator(hists[j], v, (sj * dvx)[:, None], (u,) * nx)
            best = np.maximum(best, ham)
        v = v + dt_sub * best
        out[k] = v
    return out


def _random_markov_problem(rng, n_u, steps):
    """A Markovian problem with |U| = n_u random controls of either sign, so drifts of both
    signs, time-dependent coefficients and a generator in y, z and u. Each form reads the
    grid index k and the endpoint x of its paths only."""
    controls = tuple(rng.normal(size=n_u).tolist())
    shift, tilt = rng.normal(size=2)
    k_x = lambda vals: (vals.shape[-1] - 1, vals[:, 0, -1])
    u_of = lambda us: np.asarray(us, dtype=float)

    def drift(vals, us):
        k, xs = k_x(vals)
        return (u_of(us) * np.sin(xs + shift * k) + tilt * xs)[:, None]

    def diffusion(vals, us):
        k, xs = k_x(vals)
        return ((0.3 + 0.2 * np.abs(u_of(us))) * (1.0 + 0.5 * np.cos(xs - k)))[:, None, None]

    def generator(vals, y, z, us):
        u = u_of(us)
        return -0.2 * y + u * z[:, 0] - 0.5 * u * u + 0.1 * k_x(vals)[1]

    def terminal(vals):
        xs = k_x(vals)[1]
        return np.abs(xs) + np.sin(2.0 * xs + shift)

    return ControlProblem(drift, diffusion, generator, terminal, controls, GridConfig(steps, 0.5, 1, 1))


@pytest.mark.parametrize("seed", range(12))
def test_markov_fd_solve_equals_the_stencil_loop(seed):
    rng = np.random.default_rng(seed)
    mp = _random_markov_problem(rng, n_u=1 + seed % 3, steps=int(rng.integers(1, 5)))
    xg = XGrid(-3.0, 3.0, (3, 81)[seed] if seed < 2 else int(rng.integers(3, 82)))
    auto = _auto_substeps(mp, xg)
    for substeps in (None, auto + int(rng.integers(0, 4))):
        assert np.array_equal(markov_fd_solve(mp, xg, substeps), _stencil_fd(mp, xg, substeps))


def _per_probe_verdict(cp, seed=0):
    """Reference oracle: the per-probe loop the grouped reduction replaced, as the message of
    the MarkovProbeError that markovian_reduction(cp, seed) raises, or None."""
    g = cp.grid
    rng = np.random.default_rng(seed)
    n_u = len(cp.controls)
    for _ in range(8):
        k = int(rng.integers(0, g.steps + 1))
        x = float(rng.normal())
        hist = rng.normal(size=(1, k + 1))
        hist[0, -1] = x
        pair = np.stack([hist, np.full((1, k + 1), x)])
        y, z = float(rng.normal()), rng.normal(size=1)
        us, rows = cp.controls * 2, np.repeat(pair, n_u, axis=0)
        q = np.asarray(cp.generator(rows, np.full(2 * n_u, y), np.tile(z, (2 * n_u, 1)), us), dtype=float)
        b, sig = cp.coeffs(pair, us)
        if not np.allclose(*np.split(np.column_stack((b, sig[:, 0], q)), 2), atol=1e-12):
            return "coefficients depend on the path history"
        if k == g.steps:
            phi = np.asarray(cp.terminal(pair), dtype=float)
            if abs(phi[0] - phi[1]) > 1e-12:
                return "terminal functional depends on the path history"
    return None


def _history_problem(drift=None, generator=None, terminal=None):
    """Heat-like coefficients on a 4-step grid, with history dependence only where given."""
    return _per_path(
        drift=drift or (lambda p, u: np.array([u * p.values[0, -1]])),
        diffusion=lambda p, u: np.eye(1),
        generator=generator or (lambda p, y, z, u: -0.5 * y + u * z[0]),
        terminal=terminal or (lambda p: float(p.values[0, -1]) ** 2),
        controls=(-0.5, 1.0),
        grid=GridConfig(4, 0.5, 1, 1),
    )


_HISTORY_CASES = {
    # the drift's relative history term is near the rtol of 1e-5, so 7 of the 20 seeds pass
    "drift": dict(drift=lambda p, u: np.array([p.values[0, -1] * (1.0 + 5e-6 * (p.values[0, 0] - p.values[0, -1]))])),
    "generator": dict(generator=lambda p, y, z, u: -0.5 * y + u * z[0] + 0.1 * p.values[0].mean()),
    "terminal": dict(terminal=lambda p: float(p.values[0].max())),
    # history in the drift at grid indices 1 and 2 only, and in the terminal: the earliest-drawn
    # failing probe decides the message
    "drift and terminal": dict(
        drift=lambda p, u: np.array([p.values[0].mean() if p.t_index in (1, 2) else p.values[0, -1]]),
        terminal=lambda p: float(p.values[0].max()),
    ),
}


def test_markovian_reduction_gives_the_per_probe_verdict():
    verdicts = set()
    for name, fields in _HISTORY_CASES.items():
        cp = _history_problem(**fields)
        for seed in range(20):
            ref = _per_probe_verdict(cp, seed)
            try:
                markovian_reduction(cp, seed)
                got = None
            except MarkovProbeError as exc:
                got = str(exc)
            assert got == ref, (name, seed)
            verdicts.add((name, got))
    coef, term = "coefficients depend on the path history", "terminal functional depends on the path history"
    assert verdicts == {
        ("drift", None), ("drift", coef), ("generator", coef), ("terminal", None), ("terminal", term),
        ("drift and terminal", coef), ("drift and terminal", term),
    }


_edge_floats = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-12, -1e-12, 5e-13, 1.0, -1.0])
_floats = st.one_of(_edge_floats, st.floats(allow_nan=True, allow_infinity=True))
# pairs at the tolerance's edge: b and b times 1 + r, with |r| about rtol
_near = st.tuples(st.floats(-1e3, 1e3), st.floats(-2e-5, 2e-5)).map(lambda br: (br[0] * (1.0 + br[1]), br[0]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.tuples(_floats, _floats), _near), min_size=1, max_size=16))
def test_closeness_helper_equals_np_isclose(pairs):
    a, b = np.array(pairs, dtype=float).T
    assert np.array_equal(phjb._isclose(a, b), np.isclose(a, b, 1e-5, 1e-12))


def test_comparison_psi_examples():
    g = GaugeParams(3, 3.0)
    z = Path.constant(0.0, 2, 0.25)
    w = PathFunctional(eval=lambda p: 1.0)
    assert comparison_psi(w, w, z, z, beta=10.0, eps=0.1, nu=2.0, horizon=1.0) == pytest.approx(0.0)
    c = 0.7
    w2 = PathFunctional(eval=lambda p: 1.0)
    w1 = PathFunctional(eval=lambda p: 1.0 + c)
    p = Path.constant(0.5, 2, 0.25)
    eps, nu, horizon = 0.1, 2.0, 1.0
    expected = c - 2 * eps * ((nu * horizon - p.t) / (nu * horizon)) * upsilon_single(p, g)
    assert comparison_psi(w1, w2, p, p, 10.0, eps, nu, horizon) == pytest.approx(expected)
    with pytest.raises(PathError):
        comparison_psi(w1, w2, p, Path.constant(0.5, 3, 0.25), 10.0, eps, nu, horizon)


@pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf])
def test_comparison_psi_refuses_a_bad_horizon(horizon):
    w, p = PathFunctional(eval=lambda p: 1.0), Path.constant(0.5, 2, 0.25)
    with pytest.raises(PathError, match=re.escape(f"horizon must be finite and > 0, got {horizon}")):
        comparison_psi(w, w, p, p, 10.0, 0.1, 2.0, horizon)


def test_comparison_psi_beta_ladder_shrinks_gap():
    # small version of the doubling-of-variables demo, and the reference
    # oracle for the comparison-demo runner's loop
    grid = GridConfig(3, 0.75, 1, 1)
    cp = lq_problem(grid)
    cache = {}

    def w2e(p):
        if p.key() not in cache:
            cache[p.key()] = value(cp, p)
        return cache[p.key()]

    w2 = PathFunctional(eval=w2e)
    w1 = PathFunctional(eval=lambda p: w2e(p) - 0.1)
    rng = np.random.default_rng(10)
    stacked = []
    for i in range(80):
        k = int(rng.integers(0, grid.steps + 1))
        a = random_path(rng, 1, grid.dt, k, scale=0.6)
        if i % 5 == 0:
            b = a
        else:
            b = Path(a.values - 10.0 ** rng.uniform(-1.8, -0.2), grid.dt)
        stacked.append(Path(np.vstack([a.values, b.values]), grid.dt))
    from pathhjb.gauge import upsilon
    from pathhjb.varprinciple import CandidateSet, borwein_preiss

    ladder, rows = [], []
    for beta in (10.0, 100.0, 1000.0):
        f = PathFunctional(
            eval=lambda sp, beta=beta: comparison_psi(
                w1,
                w2,
                Path._wrap(sp.values[:1], sp.dt),
                Path._wrap(sp.values[1:], sp.dt),
                beta,
                0.05,
                2.0,
                grid.horizon,
            )
        )
        start = max(stacked, key=f.eval)
        res = borwein_preiss(f, upsilon_bar, None, 1.0 / beta, start, CandidateSet(tuple(stacked)))
        a = Path._wrap(res.optimum.values[:1], res.optimum.dt)
        b = Path._wrap(res.optimum.values[1:], res.optimum.dt)
        ladder.append(beta * upsilon(a, b))
        rows.append((beta, f.eval(res.optimum), upsilon(a, b), ladder[-1]))
    assert ladder[0] >= ladder[1] >= ladder[2]
    assert rows == run_comparison_demo(dict(COMPARISON_DEFAULT, pairs=80), 10)[1]


# ---------------------------------------------------------------------------
# Reference oracle: the two probe bodies before they shared one signed body,
# and the per-path derivative dispatch before the one jet reader.


def _reference_dispatch(f, p):
    # the per-path dispatch funcalc kept before its one jet reader: (dt, dx, dxx)
    dt = float(f.analytic_dt(p)) if f.analytic_dt is not None else horizontal_derivative(f, p)
    if f.analytic_dx is not None:
        dx = np.atleast_1d(np.asarray(f.analytic_dx(p), dtype=float))
    else:
        dx = vertical_gradient(f, p)
    if f.analytic_dxx is not None:
        h = np.asarray(f.analytic_dxx(p), dtype=float)
        dxx = 0.5 * (h + h.T)
    else:
        dxx = vertical_hessian(f, p)
    return dt, dx, dxx


def _reference_probe(cp, w, test, p, cloud, touch_tol, sub):
    dt, dx, dxx = _reference_dispatch(test, p)
    if sub:
        touch = abs(w.eval(p) - test.eval(p)) <= touch_tol
        if touch:
            touch = not any(w.eval(eta) - test.eval(eta) > touch_tol for eta in cloud)
        hin = HamiltonianInput(p, test.eval(p), dx, dxx)
        return touch, dt + hamiltonian(cp, hin)[0]
    touch = abs(w.eval(p) + test.eval(p)) <= touch_tol
    if touch:
        touch = not any(w.eval(eta) + test.eval(eta) < -touch_tol for eta in cloud)
    hin = HamiltonianInput(p, -test.eval(p), -dx, -dxx)
    return touch, -dt + hamiltonian(cp, hin)[0]


def test_probes_equal_reference_bodies():
    grid = GridConfig(4, 1.0, 1, 1)
    rng = np.random.default_rng(11)
    for cp, sol in ((lq_problem(grid), lq_solution(grid)), (heat_problem(grid), heat_solution(grid))):
        for k in (0, 2):
            p = random_path(rng, 1, grid.dt, k)
            cloud = phjb._cloud(p, cp, 40, seed=k)
            bump = upsilon_bar_functional(p)
            plain = PathFunctional(eval=sol.eval)  # finite-difference derivatives
            tests = {
                True: [sol, plain, add_functionals(sol, bump), add_functionals(sol, scale_functional(bump, -1.0))],
                False: [scale_functional(sol, -1.0), scale_functional(plain, -1.0), add_functionals(scale_functional(sol, -1.0), bump)],
            }
            for sub, candidates in tests.items():
                probe = subsolution_probe if sub else supersolution_probe
                for test in candidates + [add_functionals(test, constant_functional(0.5)) for test in candidates]:
                    got = probe(cp, sol, test, p, cloud=cloud)
                    assert tuple(got) == _reference_probe(cp, sol, test, p, cloud, 1e-9, sub)
                    # the residual is the probe's s = +1 case; the generator reads the same jet
                    dt, dx, dxx = _reference_dispatch(test, p)
                    r = test.eval(p)
                    assert phjb_residual(cp, test, p) == dt + hamiltonian(cp, HamiltonianInput(p, r, dx, dxx))[0]
                    for u in cp.controls:
                        assert generator(cp, test, p, u) == dt + phjb._control_terms(cp, p, r, dx, dxx, (u,))[0]


def test_markov_consistency_checks_the_cap_before_any_work():
    from pathhjb.control import CapacityError

    grid = GridConfig(8, 0.5, 1, 1)
    base = lq_problem(grid)  # (3 * 2)^8 leaves, over the default cap
    counts = {"drift": 0, "diffusion": 0}

    def counted(name):
        fn = getattr(base, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    cp = dataclasses.replace(base, drift=counted("drift"), diffusion=counted("diffusion"))
    with pytest.raises(CapacityError):
        markov_consistency(cp, Path.constant(0.4, 0, grid.dt), XGrid(-4.0, 4.0, 81))
    assert counts == {"drift": 0, "diffusion": 0}
