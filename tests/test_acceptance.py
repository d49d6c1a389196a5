"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not configurable. Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines and timings.
"""

import itertools
import time

import numpy as np

from pathhjb.cli import (
    BP_DEFAULT,
    COMPARISON_DEFAULT,
    GAUGE_DEFAULT,
    ITO_DEFAULT,
    MARKOV_DEFAULT,
    run_bp_demo,
    run_comparison_demo,
    run_gauge_suite,
    run_ito_check,
    run_markov_compare,
)
from pathhjb.control import ControlProblem, ControlStrategy, cost, dpp_check, value
from pathhjb.funcalc import bump_size, endpoint_functional, ito_check, vertical_gradient, vertical_hessian
from pathhjb.gauge import GaugeParams, grad_power, grad_s, hess_power, hess_s, s_functional
from pathhjb.pathspace import GridConfig, Path, _joint_gap
from pathhjb.phjb import phjb_residual, subsolution_probe
from pathhjb.presets import (
    heat_problem,
    heat_solution,
    lq_problem,
    martingale_problem,
    martingale_solution,
    random_augmented_problem,
    random_problem,
    running_cost_problem,
    running_cost_solution,
)
from pathhjb.bshjb import remark64_check
from pathhjb.sampling import random_path


def _report(num, ok, detail, started, budget):
    elapsed = time.time() - started
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.1f}s of {budget}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_gauge_pinch_bound():
    started = time.time()
    _, rows, _, _ = run_gauge_suite(GAUGE_DEFAULT, 101)
    worst = min(min(row[3:5]) for row in rows)
    _report(1, worst >= -1e-12, f"worst pinch slack {worst:.2e} >= -1e-12", started, 5.0)


def test_criterion_02_gauge_subadditivity():
    started = time.time()
    _, rows, _, _ = run_gauge_suite(GAUGE_DEFAULT, 102)
    worst = min(row[5] for row in rows)
    _report(2, worst >= -1e-12, f"worst subadditivity gap {worst:.2e} >= -1e-12", started, 5.0)


def _nonboundary_point(rng, scale=0.5):
    while True:
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        anchor = Path(rng.normal(size=(d, k + 1)) * scale, 0.25)
        p = Path(rng.normal(size=(d, k + 3)) * scale, 0.25)
        diff_last = p.values[:, -1] - anchor.values[:, -1]
        e = float(np.sqrt((diff_last**2).sum()))
        ext = np.concatenate([anchor.values, np.tile(anchor.values[:, -1:], (1, 2))], axis=1)
        interior = float(np.sqrt(((p.values[:, :-1] - ext[:, :-1]) ** 2).sum(axis=0)).max())
        big = _joint_gap(p, anchor)
        if big < 1e-8 or e < 1e-6:
            continue
        if abs(e - interior) > max(10 * bump_size(p), 0.05 * (1.0 + big)):
            return p, anchor


def test_criterion_03_closed_form_derivatives():
    started = time.time()
    rng = np.random.default_rng(103)
    worst_grad = 0.0
    worst_hess = 0.0
    for i in range(1000):
        m = int(rng.integers(1, 4))
        g = GaugeParams(m, 3.0)
        p, anchor = _nonboundary_point(rng)
        if i % 2 == 0:
            f = s_functional(anchor, g)
            an_g, an_h = grad_s(p, anchor, g), hess_s(p, anchor, g)
        else:
            a = anchor.values[:, -1]
            f = endpoint_functional(lambda x, a=a, m=m: float(np.linalg.norm(x - a) ** (2 * m)))
            an_g, an_h = grad_power(p, a, m), hess_power(p, a, m)
        fd_g = vertical_gradient(f, p)
        fd_h = vertical_hessian(f, p)
        worst_grad = max(worst_grad, np.linalg.norm(an_g - fd_g) / max(1.0, np.linalg.norm(an_g)))
        worst_hess = max(worst_hess, np.linalg.norm(an_h - fd_h) / max(1.0, np.linalg.norm(an_h)))
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-4
    _report(3, ok, f"worst grad rel {worst_grad:.2e} <= 1e-6, worst hess rel {worst_hess:.2e} <= 1e-4", started, 10.0)


def test_criterion_04_chain_rule_refinement():
    started = time.time()
    # the square functional on 8, 16 and 32 steps of [0, 1], seeds 104, 105, 106
    _, rows, _, _ = run_ito_check(dict(ITO_DEFAULT, n_paths=10000), 104)
    ratios = [row[4] for row in rows[1:]]
    # halving within +-30%: each refinement ratio inside [0.5 - 0.3, 0.5 + 0.3]
    ratios_ok = all(0.2 <= r <= 0.8 for r in ratios)
    affine = endpoint_functional(
        lambda x: 2.0 * float(x[0]) - 0.7,
        grad=lambda x: np.array([2.0]),
        hess=lambda x: np.zeros((1, 1)),
    )
    zero_drift = lambda p: np.zeros(1)  # noqa: E731
    unit_diffusion = lambda p: np.eye(1)  # noqa: E731
    aff_res = ito_check(affine, zero_drift, unit_diffusion, Path.constant(0.3, 0, 1.0 / 16), 16, 2000, seed=107)
    ok = ratios_ok and aff_res <= 1e-10
    _report(
        4,
        ok,
        f"refinement ratios {ratios[0]:.3f}, {ratios[1]:.3f} in [0.2, 0.8]; affine residual {aff_res:.1e} <= 1e-10",
        started,
        30.0,
    )


def test_criterion_05_perturbed_maximization():
    started = time.time()
    # 100 objectives, each over 200 random paths of up to 7 nodes, eps 0.5
    _, rows, _, _ = run_bp_demo(dict(BP_DEFAULT, cases=100), 105)
    failures = sum(not row[4] for row in rows)
    _report(5, failures == 0, f"{100 - failures}/100 objectives verified by exhaustive scan", started, 20.0)


def test_criterion_06_dynamic_programming_identity():
    started = time.time()
    worst = 0.0
    grid = GridConfig(4, 1.0, 1, 1)
    lq = lq_problem(grid)
    p0 = Path.constant(0.0, 0, grid.dt)
    for delta in (1, 2, 3):
        worst = max(worst, dpp_check(lq, p0, delta))
    rng = np.random.default_rng(106)
    for s in range(20):
        cp = random_problem(grid, seed=1060 + s)
        start = Path.constant(float(rng.normal() * 0.3), 0, grid.dt)
        for delta in (1, 2, 3):
            worst = max(worst, dpp_check(cp, start, delta))
    _report(6, worst <= 1e-10, f"worst DPP residual {worst:.2e} <= 1e-10 (LQ + 20 random instances)", started, 30.0)


def test_criterion_07_value_vs_enumeration():
    started = time.time()
    grid = GridConfig(4, 1.0, 1, 1)
    lq = lq_problem(grid)
    p0 = Path.constant(0.0, 0, grid.dt)
    v = value(lq, p0)
    best = max(
        cost(lq, p0, ControlStrategy(open_loop=seq))
        for seq in itertools.product(lq.controls, repeat=4)
    )
    eq_gap = abs(v - best)
    dominated = True
    for s in range(5):
        cp = random_problem(grid, seed=1070 + s)
        start = Path.constant(0.1, 0, grid.dt)
        vv = value(cp, start)
        for seq in itertools.product(cp.controls, repeat=4):
            if vv < cost(cp, start, ControlStrategy(open_loop=seq)) - 1e-10:
                dominated = False
    ok = eq_gap <= 1e-10 and dominated
    _report(
        7,
        ok,
        f"path-independent-argmax gap {eq_gap:.2e} <= 1e-10; value dominates all open loops",
        started,
        60.0,
    )


def test_criterion_08_markovian_consistency():
    started = time.time()
    # three levels: 4, 8, 16 steps on [0, 0.5], 41, 81, 161 x nodes on [-4, 4], x0 = 0.4
    _, heat_rows, _, _ = run_markov_compare(dict(MARKOV_DEFAULT, preset="heat"), 0)
    _, quartic_rows, _, _ = run_markov_compare(dict(MARKOV_DEFAULT, preset="quartic"), 0)
    closed = 0.4**2 + 0.5
    heat_ok = all(row[5] <= row[6] and abs(row[3] - closed) <= 1e-12 for row in heat_rows)
    heat_residuals = [row[5] for row in heat_rows]
    quartic_residuals = [row[5] for row in quartic_rows]
    # monotone refinement: strict on the quartic (genuine discretization
    # error), non-increase up to a noise floor on the machine-exact heat case
    noise_floor = 1e-10
    heat_trend = all(
        b <= max(a, noise_floor) for a, b in zip(heat_residuals, heat_residuals[1:])
    )
    quartic_trend = quartic_residuals[0] > quartic_residuals[1] > quartic_residuals[2]
    ok = heat_ok and heat_trend and quartic_trend
    _report(
        8,
        ok,
        "heat residual within bound and at closed form; quartic ladder "
        + " > ".join(f"{r:.2e}" for r in quartic_residuals),
        started,
        60.0,
    )


def test_criterion_09_classical_viscosity_consistency():
    started = time.time()
    grid = GridConfig(6, 0.75, 1, 1)
    rng = np.random.default_rng(109)
    worst_res = 0.0
    worst_probe = np.inf
    for problem, solution in (
        (martingale_problem, martingale_solution),
        (running_cost_problem, running_cost_solution),
        (heat_problem, heat_solution),
    ):
        cp = problem(grid)
        sol = solution(grid)
        for i in range(100):
            p = random_path(rng, 1, grid.dt, int(rng.integers(0, grid.steps)))
            worst_res = max(worst_res, abs(phjb_residual(cp, sol, p)))
            if i % 20 == 0:
                probe = subsolution_probe(cp, sol, sol, p, n_cloud=1000, seed=1090 + i)
                assert probe.is_touch_point
                worst_probe = min(worst_probe, probe.residual)
    ok = worst_res <= 1e-8 and worst_probe >= -1e-8
    _report(
        9,
        ok,
        f"max classical residual {worst_res:.2e} <= 1e-8; min probe residual {worst_probe:.2e} >= -1e-8",
        started,
        20.0,
    )


def test_criterion_10_reduction_identity():
    started = time.time()
    rng = np.random.default_rng(110)
    worst = 0.0
    for s in range(20):
        ap = random_augmented_problem(6, 0.75, seed=1100 + s)
        omega = random_path(rng, 1, 0.75 / 6, int(rng.integers(0, 3)))
        worst = max(worst, remark64_check(ap, omega))
    _report(10, worst <= 1e-10, f"worst reduction residual {worst:.2e} <= 1e-10 (20 instances)", started, 20.0)


def test_criterion_11_doubling_of_variables_ladder():
    started = time.time()
    # LQ value pairs (w1 = w2 - 0.1) on 3 steps of [0, 0.75], 500 pairs, beta 10, 100, 1000
    _, rows, _, _ = run_comparison_demo(COMPARISON_DEFAULT, 111)
    ladder = [row[3] for row in rows]
    ok = ladder[0] >= ladder[1] >= ladder[2]
    _report(
        11,
        ok,
        "beta * gauge gap non-increasing: " + " >= ".join(f"{x:.2e}" for x in ladder),
        started,
        60.0,
    )


def test_criterion_12_stability_under_coefficient_perturbation():
    started = time.time()
    grid = GridConfig(4, 1.0, 1, 1)
    base = random_problem(grid, seed=112, n_controls=2)

    def perturbed(eps):
        return ControlProblem(
            drift=lambda vals, us: np.asarray(base.drift(vals, us)) + eps,
            diffusion=lambda vals, us: np.asarray(base.diffusion(vals, us)) + eps,
            generator=lambda vals, y, z, us: base.generator(vals, y, z, us) + eps,
            terminal=lambda vals: base.terminal(vals) + eps,
            controls=base.controls,
            grid=grid,
        )

    rng = np.random.default_rng(1120)
    paths = [random_path(rng, 1, grid.dt, int(rng.integers(0, grid.steps)), scale=0.5) for _ in range(100)]
    base_values = {p.key(): value(base, p) for p in paths}
    constants = []
    for eps in (1e-1, 1e-2, 1e-3):
        cp_eps = perturbed(eps)
        sup_gap = max(abs(value(cp_eps, p) - base_values[p.key()]) for p in paths)
        constants.append(sup_gap / eps)
    spread = max(constants) / min(constants)
    ok = all(np.isfinite(c) and c > 0 for c in constants) and spread <= 2.0
    _report(
        12,
        ok,
        "fitted C per eps ladder: " + ", ".join(f"{c:.3f}" for c in constants) + f" (spread {spread:.2f} <= 2)",
        started,
        60.0,
    )
