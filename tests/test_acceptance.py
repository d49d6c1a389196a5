"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not configurable. Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines and timings.
"""

import itertools
import time

import numpy as np
import pytest

from pathhjb.control import ControlProblem, ControlStrategy, cost, dpp_check, value
from pathhjb.funcalc import (
    FDScheme,
    PathFunctional,
    endpoint_functional,
    ito_check,
    vertical_gradient,
    vertical_hessian,
)
from pathhjb.gauge import (
    GaugeParams,
    grad_power,
    grad_s,
    hess_power,
    hess_s,
    pair_sweep,
    s_functional,
    upsilon,
    upsilon_bar,
)
from pathhjb.pathspace import GridConfig, Path, _joint_gap
from pathhjb.phjb import XGrid, comparison_psi, markov_consistency, phjb_residual, subsolution_probe
from pathhjb.presets import (
    heat_problem,
    heat_solution,
    lq_problem,
    martingale_problem,
    martingale_solution,
    quartic_problem,
    random_augmented_problem,
    random_problem,
    running_cost_problem,
    running_cost_solution,
)
from pathhjb.bshjb import remark64_check
from pathhjb.sampling import random_path
from pathhjb.varprinciple import CandidateSet, borwein_preiss, verify_bp


def _report(num, ok, detail, started, budget):
    elapsed = time.time() - started
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.1f}s of {budget}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_gauge_pinch_bound():
    started = time.time()
    rng = np.random.default_rng(101)
    worst = np.inf
    for m in (1, 2, 3):
        for big_m in (3.0, 5.0):
            lower, upper, _ = pair_sweep(rng, GaugeParams(m, big_m), 10000, 1, 0.125, 8, scale=0.5)
            worst = min(worst, lower.min(), upper.min())
    _report(1, worst >= -1e-12, f"worst pinch slack {worst:.2e} >= -1e-12", started, 5.0)


def test_criterion_02_gauge_subadditivity():
    started = time.time()
    rng = np.random.default_rng(102)
    worst = np.inf
    for m in (1, 2, 3):
        for big_m in (3.0, 5.0):
            _, _, gaps = pair_sweep(rng, GaugeParams(m, big_m), 10000, 1, 0.125, 8, scale=0.5)
            worst = min(worst, gaps.min())
    _report(2, worst >= -1e-12, f"worst subadditivity gap {worst:.2e} >= -1e-12", started, 5.0)


def _nonboundary_point(rng, scheme, scale=0.5):
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
        if abs(e - interior) > max(10 * scheme.bump_size(p), 0.05 * (1.0 + big)):
            return p, anchor


def test_criterion_03_closed_form_derivatives():
    started = time.time()
    rng = np.random.default_rng(103)
    scheme = FDScheme()
    worst_grad = 0.0
    worst_hess = 0.0
    for i in range(1000):
        m = int(rng.integers(1, 4))
        g = GaugeParams(m, 3.0)
        p, anchor = _nonboundary_point(rng, scheme)
        if i % 2 == 0:
            f = s_functional(anchor, g)
            an_g, an_h = grad_s(p, anchor, g), hess_s(p, anchor, g)
        else:
            a = anchor.values[:, -1]
            f = endpoint_functional(lambda x, a=a, m=m: float(np.linalg.norm(x - a) ** (2 * m)))
            an_g, an_h = grad_power(p, a, m), hess_power(p, a, m)
        fd_g = vertical_gradient(f, p, scheme)
        fd_h = vertical_hessian(f, p, scheme)
        worst_grad = max(worst_grad, np.linalg.norm(an_g - fd_g) / max(1.0, np.linalg.norm(an_g)))
        worst_hess = max(worst_hess, np.linalg.norm(an_h - fd_h) / max(1.0, np.linalg.norm(an_h)))
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-4
    _report(3, ok, f"worst grad rel {worst_grad:.2e} <= 1e-6, worst hess rel {worst_hess:.2e} <= 1e-4", started, 10.0)


def test_criterion_04_chain_rule_refinement():
    started = time.time()
    square = endpoint_functional(
        lambda x: float(x[0]) ** 2, grad=lambda x: 2.0 * x, hess=lambda x: 2.0 * np.eye(1)
    )
    zero_drift = lambda p: np.zeros(1)  # noqa: E731
    unit_diffusion = lambda p: np.eye(1)  # noqa: E731
    residuals = []
    for level, steps in enumerate((8, 16, 32)):
        p0 = Path.constant(0.0, 0, 1.0 / steps)
        residuals.append(
            ito_check(square, zero_drift, unit_diffusion, p0, steps, n_paths=10000, seed=104 + level)
        )
    ratios = [residuals[i + 1] / residuals[i] for i in range(2)]
    # halving within +-30%: each refinement ratio inside [0.5 - 0.3, 0.5 + 0.3]
    ratios_ok = all(0.2 <= r <= 0.8 for r in ratios)
    affine = endpoint_functional(
        lambda x: 2.0 * float(x[0]) - 0.7,
        grad=lambda x: np.array([2.0]),
        hess=lambda x: np.zeros((1, 1)),
    )
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
    rng = np.random.default_rng(105)
    failures = 0
    for _ in range(100):
        items = tuple(
            random_path(rng, 1, 0.1, int(rng.integers(0, 7))) for _ in range(200)
        )
        domain = CandidateSet(items)
        c = rng.normal(size=3)
        f = PathFunctional(
            eval=lambda p, c=c: float(
                c[0] * np.tanh(p.values[0, -1]) + c[1] * np.cos(p.t) + c[2] * np.tanh(p.values[0].mean())
            )
        )
        start = max(items, key=f.eval)
        eps = 0.5
        res = borwein_preiss(f, upsilon_bar, None, eps, start, domain)
        if not verify_bp(res, f, upsilon_bar, None, eps, start, domain):
            failures += 1
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
    heat_ok = True
    heat_residuals = []
    quartic_residuals = []
    for lvl in range(3):
        grid = GridConfig(4 * 2**lvl, 0.5, 1, 1)
        xg = XGrid(-4.0, 4.0, 40 * 2**lvl + 1)
        p = Path.constant(0.4, 0, grid.dt)
        rep_h = markov_consistency(heat_problem(grid), p, xg)
        closed = 0.4**2 + grid.horizon
        heat_ok &= rep_h.residual <= rep_h.error_bound and abs(rep_h.tree_value - closed) <= 1e-12
        heat_residuals.append(rep_h.residual)
        rep_q = markov_consistency(quartic_problem(grid), p, xg)
        quartic_residuals.append(rep_q.residual)
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
    grid = GridConfig(3, 0.75, 1, 1)
    cp = lq_problem(grid)
    cache = {}

    def w2e(p):
        key = p.key()
        if key not in cache:
            cache[key] = value(cp, p)
        return cache[key]

    w2 = PathFunctional(eval=w2e)
    w1 = PathFunctional(eval=lambda p: w2e(p) - 0.1)  # Lipschitz, w1 <= w2
    rng = np.random.default_rng(111)
    stacked = []
    for i in range(500):
        k = int(rng.integers(0, grid.steps + 1))
        a = random_path(rng, 1, grid.dt, k, scale=0.6)
        b = a if i % 5 == 0 else Path(a.values - 10.0 ** rng.uniform(-1.8, -0.2), grid.dt)
        stacked.append(Path(np.vstack([a.values, b.values]), grid.dt))
    domain = CandidateSet(tuple(stacked))
    ladder = []
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
        res = borwein_preiss(f, upsilon_bar, None, 1.0 / beta, start, domain)
        a = Path._wrap(res.optimum.values[:1], res.optimum.dt)
        b = Path._wrap(res.optimum.values[1:], res.optimum.dt)
        ladder.append(beta * upsilon(a, b))
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
            drift=lambda p, u: np.asarray(base.drift(p, u)) + eps,
            diffusion=lambda p, u: np.asarray(base.diffusion(p, u)) + eps,
            generator=lambda p, y, z, u: base.generator(p, y, z, u) + eps,
            terminal=lambda p: base.terminal(p) + eps,
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
