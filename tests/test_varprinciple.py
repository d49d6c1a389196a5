import dataclasses
import math

import numpy as np
import pytest

from pathhjb.funcalc import PathFunctional, constant_functional
from pathhjb.gauge import upsilon, upsilon_bar
from pathhjb.pathspace import Path, PathError, horizontal_extension
from pathhjb.sampling import random_path
from pathhjb.varprinciple import CandidateSet, borwein_preiss, verify_bp


def _domain(rng, n=120, max_k=6, dt=0.1):
    items = tuple(random_path(rng, 1, dt, int(rng.integers(0, max_k + 1))) for _ in range(n))
    return CandidateSet(items)


def _tanh_objective(coefs):
    return PathFunctional(
        eval=lambda p: float(
            coefs[0] * np.tanh(p.values[0, -1])
            + coefs[1] * np.cos(p.t)
            + coefs[2] * np.tanh(p.values[0].mean())
        )
    )


def test_candidate_set_validation():
    with pytest.raises(PathError):
        CandidateSet(())
    p = Path.constant(0.0, 2, 0.1)
    q = Path.constant(0.0, 2, 0.2)
    with pytest.raises(PathError):
        CandidateSet((p, q))


def test_unique_maximizer_collapses_in_one_round():
    rng = np.random.default_rng(0)
    domain = _domain(rng)
    f = _tanh_objective([1.0, 0.3, 0.2])
    start = max(domain.items, key=f.eval)  # the unique maximizer, eps-maximal for any eps
    res = borwein_preiss(f, upsilon_bar, None, 1e-3, start, domain)
    assert res.optimum == start
    assert res.rounds == 1
    assert verify_bp(res, f, upsilon_bar, None, 1e-3, start, domain)


def test_constant_objective_degenerate():
    rng = np.random.default_rng(1)
    domain = _domain(rng)
    f = PathFunctional(eval=lambda p: 2.5)
    start = domain.items[0]
    res = borwein_preiss(f, upsilon_bar, None, 0.5, start, domain)
    # property (ii) holds with equality at the start point
    assert res.optimum == start
    assert res.perturbation_value == 0.0
    assert verify_bp(res, f, upsilon_bar, None, 0.5, start, domain)


def test_random_objectives_sweep():
    rng = np.random.default_rng(2)
    for _ in range(30):
        domain = _domain(rng, n=200)
        f = _tanh_objective(rng.normal(size=3))
        start = max(domain.items, key=f.eval)
        res = borwein_preiss(f, upsilon_bar, None, 0.5, start, domain)
        assert verify_bp(res, f, upsilon_bar, None, 0.5, start, domain)


def test_trajectory_times_monotone():
    rng = np.random.default_rng(3)
    for _ in range(20):
        domain = _domain(rng)
        f = _tanh_objective(rng.normal(size=3))
        start = max(domain.items, key=f.eval)
        res = borwein_preiss(f, upsilon_bar, None, 0.3, start, domain)
        times = [p.t_index for p in res.trajectory]
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert res.trajectory[-1].t_index == res.optimum.t_index


def test_gauge_distance_decay_along_trajectory():
    rng = np.random.default_rng(4)
    domain = _domain(rng, n=200)
    f = _tanh_objective([0.8, -0.4, 0.5])
    start = max(domain.items, key=f.eval)
    eps = 0.5
    res = borwein_preiss(f, upsilon_bar, None, eps, start, domain)
    for i, pt in enumerate(res.trajectory):
        assert upsilon_bar(pt, res.optimum) <= eps / 2.0**i + 1e-10


def test_mutated_optimum_fails_verification():
    rng = np.random.default_rng(5)
    domain = _domain(rng, n=150)
    f = _tanh_objective([1.2, 0.1, -0.3])
    start = max(domain.items, key=f.eval)
    res = borwein_preiss(f, upsilon_bar, None, 0.4, start, domain)
    worse = [p for p in domain.at_or_after(res.optimum.t_index) if p != res.optimum]
    assert worse
    fake = dataclasses.replace(res, optimum=worse[0])
    assert not verify_bp(fake, f, upsilon_bar, None, 0.4, start, domain)


def test_decreasing_time_in_trajectory_fails_verification():
    rng = np.random.default_rng(6)
    domain = _domain(rng, n=150)
    f = _tanh_objective([0.9, 0.2, 0.1])
    start = max((p for p in domain.items if p.t_index >= 2), key=f.eval)
    res = borwein_preiss(f, upsilon_bar, None, 0.4, start, domain)
    early = min(domain.items, key=lambda p: p.t_index)
    assert early.t_index < res.trajectory[-1].t_index
    fake = dataclasses.replace(res, trajectory=res.trajectory + (early,))
    assert not verify_bp(fake, f, upsilon_bar, None, 0.4, start, domain)


def test_bad_start_rejected():
    rng = np.random.default_rng(7)
    domain = _domain(rng)
    f = _tanh_objective([1.0, 0.5, 0.2])
    start = min(domain.items, key=f.eval)
    span = max(f.eval(p) for p in domain.items) - f.eval(start)
    if span > 1e-3:
        with pytest.raises(PathError):
            borwein_preiss(f, upsilon_bar, None, span / 10.0, start, domain)


def test_unbounded_objective_detected():
    rng = np.random.default_rng(8)
    domain = _domain(rng, n=20)
    f = PathFunctional(eval=lambda p: float("inf") if p.t_index > 0 else 0.0)
    start = domain.items[0]
    with pytest.raises(PathError):
        borwein_preiss(f, upsilon_bar, None, 0.5, start, domain)


def test_explicit_deltas_and_exhaustion():
    rng = np.random.default_rng(9)
    domain = _domain(rng, n=60)
    f = _tanh_objective([0.7, 0.3, 0.4])
    start = max(domain.items, key=f.eval)
    res = borwein_preiss(f, upsilon_bar, [1.0, 0.5, 0.25, 0.125], 0.5, start, domain)
    assert verify_bp(res, f, upsilon_bar, [1.0, 0.5, 0.25, 0.125], 0.5, start, domain)
    with pytest.raises(PathError):
        borwein_preiss(f, upsilon_bar, [1.0], 0.5, start, domain)


def test_shrinking_sets_nested_and_rho_bounded():
    rng = np.random.default_rng(11)
    for _ in range(10):
        domain = _domain(rng, n=150)
        f = _tanh_objective(rng.normal(size=3))
        start = max(domain.items, key=f.eval)
        eps = 0.5
        res = borwein_preiss(f, upsilon_bar, None, eps, start, domain, keep_sets=True)
        sets = res.sets
        assert sets is not None and all(len(s) >= 1 for s in sets)
        for earlier, later in zip(sets, sets[1:]):
            earlier_keys = {p.key() for p in earlier}
            assert all(p.key() in earlier_keys for p in later)
        # members of the i-th shrunk set stay rho-close to the i-th pick
        for i, members in enumerate(sets[1:], start=1):
            pick = res.trajectory[i]
            for p in members:
                assert upsilon_bar(pick, p) <= eps / 2.0**i + 1e-10


def test_duplicate_candidates_are_collapsed():
    rng = np.random.default_rng(10)
    base = random_path(rng, 1, 0.1, 3)
    items = (base, base, Path(base.values * 0.5, 0.1))
    domain = CandidateSet(items)
    f = PathFunctional(eval=lambda p: float(p.values[0, -1]))
    start = max(items, key=f.eval)
    res = borwein_preiss(f, upsilon_bar, None, 0.5, start, domain)
    assert verify_bp(res, f, upsilon_bar, None, 0.5, start, domain)


def test_a_candidate_set_keeps_each_path_once_and_f_reads_it_once():
    rng = np.random.default_rng(15)
    a, b = random_path(rng, 1, 0.1, 2), random_path(rng, 1, 0.1, 3)
    zero, signed = Path.constant(0.0, 2, 0.1), Path.constant(-0.0, 2, 0.1)  # bit-distinct
    domain = CandidateSet((a, b, Path(a.values, 0.1), zero, b, signed, zero))
    assert domain.items == (a, b, zero, signed) and domain.items[0] is a
    reads = []
    f = PathFunctional(eval=lambda p: reads.append(p) or float(p.values[0, -1]))
    res = borwein_preiss(f, upsilon_bar, None, 10.0, a, domain)
    assert reads == [a, b, zero, signed, a]  # each candidate, then the start
    assert verify_bp(res, f, upsilon_bar, None, 10.0, a, domain)


def test_verify_reads_the_signed_zero_twin_of_the_optimum():
    # f tells -0.0 from +0.0, and so do the construction and the check: an optimum
    # beaten by its twin fails (iii), where value equality would have skipped the twin
    plus, minus = Path.constant(0.0, 1, 0.1), Path.constant(-0.0, 1, 0.1)
    domain = CandidateSet((minus, plus))
    f = PathFunctional(eval=lambda p: math.copysign(1.0, p.values[0, -1]))
    res = borwein_preiss(f, upsilon_bar, None, 10.0, plus, domain)
    assert res.optimum is plus and verify_bp(res, f, upsilon_bar, None, 10.0, plus, domain)
    wrong = dataclasses.replace(res, optimum=minus, trajectory=(minus,))
    assert not verify_bp(wrong, f, upsilon_bar, None, 10.0, minus, domain)


def test_flat_gauge_runs_rounds_down_to_the_diameter_floor():
    # upsilon is 0 between a path and its horizontal extensions, so no round
    # can isolate a candidate: the set only shrinks through the diameter bound
    start = random_path(np.random.default_rng(12), 1, 0.1, 2)
    domain = CandidateSet((start,) + tuple(horizontal_extension(start, k) for k in range(3, 7)))
    f = constant_functional(0.0)
    res = borwein_preiss(f, upsilon, None, 0.5, start, domain)
    assert res.rounds == 39  # first i with 0.5 / 2^i below the 1e-12 floor
    assert res.tail_bound == 0.5 / 2.0**39 < 1e-12
    assert res.optimum == start
    assert verify_bp(res, f, upsilon, None, 0.5, start, domain)
    with pytest.raises(PathError, match="failed to settle"):
        borwein_preiss(f, upsilon, None, 1e30, start, domain)


def test_initial_set_reads_rho_once_per_candidate():
    # a start outside the candidates; deltas of length 1 stop the run at round 1,
    # before its shrink step reads rho, so every read seen is B_0's or the check's
    rng = np.random.default_rng(13)
    domain = _domain(rng, n=40)
    f = _tanh_objective([1.0, 0.3, 0.2])
    start = Path.constant(-1.0, 0, 0.1)
    seen = []

    def counting(a, b):
        seen.append((a.key(), b.key()))
        return 1e-3 * upsilon_bar(a, b)

    with pytest.raises(PathError, match="deltas sequence exhausted at round 1"):
        borwein_preiss(f, counting, [1.0], 10.0, start, domain)
    unique = list(dict.fromkeys(p.key() for p in domain.items))
    assert seen == [(start.key(), start.key())] + [(start.key(), k) for k in unique]
    survivors = [p for p in domain.items if f.eval(p) - 1e-3 * upsilon_bar(start, p) >= f.eval(start)]
    assert 0 < len(survivors) < len(unique)  # B_0 kept some candidates and dropped others


def test_empty_initial_set_is_a_path_error():
    # a start outside the candidates whose objective beats all of them
    rng = np.random.default_rng(14)
    domain = _domain(rng, n=10)
    start = Path.constant(5.0, 0, 0.1)
    f = PathFunctional(eval=lambda p: float(p.values[0, -1]))
    with pytest.raises(PathError, match="initial set B_0 is empty"):
        borwein_preiss(f, upsilon_bar, None, 100.0, start, domain)
