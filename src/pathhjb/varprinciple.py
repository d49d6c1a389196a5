"""Constructive perturbed-maximization principle over finite candidate sets.

Given an objective f, a gauge function rho, a near-maximal start point and a
finite set of candidate paths, the construction iterates

    pick gamma^i maximizing  f - sum_{k<i} delta_k rho(gamma^k, .)  over B_{i-1},
    shrink B_i = { p in B_{i-1}, time(p) >= t_i :
                   f(p) - sum_{k<=i} delta_k rho(gamma^k, p)
                   >= f(gamma^i) - sum_{k<i} delta_k rho(gamma^k, gamma^i) },

starting from B_0 = {p : f(p) - delta_0 rho(start, p) >= f(start)} restricted
to candidates no earlier than the start. It terminates when B_i is a
singleton or the rho-diameter bound eps / (2^i delta_0) drops below a floor.
The returned point maximizes the perturbed objective strictly over all
later-or-equal-time candidates, with a trajectory of non-decreasing times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .pathspace import Path, PathError
from .funcalc import PathFunctional

__all__ = ["CandidateSet", "BPResult", "borwein_preiss", "verify_bp"]

DIAMETER_FLOOR = 1e-12
_MAX_ROUNDS = 128
_VERIFY_TOL = 1e-10


@dataclass(frozen=True)
class CandidateSet:
    """Finite surrogate for the later-time path domain; shared dt and d. Each
    path is kept once, at its first occurrence (``Path`` equality)."""

    items: tuple[Path, ...]

    def __post_init__(self):
        items = tuple(dict.fromkeys(self.items))
        if not items:
            raise PathError("candidate set must be nonempty")
        if len({(p.dt, p.d) for p in items}) > 1:
            raise PathError("all candidates must share dt and dimension")
        object.__setattr__(self, "items", items)

    def at_or_after(self, t_index: int) -> list[Path]:
        return [p for p in self.items if p.t_index >= t_index]


@dataclass(frozen=True)
class BPResult:
    optimum: Path
    trajectory: tuple[Path, ...]  # start point first, selected points after
    perturbation_value: float  # sum_i delta_i rho(traj_i, optimum)
    tail_bound: float  # rho-diameter bound at termination
    rounds: int
    sets: Optional[tuple] = None  # shrinking sets B_0..B_last when requested


def _delta(deltas: Optional[Sequence[float]], i: int) -> float:
    if deltas is None:
        return 0.5**i
    if i >= len(deltas):
        raise PathError(f"deltas sequence exhausted at round {i}")
    d = float(deltas[i])
    if not d > 0:
        raise PathError("all deltas must be positive")
    return d


def _shrink(g: list, paths: list, current: list, rho, selected: Path, delta: float, threshold: float) -> list:
    """The positions i of ``current`` whose path paths[i] is no earlier than
    ``selected`` and whose perturbed objective g[i] - delta rho(selected,
    paths[i]) stays >= threshold, in order; g[i] is updated to that value at
    each of them, and rho runs once per point."""
    kept = []
    for i in current:
        p = paths[i]
        if p.t_index < selected.t_index:
            continue
        shrunk = g[i] - delta * rho(selected, p)
        if shrunk >= threshold:
            g[i] = shrunk
            kept.append(i)
    return kept


def borwein_preiss(
    f: PathFunctional,
    rho: Callable[[Path, Path], float],
    deltas: Optional[Sequence[float]],
    eps: float,
    start: Path,
    domain: CandidateSet,
    keep_sets: bool = False,
) -> BPResult:
    """Run the constructive principle; deltas=None means delta_i = 2^{-i}.

    Preconditions: f bounded above on the candidates, eps > 0, and
    f(start) >= sup f - eps over candidates whose time >= start's time.
    """
    if not eps > 0:
        raise PathError("eps must be > 0")
    later = domain.at_or_after(start.t_index)
    # perturbed objective by position in later, f itself until B_0 is drawn:
    # g[j] = f(p) - sum_{k<i} delta_k rho(gamma^k, p)
    g = [float(f.eval(p)) for p in later]
    f_start = float(f.eval(start))
    if not np.isfinite(f_start) or not all(np.isfinite(v) for v in g):
        raise PathError("objective is not finite on the candidate set (not bounded above)")
    sup_f = max(g, default=f_start)
    if f_start < sup_f - eps - 1e-12:
        raise PathError(
            f"start is not eps-maximal: f(start)={f_start} < sup f - eps = {sup_f - eps}"
        )

    delta0 = _delta(deltas, 0)
    if rho(start, start) != 0.0:
        raise PathError("rho(start, start) must be 0 (empty initial set otherwise)")

    current = _shrink(g, later, range(len(later)), rho, start, delta0, f_start)
    if not current:
        raise PathError("initial set B_0 is empty: no candidate has f - delta_0 rho(start, .) >= f(start)")
    trajectory = [start]
    sets_trace = [tuple(later[i] for i in current)] if keep_sets else None

    for i in range(1, _MAX_ROUNDS + 1):
        # argmax of the current perturbed objective; ties break toward the
        # lexicographically smallest path encoding
        top = max(g[j] for j in current)
        best = min((j for j in current if g[j] == top), key=lambda j: later[j].key())
        selected = later[best]
        trajectory.append(selected)
        current = _shrink(g, later, current, rho, selected, _delta(deltas, i), g[best])
        if not current:
            raise PathError("shrinking set became empty (rho violates the gauge contract)")
        if keep_sets:
            sets_trace.append(tuple(later[j] for j in current))
        if len(current) == 1 or eps / (2.0**i * delta0) < DIAMETER_FLOOR:
            break
    else:
        raise PathError("perturbed maximization failed to settle (rho not gauge-like?)")

    optimum = later[current[0]] if len(current) == 1 else selected
    pert = 0.0
    for k, pt in enumerate(trajectory):
        pert += _delta(deltas, k) * rho(pt, optimum)
    return BPResult(
        optimum=optimum,
        trajectory=tuple(trajectory),
        perturbation_value=pert,
        tail_bound=eps / (2.0 ** (len(trajectory) - 1) * delta0),
        rounds=len(trajectory) - 1,
        sets=tuple(sets_trace) if keep_sets else None,
    )


def verify_bp(
    result: BPResult,
    f: PathFunctional,
    rho: Callable[[Path, Path], float],
    deltas: Optional[Sequence[float]],
    eps: float,
    start: Path,
    domain: CandidateSet,
) -> bool:
    """Independent exhaustive check of the three principle properties, each
    with slack _VERIFY_TOL.

    (i)   rho(traj_i, optimum) <= eps / (2^i delta_0), times non-decreasing;
    (ii)  f(optimum) - sum_i delta_i rho(traj_i, optimum) >= f(start);
    (iii) the perturbed objective is strictly maximal at the optimum over
          every later-or-equal-time candidate.
    """
    traj = result.trajectory
    opt = result.optimum
    delta0 = _delta(deltas, 0)

    # (i) gauge-distance decay and time monotonicity
    times = [p.t_index for p in traj]
    if any(b < a for a, b in zip(times, times[1:])):
        return False
    if traj[-1].t_index > opt.t_index:
        return False
    for i, pt in enumerate(traj):
        if rho(pt, opt) > eps / (2.0**i * delta0) + _VERIFY_TOL:
            return False

    def perturbed(p: Path) -> float:
        s = float(f.eval(p))
        for k, pt in enumerate(traj):
            s -= _delta(deltas, k) * rho(pt, p)
        return s

    # (ii) improvement over the start point
    ref = perturbed(opt)
    if ref < float(f.eval(start)) - _VERIFY_TOL:
        return False

    # (iii) strict maximality over the candidate scan, each a point other than the optimum
    return not any(perturbed(p) >= ref + _VERIFY_TOL for p in domain.at_or_after(opt.t_index) if p != opt)
