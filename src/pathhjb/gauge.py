"""Smooth gauge-type functional family on path space.

The three-layer family built from the sup-norm gap D = ||gamma - eta||_0 and
the endpoint gap e = |gamma_t(t) - eta_s(s)|:

    smooth_core       (D^{2m} - e^{2m})^3 / D^{4m}          (0 when D = 0)
    upsilon           smooth_core + M * e^{2m}
    upsilon_bar       upsilon + |s - t|^2

The core functional is vertically twice differentiable with closed-form
first and second derivatives, which makes ``upsilon`` a smooth surrogate for
the (non-differentiable) sup norm to the power 2m. For M >= 3 it is pinched
between D^{2m} and M*D^{2m}, and satisfies the 2^{2m-1} subadditivity bound.
Defaults m = 3, M = 3 everywhere.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .funcalc import PathFunctional
from .pathspace import Path, PathError, _check_comparable, _count, _finite, _joint_sq, _pointwise, _sq_cols
from .sampling import _walks

__all__ = [
    "GaugeParams",
    "s_m",
    "upsilon",
    "upsilon_single",
    "upsilon_bar",
    "grad_s",
    "hess_s",
    "grad_power",
    "hess_power",
    "grad_upsilon",
    "hess_upsilon",
    "subadditivity_gap",
    "pair_sweep",
    "s_functional",
    "upsilon_functional",
    "upsilon_bar_functional",
]

MAX_M = 6  # powers up to 6m = 36 stay in double range at desk scale
MAX_ABS_M = 1e130  # |M| e^{2m} <= 1e130 * 1.34e154 once D^{4m} is finite: Upsilon's sums stay finite


@dataclass(frozen=True)
class GaugeParams:
    m: int = 3
    M: float = 3.0

    def __post_init__(self):
        object.__setattr__(self, "m", _count("m", self.m, 1, MAX_M))
        if not isinstance(self.M, numbers.Real) or isinstance(self.M, bool) or not -math.inf < self.M < math.inf:
            raise PathError(f"M must be a finite real, got {self.M!r}")
        if abs(self.M) > MAX_ABS_M:
            raise PathError(f"M must be at most {MAX_ABS_M:.0e} in size, got {self.M!r}")


def _gaps(p: Path, q: Path) -> tuple[float, float]:
    """(sup gap D, endpoint gap e); D is taken after hold-last-value extension.

    Both are read from the one array of squared column gaps (_joint_sq), whose
    last entry is the endpoint gap's, so D >= e holds exactly in floating point
    at every dimension. Paths of different dt or dimension raise PathError.
    """
    _check_comparable(p, q)
    return _sup_and_end(_joint_sq(p, q).tolist())


def _sup_and_end(row: list) -> tuple[float, float]:
    """(sup norm, endpoint norm) from one path's squared column norms as Python floats. The gauge
    family's one overflow rule: a square past the double range raises as a Python power past it."""
    top = max(row)
    if top == math.inf:
        raise OverflowError(34, "Numerical result out of range")
    return math.sqrt(top), math.sqrt(row[-1])


def _in_range(v: np.ndarray) -> np.ndarray:
    """v, once finite: a derivative whose product of gap powers left the double range raises so."""
    if not np.isfinite(v).all():
        _sup_and_end([math.inf])
    return v


def _upsilon_row(row: list, g: GaugeParams) -> float:
    """upsilon from one path's squared column norms as Python floats (ndarray.tolist())."""
    d_sup, e = _sup_and_end(row)
    return _core(d_sup, e, g.m) + g.M * e ** (2 * g.m)


def _core(d_sup: float, e: float, m: int) -> float:
    # (D^{2m} - e^{2m})^3 / D^{4m} with a zero branch when the denominator
    # underflows: there 0 <= core <= D^{2m} < 1e-150, indistinguishable from
    # the zero branch at double precision (and the naive quotient is 0/0).
    num = (d_sup ** (2 * m) - e ** (2 * m)) ** 3
    den = d_sup ** (4 * m)
    if den == 0.0 or num == 0.0:
        return 0.0
    return num / den


def s_m(p: Path, q: Path, g: GaugeParams = GaugeParams()) -> float:
    """Smooth core (D^{2m} - e^{2m})^3 / D^{4m}, zero branch at D = 0."""
    return _core(*_gaps(p, q), g.m)  # D = 0 forces e = 0: the zero numerator branch


def upsilon(p: Path, q: Path, g: GaugeParams = GaugeParams()) -> float:
    """Smooth core plus M times the endpoint gap to the 2m (0 at D = 0, where e = 0)."""
    _check_comparable(p, q)
    return _upsilon_row(_joint_sq(p, q).tolist(), g)


def upsilon_single(p: Path, g: GaugeParams = GaugeParams()) -> float:
    """upsilon of p against the zero path of the same time (notational shortcut)."""
    return _upsilon_row(_sq_cols(p.values).tolist(), g)


def upsilon_bar(p: Path, q: Path, g: GaugeParams = GaugeParams()) -> float:
    """upsilon plus the squared time gap; a gauge-type function on path space."""
    return upsilon(p, q, g) + (p.t - q.t) ** 2


def grad_s(p: Path, anchor: Path, g: GaugeParams = GaugeParams()) -> np.ndarray:
    """Closed-form vertical gradient of s_m(., anchor) at p: one displayed formula,
    whose squared numerator factor vanishes on the endpoint-dominant branch."""
    if anchor.t_index > p.t_index:
        raise PathError("anchor time must not exceed the path time")
    d_sup, e = _gaps(p, anchor)
    m = g.m
    den = d_sup ** (4 * m)
    if den == 0.0 or e == 0.0:
        return np.zeros(p.d)  # D = 0, a subnormal scale (see _core) or equal endpoints
    x = p.values[:, -1] - anchor.values[:, -1]
    a = d_sup ** (2 * m) - e ** (2 * m)
    return _in_range(-6.0 * m * a**2 * e ** (2 * m - 2) / den * x)


def hess_s(p: Path, anchor: Path, g: GaugeParams = GaugeParams()) -> np.ndarray:
    """Closed-form vertical Hessian of s_m(., anchor) at p (symmetric d x d)."""
    if anchor.t_index > p.t_index:
        raise PathError("anchor time must not exceed the path time")
    d_sup, e = _gaps(p, anchor)
    m = g.m
    den = d_sup ** (4 * m)
    if den == 0.0:
        return np.zeros((p.d, p.d))  # D = 0 or a subnormal scale, see _core
    x = p.values[:, -1] - anchor.values[:, -1]
    a = d_sup ** (2 * m) - e ** (2 * m)
    eye = np.eye(p.d)
    if e == 0.0:  # only the identity term can survive (its e-power is 2m-2, zero iff m=1)
        h = -6.0 * a**2 * eye if m == 1 else 0.0 * eye
    else:
        outer = np.outer(x, x)
        h = 24.0 * m**2 * a * e ** (4 * m - 4) * outer
        h -= 12.0 * m * (m - 1) * a**2 * e ** (2 * m - 4) * outer
        h -= 6.0 * m * a**2 * e ** (2 * m - 2) * eye
    return _in_range(h / den)


def grad_power(p: Path, a, m: int) -> np.ndarray:
    """Vertical gradient of |gamma_t(t) - a|^{2m}: 2m e^{2m-2} (endpoint - a)."""
    gap = p.values - np.atleast_1d(np.asarray(a, dtype=float))[:, None]
    x, e = gap[:, -1], _sup_and_end(_sq_cols(gap)[-1:].tolist())[1]  # as _gaps reads e, overflow included
    if e == 0.0:
        return np.zeros(p.d)
    return _in_range(2.0 * m * e ** (2 * m - 2) * x)


def hess_power(p: Path, a, m: int) -> np.ndarray:
    """Vertical Hessian of |gamma_t(t) - a|^{2m}:
    2m e^{2m-2} I + 4m(m-1) e^{2m-4} (endpoint-a)(endpoint-a)^T.
    """
    gap = p.values - np.atleast_1d(np.asarray(a, dtype=float))[:, None]
    x, e = gap[:, -1], _sup_and_end(_sq_cols(gap)[-1:].tolist())[1]  # as _gaps reads e, overflow included
    eye = np.eye(p.d)
    if e == 0.0:
        return 2.0 * eye if m == 1 else np.zeros((p.d, p.d))
    h = 2.0 * m * e ** (2 * m - 2) * eye
    if m > 1:
        h += 4.0 * m * (m - 1) * e ** (2 * m - 4) * np.outer(x, x)
    return _in_range(h)


def grad_upsilon(p: Path, anchor: Path, g: GaugeParams = GaugeParams()) -> np.ndarray:
    """Vertical gradient of upsilon(., anchor): core gradient + M * power gradient."""
    return grad_s(p, anchor, g) + g.M * grad_power(p, anchor.values[:, -1], g.m)


def hess_upsilon(p: Path, anchor: Path, g: GaugeParams = GaugeParams()) -> np.ndarray:
    """Vertical Hessian of upsilon(., anchor)."""
    return hess_s(p, anchor, g) + g.M * hess_power(p, anchor.values[:, -1], g.m)


def subadditivity_gap(p: Path, q: Path, g: GaugeParams = GaugeParams()) -> float:
    """2^{2m-1} (upsilon(p) + upsilon(q)) - upsilon(p + q), nonnegative for M >= 3.

    upsilon of a single path means upsilon against the zero path of the same
    time. The outcome is that of upsilon_single(p), upsilon_single(q) and
    upsilon_single(add_paths(p, q)) in that order, errors included, read from
    one norm pass over the stack of p, q and p + q.
    """
    try:
        s = _pointwise(p, q, np.add, "sum")
    except PathError:
        upsilon_single(p, g), upsilon_single(q, g)  # read before add_paths' checks: their overflow comes first
        raise
    rows = _sq_cols(np.array([p.values, q.values, s])).tolist()
    up, uq = _upsilon_row(rows[0], g), _upsilon_row(rows[1], g)  # once both pass, |p|, |q| < 1.34e154: p + q is finite
    return 2.0 ** (2 * g.m - 1) * (up + uq) - _upsilon_row(rows[2], g)


# ---------------------------------------------------------------------------
# Sweep over random pairs: gaps read as one batch, then _core per pair (== the scalar code).


def pair_sweep(
    rng: np.random.Generator, g: GaugeParams, pairs: int, d: int, dt: float, t_index: int, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pinch slacks and subadditivity gaps over ``pairs`` draws of random_pair.

    Returns three (pairs,) arrays: upsilon(p, q) - D^{2m}, M D^{2m} - upsilon(p, q)
    and subadditivity_gap(p, q), with D = _joint_gap(p, q). The draws are one
    standard-normal batch, the same stream as ``pairs`` calls of
    ``sampling.random_pair(rng, d, dt, t_index, scale)``, and every value is
    equal (==) to the scalar functions' value on the same pair. Arguments
    that random_pair would turn into an invalid Path raise PathError, and a
    batch over the draw cap CapacityError, both before any draw; a sum that
    overflows raises PathError, and then a square or power past the double
    range OverflowError: the sweep raises exactly where a pair's scalar reads do.
    """
    pairs = _count("pair_sweep pairs", pairs, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a walk, sum or square past the double range raises below
        paths = _walks(rng, 2 * pairs, d, dt, t_index, scale, "pair_sweep").reshape(pairs, 2, d, t_index + 1)
        p, q, m = paths[:, 0], paths[:, 1], g.m
        s = _finite(p + q)
        rows, *single_rows = (_sq_cols(x).tolist() for x in (p - q, p, q, s))
    ups = np.array([_upsilon_row(row, g) for row in rows])
    gap = np.array([_sup_and_end(row)[0] ** (2 * m) for row in rows])
    singles = [np.array([_upsilon_row(row, g) for row in x]) for x in single_rows]
    sub = 2.0 ** (2 * m - 1) * (singles[0] + singles[1]) - singles[2]
    return ups - gap, g.M * gap - ups, sub


# ---------------------------------------------------------------------------
# Smooth-functional wrappers (anchor a second path, differentiate in the first).


def _anchored(value, dt, grad, hess, anchor: Path, g: GaugeParams) -> PathFunctional:
    """value(., anchor, g) as a PathFunctional with horizontal derivative dt and
    vertical derivatives grad(., anchor, g) and hess(., anchor, g)."""
    return PathFunctional(
        eval=lambda p: value(p, anchor, g),
        analytic_dt=dt,
        analytic_dx=lambda p: grad(p, anchor, g),
        analytic_dxx=lambda p: hess(p, anchor, g),
    )


def s_functional(anchor: Path, g: GaugeParams = GaugeParams()):
    """s_m(., anchor) as a PathFunctional with its closed-form derivatives."""
    return _anchored(s_m, lambda p: 0.0, grad_s, hess_s, anchor, g)


def upsilon_functional(anchor: Path, g: GaugeParams = GaugeParams()):
    """upsilon(., anchor) as a PathFunctional; horizontal derivative is zero."""
    return _anchored(upsilon, lambda p: 0.0, grad_upsilon, hess_upsilon, anchor, g)


def upsilon_bar_functional(anchor: Path, g: GaugeParams = GaugeParams()):
    """upsilon_bar(., anchor) as a PathFunctional; the time term adds 2(t - t_anchor)."""
    return _anchored(upsilon_bar, lambda p: 2.0 * (p.t - anchor.t), grad_upsilon, hess_upsilon, anchor, g)
