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

from dataclasses import dataclass

import numpy as np

from .funcalc import PathFunctional
from .pathspace import Path, PathError, _joint_gap, add_paths, sup_norm

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


@dataclass(frozen=True)
class GaugeParams:
    m: int = 3
    M: float = 3.0

    def __post_init__(self):
        if not isinstance(self.m, int) or not 1 <= self.m <= MAX_M:
            raise PathError(f"m must be an integer in [1, {MAX_M}], got {self.m}")
        if not np.isfinite(self.M):
            raise PathError("M must be finite")


def _gaps(p: Path, q: Path) -> tuple[float, float]:
    """(sup gap D, endpoint gap e); D is taken after hold-last-value extension.

    The endpoint gap uses the same summation order as the columnwise sup, so
    D >= e holds exactly in floating point (the endpoint column is one of the
    columns the sup ranges over).
    """
    d_sup = _joint_gap(p, q)
    diff_last = p.values[:, -1] - q.values[:, -1]
    e = float(np.sqrt((diff_last**2).sum()))
    return d_sup, e


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
    d_sup, e = _gaps(p, q)
    if d_sup == 0.0:
        return 0.0
    return _core(d_sup, e, g.m)


def upsilon(p: Path, q: Path, g: GaugeParams = GaugeParams()) -> float:
    """Smooth core plus M times the endpoint gap to the 2m (0 at D = 0, where e = 0)."""
    d_sup, e = _gaps(p, q)
    return _core(d_sup, e, g.m) + g.M * e ** (2 * g.m)


def upsilon_single(p: Path, g: GaugeParams = GaugeParams()) -> float:
    """upsilon of p against the zero path of the same time (notational shortcut)."""
    e = float(np.sqrt((p.values[:, -1] ** 2).sum()))  # the endpoint gap to zero, as in _gaps
    return _core(sup_norm(p), e, g.m) + g.M * e ** (2 * g.m)


def upsilon_bar(p: Path, q: Path, g: GaugeParams = GaugeParams()) -> float:
    """upsilon plus the squared time gap; a gauge-type function on path space."""
    return upsilon(p, q, g) + (p.t - q.t) ** 2


def _pow0(x: float, k: int) -> float:
    # x**k with the convention x**0 == 1 even at x == 0 (the closed forms
    # below rely on it exactly where the accompanying vector factor vanishes).
    return 1.0 if k == 0 else x**k


def grad_s(p: Path, anchor: Path, g: GaugeParams = GaugeParams()) -> np.ndarray:
    """Closed-form vertical gradient of s_m(., anchor) at p.

    Single displayed formula; the squared numerator factor vanishes
    identically on the endpoint-dominant branch, and the zero branch at
    D = 0 is explicit.
    """
    if anchor.t_index > p.t_index:
        raise PathError("anchor time must not exceed the path time")
    d_sup, e = _gaps(p, anchor)
    if d_sup == 0.0 or e == 0.0:
        return np.zeros(p.d)
    m = g.m
    den = d_sup ** (4 * m)
    if den == 0.0:
        return np.zeros(p.d)  # subnormal scale, see _core
    x = p.values[:, -1] - anchor.values[:, -1]
    a = d_sup ** (2 * m) - e ** (2 * m)
    coef = -6.0 * m * a**2 * _pow0(e, 2 * m - 2) / den
    return coef * x


def hess_s(p: Path, anchor: Path, g: GaugeParams = GaugeParams()) -> np.ndarray:
    """Closed-form vertical Hessian of s_m(., anchor) at p (symmetric d x d)."""
    if anchor.t_index > p.t_index:
        raise PathError("anchor time must not exceed the path time")
    d_sup, e = _gaps(p, anchor)
    if d_sup == 0.0:
        return np.zeros((p.d, p.d))
    m = g.m
    den = d_sup ** (4 * m)
    if den == 0.0:
        return np.zeros((p.d, p.d))  # subnormal scale, see _core
    x = p.values[:, -1] - anchor.values[:, -1]
    a = d_sup ** (2 * m) - e ** (2 * m)
    eye = np.eye(p.d)
    if e == 0.0:
        # Only the identity term can survive (its e-power is 2m-2, zero iff m=1).
        if m == 1:
            return -6.0 * a**2 * eye / den
        return np.zeros((p.d, p.d))
    outer = np.outer(x, x)
    h = 24.0 * m**2 * a * _pow0(e, 4 * m - 4) * outer
    h -= 12.0 * m * (m - 1) * a**2 * _pow0(e, 2 * m - 4) * outer
    h -= 6.0 * m * a**2 * _pow0(e, 2 * m - 2) * eye
    return h / den


def grad_power(p: Path, a, m: int) -> np.ndarray:
    """Vertical gradient of |gamma_t(t) - a|^{2m}: 2m e^{2m-2} (endpoint - a)."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    x = p.values[:, -1] - a
    e = float(np.linalg.norm(x))
    if e == 0.0:
        return np.zeros(p.d)
    return 2.0 * m * _pow0(e, 2 * m - 2) * x


def hess_power(p: Path, a, m: int) -> np.ndarray:
    """Vertical Hessian of |gamma_t(t) - a|^{2m}:
    2m e^{2m-2} I + 4m(m-1) e^{2m-4} (endpoint-a)(endpoint-a)^T.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    x = p.values[:, -1] - a
    e = float(np.linalg.norm(x))
    eye = np.eye(p.d)
    if e == 0.0:
        return 2.0 * eye if m == 1 else np.zeros((p.d, p.d))
    h = 2.0 * m * _pow0(e, 2 * m - 2) * eye
    if m > 1:
        h += 4.0 * m * (m - 1) * _pow0(e, 2 * m - 4) * np.outer(x, x)
    return h


def grad_upsilon(p: Path, anchor: Path, g: GaugeParams = GaugeParams()) -> np.ndarray:
    """Vertical gradient of upsilon(., anchor): core gradient + M * power gradient."""
    return grad_s(p, anchor, g) + g.M * grad_power(p, anchor.values[:, -1], g.m)


def hess_upsilon(p: Path, anchor: Path, g: GaugeParams = GaugeParams()) -> np.ndarray:
    """Vertical Hessian of upsilon(., anchor)."""
    return hess_s(p, anchor, g) + g.M * hess_power(p, anchor.values[:, -1], g.m)


def subadditivity_gap(p: Path, q: Path, g: GaugeParams = GaugeParams()) -> float:
    """2^{2m-1} (upsilon(p) + upsilon(q)) - upsilon(p + q), nonnegative for M >= 3.

    upsilon of a single path means upsilon against the zero path of the same
    time; p and q must share the grid and time.
    """
    s = add_paths(p, q)
    m = g.m
    return 2.0 ** (2 * m - 1) * (upsilon_single(p, g) + upsilon_single(q, g)) - upsilon_single(s, g)


# ---------------------------------------------------------------------------
# Sweep over random pairs: gaps read as one batch, then _core per pair (== the scalar code).


def _sup_and_end(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sup_norm and endpoint norm of each path of an (N, d, k+1) batch, each
    sum taken in the order the scalar code takes it."""
    return np.sqrt((x**2).sum(axis=1)).max(axis=-1), np.sqrt((x[..., -1] ** 2).sum(axis=-1))


def pair_sweep(
    rng: np.random.Generator, g: GaugeParams, pairs: int, d: int, dt: float, t_index: int, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pinch slacks and subadditivity gaps over ``pairs`` draws of random_pair.

    Returns three (pairs,) arrays: upsilon(p, q) - D^{2m}, M D^{2m} - upsilon(p, q)
    and subadditivity_gap(p, q), with D = _joint_gap(p, q). The draws are one
    standard-normal batch, the same stream as ``pairs`` calls of
    ``sampling.random_pair(rng, d, dt, t_index, scale)``, and every value is
    equal (==) to the scalar functions' value on the same pair. Arguments
    that random_pair would turn into an invalid Path raise PathError.
    """
    if d < 1 or t_index < 0 or not 0 < dt < np.inf or not 0 <= scale < np.inf:
        raise PathError(f"pair_sweep needs d >= 1, t_index >= 0, 0 < dt < inf and 0 <= scale < inf, got {d}, {t_index}, {dt}, {scale}")
    k1 = t_index + 1
    z = rng.standard_normal((pairs, 2, d * k1 + d))
    incs = z[..., : d * k1].reshape(pairs, 2, d, k1) * (scale * np.sqrt(dt))
    incs[..., 0] = z[..., d * k1 :] * scale  # the start value, drawn after the increments
    paths = incs.cumsum(axis=-1)
    if not np.isfinite(paths).all():
        raise PathError("path values must be finite")
    p, q, m = paths[:, 0], paths[:, 1], g.m

    def upsilons(d_sup: np.ndarray, e: np.ndarray) -> np.ndarray:  # upsilon per (D, e), on floats as upsilon takes it
        return np.array([_core(a, b, m) + g.M * b ** (2 * m) for a, b in zip(d_sup.tolist(), e.tolist())])

    d_sup, e = _sup_and_end(p - q)
    ups = upsilons(d_sup, e)
    gap = np.array([a ** (2 * m) for a in d_sup.tolist()])
    singles = [upsilons(*_sup_and_end(x)) for x in (p, q, p + q)]
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
