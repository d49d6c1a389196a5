"""Discretized path space: uniform-grid paths, sup norm, d-infinity metric,
and the two path surgeries (vertical endpoint bump, horizontal extension).

Paths live on a shared uniform grid; all surgeries are exact and no
interpolation is ever performed. A vertical bump mutates only the final
column, which is the discrete stand-in for the cadlag element obtained by
bumping a continuous path at its current time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PathError",
    "CapacityError",
    "Path",
    "GridConfig",
    "sup_norm",
    "d_infty",
    "vertical_bump",
    "horizontal_extension",
    "restrict",
    "zero_like",
    "add_paths",
    "sub_paths",
]


class PathError(ValueError):
    """Invalid path construction or incompatible path pair."""


class CapacityError(RuntimeError):
    """The requested work would exceed a configured cap: tree nodes, FD updates or sampled values."""


@dataclass(frozen=True, eq=False)
class Path:
    """A d-dimensional path sampled on the uniform grid 0, dt, ..., t_index*dt.

    ``values`` has shape (d, t_index + 1); column j is the path value at time
    j*dt. The array is copied on construction and frozen, so a Path is an
    immutable value safe to share across threads.
    """

    values: np.ndarray
    dt: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[None, :]
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise PathError(f"values must be a (d, k+1) matrix, got shape {v.shape}")
        _finite(v)
        if not 0 < self.dt < np.inf:
            raise PathError(f"dt must be a positive real, got {self.dt}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "dt", float(self.dt))

    @classmethod
    def _wrap(cls, values: np.ndarray, dt: float) -> "Path":
        # Internal fast path for a read-only float (d, k+1) array never mutated afterwards. Callers check
        # with _finite what they made: the walk sampler, and the surgeries add_paths, sub_paths and
        # vertical_bump their result. Only the Euler stepper wraps unchecked mid-run rows.
        p = object.__new__(cls)
        fields = p.__dict__  # filled directly: the frozen __setattr__ is bypassed
        fields["values"], fields["dt"] = values, dt
        return p

    @classmethod
    def constant(cls, value, t_index: int, dt: float) -> "Path":
        """Path holding ``value`` (scalar or d-vector) on 0..t_index."""
        x = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(np.tile(x[:, None], (1, _count("t_index", t_index, 0) + 1)), dt)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def t_index(self) -> int:
        return self.values.shape[1] - 1

    @property
    def t(self) -> float:
        """Current time t = t_index * dt."""
        return self.t_index * self.dt

    @property
    def endpoint(self) -> np.ndarray:
        """The current value gamma_t(t), as a fresh writable copy."""
        return self.values[:, -1].copy()

    def key(self) -> tuple:
        """The path's one identity: (grid index, bytes of the values), equal exactly when every
        value has the same bits (+0.0 and -0.0 differ). ``==`` and ``hash`` read (dt, key()), and
        every map over paths keys on it; ``_keys`` gives it at each row of a level array, such as
        the played nodes of a value tree that ``value_with_strategy``'s argmax table covers."""
        return (self.t_index, self.values.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self.dt == other.dt and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.dt, self.key()))

    def __repr__(self) -> str:
        return f"Path(d={self.d}, t_index={self.t_index}, dt={self.dt}, end={self.values[:, -1]})"


def _finite(v: np.ndarray) -> np.ndarray:
    """v, once every entry is finite; else PathError. The one finiteness check of path values."""
    if np.count_nonzero(np.isfinite(v)) < v.size:
        raise PathError("path values must be finite")
    return v


_INTEGERS = (int, np.integer)


def _count(name: str, value, lo: int, hi: int | None = None) -> int:
    """value as a Python int, once it is a count: an int or numpy integer (no bool, no float, not
    even 2.0) in [lo, hi], or >= lo when hi is None; else PathError. The one check of a count."""
    if isinstance(value, _INTEGERS) and value is not True and value is not False and lo <= value and (hi is None or value <= hi):
        return int(value)
    raise PathError(f"{name} must be an integer {f'>= {lo}' if hi is None else f'in [{lo}, {hi}]'}, got {value!r}")


def _keys(t_index: int, rows: np.ndarray) -> list:
    """Path.key() of each row of ``rows``, an (N, d, t_index + 1) array of same-time path values."""
    return [(t_index, row.tobytes()) for row in rows]


@dataclass(frozen=True)
class GridConfig:
    """Uniform time grid on [0, horizon] with steps+1 nodes."""

    steps: int
    horizon: float
    dim: int = 1
    noise_dim: int = 1

    def __post_init__(self):
        for name in ("steps", "dim", "noise_dim"):
            object.__setattr__(self, name, _count(name, getattr(self, name), 1))
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise PathError(f"horizon must be finite and > 0, got {self.horizon}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


def _check_comparable(p: Path, q: Path) -> None:
    if p.dt != q.dt:
        raise PathError(f"paths have different dt: {p.dt} vs {q.dt}")
    if p.d != q.d:
        raise PathError(f"paths have different dimension: {p.d} vs {q.d}")


def _sq_cols(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each column of a (..., d, k+1) array: the one
    norm pass. A sup reads its max and an endpoint gap its last entry, so the
    two share their summation order and the sup is never below the endpoint.
    A loop over the rows would sum one column of d >= 8 in another order. At
    d = 1 the one square is the sum: a one-term reduction returns its term."""
    if x.shape[-2] == 1:
        return (x * x)[..., 0, :]
    return np.add.reduce(x * x, axis=-2)


def sup_norm(p: Path) -> float:
    """Sup over grid nodes of the Euclidean norm of the path value."""
    return math.sqrt(max(_sq_cols(p.values).tolist()))  # a correctly rounded sqrt is monotone


def _joint_sq(p: Path, q: Path) -> np.ndarray:
    """_sq_cols of p - q after extending the shorter path by holding its last
    value; the last entry is the squared endpoint gap |p(t) - q(s)|^2."""
    kp, kq = p.t_index, q.t_index
    a, b = p.values, q.values
    if kp == kq:
        diff = a - b
    elif kp < kq:
        diff = a[:, -1:] - b
        diff[:, : kp + 1] = a - b[:, : kp + 1]
    else:
        diff = a - b[:, -1:]
        diff[:, : kq + 1] = a[:, : kq + 1] - b
    return _sq_cols(diff)


def _joint_gap(p: Path, q: Path) -> float:
    """Sup-norm gap after extending the shorter path by holding its last value."""
    return math.sqrt(max(_joint_sq(p, q).tolist()))


def d_infty(p: Path, q: Path) -> float:
    """Time gap plus sup-norm gap over the joint grid (hold-last-value extension)."""
    _check_comparable(p, q)
    return abs(p.t_index - q.t_index) * p.dt + _joint_gap(p, q)


def vertical_bump(p: Path, x) -> Path:
    """The path p with its final value incremented by x; a non-finite result raises PathError."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (p.d,):
        raise PathError(f"bump must be a vector of dim {p.d}, got shape {x.shape}")
    v = p.values.copy()
    v[:, -1] += x
    _finite(v[:, -1])  # a non-finite bump, or one that overflows
    v.setflags(write=False)
    return Path._wrap(v, p.dt)


def horizontal_extension(p: Path, new_t_index: int) -> Path:
    """Extend p to new_t_index by holding its last value constant."""
    k = p.t_index
    new_t_index = _count("extension index", new_t_index, k)
    if new_t_index == k:
        return p
    v = np.empty((p.d, new_t_index + 1))
    v[:, : k + 1] = p.values
    v[:, k + 1 :] = p.values[:, -1:]
    v.setflags(write=False)
    return Path._wrap(v, p.dt)


def restrict(p: Path, new_t_index: int) -> Path:
    """Truncate p to the grid nodes 0..new_t_index."""
    new_t_index = _count("restriction index", new_t_index, 0, p.t_index)
    if new_t_index == p.t_index:
        return p
    v = p.values[:, : new_t_index + 1]
    return Path._wrap(v, p.dt)


def zero_like(p: Path) -> Path:
    """The zero path sharing p's grid, dimension and time."""
    v = np.zeros_like(p.values)
    v.setflags(write=False)
    return Path._wrap(v, p.dt)


def _pointwise(p: Path, q: Path, op, name: str) -> np.ndarray:
    """op(p.values, q.values), read-only, of two paths on one grid at one time; not checked finite."""
    _check_comparable(p, q)
    if p.t_index != q.t_index:
        raise PathError(f"pointwise {name} needs equal times")
    v = op(p.values, q.values)
    v.setflags(write=False)
    return v


def add_paths(p: Path, q: Path) -> Path:
    """Pointwise sum of two equal-time paths; a sum that overflows raises PathError."""
    return Path._wrap(_finite(_pointwise(p, q, np.add, "sum")), p.dt)


def sub_paths(p: Path, q: Path) -> Path:
    """Pointwise difference of two equal-time paths; a difference that overflows raises PathError."""
    return Path._wrap(_finite(_pointwise(p, q, np.subtract, "difference")), p.dt)
