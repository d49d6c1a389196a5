"""Seeded random-path generators used by probes and property sweeps.

Same-time pairs share the grid by construction (the second path is the first
plus a bridge pinned to zero at the start), so sup-norm gaps between them are
meaningful.
"""

from __future__ import annotations

import math

import numpy as np

from .pathspace import CapacityError, Path, PathError, _count, _finite

__all__ = [
    "random_path",
    "random_pair",
    "bridge_pair",
    "path_cloud",
]

# Path values one batch may draw (paths x dimension x grid nodes): 300x the largest batch that
# the tests, the acceptance criteria and the benchmark draw (criterion 4's 10,000 Euler paths of
# 33 nodes), and 800 MB of float64, as FD_WORK_CAP bounds the explicit FD solver's work.
DRAW_CAP = 10**8

# Normals up to which _walks sums in Python floats, where _scaled's numpy calls cost more than the
# arithmetic (crossover at 50 to 66 on a 2-vCPU x86-64 host, numpy 2.4; the benchmark draws 2 to 20)
_PY_DRAW = 52


def _check_draws(name: str, n: int, d: int, nodes: int) -> None:
    """CapacityError when n paths of d x nodes path values are more than DRAW_CAP. It counts
    path values only: the Euler stepper's noise batch and sigma records grow with the noise
    dimension on top of them."""
    if n * d * nodes > DRAW_CAP:
        raise CapacityError(f"{name} needs {n} paths x {d} x {nodes} = {n * d * nodes} path values, over the draw cap {DRAW_CAP:.0e}")


def _walks(rng: np.random.Generator, n: int, d: int, dt: float, t_index: int, scale: float, name: str = "random_path") -> np.ndarray:
    """n Brownian-type random walks as one read-only (n, d, t_index + 1) array.

    One standard-normal batch in the stream of n random_path calls (each
    walk's increments, then its starts), scaled as numpy's ``normal`` scales
    (0.0 + z * s: a zero scale gives +0.0). Bad arguments raise before drawing,
    and a walk past the double range raises PathError after it. Up to _PY_DRAW
    normals are summed in Python floats (_summed), more in numpy (_scaled).
    """
    d, k1 = _count(f"{name} d", d, 1), _count(f"{name} t_index", t_index, 0) + 1
    if not 0 < dt < math.inf or not 0 <= scale < math.inf:
        raise PathError(f"{name} needs 0 < dt < inf and 0 <= scale < inf, got {dt}, {scale}")
    _check_draws(name, n, d, k1)
    z, step = rng.standard_normal((n, d * k1 + d)), float(scale) * math.sqrt(dt)  # a numpy scalar warns past the range
    if z.size <= _PY_DRAW:
        return _summed(z.tolist(), n, d, k1, step, float(scale))
    # numpy's normals are below 14 in size and a walk has at most DRAW_CAP nodes, so no product or
    # sum can overflow while the step and the start scale are at most 1e150: no context is entered
    if step > 1e150 or scale > 1e150:
        with np.errstate(over="ignore", invalid="ignore"):
            return _scaled(z, n, d, k1, step, scale)
    return _scaled(z, n, d, k1, step, scale)


def _scaled(z: np.ndarray, n: int, d: int, k1: int, step: float, scale: float) -> np.ndarray:
    """_walks' walks of the standard normals ``z``: increments times ``step``, starts times ``scale``.
    The numpy route: seven calls at any size, and past the double range a warning without errstate."""
    w = z[:, : d * k1].reshape(n, d, k1) * step
    w[..., 0] = z[:, d * k1 :] * scale  # the start value, drawn after the increments
    w += 0.0
    w = np.add.accumulate(w, axis=-1)  # cumsum's own ufunc, without the method's overhead
    _finite(w[..., -1])  # the last column: a non-finite partial sum stays so
    w.setflags(write=False)
    return w


def _summed(z: list, n: int, d: int, k1: int, step: float, scale: float) -> np.ndarray:
    """_scaled on ``z`` as nested Python floats, bit for bit (IEEE products, accumulate's left-to-right
    sums; no partial sum after the start is -0.0), and with no warning past the double range."""
    flat = []
    for row in z:
        for j in range(d):
            acc = 0.0 + row[d * k1 + j] * scale
            flat.append(acc)
            for x in row[j * k1 + 1 : j * k1 + k1]:
                acc += x * step
                flat.append(acc)
            if not math.isfinite(acc):
                raise PathError("path values must be finite")
    w = np.array(flat).reshape(n, d, k1)
    w.setflags(write=False)
    return w


def random_path(rng: np.random.Generator, d: int, dt: float, t_index: int, scale: float = 1.0) -> Path:
    """Brownian-type random walk path with N(0, scale^2) start and
    N(0, scale^2 dt) increments."""
    return Path._wrap(_walks(rng, 1, d, dt, t_index, scale)[0], float(dt))


def random_pair(rng: np.random.Generator, d: int, dt: float, t_index: int, scale: float = 1.0) -> tuple[Path, Path]:
    """Two independent same-grid, same-time random paths (two random_path draws)."""
    a, b = _walks(rng, 2, d, dt, t_index, scale, "random_pair")
    return Path._wrap(a, float(dt)), Path._wrap(b, float(dt))


def _bridge(rng: np.random.Generator, d: int, dt: float, t_index: int) -> np.ndarray:
    # Brownian bridge of scale 0.5 pinned to zero at node 0, free at the end.
    incs = rng.normal(0.0, 0.5 * np.sqrt(dt), size=(d, t_index + 1))
    incs[:, 0] = 0.0
    return np.cumsum(incs, axis=1)


def bridge_pair(rng: np.random.Generator, d: int, dt: float, t_index: int) -> tuple[Path, Path]:
    """A unit-scale base path and a perturbation of it sharing the start value.

    The perturbation is a bridge of scale 0.5 added to the base, so the pair
    shares its history scale and the gap stays of the same order.
    """
    base = random_path(rng, d, dt, t_index)
    other = Path(base.values + _bridge(rng, d, dt, t_index), dt)
    return base, other


def path_cloud(rng: np.random.Generator, base: Path, max_t_index: int, n: int) -> list[Path]:
    """Seeded cloud over [t, T] x path-space surrogates around ``base``.

    Mixes unit-scale continuations of the base path, bridge perturbations of
    it and fresh paths, at uniformly drawn later times. The base itself is
    included.
    """
    out = [base]
    k0 = base.t_index
    max_t_index = _count("path_cloud max_t_index", max_t_index, k0)
    for i in range(_count("path_cloud n", n, 0)):
        k = int(rng.integers(k0, max_t_index + 1))
        kind = i % 3
        if kind == 0:
            # continuation of base by a random walk
            tail = rng.normal(0.0, np.sqrt(base.dt), size=(base.d, k - k0)) if k > k0 else np.empty((base.d, 0))
            vals = np.concatenate([base.values, base.values[:, -1:] + np.cumsum(tail, axis=1)], axis=1)
            out.append(Path(vals, base.dt))
        elif kind == 1:
            # bumped copy of base, extended
            bumped = base.values + _bridge(rng, base.d, base.dt, k0)
            if k > k0:
                tail = rng.normal(0.0, np.sqrt(base.dt), size=(base.d, k - k0))
                bumped = np.concatenate([bumped, bumped[:, -1:] + np.cumsum(tail, axis=1)], axis=1)
            out.append(Path(bumped, base.dt))
        else:
            out.append(random_path(rng, base.d, base.dt, k))
    return out
