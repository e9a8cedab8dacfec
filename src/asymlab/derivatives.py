"""Finite-difference derivative engine for black-box vector functions.

One engine, `partials`, estimates the mixed partials D^alpha f of order
|alpha| <= 3 for a list of multi-indices at every row of an (N, d) probe
array.  The stencils are the O(h^2) central formulas

    order 1:  (f(z + h e_i) - f(z - h e_i)) / (2h)                  h = h1
    order 2, i == j:  (f(z + h e_i) - 2 f(z) + f(z - h e_i)) / h^2  h = h2
    order 2, i != j:  four corner evaluations / (4 h^2)              h = h2
    order 3:  outer central difference, in the smallest index, of the
              order-2 stencil in the other two                       h = h3

kept as weight tables in the manner of Fornberg (1988, "Generation of
finite difference formulas on arbitrarily spaced grids"): a multi-index
maps to (offset, weight) pairs and its derivative is the weighted sum of f
at the probe plus each offset.  For one request the engine merges the
offsets of all its multi-indices and removes duplicates (the centre and the
axis points are shared across orders; offsets whose weights cancel are
dropped), evaluates f at every probe plus every remaining offset in one
call, and combines the values with the (n_alphas, n_offsets) weight matrix.
The tables depend only on the multi-indices and the step sizes, so they are
built once per distinct request.  A non-finite value at any stencil point
raises FloatingPointError naming that point.

A function maps a point to an output vector.  Generators, their equivalent
generators and composed model pairs also take an (M, d) array and return
(M, d_x) in one call; they say so with a true `batched` attribute (on the
object, or on the object a bound method belongs to).  Any other callable,
such as a hand-written function of one point or a trained decoder's
closure, goes through `evaluate`, which maps it row by row.

`jacobian` (the plain (d_x, d_z) array) and `derivative_by_multiindex`
are one-probe conveniences over the engine; the certification checks ask
`partials` for a whole probe set at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .multiindex import MultiIndex, unit_indices, validate_multiindex

VectorFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StencilConfig:
    h1: float = 1e-4
    h2: float = 1e-3
    h3: float = 5e-3

    def __post_init__(self):
        if min(self.h1, self.h2, self.h3) <= 0:
            raise ValueError("stencil steps must be positive")

    def step(self, order: int) -> float:
        return {1: self.h1, 2: self.h2, 3: self.h3}[order]


def is_batched(f) -> bool:
    """Whether f evaluates an (M, d) array of points in one call."""
    owner = getattr(f, "__self__", f)
    return bool(getattr(owner, "batched", False))


def evaluate(f: VectorFn, Z: np.ndarray) -> np.ndarray:
    """f at every row of Z as an (N, d_x) array: one call when f takes
    batches, one call per row otherwise."""
    Z = np.asarray(Z, dtype=float)
    if is_batched(f):
        return np.asarray(f(Z), dtype=float).reshape(len(Z), -1)
    return np.stack([np.atleast_1d(np.asarray(f(z), dtype=float)) for z in Z])


def multiindex_to_axes(alpha: MultiIndex) -> tuple[int, ...]:
    """Expand a multi-index into the sorted tuple of differentiation axes."""
    axes: list[int] = []
    for i, a in enumerate(alpha):
        axes.extend([i] * a)
    return tuple(axes)


def _unit_stencil(axes: tuple[int, ...], d: int) -> dict[tuple[int, ...], float]:
    """Central stencil of D^axes at unit step as {integer offset: weight};
    at step h the weights scale by h^-order.  A repeated pair is the 3-point
    second difference; otherwise the first axis is an outer central
    difference of the stencil of the remaining axes."""
    if not axes:
        return {(0,) * d: 1.0}
    i = axes[0]
    if axes == (i, i):
        factor, rest = {1: 1.0, 0: -2.0, -1: 1.0}, ()
    else:
        factor, rest = {1: 0.5, -1: -0.5}, axes[1:]
    out: dict[tuple[int, ...], float] = {}
    for units, w in _unit_stencil(rest, d).items():
        for s, v in factor.items():
            key = units[:i] + (units[i] + s,) + units[i + 1:]
            out[key] = out.get(key, 0.0) + v * w
    return {k: w for k, w in out.items() if w != 0.0}


@lru_cache(maxsize=256)
def _weight_table(alphas: tuple[tuple, ...], d: int,
                  cfg: StencilConfig) -> tuple[np.ndarray, np.ndarray]:
    """Distinct offsets (M, d) of a request and its weights (n_alphas, M).
    The multi-indices are checked here, so once per distinct request."""
    request = tuple(validate_multiindex(a, d=d) for a in alphas)
    if not request:
        raise ValueError("no multi-indices requested")
    column: dict[tuple[float, ...], int] = {}
    entries = []
    for a, alpha in enumerate(request):
        axes = multiindex_to_axes(alpha)
        if len(axes) > 3:
            raise ValueError(f"unsupported derivative order |alpha| = {len(axes)}")
        h = cfg.step(len(axes)) if axes else 1.0
        for units, w in _unit_stencil(axes, d).items():
            m = column.setdefault(tuple(u * h for u in units), len(column))
            entries.append((a, m, w / h ** len(axes)))
    weights = np.zeros((len(request), len(column)))
    for a, m, w in entries:
        weights[a, m] += w
    offsets = np.array(list(column), dtype=float).reshape(len(column), d)
    for table in (offsets, weights):
        table.setflags(write=False)  # shared by every request that hits the cache
    return offsets, weights


def partials(
    f: VectorFn,
    Z,
    alphas: Sequence[Sequence[int]],
    cfg: StencilConfig = StencilConfig(),
) -> tuple[np.ndarray, int]:
    """D^alpha f at every probe for every requested multi-index.

    Returns the estimates, shape (N, len(alphas), d_x), and the number of
    points f was evaluated at (N times the distinct stencil offsets).
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.size == 0:
        raise ValueError(f"probes must be a non-empty (N, d) array, got shape {Z.shape}")
    N, d = Z.shape
    offsets, weights = _weight_table(tuple(tuple(a) for a in alphas), d, cfg)
    points = (Z[:, None, :] + offsets[None]).reshape(-1, d)
    values = evaluate(f, points)
    if not np.isfinite(values).all():
        bad = np.argmin(np.all(np.isfinite(values), axis=1))
        raise FloatingPointError(f"non-finite function value at stencil point {points[bad]}")
    return weights @ values.reshape(N, len(offsets), -1), len(points)


def _one_probe(z: Sequence[float]) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"expected one point of shape (d,), got {z.shape}")
    return z


def jacobian(f: VectorFn, z: Sequence[float], cfg: StencilConfig = StencilConfig()) -> np.ndarray:
    """Central-difference Jacobian (d_x, d_z), columns D_i f(z)."""
    z = _one_probe(z)
    values, _ = partials(f, z[None], unit_indices(len(z)), cfg)
    return values[0].T


def derivative_by_multiindex(
    f: VectorFn,
    z: Sequence[float],
    alpha: Sequence[int],
    cfg: StencilConfig = StencilConfig(),
) -> np.ndarray:
    """D^alpha f(z) for |alpha| <= 3; alpha = 0 evaluates f."""
    z = _one_probe(z)
    return partials(f, z[None], [alpha], cfg)[0][0, 0]
