"""Reference computations the benchmark's checks compare against.

They are written apart from asymlab on purpose: a generator is read from its
JSON form and differentiated in closed form, and the decoder's slot Jacobian
is estimated by plain central differences.  Nothing here imports asymlab, so
a fault in the program cannot leak into the reference.

Generator JSON (as written by ``GeneratorSpec.to_json``)::

    f(z) = sum_k C_k phi_k(z_{B_k}) + sum_alpha c_alpha z^alpha

with blocks B_k given 1-based, slot features ``mon`` (u^e), ``sin``/``cos``/
``exp`` of an affine form w.u + b, and cross monomials z^alpha whose alpha is
an exponent vector over all latent coordinates.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


def axes_to_exponents(axes: Sequence[int], d: int) -> tuple[int, ...]:
    """Differentiation axes (in any order) to an exponent vector; the partial
    derivative depends only on this vector, which is why index order cannot
    matter."""
    e = [0] * d
    for i in axes:
        if not 0 <= int(i) < d:
            raise ValueError(f"axis {i} outside 0..{d - 1}")
        e[int(i)] += 1
    return tuple(e)


def _monomial_partial(U: np.ndarray, power: Sequence[int], alpha: Sequence[int]) -> np.ndarray:
    """D^alpha of u^power at every row of U: prod_i power_i!/(power_i - alpha_i)!
    u_i^(power_i - alpha_i), zero as soon as some alpha_i > power_i."""
    out = np.ones(U.shape[0])
    for i, (p, a) in enumerate(zip(power, alpha)):
        if a > p:
            return np.zeros(U.shape[0])
        coef = math.factorial(p) // math.factorial(p - a)
        if p - a:
            out = out * coef * U[:, i] ** (p - a)
        else:
            out = out * coef
    return out


def _affine_partial(kind: str, U: np.ndarray, weights, bias: float, alpha) -> np.ndarray:
    """D^alpha of g(w.u + b) for g in sin, cos, exp: prod_i w_i^alpha_i times
    the |alpha|-th derivative of g."""
    w = np.asarray(weights, dtype=float)
    t = U @ w + bias
    m = int(sum(alpha))
    scale = float(np.prod(w ** np.asarray(alpha)))
    if kind == "exp":
        return scale * np.exp(t)
    # sin' = cos, cos' = -sin: derivatives cycle with period four, and cos
    # sits one step ahead of sin in that cycle
    step = (m + (kind == "cos")) % 4
    return scale * (np.sin(t), np.cos(t), -np.sin(t), -np.cos(t))[step]


class ClosedFormGenerator:
    """Value and partial derivatives of a generator read from its JSON."""

    def __init__(self, spec_json: dict):
        part = spec_json["partition"]
        self.d = int(part["latent_dim"])
        self.blocks = [[int(i) - 1 for i in b] for b in part["blocks"]]
        self.out_dim = int(spec_json["out_dim"])
        self.slots = []
        for sf in spec_json["slot_functions"]:
            block = self.blocks[int(sf["slot_index"]) - 1]
            coef = np.asarray(sf["coefficients"], dtype=float)
            self.slots.append((block, sf["features"], coef))
        self.cross = [
            (tuple(int(a) for a in t["alpha"]), np.asarray(t["c"], dtype=float))
            for t in spec_json["interactions"]["terms"]
        ]

    def partial(self, Z, alpha: Sequence[int] | None = None) -> np.ndarray:
        """D^alpha f at each row of Z, shape (N, out_dim); alpha None or all
        zeros gives the value."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if Z.shape[1] != self.d:
            raise ValueError(f"points have {Z.shape[1]} coordinates, expected {self.d}")
        alpha = tuple(alpha) if alpha is not None else (0,) * self.d
        if len(alpha) != self.d or any(a < 0 for a in alpha):
            raise ValueError(f"bad multi-index {alpha}")
        out = np.zeros((Z.shape[0], self.out_dim))
        for block, feats, coef in self.slots:
            # a slot feature depends on its block only, so any mass of alpha
            # outside the block differentiates it to zero
            if any(alpha[i] for i in range(self.d) if i not in block):
                continue
            U = Z[:, block]
            a_loc = [alpha[i] for i in block]
            for j, feat in enumerate(feats):
                if feat["kind"] == "mon":
                    col = _monomial_partial(U, feat["exponents"], a_loc)
                else:
                    col = _affine_partial(feat["kind"], U, feat["weights"],
                                          float(feat["bias"]), a_loc)
                out += col[:, None] * coef[:, j][None, :]
        for power, c in self.cross:
            out += _monomial_partial(Z, power, alpha)[:, None] * c[None, :]
        return out

    def value(self, Z) -> np.ndarray:
        return self.partial(Z)

    def partial_by_axes(self, Z, axes: Sequence[int]) -> np.ndarray:
        return self.partial(Z, axes_to_exponents(axes, self.d))

    def top_order_cross_nonzero(self, order: int) -> bool:
        """Whether the generator must fail the cross-order check one order
        below its declared order: for n >= 2 some cross monomial of degree n
        has a nonzero coefficient; for n = 1 two slots write to a shared
        output row (their Hessian cross blocks are zero but their first
        derivatives overlap)."""
        if order >= 2:
            return any(sum(p) == order and np.any(c != 0) for p, c in self.cross)
        if order == 1:
            rows = [set(np.nonzero(np.any(coef != 0, axis=1))[0]) for _, _, coef in self.slots]
            return any(rows[i] & rows[j]
                       for i in range(len(rows)) for j in range(i + 1, len(rows)))
        return False


def central_difference_jacobian(f: Callable[[np.ndarray], np.ndarray],
                                x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """d f(x) / d x by central differences, shape f(x).shape + x.shape."""
    x = np.asarray(x, dtype=float)
    base = np.asarray(f(x), dtype=float)
    jac = np.empty(base.shape + x.shape)
    for idx in np.ndindex(*x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        jac[(Ellipsis,) + idx] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * h)
    return jac
