"""Multi-index algebra over latent coordinates.

A multi-index alpha is an ordered tuple of non-negative integers of length
d_z.  It encodes both the monomial z^alpha = prod_i z_i^alpha_i and the
mixed partial derivative D^alpha.  The key identity used throughout:

    D^alpha z^beta = beta! / (beta - alpha)! * z^(beta - alpha)   if beta >= alpha
                   = 0                                            otherwise

Interaction index sets I_n collect the multi-indices of order n whose
nonzero entries touch at least two different slots; they enumerate the
admissible cross-slot polynomial terms of a generator with bounded
interaction order.  independence_groups assigns every multi-index of the
order-n rank condition to one slot's column group.

Indices are 0-based internally and 1-based in serialized/user-facing form.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MultiIndex = tuple[int, ...]


def validate_multiindex(alpha: Sequence[int], d: int | None = None) -> MultiIndex:
    """Coerce to a well-formed multi-index tuple, checking entries and length."""
    a = tuple(int(x) for x in alpha)
    if any(x < 0 for x in a):
        raise ValueError(f"multi-index entries must be >= 0, got {a}")
    if d is not None and len(a) != d:
        raise ValueError(f"multi-index length {len(a)} != declared dimension {d}")
    return a


def _cached(copy=list):
    """Cache a function of hashable arguments (SlotPartition is frozen) and
    give every call its own copy of the result, so callers may mutate it."""
    def wrap(fn):
        cached = functools.lru_cache(maxsize=256)(fn)
        fresh = functools.wraps(fn)(lambda *args, **kw: copy(cached(*args, **kw)))
        fresh.cache_clear = cached.cache_clear
        return fresh
    return wrap


def monomials(Z, exponents) -> np.ndarray:
    """Every monomial z^alpha at every point: (N, F) for points Z (N, d) and
    exponent rows (F, d); a single point (d,) gives (F,).

    Powers come from one table of z_i^k, a contiguous row over the points
    per (i, k), built by repeated multiplication up to the largest exponent,
    so the cost is one gather and one product per coordinate instead of a
    Python loop per point and per term.
    """
    Z = np.asarray(Z, dtype=float)
    one = Z.ndim == 1
    Z = Z.reshape(-1, Z.shape[-1])
    E = np.asarray(exponents, dtype=int).reshape(-1, Z.shape[1])
    if E.size and E.min() < 0:
        raise ValueError("monomial exponents must be >= 0")
    powers = np.empty((Z.shape[1], int(E.max(initial=0)) + 1, len(Z)))
    powers[:, 0] = 1.0
    for k in range(1, powers.shape[1]):
        np.multiply(powers[:, k - 1], Z.T, out=powers[:, k])
    out = powers[0][E[:, 0]]
    for i in range(1, Z.shape[1]):
        out *= powers[i][E[:, i]]
    return out[:, 0] if one else out.T


def mi_power(z: Sequence[float], alpha: Sequence[int]) -> float:
    """z^alpha = prod_i z_i^alpha_i at one point; the empty product (alpha = 0) is 1."""
    a = validate_multiindex(alpha, d=len(z))
    return float(monomials(z, [a])[0])


def unit_indices(d: int) -> tuple[MultiIndex, ...]:
    """The first-order multi-indices e_0 .. e_{d-1}, in coordinate order."""
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def mi_geq(alpha: Sequence[int], beta: Sequence[int]) -> bool:
    """Elementwise alpha >= beta."""
    a = validate_multiindex(alpha)
    b = validate_multiindex(beta, d=len(a))
    return all(x >= y for x, y in zip(a, b))


def mi_poly_derivative(alpha: Sequence[int], beta: Sequence[int]) -> tuple[float, MultiIndex]:
    """D^alpha applied to the monomial z^beta.

    Returns (coefficient, residual) with D^alpha z^beta = coefficient * z^residual.
    When beta >= alpha fails elementwise the derivative is identically zero and
    (0.0, zero-index) is returned.
    """
    a = validate_multiindex(alpha)
    b = validate_multiindex(beta, d=len(a))
    if not mi_geq(b, a):
        return 0.0, tuple(0 for _ in a)
    residual = tuple(x - y for x, y in zip(b, a))
    coef = 1.0
    for bi, ri in zip(b, residual):
        coef *= math.factorial(bi) / math.factorial(ri)
    return coef, residual


def mi_support(alpha: Sequence[int]) -> tuple[int, ...]:
    """Positions with nonzero entry."""
    a = validate_multiindex(alpha)
    return tuple(i for i, x in enumerate(a) if x > 0)


@_cached()
def all_multiindices(d: int, order: int) -> list[MultiIndex]:
    """All multi-indices of length d with |alpha| = order, lexicographic order.

    Enumeration places `order` unit masses on d positions (multisets), so the
    count is C(d + order - 1, order); exact and cheap at d <= 12, order <= 3.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    out = []
    for positions in itertools.combinations_with_replacement(range(d), order):
        a = [0] * d
        for p in positions:
            a[p] += 1
        out.append(tuple(a))
    out.sort()
    return out


@dataclass(frozen=True)
class SlotPartition:
    """Disjoint slots B_1..B_K covering the latent coordinates {0..d_z-1}."""

    blocks: tuple[tuple[int, ...], ...]
    latent_dim: int

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("empty slot block")
            if seen & set(b):
                raise ValueError(f"overlapping slot blocks: {blocks}")
            seen |= set(b)
        if seen != set(range(self.latent_dim)):
            raise ValueError(
                f"blocks {blocks} do not partition 0..{self.latent_dim - 1}"
            )

    @property
    def K(self) -> int:
        return len(self.blocks)

    def block_of(self, i: int) -> int:
        for k, b in enumerate(self.blocks):
            if i in b:
                return k
        raise ValueError(f"coordinate {i} outside partition")

    def blocks_touched(self, alpha: Sequence[int]) -> tuple[int, ...]:
        """Sorted slot indices whose coordinates carry nonzero alpha mass."""
        touched = {self.block_of(i) for i in mi_support(validate_multiindex(alpha, self.latent_dim))}
        return tuple(sorted(touched))

    def to_json(self) -> dict:
        # serialized form is 1-based, matching the written [d_z] convention
        return {
            "latent_dim": self.latent_dim,
            "blocks": [[i + 1 for i in b] for b in self.blocks],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SlotPartition":
        blocks = tuple(tuple(i - 1 for i in b) for b in obj["blocks"])
        return cls(blocks=blocks, latent_dim=int(obj["latent_dim"]))


@_cached()
def interaction_indices(partition: SlotPartition, n: int, upto: bool = False) -> list[MultiIndex]:
    """I_n (or I_{<=n} when `upto`): order-n multi-indices touching >= 2 slots.

    Defined only for n >= 2; an order-0 or order-1 index cannot straddle two
    blocks.  Returned sorted for deterministic iteration.
    """
    if n < 2:
        raise ValueError(f"interaction indices need n >= 2, got {n}")
    orders = range(2, n + 1) if upto else [n]
    out = []
    for m in orders:
        for a in all_multiindices(partition.latent_dim, m):
            if len(partition.blocks_touched(a)) >= 2:
                out.append(a)
    out.sort()
    return out


@_cached()
def multiindices_within_block(partition: SlotPartition, k: int, order: int) -> list[MultiIndex]:
    """Order-`order` multi-indices supported entirely on slot k, in
    lexicographic order."""
    outside = [i for i in range(partition.latent_dim) if i not in partition.blocks[k]]
    return [a for a in all_multiindices(partition.latent_dim, order)
            if not any(a[i] for i in outside)]


@_cached(lambda groups: [(name, list(g)) for name, g in groups])
def independence_groups(partition: SlotPartition, n: int) -> list[tuple[str, list[MultiIndex]]]:
    """The column groups of the order-n sufficient-independence matrix.

    Per slot k, one group of every multi-index of order 1..n whose first
    touched slot is k (none at n = 0), then per slot the within-slot
    order-(n+1) group.  Giving each cross-slot index to one slot only keeps
    the groups from sharing a literal column, which would make rank
    additivity unsatisfiable for any genuine cross term (Brady et al. 2023).
    """
    if n < 0:
        raise ValueError(f"interaction order must be >= 0, got {n}")
    lower = [a for m in range(1, n + 1) for a in reversed(all_multiindices(partition.latent_dim, m))]
    label = "".join(str(m) for m in range(1, n + 1))
    first = [partition.blocks_touched(a)[0] for a in lower]
    groups = [(f"block{k + 1}_order{label}", [a for a, j in zip(lower, first) if j == k])
              for k in range(partition.K)] if n else []
    return groups + [(f"block{k + 1}_order{n + 1}", multiindices_within_block(partition, k, n + 1))
                     for k in range(partition.K)]


@_cached()
def split_interaction_indices(
    partition: SlotPartition,
    k: int,
    part_a: tuple[int, ...],
    part_b: tuple[int, ...],
    order: int,
) -> list[MultiIndex]:
    """Order-`order` indices within slot k with mass on both halves of a split.

    part_a / part_b, sorted tuples (they key the cache), must partition the
    slot's coordinates; the special case part_a == part_b == (i,) admits the
    pure power alpha = order * e_i (a coordinate's interaction with itself).
    """
    A, B = set(part_a), set(part_b)
    block = set(partition.blocks[k])
    if A == B and len(A) == 1:
        i = next(iter(A))
        a = [0] * partition.latent_dim
        a[i] = order
        return [tuple(a)]
    if A | B != block or (A & B):
        raise ValueError("split must partition the slot block")
    out = []
    for a in multiindices_within_block(partition, k, order):
        sup = set(mi_support(a))
        if sup & A and sup & B:
            out.append(a)
    return out
