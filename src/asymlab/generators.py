"""Constructive ground-truth generators with bounded cross-slot interaction.

A generator is built in the characterized additive-plus-cross-monomial form

    f(z) = sum_k f^k(z_{B_k}) + sum_{alpha in I_{<=n}} c_alpha z^alpha

so its interaction order across slots is n by construction: all cross
partials of order n+1 vanish identically, while the top-order cross
coefficients (when nonzero) witness failure at order n-1.  Slot functions
f^k draw from monomials (degree <= 4) and sin/cos/exp of affine forms, all
C^3.  The n = 0 regime has no admissible cross monomials at all; there the
constraint is structural: slot functions write to disjoint output rows.

Also provided: slot-wise diffeomorphisms with a slot permutation, composed
with a generator into a disentangled model pair (an equivalent generator is
such a pair: a random slot-wise linear basis change, slots unpermuted), and
two latent supports (a box and a band around a graph) with one sampler for
their Cartesian-product extension.  Generators and composed pairs take one
latent point (d_z,) or a batch (N, d_z) and evaluate a batch with array
operations.  This module imports asymmetry (preset_generator's check and
random_equivalence's draw), never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import asymmetry
from .derivatives import evaluate, is_batched
from .multiindex import (
    MultiIndex,
    SlotPartition,
    _cached,
    all_multiindices,
    independence_groups,
    interaction_indices,
    monomials,
    validate_multiindex,
)

# ---------------------------------------------------------------------------
# slot feature maps


_AFFINE_FNS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


@dataclass(frozen=True)
class Feature:
    """One scalar C^3 feature of a slot vector u.

    kind "mon": u^exponents with total degree <= 4.
    kind "sin"/"cos"/"exp": the named function of the affine form w.u + b.
    """

    kind: str
    exponents: tuple[int, ...] = ()
    weights: tuple[float, ...] = ()
    bias: float = 0.0

    def __post_init__(self):
        if self.kind == "mon":
            if any(e < 0 for e in self.exponents):
                raise ValueError("negative monomial exponent")
            if sum(self.exponents) > 4:
                raise ValueError("monomial degree above 4")
        elif self.kind not in ("sin", "cos", "exp"):
            raise ValueError(f"unknown feature kind {self.kind!r}")

    def to_json(self) -> dict:
        if self.kind == "mon":
            return {"kind": "mon", "exponents": list(self.exponents)}
        return {"kind": self.kind, "weights": list(self.weights), "bias": self.bias}

    @classmethod
    def from_json(cls, obj: dict) -> "Feature":
        if obj["kind"] == "mon":
            return cls(kind="mon", exponents=tuple(obj["exponents"]))
        return cls(kind=obj["kind"], weights=tuple(obj["weights"]), bias=float(obj["bias"]))


@_cached()
def monomial_features(slot_dim: int, max_degree: int = 3) -> list[Feature]:
    """All slot monomials with total degree in [1, max_degree], by degree
    and, within a degree, in reverse lexicographic order of the exponents
    ((1, 0) before (0, 1)), built once and given out as a new list.  Preset
    coefficients are drawn per feature in this order."""
    return [Feature(kind="mon", exponents=e)
            for deg in range(1, max_degree + 1)
            for e in reversed(all_multiindices(slot_dim, deg))]


@dataclass(frozen=True)
class SlotFunctionSpec:
    """f^k: the slot's feature vector mapped through a coefficient matrix."""

    slot_index: int
    features: tuple[Feature, ...]
    coefficients: np.ndarray  # (d_x, n_features)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", c)
        if c.ndim != 2 or c.shape[1] != len(self.features):
            raise ValueError("coefficient shape does not match feature count")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite slot coefficients")

    def to_json(self) -> dict:
        return {
            "slot_index": self.slot_index + 1,
            "features": [f.to_json() for f in self.features],
            "coefficients": self.coefficients.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SlotFunctionSpec":
        return cls(
            slot_index=int(obj["slot_index"]) - 1,
            features=tuple(Feature.from_json(f) for f in obj["features"]),
            coefficients=np.asarray(obj["coefficients"], dtype=float),
        )


@dataclass(frozen=True)
class InteractionTermSet:
    """Cross-slot monomial terms c_alpha z^alpha with |alpha| <= order_bound."""

    order_bound: int
    terms: tuple[tuple[MultiIndex, np.ndarray], ...] = ()

    def __post_init__(self):
        if self.order_bound < 0:
            raise ValueError("order bound must be >= 0")
        norm = tuple(
            (validate_multiindex(a), np.asarray(c, dtype=float)) for a, c in self.terms
        )
        object.__setattr__(self, "terms", tuple(sorted(norm, key=lambda t: t[0])))

    def to_json(self) -> dict:
        return {
            "order_bound": self.order_bound,
            "terms": [{"alpha": list(a), "c": c.tolist()} for a, c in self.terms],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "InteractionTermSet":
        return cls(
            order_bound=int(obj["order_bound"]),
            terms=tuple(
                (tuple(t["alpha"]), np.asarray(t["c"], dtype=float)) for t in obj["terms"]
            ),
        )


@dataclass(frozen=True)
class GeneratorSpec:
    partition: SlotPartition
    slot_functions: tuple[SlotFunctionSpec, ...]
    interactions: InteractionTermSet
    out_dim: int

    def __post_init__(self):
        if len(self.slot_functions) != self.partition.K:
            raise ValueError("one slot function per block required")
        for k, (sf, block) in enumerate(zip(self.slot_functions, self.partition.blocks)):
            if sf.slot_index != k:
                raise ValueError(f"slot function {k + 1} has slot_index {sf.slot_index + 1}")
            if sf.coefficients.shape[0] != self.out_dim:
                raise ValueError("slot function output dimension mismatch")
            for feat in sf.features:
                size = len(feat.exponents if feat.kind == "mon" else feat.weights)
                if size != len(block):
                    raise ValueError(f"slot {k + 1} has a {feat.kind} feature of length "
                                     f"{size}, expected {len(block)}")
        if self.interactions.terms:
            admissible = set(
                interaction_indices(self.partition, self.interactions.order_bound, upto=True)
            )
            for a, c in self.interactions.terms:
                if a not in admissible:
                    raise ValueError(f"interaction index {a} not in I_<= {self.interactions.order_bound}")
                if c.shape != (self.out_dim,):
                    raise ValueError("interaction coefficient length mismatch")

    batched = True  # __call__ takes (N, d_z) as well as (d_z,)

    @property
    def order_bound(self) -> int:
        return self.interactions.order_bound

    @cached_property
    def _tables(self):
        """The terms over the whole latent vector: every slot monomial and
        cross term in one exponent table (F, d_z) with output coefficients
        (F, d_x), and the sin/cos/exp features grouped by kind as
        (fn, W (d_z, G), b (G,), C (G, d_x))."""
        d = self.partition.latent_dim
        exps, mon_rows = [], []
        affine: dict[str, tuple[list, list, list]] = {}
        for sf, block in zip(self.slot_functions, self.partition.blocks):
            for feat, row in zip(sf.features, sf.coefficients.T):
                at = dict(zip(block, feat.exponents if feat.kind == "mon" else feat.weights,
                              strict=True))
                embedded = [at.get(i, 0) for i in range(d)]
                if feat.kind == "mon":
                    exps.append(embedded)
                    mon_rows.append(row)
                else:
                    W, b, C = affine.setdefault(feat.kind, ([], [], []))
                    W.append(embedded)
                    b.append(feat.bias)
                    C.append(row)
        for a, c in self.interactions.terms:
            exps.append(a)
            mon_rows.append(c)
        return (np.array(exps, dtype=int).reshape(-1, d),
                np.array(mon_rows).reshape(-1, self.out_dim),
                [(_AFFINE_FNS[kind], np.array(W, dtype=float).T, np.array(b), np.array(C))
                 for kind, (W, b, C) in affine.items()])

    def __call__(self, z: Sequence[float]) -> np.ndarray:
        """f(z) for one latent point (d_z,), or f at every row of (N, d_z)."""
        z = np.asarray(z, dtype=float)
        d = self.partition.latent_dim
        if z.ndim not in (1, 2) or z.shape[-1] != d:
            raise ValueError(f"latent points have shape {z.shape}, expected ({d},) or (N, {d})")
        exponents, coefficients, affine = self._tables
        x = monomials(z, exponents) @ coefficients
        for fn, W, b, C in affine:
            x += fn(z @ W + b) @ C
        return x

    def to_json(self) -> dict:
        return {
            "partition": self.partition.to_json(),
            "slot_functions": [sf.to_json() for sf in self.slot_functions],
            "interactions": self.interactions.to_json(),
            "out_dim": self.out_dim,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GeneratorSpec":
        return cls(
            partition=SlotPartition.from_json(obj["partition"]),
            slot_functions=tuple(SlotFunctionSpec.from_json(s) for s in obj["slot_functions"]),
            interactions=InteractionTermSet.from_json(obj["interactions"]),
            out_dim=int(obj["out_dim"]),
        )


# ---------------------------------------------------------------------------
# slot-wise diffeomorphisms and constructed model pairs


@dataclass(frozen=True)
class SlotMap:
    """Smooth invertible map on one slot: affine, or coordinate-wise
    monotone cubic u -> linear * u + cubic * u^3 (linear > 0, cubic >= 0)."""

    kind: str
    matrix: np.ndarray | None = None
    offset: np.ndarray | None = None
    linear: np.ndarray | None = None
    cubic: np.ndarray | None = None

    def __post_init__(self):
        names = {"affine": ("matrix", "offset"), "cubic": ("linear", "cubic")}.get(self.kind)
        if names is None:
            raise ValueError(f"unknown slot map kind {self.kind!r}")
        for name in names:
            if getattr(self, name) is None:  # np.asarray(None, dtype=float) is nan
                raise ValueError(f"{self.kind} slot map needs {name}")
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.kind == "affine":
            m, offset = self.matrix, self.offset
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"affine slot map matrix must be square, got shape {m.shape}")
            if offset.shape != (len(m),):
                raise ValueError(f"affine slot map offset has shape {offset.shape}, "
                                 f"expected ({len(m)},)")
            if abs(np.linalg.det(m)) <= 1e-8:
                raise ValueError("affine slot map is numerically singular")
        else:
            lin, cub = self.linear, self.cubic
            if lin.ndim != 1 or cub.shape != lin.shape:
                raise ValueError(f"cubic slot map needs linear and cubic of one size, "
                                 f"got shapes {lin.shape} and {cub.shape}")
            if np.any(lin <= 0) or np.any(cub < 0):
                raise ValueError("cubic slot map needs linear > 0 and cubic >= 0")

    @property
    def dim(self) -> int:
        return len(self.matrix) if self.kind == "affine" else len(self.linear)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """The map at a slot vector (dim,) or at every row of (N, dim)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "affine":
            return u @ self.matrix.T + self.offset
        return self.linear * u + self.cubic * (u * u * u)

    def invert(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.kind == "affine":
            return np.linalg.solve(self.matrix, (v - self.offset).T).T
        return _invert_cubic(v, self.linear, self.cubic)


def _invert_cubic(v: np.ndarray, linear: np.ndarray, cubic: np.ndarray) -> np.ndarray:
    """u with linear*u + cubic*u^3 = v per coordinate; monotone, so Newton from v/linear converges."""
    u = v / linear
    for _ in range(80):
        u2 = u * u
        r = linear * u + cubic * (u2 * u) - v
        u = u - r / (linear + 3 * cubic * u2)
        if np.max(np.abs(r)) < 1e-13:
            break
    return u


@dataclass(frozen=True)
class SlotwiseDiffeoSpec:
    """h(z)_{B_k} = maps[k](z_{B_{perm[k]}}): slot k of the output is a smooth
    invertible reshaping of input slot perm[k].  Sizes must match."""

    maps: tuple[SlotMap, ...]
    permutation: tuple[int, ...]

    def validate(self, partition: SlotPartition):
        if sorted(self.permutation) != list(range(partition.K)):
            raise ValueError("permutation must be a bijection on slots")
        for k, m in enumerate(self.maps):
            if m.dim != len(partition.blocks[self.permutation[k]]):
                raise ValueError("slot map size mismatch under permutation")
            if m.dim != len(partition.blocks[k]):
                raise ValueError("permutation pairs slots of different sizes")


class ComposedPair:
    """A manufactured disentangled model: f_hat = f o h with h slot-wise.

    latent_map evaluates f_hat^{-1} o f = h^{-1} directly (no generator
    inverse needed), which is exactly the map whose Jacobian the local
    disentanglement detector inspects.  The detector's recovered permutation
    should equal `permutation` (input slot c feeds output slot perm^... of
    h^{-1}; the column-to-row block map of D(h^{-1}) is perm itself).
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], partition: SlotPartition,
                 diffeo: SlotwiseDiffeoSpec):
        diffeo.validate(partition)
        self.f = f
        self.partition = partition
        self.diffeo = diffeo

    @property
    def permutation(self) -> tuple[int, ...]:
        return self.diffeo.permutation

    @property
    def batched(self) -> bool:
        return is_batched(self.f)

    def _slot_pairs(self):
        """(source block, destination block, slot map) for each output slot."""
        for k, m in enumerate(self.diffeo.maps):
            src = list(self.partition.blocks[self.diffeo.permutation[k]])
            yield src, list(self.partition.blocks[k]), m

    def h(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        for src, dst, m in self._slot_pairs():
            out[..., dst] = m(z[..., src])
        return out

    def h_inverse(self, y: np.ndarray) -> np.ndarray:
        """h^{-1}: a linear solve per affine slot, one Newton iteration for all cubic ones."""
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y)
        cubic = ([], [], [], [])  # source, destination, linear and cubic coefficients
        for src, dst, m in self._slot_pairs():
            if m.kind == "affine":
                out[..., src] = m.invert(y[..., dst])
            else:
                for acc, part in zip(cubic, (src, dst, m.linear, m.cubic)):
                    acc.extend(part)
        if cubic[0]:
            out[..., cubic[0]] = _invert_cubic(y[..., cubic[1]], *map(np.array, cubic[2:]))
        return out

    def model(self, z: np.ndarray) -> np.ndarray:
        u = self.h(z)
        return self.f(u) if u.ndim == 1 else evaluate(self.f, u)

    def latent_map(self, z: np.ndarray) -> np.ndarray:
        return self.h_inverse(z)


def compose_slotwise(spec, diffeo: SlotwiseDiffeoSpec,
                     partition: SlotPartition | None = None) -> ComposedPair:
    if partition is None:
        partition = spec.partition
    return ComposedPair(spec, partition, diffeo)


def random_equivalence(partition: SlotPartition, rng: np.random.Generator) -> SlotwiseDiffeoSpec:
    """A random slot-wise linear basis change y_{B_k} = M_k z_{B_k} as the affine
    maps of L^-1's blocks, unpermuted and with no offset, L^-1 drawn by
    asymmetry.random_basis_changes: S calls draw what one call of S samples
    draws.  Composed with f it is the equivalent generator f(L^-1 y)."""
    L_inv = asymmetry.random_basis_changes(partition, rng, 1)[0]
    return SlotwiseDiffeoSpec(
        tuple(SlotMap(kind="affine", matrix=L_inv[np.ix_(b, b)], offset=np.zeros(len(b)))
              for b in partition.blocks),
        tuple(range(partition.K)))


# ---------------------------------------------------------------------------
# latent supports
#
# A support is any object with sample(rng, n) -> (n, d) points on it and
# contains(Z) -> bool[n] for an (n, d) array.  Its Cartesian-product extension
# (CPE) is the product of its per-slot projections.


@dataclass(frozen=True)
class Box:
    """The cube [-1, 1]^dim.  A box is its own CPE, so it has no
    extrapolation region."""

    dim: int

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(-1, 1, size=(n, self.dim))

    def contains(self, Z: np.ndarray) -> np.ndarray:
        return np.all(np.abs(Z) <= 1.0, axis=1)


@dataclass(frozen=True)
class GraphBand:
    """Points of [-1, 1]^4 whose last coordinate lies within `width` of the
    monomial z0*z1*z2.  Width 0 pins the coordinate exactly, which is what
    makes spurious cross terms indistinguishable from true ones on the
    support.  Membership allows 1e-6 beyond the width, so that CPE points
    count as off the band only when they are clearly off it."""

    width: float

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        Z = rng.uniform(-1, 1, size=(n, 4))
        Z[:, 3] = Z[:, 0] * Z[:, 1] * Z[:, 2]
        if self.width > 0:
            Z[:, 3] += rng.uniform(-self.width, self.width, size=n)
        return Z

    def contains(self, Z: np.ndarray) -> np.ndarray:
        gap = np.abs(Z[:, 3] - Z[:, 0] * Z[:, 1] * Z[:, 2])
        return Box(4).contains(Z) & (gap <= self.width + 1e-6)


def sample_cpe(support, partition: SlotPartition, rng: np.random.Generator,
               n: int) -> np.ndarray:
    """n points of the CPE that lie off the support: the genuine
    extrapolation region.

    Each round draws one batch of 4n support samples per slot, takes slot k
    of every candidate from batch k, and keeps the candidates the support
    does not contain.  Raises RuntimeError once at least 10,000 candidates
    have been tried and fewer than 1e-4 of them were kept, which flags a CPE
    that (nearly) equals its support.
    """
    out = np.empty((0, partition.latent_dim))
    tried = 0
    while len(out) < n:
        batches = [support.sample(rng, 4 * n) for _ in partition.blocks]
        Z = np.empty_like(batches[0])
        for block, batch in zip(partition.blocks, batches):
            Z[:, list(block)] = batch[:, list(block)]
        out = np.concatenate([out, Z[~support.contains(Z)]])
        tried += len(Z)
        if tried >= 10_000 and len(out) < 1e-4 * tried:
            raise RuntimeError(
                f"CPE too close to its support to sample: kept {len(out)} of {tried}")
    return out[:n]


# ---------------------------------------------------------------------------
# preset families

PRESET_ORDERS = (0, 1, 2)  # the cross-interaction orders preset_generator builds


def required_output_dim(partition: SlotPartition, n: int) -> int:
    """Output dimension needed for the order-n rank conditions to be
    satisfiable: the column count of the order-n independence groups.  For
    n = 0 each multi-coordinate slot gets one spare output row on top, so
    that no slot's output group is square."""
    columns = sum(len(g) for _, g in independence_groups(partition, n))
    if n == 0:
        columns += sum(1 for b in partition.blocks if len(b) >= 2)
    return columns


def default_partition(n: int) -> SlotPartition:
    # two 2-d slots keep every within-slot split nontrivial while staying
    # cheap to probe at third order
    return SlotPartition(blocks=((0, 1), (2, 3)), latent_dim=4)


def _slot_features(slot_dim: int, include_trig: bool, rng: np.random.Generator) -> list[Feature]:
    feats = monomial_features(slot_dim, max_degree=3)
    if include_trig:
        w = rng.uniform(-0.6, 0.6, size=slot_dim)
        feats.append(Feature(kind="sin", weights=tuple(w), bias=float(rng.uniform(-0.5, 0.5))))
        w = rng.uniform(-0.6, 0.6, size=slot_dim)
        feats.append(Feature(kind="cos", weights=tuple(w), bias=float(rng.uniform(-0.5, 0.5))))
    return feats


def preset_generator(
    n: int,
    rng_seed,
    partition: SlotPartition | None = None,
    d_x: int | None = None,
    include_trig: bool = True,
) -> GeneratorSpec:
    """Random generator of declared cross-interaction order n in PRESET_ORDERS.

    Construction guarantees the cross bound exactly; the within-slot richness
    (every slot split interacts at order n+1) holds generically and is
    verified on a few probes, resampling coefficients (up to 20 draws) on
    the rare failure.  Cross coefficients are normal with scale 0.8.
    """
    if n not in PRESET_ORDERS:
        raise ValueError(f"preset order must be one of {PRESET_ORDERS}, got {n!r}")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    partition = partition or default_partition(n)
    need = required_output_dim(partition, n)
    d_x = d_x or need + 2
    if d_x < need:
        raise ValueError(f"d_x = {d_x} below the satisfiability count {need}")

    # n = 0: disjoint output rows per slot; otherwise all rows are shared
    row_ranges: list[tuple[int, int]] = []
    if n == 0:
        start = 0
        widths = [len(b) + 1 for b in partition.blocks]
        spare = d_x - sum(widths)
        widths[-1] += spare
        for w in widths:
            row_ranges.append((start, start + w))
            start += w
    else:
        row_ranges = [(0, d_x)] * partition.K

    for _ in range(20):
        slot_fns = []
        for k, b in enumerate(partition.blocks):
            feats = _slot_features(len(b), include_trig, rng)
            coeffs = np.zeros((d_x, len(feats)))
            r0, r1 = row_ranges[k]
            coeffs[r0:r1] = rng.normal(scale=1.0, size=(r1 - r0, len(feats)))
            slot_fns.append(SlotFunctionSpec(slot_index=k, features=tuple(feats), coefficients=coeffs))

        terms = ()
        if n >= 2:
            terms = tuple(
                (a, rng.normal(scale=0.8, size=d_x))
                for a in interaction_indices(partition, n, upto=True)
            )
        spec = GeneratorSpec(
            partition=partition,
            slot_functions=tuple(slot_fns),
            interactions=InteractionTermSet(order_bound=n, terms=terms),
            out_dim=d_x,
        )
        probes = rng.uniform(-0.9, 0.9, size=(3, partition.latent_dim))
        if asymmetry.check_within_slot_order(spec, partition, n, probes).passed:
            return spec
    raise RuntimeError("could not draw a generator with rich within-slot interactions")


def preset_family(n: int, count: int, base_seed: int, **kwargs) -> list[GeneratorSpec]:
    return [preset_generator(n, np.random.default_rng(base_seed + i), **kwargs) for i in range(count)]


def top_order_cross_nonzero(spec: GeneratorSpec) -> bool:
    """True when some cross coefficient of the declared top order is nonzero
    (the certificate that the generator must fail the order-(n-1) check).
    For n <= 1 the analogue is output sharing across slots, which the n = 1
    presets realize through full coefficient rows."""
    n = spec.order_bound
    if n >= 2:
        return any(sum(a) == n and np.any(c != 0) for a, c in spec.interactions.terms)
    if n == 1:
        rows = []
        for sf in spec.slot_functions:
            rows.append(set(np.nonzero(np.any(sf.coefficients != 0, axis=1))[0]))
        return any(rows[i] & rows[j] for i in range(len(rows)) for j in range(i + 1, len(rows)))
    return False
