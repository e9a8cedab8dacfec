"""Constructive ground-truth generators with bounded cross-slot interaction.

A generator is built in the characterized additive-plus-cross-monomial form

    f(z) = sum_k f^k(z_{B_k}) + sum_{alpha in I_{<=n}} c_alpha z^alpha

so its interaction order across slots is n by construction: all cross
partials of order n+1 vanish identically, while the top-order cross
coefficients (when nonzero) witness failure at order n-1.  Slot functions
f^k draw from monomials (degree <= 4) and sin/cos/exp of affine forms, all
C^3.  The n = 0 regime has no admissible cross monomials at all; there the
constraint is structural: slot functions write to disjoint output rows.

Also provided: slot-wise linear basis changes (equivalent generators),
slot-wise diffeomorphisms with a slot permutation (for manufacturing
disentangled model pairs), and latent supports that are regular closed,
path-connected and aligned-connected by construction.  Generators,
equivalent generators and composed pairs take one latent point (d_z,) or a
batch (N, d_z) and evaluate a batch with array operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .derivatives import evaluate, is_batched
from .multiindex import (
    MultiIndex,
    SlotPartition,
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

    def __call__(self, u: np.ndarray):
        """The feature of a slot vector (a float), or of every row of an
        (N, slot_dim) array (an (N,) array)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "mon":
            out = monomials(u, [self.exponents])[..., 0]
        else:
            out = _AFFINE_FNS[self.kind](u @ np.asarray(self.weights) + self.bias)
        return float(out) if u.ndim == 1 else out

    def to_json(self) -> dict:
        if self.kind == "mon":
            return {"kind": "mon", "exponents": list(self.exponents)}
        return {"kind": self.kind, "weights": list(self.weights), "bias": self.bias}

    @classmethod
    def from_json(cls, obj: dict) -> "Feature":
        if obj["kind"] == "mon":
            return cls(kind="mon", exponents=tuple(obj["exponents"]))
        return cls(kind=obj["kind"], weights=tuple(obj["weights"]), bias=float(obj["bias"]))


def monomial_features(slot_dim: int, max_degree: int = 3, min_degree: int = 1) -> list[Feature]:
    """All slot monomials with total degree in [min_degree, max_degree]."""
    feats = []
    for deg in range(min_degree, max_degree + 1):
        for positions in itertools.combinations_with_replacement(range(slot_dim), deg):
            e = [0] * slot_dim
            for p in positions:
                e[p] += 1
            feats.append(Feature(kind="mon", exponents=tuple(e)))
    return feats


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
        for sf in self.slot_functions:
            if sf.coefficients.shape[0] != self.out_dim:
                raise ValueError("slot function output dimension mismatch")
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
                embedded = np.zeros(d)
                if feat.kind == "mon":
                    embedded[list(block)] = feat.exponents
                    exps.append(embedded)
                    mon_rows.append(row)
                else:
                    embedded[list(block)] = feat.weights
                    W, b, C = affine.setdefault(feat.kind, ([], [], []))
                    W.append(embedded)
                    b.append(feat.bias)
                    C.append(row)
        for a, c in self.interactions.terms:
            exps.append(a)
            mon_rows.append(c)
        return (np.array(exps, dtype=int).reshape(-1, d),
                np.array(mon_rows).reshape(-1, self.out_dim),
                [(_AFFINE_FNS[kind], np.array(W).T, np.array(b), np.array(C))
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
# equivalent generators (slot-wise linear basis changes)


@dataclass(frozen=True)
class EquivalenceTransform:
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        ms = tuple(np.asarray(m, dtype=float) for m in self.matrices)
        object.__setattr__(self, "matrices", ms)
        for m in ms:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("slot transform must be square")
            if abs(np.linalg.det(m)) <= 1e-8:
                raise ValueError("slot transform is numerically singular")

    def inverse(self) -> "EquivalenceTransform":
        return EquivalenceTransform(tuple(np.linalg.inv(m) for m in self.matrices))


def identity_transform(partition: SlotPartition) -> EquivalenceTransform:
    return EquivalenceTransform(tuple(np.eye(len(b)) for b in partition.blocks))


def random_equivalence(
    partition: SlotPartition,
    rng: np.random.Generator,
    spread: float = 0.5,
    max_cond: float = 50.0,
) -> EquivalenceTransform:
    """M_k = I + spread * G with G uniform in [-1, 1], resampled until the
    condition number stays below max_cond (keeps the family well-behaved and
    every draw reproducible from the generator state)."""
    mats = []
    for b in partition.blocks:
        d = len(b)
        while True:
            m = np.eye(d) + spread * rng.uniform(-1, 1, size=(d, d))
            if np.linalg.cond(m) <= max_cond:
                mats.append(m)
                break
    return EquivalenceTransform(tuple(mats))


class EquivalentGenerator:
    """f_bar with f_bar(M_1 z_{B_1}, ..., M_K z_{B_K}) = f(z), evaluated as
    f_bar(y) = f(M_1^{-1} y_{B_1}, ...)."""

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], partition: SlotPartition,
                 transform: EquivalenceTransform):
        if len(transform.matrices) != partition.K:
            raise ValueError("one transform block per slot required")
        for m, b in zip(transform.matrices, partition.blocks):
            if m.shape[0] != len(b):
                raise ValueError("transform block size does not match slot size")
        self.f = f
        self.partition = partition
        self.transform = transform
        self._inv = [np.linalg.inv(m) for m in transform.matrices]

    @property
    def batched(self) -> bool:
        return is_batched(self.f)

    def _slotwise(self, mats, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        for m, b in zip(mats, self.partition.blocks):
            out[..., list(b)] = v[..., list(b)] @ m.T
        return out

    def push_point(self, z: np.ndarray) -> np.ndarray:
        """Map latent points (d,) or (N, d) into the transformed basis,
        y_{B_k} = M_k z_{B_k}."""
        return self._slotwise(self.transform.matrices, z)

    def __call__(self, y: Sequence[float]) -> np.ndarray:
        z = self._slotwise(self._inv, y)
        return self.f(z) if z.ndim == 1 else evaluate(self.f, z)


def apply_equivalence(
    spec,
    transform: EquivalenceTransform,
    partition: SlotPartition | None = None,
) -> EquivalentGenerator:
    """Equivalent generator of a GeneratorSpec or any callable with a partition."""
    if partition is None:
        partition = spec.partition
    return EquivalentGenerator(spec, partition, transform)


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
        if self.kind == "affine":
            m = np.asarray(self.matrix, dtype=float)
            if abs(np.linalg.det(m)) <= 1e-8:
                raise ValueError("affine slot map is numerically singular")
            object.__setattr__(self, "matrix", m)
            object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float))
        elif self.kind == "cubic":
            lin = np.asarray(self.linear, dtype=float)
            cub = np.asarray(self.cubic, dtype=float)
            if np.any(lin <= 0) or np.any(cub < 0):
                raise ValueError("cubic slot map needs linear > 0 and cubic >= 0")
            object.__setattr__(self, "linear", lin)
            object.__setattr__(self, "cubic", cub)
        else:
            raise ValueError(f"unknown slot map kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return len(self.matrix) if self.kind == "affine" else len(self.linear)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """The map at a slot vector (dim,) or at every row of (N, dim)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "affine":
            return u @ self.matrix.T + self.offset
        return self.linear * u + self.cubic * u**3

    def invert(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.kind == "affine":
            return np.linalg.solve(self.matrix, (v - self.offset).T).T
        # strictly monotone scalar equations; Newton from v/linear converges
        u = v / self.linear
        for _ in range(80):
            r = self.linear * u + self.cubic * u**3 - v
            u = u - r / (self.linear + 3 * self.cubic * u**2)
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
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y)
        for src, dst, m in self._slot_pairs():
            out[..., src] = m.invert(y[..., dst])
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


# ---------------------------------------------------------------------------
# latent supports


@dataclass(frozen=True)
class LatentSupport:
    """Regular closed, path-connected, aligned-connected supports by
    construction.

    kind "box":   product of per-coordinate intervals [lo_i, hi_i].
    kind "band":  the box intersected with couplings |z_i - z_j| <= w.
    kind "union": a union of overlapping-or-disjoint boxes (each box given
                  as a (lo, hi) pair); used for supports strictly smaller
                  than their Cartesian-product extension.
    """

    kind: str
    lo: tuple[float, ...] = ()
    hi: tuple[float, ...] = ()
    bands: tuple[tuple[int, int, float], ...] = ()
    boxes: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...] = ()

    def __post_init__(self):
        if self.kind not in ("box", "band", "union"):
            raise ValueError(f"unknown support kind {self.kind!r}")
        if self.kind in ("box", "band"):
            if len(self.lo) != len(self.hi) or not self.lo:
                raise ValueError("box bounds malformed")
            if any(l >= h for l, h in zip(self.lo, self.hi)):
                raise ValueError("box bounds must satisfy lo < hi")
        if self.kind == "band" and not self.bands:
            raise ValueError("band support needs at least one coupling")
        if self.kind == "union":
            if not self.boxes:
                raise ValueError("union support needs at least one box")
            dims = {len(b[0]) for b in self.boxes} | {len(b[1]) for b in self.boxes}
            if len(dims) != 1:
                raise ValueError("union boxes must share a dimension")

    @property
    def dim(self) -> int:
        if self.kind == "union":
            return len(self.boxes[0][0])
        return len(self.lo)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "union":
            los = np.array([b[0] for b in self.boxes])
            his = np.array([b[1] for b in self.boxes])
            return los.min(axis=0), his.max(axis=0)
        return np.asarray(self.lo), np.asarray(self.hi)

    def contains(self, z: Sequence[float]) -> bool:
        z = np.asarray(z, dtype=float)
        if self.kind == "union":
            return any(
                bool(np.all(z >= np.asarray(lo)) and np.all(z <= np.asarray(hi)))
                for lo, hi in self.boxes
            )
        inside = bool(np.all(z >= np.asarray(self.lo)) and np.all(z <= np.asarray(self.hi)))
        if not inside or self.kind == "box":
            return inside
        return all(abs(z[i] - z[j]) <= w for i, j, w in self.bands)

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind in ("box", "band"):
            out["lo"] = list(self.lo)
            out["hi"] = list(self.hi)
        if self.kind == "band":
            out["bands"] = [[i + 1, j + 1, w] for i, j, w in self.bands]
        if self.kind == "union":
            out["boxes"] = [[list(lo), list(hi)] for lo, hi in self.boxes]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "LatentSupport":
        kind = obj["kind"]
        if kind == "union":
            return cls(kind=kind, boxes=tuple(
                (tuple(lo), tuple(hi)) for lo, hi in obj["boxes"]
            ))
        bands = tuple((i - 1, j - 1, w) for i, j, w in obj.get("bands", []))
        return cls(kind=kind, lo=tuple(obj["lo"]), hi=tuple(obj["hi"]), bands=bands)


def sample_support(support: LatentSupport, count: int, rng_seed) -> np.ndarray:
    """Uniform samples on the support by rejection from the bounding box.

    Deterministic given the seed (or a Generator).  Aborts when acceptance
    drops below 1e-4, which flags supports too thin to sample honestly.
    """
    if count < 1:
        raise ValueError("need count >= 1")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    lo, hi = support.bounding_box()
    out = np.empty((count, support.dim))
    got = 0
    drawn = 0
    while got < count:
        batch = rng.uniform(lo, hi, size=(max(64, count), support.dim))
        drawn += len(batch)
        for z in batch:
            if support.contains(z):
                out[got] = z
                got += 1
                if got == count:
                    break
        if drawn >= 10_000 and got / drawn < 1e-4:
            raise RuntimeError(
                f"support too thin to sample: acceptance {got}/{drawn}"
            )
    return out


def cpe_of(support: LatentSupport, partition: SlotPartition) -> LatentSupport:
    """Cartesian-product extension: product of the per-slot projections.

    Boxes are their own CPE.  Band supports lose their cross-slot couplings
    (each slot's projection is the full sub-box); couplings within one slot
    survive projection.  A union of boxes extends to all mixed products of
    per-slot projections, again a union of boxes.
    """
    if support.kind == "box":
        return support
    if support.kind == "band":
        kept = tuple(
            (i, j, w)
            for i, j, w in support.bands
            if partition.block_of(i) == partition.block_of(j)
        )
        if not kept:
            return LatentSupport(kind="box", lo=support.lo, hi=support.hi)
        return LatentSupport(kind="band", lo=support.lo, hi=support.hi, bands=kept)
    # union: per slot, each source box projects to a sub-box of that slot's
    # coordinates; the CPE is every cross-combination glued back together
    d = support.dim
    combos = itertools.product(range(len(support.boxes)), repeat=partition.K)
    boxes = []
    for combo in combos:
        lo = np.empty(d)
        hi = np.empty(d)
        for k, src in enumerate(combo):
            idx = list(partition.blocks[k])
            lo[idx] = np.asarray(support.boxes[src][0])[idx]
            hi[idx] = np.asarray(support.boxes[src][1])[idx]
        boxes.append((tuple(lo), tuple(hi)))
    uniq = sorted(set(boxes))
    return LatentSupport(kind="union", boxes=tuple(uniq))


def sample_cpe_complement(
    support: LatentSupport,
    partition: SlotPartition,
    count: int,
    rng_seed,
    max_draw: int = 200_000,
) -> np.ndarray:
    """Samples from CPE(support) \\ support: the genuine extrapolation region."""
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    cpe = cpe_of(support, partition)
    out = np.empty((count, support.dim))
    got = 0
    drawn = 0
    while got < count:
        z = sample_support(cpe, 1, rng)[0]
        drawn += 1
        if not support.contains(z):
            out[got] = z
            got += 1
        if drawn > max_draw:
            raise RuntimeError("CPE complement appears empty (support equals its CPE?)")
    return out


# ---------------------------------------------------------------------------
# preset families


def required_output_dim(partition: SlotPartition, n: int) -> int:
    """Output dimension needed for the order-n rank conditions to be
    satisfiable (counts of distinct derivative columns; for n = 0 the count
    gives each multi-coordinate slot one spare output row so that no slot's
    output group is square)."""
    sizes = [len(b) for b in partition.blocks]
    d_z = partition.latent_dim
    if n == 0:
        return d_z + sum(1 for s in sizes if s >= 2)
    if n == 1:
        return sum(s * (s + 1) // 2 for s in sizes) + d_z
    if n == 2:
        return (
            sum(s * (s + 1) * (s + 2) // 6 for s in sizes)
            + d_z * (d_z + 1) // 2
            + d_z
        )
    raise ValueError(f"unsupported interaction order {n}")


def default_partition(n: int) -> SlotPartition:
    # two 2-d slots keep every within-slot split nontrivial while staying
    # cheap to probe at third order
    return SlotPartition(blocks=((0, 1), (2, 3)), latent_dim=4)


def default_support(d_z: int) -> LatentSupport:
    return LatentSupport(kind="box", lo=(-1.0,) * d_z, hi=(1.0,) * d_z)


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
    cross_scale: float = 0.8,
    max_resample: int = 20,
) -> GeneratorSpec:
    """Random generator of declared cross-interaction order n in {0, 1, 2}.

    Construction guarantees the cross bound exactly; the within-slot richness
    (every slot split interacts at order n+1) holds generically and is
    verified on a few probes, resampling coefficients on the rare failure.
    """
    if n not in (0, 1, 2):
        raise ValueError("preset order must be 0, 1 or 2")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    partition = partition or default_partition(n)
    d_x = d_x or (required_output_dim(partition, n) + 2)
    if d_x < required_output_dim(partition, n):
        raise ValueError(
            f"d_x = {d_x} below the satisfiability count {required_output_dim(partition, n)}"
        )

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

    from .asymmetry import check_within_slot_order  # deferred: avoids module cycle

    for _ in range(max_resample):
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
                (a, rng.normal(scale=cross_scale, size=d_x))
                for a in interaction_indices(partition, n, upto=True)
            )
        spec = GeneratorSpec(
            partition=partition,
            slot_functions=tuple(slot_fns),
            interactions=InteractionTermSet(order_bound=n, terms=terms),
            out_dim=d_x,
        )
        probes = rng.uniform(-0.9, 0.9, size=(3, partition.latent_dim))
        if check_within_slot_order(spec, partition, n, probes).passed:
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
