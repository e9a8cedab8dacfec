"""Disentanglement metrics and Jacobian-structure detectors.

ARI compares pixel labelings through the contingency table, its pair counts
exact integers; J-ARI labels pixels by the slot whose Jacobian block moves
them most, and scores them on the same core; JIS measures how
concentrated each pixel's slot influence is; the position-only index
measures how often a pixel keeps its slot from image to image, and the slot
shares how the foreground splits between slots.  J-ARI and JIS also take
precomputed Jacobian norms, so a caller scoring both computes them once.
Background pixels (from the ground-truth renderer masks) are excluded from
all averages, as are pixels with an all-zero Jacobian row, and the exclusion
counts travel with the result.  block_permutation_structure and the local
disentanglement check detect slot-respecting Jacobians of latent maps.

Finite-difference Jacobians use the engine's one stencil
(derivatives.StencilConfig()).  The constants: a pixel's Jacobian row
counts as zero when its norms sum to at most ZERO_TOL = 1e-12; a Jacobian
block is active when its largest entry exceeds BLOCK_TOL = 1e-4 times the
matrix's largest entry; and local disentanglement needs one permutation on
at least AGREEMENT = 0.99 of the samples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .asymmetry import CheckReport
from .attention import analytic_slot_jacobian_norms, cross_attention_forward
from .derivatives import partials
from .multiindex import SlotPartition, unit_indices

ZERO_TOL = 1e-12
BLOCK_TOL = 1e-4
AGREEMENT = 0.99


@dataclass
class PixelAssignment:
    """Integer label per pixel plus the foreground mask the averages use."""

    labels: np.ndarray
    foreground: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        self.foreground = np.asarray(self.foreground, dtype=bool)
        if self.labels.shape != self.foreground.shape or self.labels.ndim != 1:
            raise ValueError("labels and foreground must be flat and aligned")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError("labels must be integers")


def assignment_from_masks(masks: np.ndarray) -> PixelAssignment:
    """Disjoint per-object masks (n_objects, H, W) to a flat assignment;
    uncovered pixels are background."""
    m = np.asarray(masks, dtype=bool)
    if m.ndim != 3:
        raise ValueError("expected (objects, height, width) masks")
    flat = m.reshape(m.shape[0], -1)
    if (flat.sum(axis=0) > 1).any():
        raise ValueError("masks must be disjoint")
    labels = np.full(flat.shape[1], -1, dtype=int)
    for k in range(flat.shape[0]):
        labels[flat[k]] = k
    return PixelAssignment(labels=labels, foreground=labels >= 0)


@dataclass
class MetricResult:
    value: float
    excluded_pixels: int

    def __float__(self) -> float:
        return self.value


def ari(a: PixelAssignment, b: PixelAssignment) -> float:
    """Adjusted Rand index between two labelings on their shared foreground;
    1 for identical partitions (up to relabeling) and for fewer than two
    shared pixels, about 0 for independent ones."""
    fg = a.foreground & b.foreground
    return _ari(a.labels[fg], b.labels[fg])


def _ari(la: np.ndarray, lb: np.ndarray) -> float:
    """ari of two aligned integer label arrays, the shared foreground only."""
    n = la.size
    if not n:
        raise ValueError("empty shared foreground")
    if n < 2:  # no pair of pixels to disagree on
        return 1.0
    # one bincount over the combined label codes; then the pair counts C(n_ij, 2) over
    # cells, rows and columns as exact integers, in Python (empty rows and columns dropped)
    la, lb = np.subtract(la, la.min(), dtype=np.int64), np.subtract(lb, lb.min(), dtype=np.int64)
    width = int(lb.max()) + 1
    table = np.bincount(la * width + lb, minlength=(int(la.max()) + 1) * width).reshape(-1, width)
    table = table[table.any(axis=1)][:, table.any(axis=0)].tolist()
    sum_cells = float(sum(x * (x - 1) for row in table for x in row) // 2)
    sum_rows = float(sum(r * (r - 1) for r in map(sum, table)) // 2)
    sum_cols = float(sum(c * (c - 1) for c in map(sum, zip(*table))) // 2)
    expected = sum_rows * sum_cols / (n * (n - 1) / 2.0)
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        # both labelings constant (single cluster each): perfect agreement
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def fd_slot_jacobian(decoder, z_hat: np.ndarray) -> np.ndarray:
    """Central-difference slot Jacobian in analytic_slot_jacobian's layout (K, n_pixels,
    channels, slot_dim).  decoder is an (attention layers, pixel head) pair, evaluated on the
    whole stencil in one batched pass, or a plain callable (K, slot_dim) -> (pixels, channels),
    evaluated one slot set at a time."""
    z = np.asarray(z_hat, dtype=float)
    if z.ndim != 2:
        raise ValueError("expected (K, slot_dim) slot latents")
    K, s = z.shape
    if isinstance(decoder, tuple):
        layers, head = decoder
        channels = head.W2.shape[0]

        def f(flat):
            return cross_attention_forward(layers, head, flat.reshape(-1, K, s))[0]
        f.batched = True
    else:
        channels = np.shape(decoder(z))[-1]

        def f(flat):
            return decoder(flat.reshape(K, s))

    jac, _ = partials(f, z.reshape(1, -1), unit_indices(K * s))
    # row k * s + r of jac[0] is d pixels / d z[k, r], flat over (pixel, channel)
    return np.moveaxis(jac.reshape(K, s, -1, channels), 1, -1)


def slot_jacobian_norms(decoder, z_hat: np.ndarray) -> np.ndarray:
    """Per-pixel L1 norms of each slot's Jacobian block, shape (n_pixels, K);
    the norm runs over the slot's coordinates and all pixel channels.

    decoder is as in fd_slot_jacobian; a single-layer, single-head pair
    takes the closed-form norms instead of central differences.
    """
    if isinstance(decoder, tuple) and len(decoder[0]) == 1 and decoder[0][0].n_heads == 1:
        return analytic_slot_jacobian_norms(decoder[0][0], decoder[1], z_hat)
    return np.sum(np.abs(fd_slot_jacobian(decoder, z_hat)), axis=(2, 3)).T


def j_ari(decoder, z_hat: np.ndarray, gt: PixelAssignment) -> MetricResult:
    """J-ARI of a decoder at z_hat: j_ari_from_norms on its slot Jacobian
    norms."""
    return j_ari_from_norms(slot_jacobian_norms(decoder, z_hat), gt)


def j_ari_from_norms(norms: np.ndarray, gt: PixelAssignment) -> MetricResult:
    """Assign each foreground pixel to the slot with the largest Jacobian
    L1 norm in norms (n_pixels, K), then ARI against the ground-truth
    objects.  Pixels whose whole Jacobian row is zero are excluded and
    counted."""
    if norms.shape[0] != gt.labels.shape[0]:
        raise ValueError("pixel counts disagree")
    fg = gt.foreground & (norms.sum(axis=1) > ZERO_TOL)
    excluded = int(np.count_nonzero(gt.foreground)) - int(np.count_nonzero(fg))
    value = _ari(norms.argmax(axis=1)[fg], gt.labels[fg])
    return MetricResult(value=value, excluded_pixels=excluded)


def jis(decoder, z_hat: np.ndarray, foreground: np.ndarray | None = None) -> MetricResult:
    """JIS of a decoder at z_hat: jis_from_norms on its slot Jacobian
    norms."""
    return jis_from_norms(slot_jacobian_norms(decoder, z_hat), foreground)


def jis_from_norms(norms: np.ndarray, foreground: np.ndarray | None = None) -> MetricResult:
    """Mean over foreground pixels of the largest entry of the L1-normalized
    slot-influence vector, a row of norms (n_pixels, K); 1 when every pixel
    belongs to one slot, 1/K when influence is uniform."""
    if foreground is None:
        foreground = np.ones(norms.shape[0], dtype=bool)
    foreground = np.asarray(foreground, dtype=bool)
    if foreground.shape != norms.shape[:1]:
        raise ValueError("pixel counts disagree")
    totals = norms.sum(axis=1)
    use = foreground & (totals > ZERO_TOL)
    n_use = int(np.count_nonzero(use))
    if not n_use:
        raise ValueError("no usable foreground pixels")
    # each row's largest share is its maximum over its total: division by a positive
    # total keeps the order of the rounded quotients
    shares = norms.max(axis=1)[use] / totals[use]
    return MetricResult(value=float(shares.mean()),
                        excluded_pixels=int(np.count_nonzero(foreground)) - n_use)


def position_only_index(norms: np.ndarray) -> float:
    """Fraction of pixels whose argmax slot is the same on every image of a
    norm stack (n_images, n_pixels, K).  1 means the pixel-to-slot map is a
    fixed spatial tessellation whatever the image shows; a decoder whose
    slots follow the objects scores below 1."""
    labels = np.argmax(np.asarray(norms), axis=-1)
    return float(np.mean(np.all(labels == labels[0], axis=0)))


def slot_shares(norms: np.ndarray, foreground: np.ndarray) -> np.ndarray:
    """Share of the foreground pixels of a norm stack (..., n_pixels, K) won
    by each argmax slot, descending; a pixel with an all-zero row wins none.
    (1, 0, 0) is one slot for every pixel, a K-way tessellation about 1/K each."""
    use = np.asarray(foreground, dtype=bool) & (np.sum(norms, axis=-1) > ZERO_TOL)
    if not np.any(use):
        raise ValueError("no usable foreground pixels")
    wins = np.bincount(np.argmax(norms, axis=-1)[use], minlength=np.shape(norms)[-1])
    return np.sort(wins / wins.sum())[::-1]


def block_permutation_structure(J: np.ndarray, partition: SlotPartition) -> tuple[int, ...] | None:
    """Slot permutation read off a square Jacobian's block pattern, or None.

    A block (r, c) is active when its largest entry exceeds BLOCK_TOL times
    the matrix's largest entry.  Returns pi with pi[c] = the single active row
    block of column block c, provided every row and column block has exactly
    one active partner and the matched blocks have equal sizes; the Jacobian
    of an inverse map yields the inverse permutation.
    """
    J = np.asarray(J, dtype=float)
    d = partition.latent_dim
    if J.shape != (d, d):
        raise ValueError("matrix must be square over the latent dimension")
    scale = float(np.max(np.abs(J)))
    if scale == 0:
        return None
    K = partition.K
    active = np.zeros((K, K), dtype=bool)
    for r in range(K):
        rows = list(partition.blocks[r])
        for c in range(K):
            cols = list(partition.blocks[c])
            active[r, c] = np.max(np.abs(J[np.ix_(rows, cols)])) > BLOCK_TOL * scale
    if not (np.all(active.sum(axis=0) == 1) and np.all(active.sum(axis=1) == 1)):
        return None
    pi = tuple(int(np.argmax(active[:, c])) for c in range(K))
    for c in range(K):
        if len(partition.blocks[pi[c]]) != len(partition.blocks[c]):
            return None
    return pi


def local_disentanglement_check(f, model_pair, support_samples) -> CheckReport:
    """Local disentanglement of a model against the ground truth.

    model_pair supplies the latent map h = (model inverse) o f, either
    directly as a callable or as an object with a latent_map attribute and a
    partition.  The map's finite-difference Jacobian must carry a block-
    permutation structure at every sample, with one permutation holding on
    at least the AGREEMENT fraction of samples; the winning permutation is
    reported in details["permutation"].
    """
    if callable(model_pair) and not hasattr(model_pair, "latent_map"):
        latent_map = model_pair
        partition = f.partition if hasattr(f, "partition") else None
    else:
        latent_map = model_pair.latent_map
        partition = model_pair.partition
    if partition is None:
        raise ValueError("no slot partition available for the latent map")
    samples = np.asarray(support_samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[None]
    jacobians, _ = partials(latent_map, samples, unit_indices(samples.shape[1]))
    perms = []
    witnesses = []
    for z, J in zip(samples, jacobians):
        pi = block_permutation_structure(J.T, partition)
        perms.append(pi)
        if pi is None:
            witnesses.append({"point": [float(v) for v in z],
                              "index": {"reason": "no block permutation"},
                              "value": 0.0})
    found = [p for p in perms if p is not None]
    if not found:
        return CheckReport(
            name="local_disentanglement", passed=False, margin=-1.0,
            witnesses=witnesses, probes_used=len(samples), probes_passed=0,
            details={"permutation": None},
        )
    winner, _ = Counter(found).most_common(1)[0]
    agree = 0
    for z, pi in zip(samples, perms):
        if pi == winner:
            agree += 1
        elif pi is not None:
            witnesses.append({"point": [float(v) for v in z],
                              "index": {"permutation": [p + 1 for p in pi]},
                              "value": 0.0})
    frac = agree / len(samples)
    passed = all(p is not None for p in perms) and frac >= AGREEMENT
    return CheckReport(
        name="local_disentanglement",
        passed=passed,
        margin=float(frac - AGREEMENT) if passed else float(frac - 1.0),
        witnesses=witnesses,
        probes_used=len(samples),
        probes_passed=agree,
        details={"permutation": [p + 1 for p in winner], "agreement": frac},
    )
