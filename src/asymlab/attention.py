"""Softmax attention, the cross-attention decoder built on it, its analytic
per-slot Jacobian, and the attention-overlap regularizer.

softmax_rows and _softmax_backward are the one softmax and its gradient
core, along any axis.  attend/attend_backward build the encoder's softmax
attention (Vaswani et al. 2017) on them, and the decoder its layers.

The decoder maps K slot vectors to pixels: keys and values come from the
slots, queries from fixed per-pixel inputs (first layer) or the previous
layer's tokens, each pixel's token is the attention-weighted value mix, and
a small smooth head turns the final token into RGB (the last layer's tokens
are never formed: their value mixes go through the head's first layer).
Attention over slots is the only place pixel values can mix information
across slots, which is what the regularizer measures and the Jacobian
analysis exploits.

Inside the decoder every per-pixel array is pixel-last, with the P pixels
on its last, contiguous axis: attention weights (B, n_heads, K, P) with the
softmax over the slot axis -2, queries ([B,] n_heads, head_dim, P), tokens
(B, d_q, P), the pixel head's activations (B, hidden, P) and pixels
(B, C, P).  So every max, sum and broadcast over the K slots adds whole
pixel rows, and every product has P as its long axis.  The public functions
keep the (P, K) and (P, C) conventions: they return transposed views and
take such views back without a copy.  The single-layer, single-head closed
form factors the slot Jacobian as A^T (K, P), M^T (s, P) and the head's
derivative times [W_V | V^T - token], (C, s+K, P), pixel-last too.

All forward/backward routines accept either a single slot set (K, slot_dim)
or a batch (B, K, slot_dim).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


def softmax_rows(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along one axis with the max along it subtracted, so finite
    logits never overflow; non-finite logits raise FloatingPointError.  The
    decoder takes it over the slot axis -2 of pixel-last weights (..., K, P),
    where the max and the sum add whole contiguous pixel rows."""
    logits = np.asarray(logits, dtype=float)
    if not np.isfinite(logits).all():
        raise FloatingPointError("softmax input must be finite")
    e = logits - logits.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_backward(gA: np.ndarray, A: np.ndarray, scale: float, axis: int = -1) -> np.ndarray:
    """Gradient on the logits of A = softmax_rows(scale * logits, axis) from
    the gradient gA on A, written into gA."""
    gA -= (gA * A).sum(axis=axis, keepdims=True)
    gA *= A
    gA *= scale
    return gA


def attend(Q: np.ndarray, K: np.ndarray, V: np.ndarray, scale: float):
    """Softmax attention of queries (..., n, d) over keys (..., m, d) mixing
    values (..., m, e); leading axes broadcast.  Returns (out, A) with
    A = softmax over the key axis of scale * Q K^T and out = A V."""
    A = softmax_rows(scale * (Q @ K.swapaxes(-1, -2)))
    return A @ V, A


def attend_backward(g_out, A, Q, K, V, scale: float):
    """Gradients (gQ, gK, gV) of attend, each in its input's shape, from the
    gradient on its output; Q, K and V share their batch axes."""
    g_logits = _softmax_backward(g_out @ V.swapaxes(-1, -2), A, scale)
    return g_logits @ K, g_logits.swapaxes(-1, -2) @ Q, A.swapaxes(-1, -2) @ g_out


def weight_gradient(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of a weight W in y = x @ W.T from g (..., T, out) and
    x (..., T, in): g^T x summed over every leading index, as one product
    over all the rows."""
    return g.reshape(-1, g.shape[-1]).T @ x.reshape(-1, x.shape[-1])


def _pixel_weight_gradient(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """weight_gradient for pixel-last g (..., out, P) and x (..., in, P):
    g x^T per leading index, summed.  Stacked, not one product: with the
    pixel head's 3 output rows, one product over (B, P) pairs is slower."""
    return (g @ x.swapaxes(-1, -2)).sum(axis=tuple(range(g.ndim - 2)))


@functools.lru_cache(maxsize=16)
def _ones(n: int) -> np.ndarray:
    """n ones, read-only and kept between calls: the vector that sums a matrix's
    rows as a product."""
    v = np.ones(n)
    v.flags.writeable = False
    return v


def bias_gradient(g: np.ndarray) -> np.ndarray:
    """Gradient of a bias from g (..., out): g summed over its leading axes, as
    a product with ones (np.sum over two leading axes runs about 7x slower)."""
    return _ones(g.size // g.shape[-1]) @ g.reshape(-1, g.shape[-1])


@dataclass
class CrossAttentionLayer:
    """One decoder layer: W_K, W_V project slots to keys/values, W_Q projects
    query inputs.  query_inputs holds the fixed per-pixel vectors o_l for the
    first layer; deeper layers read queries from the previous layer's tokens
    and leave it None.  When scaling is on, logits are divided by the square
    root of the per-head query dimension."""

    W_K: np.ndarray
    W_V: np.ndarray
    W_Q: np.ndarray
    query_inputs: np.ndarray | None = None
    scaling: bool = False
    n_heads: int = 1

    def __post_init__(self):
        self.W_K = np.asarray(self.W_K, dtype=float)
        self.W_V = np.asarray(self.W_V, dtype=float)
        self.W_Q = np.asarray(self.W_Q, dtype=float)
        if self.W_K.shape != self.W_V.shape:
            raise ValueError("key and value projections must share a shape")
        if self.W_Q.shape[0] != self.W_K.shape[0]:
            raise ValueError("query projection must land in the key dimension")
        for m in (self.W_K, self.W_V, self.W_Q):
            if not np.all(np.isfinite(m)):
                raise ValueError("layer weights must be finite")
        if self.query_inputs is not None:
            self.query_inputs = np.asarray(self.query_inputs, dtype=float)
            if self.query_inputs.shape[-1] != self.W_Q.shape[1]:
                raise ValueError("query inputs do not match the query projection")
        if self.n_heads < 1 or self.W_K.shape[0] % self.n_heads:
            raise ValueError("head count must divide the key dimension")

    @property
    def d_q(self) -> int:
        return self.W_K.shape[0]

    @property
    def slot_dim(self) -> int:
        return self.W_K.shape[1]

    @property
    def head_dim(self) -> int:
        return self.d_q // self.n_heads


@dataclass
class PixelHead:
    """Smooth two-layer map from a token to RGB: W2 tanh(W1 t + b1) + b2.
    tanh is C-infinity, so the whole decoder stays smooth enough for
    third-derivative checks."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        self.W1 = np.asarray(self.W1, dtype=float)
        self.b1 = np.asarray(self.b1, dtype=float)
        self.W2 = np.asarray(self.W2, dtype=float)
        self.b2 = np.asarray(self.b2, dtype=float)
        if self.W1.shape[0] != self.b1.shape[0] or self.W2.shape[0] != self.b2.shape[0]:
            raise ValueError("bias shapes must match layer widths")
        if self.W2.shape[1] != self.W1.shape[0]:
            raise ValueError("head layers do not compose")

    def __call__(self, token: np.ndarray) -> np.ndarray:
        return np.tanh(token @ self.W1.T + self.b1) @ self.W2.T + self.b2


def positional_query_inputs(
    height: int,
    width: int,
    d_o: int,
    rng_seed: int = 0,
) -> np.ndarray:
    """Fixed per-pixel query vectors: 2-D sinusoidal encodings (4 frequencies
    geometric between 1 and half the pixel count) pushed through a seeded
    2-layer tanh map to d_o dimensions.  Constant per image size and seed."""
    n_pix = height * width
    freqs = np.geomspace(1.0, max(n_pix / 2.0, 2.0), 4)
    ys, xs = np.divmod(np.arange(n_pix), width)
    coords = np.stack([xs / max(width - 1, 1), ys / max(height - 1, 1)], axis=1)
    feats = []
    for f in freqs:
        ang = 2.0 * np.pi * f * coords
        feats.extend([np.sin(ang), np.cos(ang)])
    enc = np.concatenate(feats, axis=1)
    rng = np.random.default_rng(rng_seed)
    hidden = 2 * d_o
    W1 = rng.normal(scale=1.0 / np.sqrt(enc.shape[1]), size=(hidden, enc.shape[1]))
    b1 = rng.normal(scale=0.1, size=hidden)
    W2 = rng.normal(scale=1.0 / np.sqrt(hidden), size=(d_o, hidden))
    b2 = rng.normal(scale=0.1, size=d_o)
    return np.tanh(enc @ W1.T + b1) @ W2.T + b2


@dataclass
class ForwardCache:
    """Intermediates of one decoder forward pass, consumed by the backward
    pass.  Every per-pixel array is pixel-last.  Per layer: the query inputs
    ([B,] d_in, P), the queries ([B,] n_heads, head_dim, P), the keys and
    values (B, n_heads, K, head_dim) and the attention weights
    (B, n_heads, K, P); the first layer's query inputs and queries, shared
    by the batch, have no batch axis.  The last layer also keeps the two
    factors of the pixel head's first layer, VWb (B, hidden, n_heads*K + 1),
    its slot values through W1 with b1 as the last column, and A1
    (B, n_heads*K + 1, P), its weights with a row of ones under them.
    decoder_backward consumes the cache, overwriting the pixel head's
    activations head_hidden (B, hidden, P) with their gradient."""

    slots: np.ndarray
    per_layer: list = field(default_factory=list)
    head_hidden: np.ndarray | None = None
    batched: bool = True
    buffers: dict | None = None


def _split_heads(X: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, n_heads * d) -> (..., n_heads, T, d)."""
    return X.reshape(X.shape[:-1] + (n_heads, -1)).swapaxes(-2, -3)


def _merge_heads(X: np.ndarray) -> np.ndarray:
    """(..., n_heads, T, d) -> (..., T, n_heads * d)."""
    X = X.swapaxes(-2, -3)
    return X.reshape(X.shape[:-2] + (-1,))


def _scale(layer: CrossAttentionLayer) -> float:
    return 1.0 / math.sqrt(layer.head_dim) if layer.scaling else 1.0


def _scratch(buffers: dict | None, name: str, shape: tuple) -> np.ndarray | None:
    """out= for a product: the caller's kept array `name`, so a training loop
    does not fault its (B, hidden, P) arrays in anew every step; None without."""
    if buffers is not None and (name not in buffers or buffers[name].shape != shape):
        buffers[name] = np.empty(shape)
    return None if buffers is None else buffers[name]


def cross_attention_forward(
    layers: Sequence[CrossAttentionLayer],
    head: PixelHead,
    z_hat: np.ndarray,
    with_cache: bool = False,
    buffers: dict | None = None,
):
    """Run the decoder on slot vectors.

    Returns (pixels, attention): pixels ([B,] P, C) and, per layer, the
    (n_heads, [B,] P, K) softmax weights; with_cache=True returns a third
    ForwardCache element.  Both are transposed views of the pixel-last
    arrays the decoder computes.  First layer queries come from its
    query_inputs; each deeper layer queries the previous layer's tokens, and
    the pixel head applies only after the last layer.  A buffers dict lends
    its arrays to this pass and its backward pass until the next pass with
    the same dict; pixels are always new.
    """
    if not layers:
        raise ValueError("need at least one layer")
    z = np.asarray(z_hat, dtype=float)
    if not np.isfinite(z).all():
        raise FloatingPointError("slot vectors must be finite")
    batched = z.ndim == 3
    if not batched:
        z = z[None]
    B, K, slot_dim = z.shape
    if K < 1:
        raise ValueError("need at least one slot")
    if layers[0].query_inputs is None:
        raise ValueError("first layer must carry query inputs")
    for ly in layers:
        if ly.slot_dim != slot_dim:
            raise ValueError("layer slot dimension does not match input")

    cache = ForwardCache(slots=z, batched=batched, buffers=buffers)
    q_in = layers[0].query_inputs.T
    P = q_in.shape[-1]
    attn_all = []
    for li, ly in enumerate(layers):
        if ly.W_Q.shape[1] != q_in.shape[-2]:
            raise ValueError("layer query projection does not match prior tokens")
        Q = (ly.W_Q @ q_in).reshape(q_in.shape[:-2] + (ly.n_heads, -1, P))
        Kk, V = (_split_heads(z @ W.T, ly.n_heads) for W in (ly.W_K, ly.W_V))
        A = softmax_rows((_scale(ly) * Kk) @ Q, axis=-2)
        A_heads = A.transpose(1, 0, 3, 2)
        attn_all.append(A_heads if batched else A_heads[:, 0])
        cache.per_layer.append({"q_in": q_in, "Q": Q, "K": Kk, "V": V, "A": A})
        if li < len(layers) - 1:
            q_in = (V.swapaxes(-1, -2) @ A).reshape(B, -1, P)
    # the last layer's tokens V_h^T A_h are not formed: hidden = sum_h (W1_h V_h^T) A_h + b1,
    # W1_h the head-h columns of W1, is one product [VW | b1] @ [A; 1] over the (head, slot)
    # pairs and a row of ones, (B, hidden, H*K + 1) @ (B, H*K + 1, P), into the kept array
    H = A.shape[1]
    VWb = np.empty((B, head.b1.size, H * K + 1))
    VWb[..., :-1] = (_split_heads(head.W1, H) @ V.swapaxes(-1, -2)).transpose(0, 2, 1, 3).reshape(
        B, -1, H * K)
    VWb[..., -1] = head.b1
    A1 = np.concatenate([A.reshape(B, H * K, P), np.ones((B, 1, P))], axis=1)
    cache.per_layer[-1].update(VWb=VWb, A1=A1)
    hidden = np.matmul(VWb, A1, out=_scratch(buffers, "hidden", (B, head.b1.size, P)))
    cache.head_hidden = np.tanh(hidden, out=hidden)
    pixels = head.W2 @ hidden
    pixels += head.b2[:, None]
    pixels = pixels.swapaxes(-1, -2)
    if not batched:
        pixels = pixels[0]
    if with_cache:
        return pixels, attn_all, cache
    return pixels, attn_all


def aggregate_attention(attention) -> np.ndarray:
    """Elementwise sum of the attention matrices over layers and heads,
    deliberately not renormalized: a pixel splitting mass across slots in
    any head or layer keeps a visible overlap in the sum."""
    if not len(attention):
        raise ValueError("no attention matrices to aggregate")
    return sum(np.sum(heads, axis=0) for heads in attention)


def _interact(A: np.ndarray, grad_scale: float | None = None):
    """l_interact of pixel-last weights A (B, K, P), unchecked; given grad_scale,
    also grad_scale times l_interact_grad's gradient, pixel-last."""
    row_sum = A.sum(axis=-2, keepdims=True)
    pair = row_sum[:, 0] ** 2 - (A**2).sum(axis=-2)  # twice each pixel's pairwise products
    value = 0.5 * float(pair.sum(axis=-1).mean())
    if grad_scale is None:
        return value
    g = row_sum - A
    g *= grad_scale / A.shape[0]
    return value, g


def l_interact(A) -> float:
    """Sum over pixels of all pairwise products of a pixel's attention to
    two different slots, averaged over the batch if one is present.  Zero
    exactly when every pixel's row has at most one nonzero entry."""
    v = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("attention weights must be finite")
    if np.any(v < 0):
        raise ValueError("attention weights must be non-negative")
    if v.ndim == 2:
        v = v[None]
    return _interact(np.swapaxes(v, -1, -2))


def l_interact_grad(A_sum: np.ndarray) -> np.ndarray:
    """Gradient of l_interact with respect to the aggregated matrix."""
    v = np.asarray(A_sum, dtype=float)
    single = v.ndim == 2
    if single:
        v = v[None]
    g = np.swapaxes(_interact(np.swapaxes(v, -1, -2), 1.0)[1], -1, -2)
    return g[0] if single else g


def _closed_form_factors(layer: CrossAttentionLayer, head: PixelHead, z_hat: np.ndarray):
    """Checks, then weights A^T (K, P), queries through W_K M^T (s, P) and
    F (C, s+K, P) = dpsi_d [W_V | V^T - token_d]; dpsi_d = W2 diag(tanh') W1 at pixel d."""
    if layer.n_heads != 1:
        raise ValueError("closed form covers single-head layers only")
    if layer.query_inputs is None:
        raise ValueError("layer must carry query inputs")
    z = np.asarray(z_hat, dtype=float)
    if z.ndim != 2:
        raise ValueError("expected an unbatched (K, slot_dim) slot array")
    root = math.sqrt(layer.d_q) if layer.scaling else 1.0
    MT = (layer.W_K.T @ layer.W_Q / root) @ layer.query_inputs.T
    AT = softmax_rows(z @ MT, axis=-2)
    s, K, P = MT.shape[0], z.shape[0], MT.shape[1]
    # (s+K, hidden): W1 [W_V | V^T]
    rows = (head.W1 @ np.concatenate((layer.W_V, layer.W_V @ z.T), axis=1)).T
    # W1 token_d + b1 = (W1 V^T + b1 1^T) A_d, the weights summing to 1; then tanh' in place
    dtanh = (rows[s:] + head.b1).T @ AT
    np.tanh(dtanh, out=dtanh)
    np.subtract(1.0, np.square(dtanh, out=dtanh), out=dtanh)
    F = ((head.W2[:, None, :] * rows).reshape(-1, rows.shape[1]) @ dtanh).reshape(-1, s + K, P)
    Fv = F[:, s:]  # dpsi_d V^T, less its weighted mix dpsi_d token_d = sum_k A_dk dpsi_d V_k
    Fv -= (Fv * AT).sum(axis=1, keepdims=True)
    return AT, MT, F


def analytic_slot_jacobian(layer: CrossAttentionLayer, head: PixelHead,
                           z_hat: np.ndarray) -> np.ndarray:
    """Closed-form d pixel / d slot for a single-layer, single-head decoder.

    Shape (K, n_pixels, out_dim, slot_dim); entry [m, d] is the block
    d x_hat_d / d z_m.  Differentiating through both the value mix and the
    softmax gives, with M_d = W_Q o_d projected through W_K and the head's
    derivative dpsi_d at the token token_d = sum_k A_dk W_V z_k:

        A_dm (dpsi_d W_V + dpsi_d (W_V z_m - token_d) M_d)

    so a slot with A_dm = 0 contributes an exactly zero block.  When scaling
    is on, M_d carries the same 1/sqrt(d_q) factor as the logits.
    """
    AT, MT, F = _closed_form_factors(layer, head, z_hat)
    s = MT.shape[0]
    u = F[:, s:].transpose(1, 2, 0)  # (K, P, C): dpsi_d (W_V z_m - token_d)
    return AT[:, :, None, None] * (F[:, :s].transpose(2, 0, 1) + u[..., None] * MT.T[:, None, :])


def analytic_slot_jacobian_norms(layer: CrossAttentionLayer, head: PixelHead,
                                 z_hat: np.ndarray) -> np.ndarray:
    """(n_pixels, K) L1 norms of analytic_slot_jacobian's blocks, not formed: block (m, d) is
    A_dm (dpsi_d W_V + u_md M_d), u_md = dpsi_d (V_m - token_d), and A_dm >= 0 factors out.
    All channels in one (C, s, K, P) pass, summed over (C, s) as a product with ones."""
    AT, MT, F = _closed_form_factors(layer, head, z_hat)
    s, (K, P) = MT.shape[0], AT.shape
    buf = F[:, None, s:] * MT[:, None]  # u_md M_d
    buf += F[:, :s, None]
    acc = _ones(buf.size // (K * P)) @ np.abs(buf, out=buf).reshape(-1, K * P)
    return (acc.reshape(K, P) * AT).T


def decoder_backward(
    layers: Sequence[CrossAttentionLayer],
    head: PixelHead,
    cache: ForwardCache,
    grad_pixels: np.ndarray,
    grad_attention: np.ndarray | None = None,
):
    """Reverse-mode pass through the decoder.

    grad_pixels matches the forward pass's pixels ([B,] P, C); grad_attention,
    if given, is the gradient ([B,] P, K) with respect to the aggregated
    attention matrix and is routed identically into every layer/head softmax
    (aggregation is a plain sum).  Transposed views of pixel-last arrays
    are taken without a copy.
    Returns (grad_slots, layer_grads, head_grads) with one parameter dict
    per layer.
    """
    z = cache.slots
    hh, cache.head_hidden = cache.head_hidden, None
    if hh is None:
        raise ValueError("this forward cache was consumed by an earlier backward pass")
    g_out = np.asarray(grad_pixels, dtype=float).swapaxes(-1, -2).reshape(
        -1, head.b2.size, hh.shape[-1])
    head_grads = {"W2": _pixel_weight_gradient(g_out, hh),
                  "b2": _ones(len(g_out)) @ (g_out @ _ones(g_out.shape[-1]))}
    g_pre = np.subtract(1.0, np.square(hh, out=hh), out=hh)  # (1 - hh^2) (W2^T g_out), into hh
    g_pre *= np.matmul(head.W2.T, g_out, out=_scratch(cache.buffers, "g_hidden", hh.shape))

    B, H, K, P = cache.per_layer[-1]["A"].shape
    g_A = None
    if grad_attention is not None:  # as (B, 1, K, P): the same for every head
        g_A = np.asarray(grad_attention, dtype=float).swapaxes(-1, -2).reshape(B, 1, K, P)

    # the last layer through hidden = [VW | b1] [A; 1], VW_h = W1_h V_h^T: with
    # [G | g_b1] = g_pre [A; 1]^T, b1 gets sum_b g_b1, W1_h gets sum_b G_h V_h,
    # A_h gets VW_h^T g_pre and V_h gets G_h^T W1_h
    c = cache.per_layer[-1]
    G1 = g_pre @ c["A1"].swapaxes(-1, -2)
    head_grads["b1"] = _ones(B) @ G1[..., -1]
    G = G1[..., :-1].reshape(B, -1, H, K).transpose(0, 2, 1, 3)
    head_grads["W1"] = _merge_heads((G @ c["V"]).sum(axis=0))
    gA = (c["VWb"][..., :-1].swapaxes(-1, -2) @ g_pre).reshape(B, H, K, P)
    gV = G.swapaxes(-1, -2) @ _split_heads(head.W1, H)

    g_slots = np.zeros_like(z)
    layer_grads: list[dict[str, np.ndarray]] = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        ly, c = layers[li], cache.per_layer[li]
        A, Q, Kk, V = c["A"], c["Q"], c["K"], c["V"]
        H, hd = Q.shape[-3:-1]
        if li < len(layers) - 1:  # through the tokens V_h^T A_h the next layer queried
            g_tok = (layers[li + 1].W_Q.T @ gQ).reshape(B, H, hd, P)
            gA = V @ g_tok
            gV = A @ g_tok.swapaxes(-1, -2)
        if g_A is not None:
            gA += g_A
        g_logits = _softmax_backward(gA, A, _scale(ly), axis=-2)
        if li:
            gK = g_logits @ Q.swapaxes(-1, -2)
            gQ = (Kk.swapaxes(-1, -2) @ g_logits).reshape(B, -1, P)
        else:  # queries shared by the batch: one product per head over (example, slot) pairs
            rows = g_logits.transpose(1, 0, 2, 3).reshape(H, B * K, P)
            keys = Kk.transpose(1, 0, 2, 3).reshape(H, B * K, hd)
            gK = (rows @ Q.swapaxes(-1, -2)).reshape(H, B, K, hd).transpose(1, 0, 2, 3)
            gQ = (keys.swapaxes(-1, -2) @ rows).reshape(-1, P)
        gK, gV = _merge_heads(gK), _merge_heads(gV)
        layer_grads[li] = {"W_K": weight_gradient(gK, z), "W_V": weight_gradient(gV, z),
                           "W_Q": _pixel_weight_gradient(gQ, c["q_in"])}
        g_slots += gK @ ly.W_K + gV @ ly.W_V
    return g_slots if cache.batched else g_slots[0], layer_grads, head_grads


def random_decoder(
    rng_seed: int,
    n_pixels: int,
    K: int,
    slot_dim: int,
    d_q: int = 8,
    n_heads: int = 1,
    scaling: bool = False,
    n_layers: int = 1,
) -> tuple[list[CrossAttentionLayer], PixelHead]:
    """Seeded random decoder instance, sized for tests and toy training:
    6-d query inputs, a 10-unit pixel head with RGB outputs, and normal
    weights scaled by 0.7 / sqrt(fan-in)."""
    rng = np.random.default_rng(rng_seed)
    layers = []
    for li in range(n_layers):
        in_dim = 6 if li == 0 else d_q
        layers.append(
            CrossAttentionLayer(
                W_K=0.7 * rng.normal(size=(d_q, slot_dim)) / np.sqrt(slot_dim),
                W_V=0.7 * rng.normal(size=(d_q, slot_dim)) / np.sqrt(slot_dim),
                W_Q=0.7 * rng.normal(size=(d_q, in_dim)) / np.sqrt(in_dim),
                query_inputs=rng.normal(size=(n_pixels, 6)) if li == 0 else None,
                scaling=scaling,
                n_heads=n_heads,
            )
        )
    head = PixelHead(
        W1=0.7 * rng.normal(size=(10, d_q)) / np.sqrt(d_q),
        b1=0.1 * rng.normal(size=10),
        W2=0.7 * rng.normal(size=(3, 10)) / np.sqrt(10),
        b2=0.1 * rng.normal(size=3),
    )
    return layers, head
