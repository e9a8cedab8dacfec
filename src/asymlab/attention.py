"""Softmax attention, the cross-attention decoder built on it, its analytic
per-slot Jacobian, and the attention-overlap regularizer.

attend/attend_backward are the one softmax-attention primitive (Vaswani et
al. 2017) and its gradient, with heads carried as an array axis; the
encoder and every decoder layer share its gradient core.

The decoder maps K slot vectors to pixels: keys and values come from the
slots, queries from fixed per-pixel inputs (first layer) or the previous
layer's tokens, each pixel's token is the attention-weighted value mix, and
a small smooth head turns the final token into RGB (the last layer's tokens
are never formed: their value mixes go through the head's first layer).
Attention over slots is the only place pixel values can mix information
across slots, which is what the regularizer measures and the Jacobian
analysis exploits.

All forward/backward routines accept either a single slot set (K, slot_dim)
or a batch (B, K, slot_dim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with rowwise max subtraction so finite
    logits never overflow; non-finite logits raise FloatingPointError."""
    logits = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("softmax input must be finite")
    # the max as one pass per slot over the transposed rows, as _sum_last explains
    rows = logits.reshape(-1, logits.shape[-1]).T.copy()
    e = np.exp(logits - rows.max(axis=0).reshape(logits.shape[:-1] + (1,)))
    e /= _sum_last(e)[..., None]
    return e


def _sum_last(x: np.ndarray) -> np.ndarray:
    """np.sum over the last axis as a product: numpy reduces a short last
    axis (K = 3 slots) row by row, about 20x slower."""
    return x @ np.ones(x.shape[-1])


def attend(Q: np.ndarray, K: np.ndarray, V: np.ndarray, scale: float):
    """Softmax attention of queries (..., n, d) over keys (..., m, d) mixing
    values (..., m, e); leading axes broadcast.  Returns (out, A) with
    A = softmax over the key axis of scale * Q K^T and out = A V."""
    A = softmax_rows(scale * (Q @ np.swapaxes(K, -1, -2)))
    return A @ V, A


def attend_backward(g_out, A, Q, K, V, scale: float, g_A=None):
    """Gradients (gQ, gK, gV) of attend, each in its input's shape, from the
    gradient on its output and, if given, g_A on the weights (broadcast
    against A)."""
    gA = g_out @ np.swapaxes(V, -1, -2)
    if g_A is not None:
        gA += g_A
    return (*attention_weights_backward(gA, A, Q, K, scale), np.swapaxes(A, -1, -2) @ g_out)


def attention_weights_backward(gA, A, Q, K, scale: float):
    """Gradients (gQ, gK) of the weights A of attend from the gradient gA on A;
    queries with fewer batch axes than the keys get theirs summed over them."""
    g_logits = scale * A * (gA - _sum_last(gA * A)[..., None])
    gK = np.swapaxes(g_logits, -1, -2) @ Q
    # the n batch axes Q lacks flattened into the key axis: (..., P, N*K) @ (..., N*K, d)
    n = g_logits.ndim - Q.ndim
    rows = np.moveaxis(g_logits.reshape((-1,) + g_logits.shape[n:]), 0, -2)
    keys = np.moveaxis(K.reshape((-1,) + K.shape[n:]), 0, -3)
    gQ = rows.reshape(rows.shape[:-2] + (-1,)) @ keys.reshape(keys.shape[:-3] + (-1, K.shape[-1]))
    return gQ, gK


def weight_gradient(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of a weight W in y = x @ W.T from g (..., T, out) and
    x (..., T, in): g^T x per leading index, summed.  One product over all
    rows at once would be large enough for a threaded BLAS to split, which
    slows down training runs that share the cores with each other."""
    return np.sum(np.swapaxes(g, -1, -2) @ x, axis=tuple(range(g.ndim - 2)))


def bias_gradient(g: np.ndarray) -> np.ndarray:
    """Gradient of a bias from g (..., out): g summed over its leading axes, as
    a product with ones (np.sum over two leading axes runs about 7x slower)."""
    return np.ones(g.size // g.shape[-1]) @ g.reshape(-1, g.shape[-1])


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
    pass.  Per layer: the query inputs, and Q, K, V and the attention
    weights with heads as an axis, (B, n_heads, tokens, head_dim) and
    (B, n_heads, P, K); the first layer's queries, shared by the batch, have
    no batch axis.  decoder_backward consumes the cache, overwriting the
    pixel head's activations head_hidden with their gradient."""

    slots: np.ndarray
    per_layer: list = field(default_factory=list)
    head_hidden: np.ndarray | None = None
    batched: bool = True
    buffers: dict | None = None


def _split_heads(X: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, n_heads * d) -> (..., n_heads, T, d)."""
    return np.swapaxes(X.reshape(X.shape[:-1] + (n_heads, -1)), -2, -3)


def _merge_heads(X: np.ndarray) -> np.ndarray:
    """(..., n_heads, T, d) -> (..., T, n_heads * d)."""
    X = np.swapaxes(X, -2, -3)
    return X.reshape(X.shape[:-2] + (-1,))


def _scale(layer: CrossAttentionLayer) -> float:
    return 1.0 / np.sqrt(layer.head_dim) if layer.scaling else 1.0


def _scratch(buffers: dict | None, name: str, shape: tuple) -> np.ndarray | None:
    """out= for a product: the caller's kept array `name`, so a training loop
    does not fault its (B, P, d) arrays in anew every step; None without."""
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

    Returns (pixels, attention) where attention is a list over layers of
    (n_heads, [B,] P, K) arrays of softmax weights; with_cache=True returns
    a third ForwardCache element.  First layer queries come from its
    query_inputs; each deeper layer queries the previous layer's tokens, and
    the pixel head applies only after the last layer.  A buffers dict lends
    its arrays to this pass and its backward pass until the next pass with
    the same dict; pixels are always new.
    """
    if not layers:
        raise ValueError("need at least one layer")
    z = np.asarray(z_hat, dtype=float)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("slot vectors must be finite")
    batched = z.ndim == 3
    if not batched:
        z = z[None]
    K, slot_dim = z.shape[1:]
    if K < 1:
        raise ValueError("need at least one slot")
    if layers[0].query_inputs is None:
        raise ValueError("first layer must carry query inputs")
    for ly in layers:
        if ly.slot_dim != slot_dim:
            raise ValueError("layer slot dimension does not match input")

    cache = ForwardCache(slots=z, batched=batched, buffers=buffers)
    q_in = layers[0].query_inputs
    attn_all = []
    for li, ly in enumerate(layers):
        if ly.W_Q.shape[1] != q_in.shape[-1]:
            raise ValueError("layer query projection does not match prior tokens")
        Q, Kk, V = (_split_heads(X, ly.n_heads)
                    for X in (q_in @ ly.W_Q.T, z @ ly.W_K.T, z @ ly.W_V.T))
        # K^T contiguous: numpy's stacked matmul takes a transposed operand ~2x slower
        A = softmax_rows(_scale(ly) * (Q @ np.ascontiguousarray(np.swapaxes(Kk, -1, -2))))
        A_heads = np.moveaxis(A, 1, 0)
        attn_all.append(A_heads if batched else A_heads[:, 0])
        cache.per_layer.append({"q_in": q_in, "Q": Q, "K": Kk, "V": V, "A": A})
        if li < len(layers) - 1:
            q_in = _merge_heads(A @ V)
    # the last layer's tokens A_h V_h are not formed: hidden = sum_h A_h (V_h W1_h^T),
    # W1_h the head-h columns of W1, as (B, P, H*K) @ (B, H*K, hidden), in place
    B, H, P = A.shape[:3]
    VW = V @ np.swapaxes(_split_heads(head.W1, H), -1, -2)
    hidden = np.matmul(np.moveaxis(A, 1, 2).reshape(B, P, -1), VW.reshape(B, H * K, -1),
                       out=_scratch(buffers, "hidden", (B, P) + head.b1.shape))
    hidden += head.b1
    cache.head_hidden = np.tanh(hidden, out=hidden)
    pixels = hidden @ np.ascontiguousarray(head.W2.T) + head.b2
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
    row_sum = _sum_last(v)
    pair = 0.5 * (row_sum**2 - _sum_last(v**2))
    return float(np.mean(np.sum(pair, axis=-1)))


def l_interact_grad(A_sum: np.ndarray) -> np.ndarray:
    """Gradient of l_interact with respect to the aggregated matrix."""
    v = np.asarray(A_sum, dtype=float)
    single = v.ndim == 2
    if single:
        v = v[None]
    g = (_sum_last(v)[..., None] - v) / v.shape[0]
    return g[0] if single else g


def _closed_form_factors(layer: CrossAttentionLayer, head: PixelHead, z_hat: np.ndarray):
    """Checks, then weights A (P, K), queries through W_K M (P, s), F (C, s+K, P) =
    dpsi_d [W_V | V^T] and mix (C, P) = dpsi_d token_d; dpsi_d = W2 diag(tanh') W1 at pixel d."""
    if layer.n_heads != 1:
        raise ValueError("closed form covers single-head layers only")
    if layer.query_inputs is None:
        raise ValueError("layer must carry query inputs")
    z = np.asarray(z_hat, dtype=float)
    if z.ndim != 2:
        raise ValueError("expected an unbatched (K, slot_dim) slot array")
    Q = layer.query_inputs @ layer.W_Q.T
    root = np.sqrt(layer.d_q) if layer.scaling else 1.0
    M, A, V = Q @ layer.W_K / root, softmax_rows(Q @ (z @ layer.W_K.T).T / root), z @ layer.W_V.T
    s, K, P = M.shape[1], V.shape[0], M.shape[0]
    h = head.W1 @ (A @ V).T
    dtanh = 1.0 - np.tanh(h + head.b1[:, None]) ** 2
    mix = head.W2 @ (dtanh * h)
    rows = (head.W1 @ np.hstack([layer.W_V, V.T])).T  # times W2 and tanh': dpsi [W_V | V^T]
    F = ((head.W2[:, None, :] * rows).reshape(-1, rows.shape[1]) @ dtanh).reshape(-1, s + K, P)
    return A, M, F, mix


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
    A, M, F, mix = _closed_form_factors(layer, head, z_hat)
    s = M.shape[1]
    u = np.moveaxis(F[:, s:], 0, -1) - mix.T  # (K, P, C): dpsi_d (W_V z_m - token_d)
    return A.T[:, :, None, None] * (np.moveaxis(F[:, :s], -1, 0) + u[..., None] * M[:, None, :])


def analytic_slot_jacobian_norms(layer: CrossAttentionLayer, head: PixelHead,
                                 z_hat: np.ndarray) -> np.ndarray:
    """(n_pixels, K) L1 norms of analytic_slot_jacobian's blocks, not formed: block (m, d) is
    A_dm (dpsi_d W_V + u_md M_d), u_md = dpsi_d (V_m - token_d), and A_dm >= 0 factors out."""
    A, M, F, mix = _closed_form_factors(layer, head, z_hat)
    s, K, P = M.shape[1], A.shape[1], M.shape[0]
    MT, buf, acc = np.ascontiguousarray(M.T)[:, None], np.empty((s, K, P)), np.zeros(K * P)
    for c in range(F.shape[0]):
        np.multiply(F[c, s:] - mix[c], MT, out=buf)  # u_md M_d
        buf += F[c, :s, None]
        acc += np.ones(s) @ np.abs(buf, out=buf).reshape(s, -1)
    return (acc.reshape(K, P) * A.T).T


def decoder_backward(
    layers: Sequence[CrossAttentionLayer],
    head: PixelHead,
    cache: ForwardCache,
    grad_pixels: np.ndarray,
    grad_attention: np.ndarray | None = None,
):
    """Reverse-mode pass through the decoder.

    grad_pixels matches the forward pass's pixels; grad_attention, if given,
    is the gradient with respect to the aggregated attention matrix and is
    routed identically into every layer/head softmax (aggregation is a plain
    sum).
    Returns (grad_slots, layer_grads, head_grads) with one parameter dict
    per layer.
    """
    g_out = np.asarray(grad_pixels, dtype=float)
    if g_out.ndim == 2:
        g_out = g_out[None]
    z = cache.slots
    hh, cache.head_hidden = cache.head_hidden, None
    if hh is None:
        raise ValueError("this forward cache was consumed by an earlier backward pass")
    head_grads = {"W2": weight_gradient(g_out, hh), "b2": bias_gradient(g_out)}
    g_pre = np.subtract(1.0, np.square(hh, out=hh), out=hh)  # (1 - hh^2) (g_out W2), into hh
    g_pre *= np.matmul(g_out, head.W2, out=_scratch(cache.buffers, "g_hidden", hh.shape))

    g_A = None
    if grad_attention is not None:  # as (B, 1, P, K): the same for every head
        g_A = np.asarray(grad_attention, dtype=float).reshape(
            (-1, 1) + cache.per_layer[0]["A"].shape[2:])

    # the last layer through hidden = sum_h A_h (V_h W1_h^T): with AG_h = A_h^T g_pre,
    # W1_h gets sum_b AG_h^T V_h, A_h g_pre (W1_h V_h^T) and V_h AG_h W1_h
    ly, c = layers[-1], cache.per_layer[-1]
    W1h, AG = _split_heads(head.W1, ly.n_heads), np.swapaxes(c["A"], -1, -2) @ g_pre[:, None]
    head_grads["W1"] = _merge_heads(np.sum(np.swapaxes(AG, -1, -2) @ c["V"], axis=0))
    head_grads["b1"] = bias_gradient(g_pre)
    gA = g_pre[:, None] @ (W1h @ np.swapaxes(c["V"], -1, -2))
    if g_A is not None:
        gA += g_A
    grads = (*attention_weights_backward(gA, c["A"], c["Q"], c["K"], _scale(ly)), AG @ W1h)

    g_slots = np.zeros_like(z)
    layer_grads: list[dict[str, np.ndarray]] = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        ly, c = layers[li], cache.per_layer[li]
        if li < len(layers) - 1:
            grads = attend_backward(_split_heads(g_tok, ly.n_heads), c["A"], c["Q"], c["K"],
                                    c["V"], _scale(ly), g_A)
        gQ, gK, gV = (_merge_heads(g) for g in grads)
        layer_grads[li] = {"W_K": weight_gradient(gK, z), "W_V": weight_gradient(gV, z),
                           "W_Q": weight_gradient(gQ, c["q_in"])}
        g_slots += gK @ ly.W_K + gV @ ly.W_V
        g_tok = gQ @ ly.W_Q if li else None
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
