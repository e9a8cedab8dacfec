"""Cross-attention decoder, its analytic per-slot Jacobian, and the
attention-overlap regularizer.

The decoder maps K slot vectors to pixels: keys and values come from the
slots, queries from fixed per-pixel inputs (first layer) or the previous
layer's tokens, each pixel's token is the attention-weighted value mix, and
a small smooth head turns the final token into RGB.  Attention over slots is
the only place pixel values can mix information across slots, which is what
the regularizer measures and the Jacobian analysis exploits.

All forward/backward routines accept either a single slot set (K, slot_dim)
or a batch (B, K, slot_dim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


def softmax_rows(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with rowwise max subtraction so finite logits never overflow;
    non-finite logits raise FloatingPointError."""
    logits = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("softmax input must be finite")
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


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

    def jacobian(self, token: np.ndarray) -> np.ndarray:
        """d psi / d token, shape (..., out_dim, d_q)."""
        dact = 1.0 - np.tanh(token @ self.W1.T + self.b1) ** 2
        # (..., out, hidden) * (..., hidden) -> contract with W1
        return np.einsum("oh,...h,hd->...od", self.W2, dact, self.W1)


def positional_query_inputs(
    height: int,
    width: int,
    d_o: int,
    rng_seed: int = 0,
    n_freq: int = 4,
) -> np.ndarray:
    """Fixed per-pixel query vectors: 2-D sinusoidal encodings (frequencies
    geometric between 1 and half the pixel count) pushed through a seeded
    2-layer tanh map to d_o dimensions.  Constant per image size and seed."""
    n_pix = height * width
    freqs = np.geomspace(1.0, max(n_pix / 2.0, 2.0), n_freq)
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
    pass.  Each layer's attention is one (n_heads, B, P, K) array."""

    slots: np.ndarray
    per_layer: list = field(default_factory=list)
    token_final: np.ndarray | None = None
    head_hidden: np.ndarray | None = None
    batched: bool = True


def _head_slices(layer: CrossAttentionLayer):
    d = layer.head_dim
    return [slice(h * d, (h + 1) * d) for h in range(layer.n_heads)]


def cross_attention_forward(
    layers: Sequence[CrossAttentionLayer],
    head: PixelHead,
    z_hat: np.ndarray,
    with_cache: bool = False,
):
    """Run the decoder on slot vectors.

    Returns (pixels, attention) where attention is a list over layers of
    (n_heads, [B,] P, K) arrays of softmax weights; with_cache=True returns
    a third ForwardCache element.  First layer queries come from its
    query_inputs; each deeper layer queries the previous layer's tokens, and
    the pixel head applies only after the last layer.
    """
    if not layers:
        raise ValueError("need at least one layer")
    z = np.asarray(z_hat, dtype=float)
    if not np.all(np.isfinite(z)):
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

    cache = ForwardCache(slots=z, batched=batched)
    n_pix = layers[0].query_inputs.shape[0]
    tokens = None
    attn_all = []
    for li, ly in enumerate(layers):
        if li == 0:
            q_in = np.broadcast_to(ly.query_inputs, (B, n_pix, ly.query_inputs.shape[1]))
        else:
            if ly.W_Q.shape[1] != tokens.shape[-1]:
                raise ValueError("layer query projection does not match prior tokens")
            q_in = tokens
        Q = q_in @ ly.W_Q.T
        Kk = z @ ly.W_K.T
        V = z @ ly.W_V.T
        per_head = []
        out = np.empty((B, n_pix, ly.d_q))
        for sl in _head_slices(ly):
            logits = np.einsum("bpd,bkd->bpk", Q[..., sl], Kk[..., sl])
            if ly.scaling:
                logits = logits / np.sqrt(ly.head_dim)
            A = softmax_rows(logits)
            out[..., sl] = np.einsum("bpk,bkd->bpd", A, V[..., sl])
            per_head.append(A)
        A_layer = np.stack(per_head)
        attn_all.append(A_layer if batched else A_layer[:, 0])
        cache.per_layer.append({"q_in": q_in, "Q": Q, "K": Kk, "V": V, "A": A_layer})
        tokens = out
    cache.token_final = tokens
    cache.head_hidden = np.tanh(tokens @ head.W1.T + head.b1)
    pixels = cache.head_hidden @ head.W2.T + head.b2
    if not batched:
        pixels = pixels[0]
    if with_cache:
        return pixels, attn_all, cache
    return pixels, attn_all


def aggregate_attention(attention) -> np.ndarray:
    """Elementwise sum of the attention matrices over layers and heads,
    deliberately not renormalized: a pixel splitting mass across slots in
    any head or layer keeps a visible overlap in the sum."""
    flat = [A for layer in attention for A in layer]
    if not flat:
        raise ValueError("no attention matrices to aggregate")
    total = flat[0].copy()
    for A in flat[1:]:
        total += A
    return total


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
    row_sum = np.sum(v, axis=-1)
    pair = 0.5 * (row_sum**2 - np.sum(v**2, axis=-1))
    return float(np.mean(np.sum(pair, axis=-1)))


def l_interact_grad(A_sum: np.ndarray) -> np.ndarray:
    """Gradient of l_interact with respect to the aggregated matrix."""
    v = np.asarray(A_sum, dtype=float)
    single = v.ndim == 2
    if single:
        v = v[None]
    g = (np.sum(v, axis=-1, keepdims=True) - v) / v.shape[0]
    return g[0] if single else g


def analytic_slot_jacobian(
    layer: CrossAttentionLayer,
    head: PixelHead,
    z_hat: np.ndarray,
) -> np.ndarray:
    """Closed-form d pixel / d slot for a single-layer, single-head decoder.

    Shape (K, n_pixels, out_dim, slot_dim); entry [m, d] is the block
    d x_hat_d / d z_m.  Differentiating through both the value mix and the
    softmax gives, with M_d = W_Q o_d projected through W_K:

        A_dm * dpsi (W_V + (W_V z_m) M_d) - dpsi (sum_k A_dk W_V z_k) M_d A_dm

    so a slot with A_dm = 0 contributes an exactly zero block.  When scaling
    is on, M_d carries the same 1/sqrt(d_q) factor as the logits.
    """
    if layer.n_heads != 1:
        raise ValueError("closed form covers single-head layers only")
    if layer.query_inputs is None:
        raise ValueError("layer must carry query inputs")
    z = np.asarray(z_hat, dtype=float)
    if z.ndim != 2:
        raise ValueError("expected an unbatched (K, slot_dim) slot array")
    Q = layer.query_inputs @ layer.W_Q.T
    M = Q @ layer.W_K
    if layer.scaling:
        M = M / np.sqrt(layer.d_q)
    logits = np.einsum("pd,kd->pk", Q, z @ layer.W_K.T)
    if layer.scaling:
        logits = logits / np.sqrt(layer.d_q)
    A = softmax_rows(logits)
    V = z @ layer.W_V.T
    token = A @ V
    dpsi = head.jacobian(token)

    # dpsi composed with W_V, and with each slot's value vector
    dpsi_WV = np.einsum("pod,dr->por", dpsi, layer.W_V)
    dpsi_V = np.einsum("pod,kd->pok", dpsi, V)
    mix = np.einsum("pok,pk->po", dpsi_V, A)

    # axes (slot m, pixel, channel, slot coordinate); contiguous slot-major
    # operands and an in-place subtraction keep this as fast as a slot loop
    A_m = np.ascontiguousarray(A.T)[:, :, None, None]
    V_m = np.ascontiguousarray(np.moveaxis(dpsi_V, 2, 0))[..., None]
    M_m = M[:, None, :]
    term1 = A_m * (dpsi_WV + V_m * M_m)
    term1 -= A_m * mix[:, :, None] * M_m  # term2
    return term1


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
    B = z.shape[0]

    head_grads = {
        "W2": np.einsum("bpo,bph->oh", g_out, cache.head_hidden),
        "b2": np.sum(g_out, axis=(0, 1)),
    }
    g_hidden = g_out @ head.W2
    g_pre = g_hidden * (1.0 - cache.head_hidden**2)
    head_grads["W1"] = np.einsum("bph,bpd->hd", g_pre, cache.token_final)
    head_grads["b1"] = np.sum(g_pre, axis=(0, 1))
    g_tok = g_pre @ head.W1

    if grad_attention is not None:
        g_attn = np.asarray(grad_attention, dtype=float)
        if g_attn.ndim == 2:
            g_attn = g_attn[None]
    else:
        g_attn = None

    g_slots = np.zeros_like(z)
    layer_grads: list[dict[str, np.ndarray]] = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        ly = layers[li]
        c = cache.per_layer[li]
        gQ_full = np.zeros((B,) + c["Q"].shape[1:])
        gK_full = np.zeros((B,) + c["K"].shape[1:])
        gV_full = np.zeros((B,) + c["V"].shape[1:])
        for hi, sl in enumerate(_head_slices(ly)):
            A = c["A"][hi]
            g_xbar = g_tok[..., sl]
            gA = np.einsum("bpd,bkd->bpk", g_xbar, c["V"][..., sl])
            if g_attn is not None:
                gA = gA + g_attn
            gV_full[..., sl] += np.einsum("bpk,bpd->bkd", A, g_xbar)
            # softmax backward over the slot axis
            g_logits = A * (gA - np.sum(gA * A, axis=-1, keepdims=True))
            if ly.scaling:
                g_logits = g_logits / np.sqrt(ly.head_dim)
            gQ_full[..., sl] += np.einsum("bpk,bkd->bpd", g_logits, c["K"][..., sl])
            gK_full[..., sl] += np.einsum("bpk,bpd->bkd", g_logits, c["Q"][..., sl])
        gW_K = np.einsum("bkd,bks->ds", gK_full, z)
        gW_V = np.einsum("bkd,bks->ds", gV_full, z)
        g_slots += gK_full @ ly.W_K + gV_full @ ly.W_V
        gW_Q = np.einsum("bpd,bpo->do", gQ_full, c["q_in"])
        layer_grads[li] = {"W_K": gW_K, "W_V": gW_V, "W_Q": gW_Q}
        g_tok = gQ_full @ ly.W_Q if li > 0 else None
    return g_slots if cache.batched else g_slots[0], layer_grads, head_grads


def random_decoder(
    rng_seed: int,
    n_pixels: int,
    K: int,
    slot_dim: int,
    d_q: int = 8,
    d_o: int = 6,
    hidden: int = 10,
    n_heads: int = 1,
    scaling: bool = False,
    n_layers: int = 1,
    out_dim: int = 3,
    weight_scale: float = 0.7,
) -> tuple[list[CrossAttentionLayer], PixelHead]:
    """Seeded random decoder instance, sized for tests and toy training."""
    rng = np.random.default_rng(rng_seed)
    layers = []
    for li in range(n_layers):
        in_dim = d_o if li == 0 else d_q
        layers.append(
            CrossAttentionLayer(
                W_K=weight_scale * rng.normal(size=(d_q, slot_dim)) / np.sqrt(slot_dim),
                W_V=weight_scale * rng.normal(size=(d_q, slot_dim)) / np.sqrt(slot_dim),
                W_Q=weight_scale * rng.normal(size=(d_q, in_dim)) / np.sqrt(in_dim),
                query_inputs=rng.normal(size=(n_pixels, d_o)) if li == 0 else None,
                scaling=scaling,
                n_heads=n_heads,
            )
        )
    head = PixelHead(
        W1=weight_scale * rng.normal(size=(hidden, d_q)) / np.sqrt(d_q),
        b1=0.1 * rng.normal(size=hidden),
        W2=weight_scale * rng.normal(size=(out_dim, hidden)) / np.sqrt(hidden),
        b2=0.1 * rng.normal(size=out_dim),
    )
    return layers, head
