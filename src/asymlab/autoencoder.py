"""Tiny slot autoencoder trained with the three-part loss.

Encoder: a per-patch linear embedder, a stack of slot-query cross-attention
mixing layers with per-slot feed-forward updates, then per-slot mean and
log-variance heads.  Its slots attend over patches through the attention
module's attend/attend_backward.
Decoder: the cross-attention decoder from the attention module.  Loss:
reconstruction + beta * KL to a unit Gaussian + alpha * attention overlap.
Everything is numpy with hand-written reverse-mode gradients so the gradient
path is fully inspectable and testable against finite differences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .attention import (
    CrossAttentionLayer,
    PixelHead,
    _interact,
    attend,
    attend_backward,
    bias_gradient,
    cross_attention_forward,
    decoder_backward,
    positional_query_inputs,
    weight_gradient,
)
from .sprites import check_integers, check_numbers

LOGVAR_MIN, LOGVAR_MAX = -10.0, 10.0
DIVERGENCE_LIMIT = 1e6


class TrainingDiverged(RuntimeError):
    """Raised when a training step fails numerically: the step raised
    FloatingPointError, the loss passed DIVERGENCE_LIMIT, or a gradient went
    non-finite.  Carries the log collected so far, the iteration, and the
    first parameter group found non-finite (its gradient on the gradient
    route, its value otherwise; None when all are finite)."""

    def __init__(self, message: str, log: list, iteration: int, group: str | None):
        super().__init__(message, log, iteration, group)  # all of them, so it pickles
        self.log, self.iteration, self.group = log, iteration, group

    def __str__(self) -> str:
        return f"{self.args[0]} at iteration {self.iteration}"


@dataclass
class ModelConfig:
    height: int = 16
    width: int = 16
    channels: int = 3
    patch: int = 4
    n_slots: int = 3
    slot_dim: int = 8
    d_embed: int = 32
    d_ff: int = 32
    enc_layers: int = 1
    dec_d_q: int = 16
    dec_d_o: int = 12
    dec_heads: int = 1
    dec_layers: int = 1
    dec_hidden: int = 24
    scaling: bool = True
    seed: int = 0

    def __post_init__(self):
        check_integers(self, {k: 0 if k in ("enc_layers", "seed") else 1
                              for k in self.__dataclass_fields__ if k != "scaling"})
        if not isinstance(self.scaling, bool):
            raise ValueError(f"scaling must be a bool, got {self.scaling!r}")
        if self.height % self.patch or self.width % self.patch:
            raise ValueError("patch size must tile the image")
        if self.dec_d_q % self.dec_heads:
            raise ValueError("head count must divide the decoder token width")

    @property
    def n_patches(self) -> int:
        return (self.height // self.patch) * (self.width // self.patch)

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        return cls(**obj)


@dataclass
class TrainConfig:
    alpha: float = 0.05
    beta: float = 0.05
    lr: float = 5e-4
    iterations: int = 2000
    batch_size: int = 16
    warmup: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_numbers(self, ("alpha", "beta", "lr"))
        for name in ("alpha", "beta", "lr"):  # an infinity diverges at iteration 0
            if abs(getattr(self, name)) == math.inf:
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.alpha >= 0 and self.beta >= 0):  # NaN too
            raise ValueError("loss weights must be non-negative")
        check_integers(self, {"batch_size": 1, "iterations": 0, "warmup": 0, "seed": 0})
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr!r}")

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_json(cls, obj: dict) -> "TrainConfig":
        return cls(**obj)


@dataclass
class LossBreakdown:
    rec: float
    kl: float
    interact: float
    total: float

    def as_row(self) -> tuple[float, float, float, float]:
        return (self.rec, self.kl, self.interact, self.total)


@dataclass
class EncoderMixLayer:
    W_Q: np.ndarray
    W_K: np.ndarray
    W_V: np.ndarray
    F1: np.ndarray
    f1: np.ndarray
    F2: np.ndarray
    f2: np.ndarray


@dataclass
class SlotAutoencoder:
    """Parameter container.  parameters() exposes the trainable arrays by
    name as live references; fixed buffers (patch positions, decoder query
    inputs) stay out of it."""

    config: ModelConfig
    embed_W: np.ndarray
    embed_b: np.ndarray
    patch_pos: np.ndarray
    slot_queries: np.ndarray
    enc_layers: list[EncoderMixLayer]
    W_mu: np.ndarray
    b_mu: np.ndarray
    W_lv: np.ndarray
    b_lv: np.ndarray
    dec_layers: list[CrossAttentionLayer]
    dec_head: PixelHead

    def parameters(self) -> dict[str, np.ndarray]:
        out = {"embed_W": self.embed_W, "embed_b": self.embed_b,
               "slot_queries": self.slot_queries}
        for i, ly in enumerate(self.enc_layers):
            for nm in ("W_Q", "W_K", "W_V", "F1", "f1", "F2", "f2"):
                out[f"enc{i}_{nm}"] = getattr(ly, nm)
        out.update({"W_mu": self.W_mu, "b_mu": self.b_mu,
                    "W_lv": self.W_lv, "b_lv": self.b_lv})
        for i, ly in enumerate(self.dec_layers):
            for nm in ("W_K", "W_V", "W_Q"):
                out[f"dec{i}_{nm}"] = getattr(ly, nm)
        for nm in ("W1", "b1", "W2", "b2"):
            out[f"head_{nm}"] = getattr(self.dec_head, nm)
        return out


def build_autoencoder(config: ModelConfig) -> SlotAutoencoder:
    rng = np.random.default_rng(config.seed)
    patch_len = config.patch * config.patch * config.channels
    d_e = config.d_embed

    def w(shape, fan_in):
        return rng.normal(scale=1.0 / math.sqrt(fan_in), size=shape)

    enc = [
        EncoderMixLayer(
            W_Q=w((d_e, d_e), d_e), W_K=w((d_e, d_e), d_e), W_V=w((d_e, d_e), d_e),
            F1=w((config.d_ff, d_e), d_e), f1=np.zeros(config.d_ff),
            F2=w((d_e, config.d_ff), config.d_ff), f2=np.zeros(d_e),
        )
        for _ in range(config.enc_layers)
    ]
    dec_layers = []
    for li in range(config.dec_layers):
        in_dim = config.dec_d_o if li == 0 else config.dec_d_q
        dec_layers.append(
            CrossAttentionLayer(
                W_K=w((config.dec_d_q, config.slot_dim), config.slot_dim),
                W_V=w((config.dec_d_q, config.slot_dim), config.slot_dim),
                W_Q=w((config.dec_d_q, in_dim), in_dim),
                query_inputs=positional_query_inputs(
                    config.height, config.width, config.dec_d_o,
                    rng_seed=config.seed + 7,
                ) if li == 0 else None,
                scaling=config.scaling,
                n_heads=config.dec_heads,
            )
        )
    head = PixelHead(
        W1=w((config.dec_hidden, config.dec_d_q), config.dec_d_q),
        b1=np.zeros(config.dec_hidden),
        W2=w((config.channels, config.dec_hidden), config.dec_hidden),
        b2=np.zeros(config.channels),
    )
    # fixed sinusoidal patch positions so the mixer can tell patches apart
    n_p = config.n_patches
    pos = positional_query_inputs(config.height // config.patch,
                                  config.width // config.patch,
                                  d_e, rng_seed=config.seed + 13)
    return SlotAutoencoder(
        config=config,
        embed_W=w((d_e, patch_len), patch_len),
        embed_b=np.zeros(d_e),
        patch_pos=pos[:n_p],
        slot_queries=rng.normal(scale=0.5, size=(config.n_slots, d_e)),
        enc_layers=enc,
        W_mu=w((config.slot_dim, d_e), d_e),
        b_mu=np.zeros(config.slot_dim),
        W_lv=w((config.slot_dim, d_e), d_e),
        b_lv=np.zeros(config.slot_dim),
        dec_layers=dec_layers,
        dec_head=head,
    )


def _patchify(model: SlotAutoencoder, images: np.ndarray) -> np.ndarray:
    c = model.config
    B = images.shape[0]
    x = images.reshape(B, c.height // c.patch, c.patch, c.width // c.patch, c.patch, c.channels)
    return x.transpose(0, 1, 3, 2, 4, 5).reshape(B, c.n_patches, -1)


def encode(model: SlotAutoencoder, images: np.ndarray, with_cache: bool = False):
    """Images (B, H, W, C) to per-slot (mu, logvar), logvar clamped."""
    images = np.asarray(images, dtype=float)
    if images.ndim == 3:
        images = images[None]
    c = model.config
    if images.shape[1:] != (c.height, c.width, c.channels):
        raise ValueError("image shape does not match the model")
    patches = _patchify(model, images)
    T = patches @ model.embed_W.T + model.embed_b + model.patch_pos
    B = T.shape[0]
    S = model.slot_queries[None].repeat(B, axis=0)
    scale = 1.0 / math.sqrt(c.d_embed)
    cache = {"patches": patches, "T": T, "layers": []}
    for ly in model.enc_layers:
        Q, Kt, Vt = S @ ly.W_Q.T, T @ ly.W_K.T, T @ ly.W_V.T
        mix, A = attend(Q, Kt, Vt, scale)
        S1 = S + mix
        H = np.tanh(S1 @ ly.F1.T + ly.f1)
        cache["layers"].append(
            {"S_in": S, "Q": Q, "K": Kt, "V": Vt, "A": A, "S1": S1, "H": H}
        )
        S = S1 + H @ ly.F2.T + ly.f2
    cache["S_final"] = S
    mu = S @ model.W_mu.T + model.b_mu
    lv_raw = S @ model.W_lv.T + model.b_lv
    lv = lv_raw.clip(LOGVAR_MIN, LOGVAR_MAX)
    if with_cache:
        cache["lv_inside"] = (lv_raw > LOGVAR_MIN) & (lv_raw < LOGVAR_MAX)
        return mu, lv, cache
    return mu, lv


def _encoder_backward(model: SlotAutoencoder, cache: dict,
                      g_mu: np.ndarray, g_lv: np.ndarray) -> dict[str, np.ndarray]:
    c = model.config
    grads: dict[str, np.ndarray] = {}
    S_final = cache["S_final"]
    g_lv = g_lv * cache["lv_inside"]
    grads["W_mu"] = weight_gradient(g_mu, S_final)
    grads["b_mu"] = bias_gradient(g_mu)
    grads["W_lv"] = weight_gradient(g_lv, S_final)
    grads["b_lv"] = bias_gradient(g_lv)
    gS = g_mu @ model.W_mu + g_lv @ model.W_lv

    T = cache["T"]
    gT = np.zeros_like(T)
    scale = 1.0 / math.sqrt(c.d_embed)
    for i in range(len(model.enc_layers) - 1, -1, -1):
        ly = model.enc_layers[i]
        lc = cache["layers"][i]
        gHpre = (gS @ ly.F2) * (1.0 - lc["H"] ** 2)
        grads[f"enc{i}_F2"] = weight_gradient(gS, lc["H"])
        grads[f"enc{i}_f2"] = bias_gradient(gS)
        grads[f"enc{i}_F1"] = weight_gradient(gHpre, lc["S1"])
        grads[f"enc{i}_f1"] = bias_gradient(gHpre)
        gS1 = gS + gHpre @ ly.F1  # the gradient on the attention's output too
        gQ, gK, gV = attend_backward(gS1, lc["A"], lc["Q"], lc["K"], lc["V"], scale)
        grads[f"enc{i}_W_Q"] = weight_gradient(gQ, lc["S_in"])
        grads[f"enc{i}_W_K"] = weight_gradient(gK, T)
        grads[f"enc{i}_W_V"] = weight_gradient(gV, T)
        gT += gK @ ly.W_K + gV @ ly.W_V
        gS = gS1 + gQ @ ly.W_Q
    grads["slot_queries"] = np.sum(gS, axis=0)
    grads["embed_W"] = weight_gradient(gT, cache["patches"])
    grads["embed_b"] = bias_gradient(gT)
    return grads


def kl_to_unit_gaussian(mu: np.ndarray, logvar: np.ndarray) -> float:
    """Mean over the batch of the summed per-dimension KL(N(mu, sigma^2) ||
    N(0, 1)); zero exactly at mu = 0, logvar = 0."""
    var = np.exp(logvar)
    per_example = 0.5 * np.sum(mu**2 + var - 1.0 - logvar, axis=tuple(range(1, mu.ndim)))
    return float(np.mean(per_example))


def _loss_forward(model: SlotAutoencoder, batch: np.ndarray, config: TrainConfig,
                  noise: np.ndarray, alpha_scale: float, buffers: dict | None = None):
    mu, lv, enc_cache = encode(model, batch, with_cache=True)
    sigma = np.exp(0.5 * lv)
    z = mu + sigma * noise
    pixels, _, dec_cache = cross_attention_forward(
        model.dec_layers, model.dec_head, z, with_cache=True, buffers=buffers
    )
    # pixel-last, as the decoder computes them: pixels and residual (B, C, P), weights (B, K, P)
    B, C = batch.shape[0], model.config.channels
    resid = np.swapaxes(pixels, -1, -2) - np.swapaxes(batch.reshape(B, -1, C), -1, -2)
    rec = float(np.mean(resid**2))
    kl = kl_to_unit_gaussian(mu, lv)
    # aggregate_attention's sum less its 0 + pass and one-head copy, bit-identical as the
    # weights are non-negative; the softmax refused non-finite logits, so no checks
    per_layer = (c["A"][:, 0] if c["A"].shape[1] == 1 else c["A"].sum(axis=1)
                 for c in dec_cache.per_layer)
    A_sum = functools.reduce(np.add, per_layer)
    alpha_eff = config.alpha * alpha_scale
    interact, g_attn = _interact(A_sum, alpha_eff)  # and alpha_eff times its gradient
    total = rec + alpha_eff * interact + config.beta * kl
    if not np.isfinite(total):
        raise FloatingPointError(f"non-finite loss: rec={rec} kl={kl} interact={interact}")
    breakdown = LossBreakdown(rec=rec, kl=kl, interact=interact, total=float(total))
    state = {
        "mu": mu, "lv": lv, "sigma": sigma, "z": z, "noise": noise,
        "resid": resid, "g_attn": g_attn, "enc_cache": enc_cache,
        "dec_cache": dec_cache, "alpha_eff": alpha_eff,
    }
    return breakdown, state


def _draw_noise(model: SlotAutoencoder, batch_size: int, rng: np.random.Generator):
    c = model.config
    return rng.standard_normal((batch_size, c.n_slots, c.slot_dim))


def _batch_and_noise(model: SlotAutoencoder, batch: np.ndarray,
                     rng: np.random.Generator | None, noise: np.ndarray | None):
    """The loss functions' inputs: a (B, H, W, C) batch, and noise drawn from rng
    unless given."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim == 3:
        batch = batch[None]
    if noise is None:
        if rng is None:
            raise ValueError("need an rng when noise is not supplied")
        noise = _draw_noise(model, batch.shape[0], rng)
    return batch, noise


def loss_disent(model: SlotAutoencoder, batch: np.ndarray, config: TrainConfig,
                rng: np.random.Generator | None = None, noise: np.ndarray | None = None,
                alpha_scale: float = 1.0) -> LossBreakdown:
    """Three-part loss on one batch with reparameterized sampling.  noise
    overrides the rng draw so the stochastic objective can be pinned."""
    batch, noise = _batch_and_noise(model, batch, rng, noise)
    return _loss_forward(model, batch, config, noise, alpha_scale)[0]


def loss_and_gradients(model: SlotAutoencoder, batch: np.ndarray, config: TrainConfig,
                       rng: np.random.Generator | None = None,
                       noise: np.ndarray | None = None,
                       alpha_scale: float = 1.0, buffers: dict | None = None):
    """Loss plus exact reverse-mode gradients for every trainable parameter,
    under the same fixed noise draw as the loss.  buffers: as in
    cross_attention_forward, kept by a training loop from step to step."""
    batch, noise = _batch_and_noise(model, batch, rng, noise)
    breakdown, st = _loss_forward(model, batch, config, noise, alpha_scale, buffers)
    B = batch.shape[0]
    # (B, P, C) and (B, P, K) views of pixel-last arrays, which decoder_backward takes back
    # without a copy
    g_pixels = np.swapaxes(st["resid"] * (2.0 / st["resid"].size), -1, -2)
    g_attn = np.swapaxes(st["g_attn"], -1, -2) if st["alpha_eff"] != 0 else None
    g_z, dec_grads, head_grads = decoder_backward(
        model.dec_layers, model.dec_head, st["dec_cache"], g_pixels, g_attn
    )
    mu, sigma, noise_arr, lv = st["mu"], st["sigma"], st["noise"], st["lv"]
    g_mu = g_z + config.beta * mu / B
    g_lv = g_z * noise_arr * sigma * 0.5 + config.beta * 0.5 * (sigma**2 - 1.0) / B
    grads = _encoder_backward(model, st["enc_cache"], g_mu, g_lv)
    for i, d in enumerate(dec_grads):
        for nm, g in d.items():
            grads[f"dec{i}_{nm}"] = g
    for nm, g in head_grads.items():
        grads[f"head_{nm}"] = g
    return breakdown, grads


def _first_nonfinite(arrays: dict[str, np.ndarray]) -> str | None:
    return next((k for k, v in arrays.items() if not np.all(np.isfinite(v))), None)


def train(model: SlotAutoencoder, dataset: np.ndarray, config: TrainConfig):
    """Seeded Adam training loop with linear alpha warmup.  Returns (model,
    per-iteration LossBreakdown list); a numerically failed step raises
    TrainingDiverged with the partial log, before any parameter is written.
    """
    dataset = np.asarray(dataset, dtype=float)
    if dataset.ndim == 3:
        dataset = dataset[None]
    if dataset.shape[0] == 0:
        raise ValueError("dataset must be non-empty")
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    ends = np.cumsum([p.size for p in params.values()])
    m1, m2, flat, s = np.zeros((4, ends[-1]))
    # Adam is elementwise, so one update over flat vectors is one per group;
    # each group's window on flat takes its gradient in and its step out
    views = {k: flat[e - p.size:e].reshape(p.shape) for (k, p), e in zip(params.items(), ends)}
    buffers: dict = {}
    log: list[LossBreakdown] = []
    b1, b2, eps = 0.9, 0.999, 1e-8
    # overflow is caught below as TrainingDiverged; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(config.iterations):
            idx = rng.integers(0, dataset.shape[0], size=min(config.batch_size, dataset.shape[0]))
            batch = dataset[idx]
            alpha_scale = min(1.0, (it + 1) / config.warmup) if config.warmup > 0 else 1.0
            noise = _draw_noise(model, batch.shape[0], rng)
            try:
                breakdown, grads = loss_and_gradients(model, batch, config, noise=noise,
                                                      alpha_scale=alpha_scale, buffers=buffers)
            except FloatingPointError as e:
                raise TrainingDiverged(str(e), log, it, _first_nonfinite(params)) from e
            log.append(breakdown)
            if breakdown.total > DIVERGENCE_LIMIT:
                raise TrainingDiverged(f"loss {breakdown.total:.3e}", log, it,
                                       _first_nonfinite(params))
            for k, v in views.items():
                v[...] = grads[k]
            if not np.isfinite(flat).all():
                bad = _first_nonfinite(grads)
                raise TrainingDiverged(f"non-finite gradient of {bad}", log, it, bad)
            # Adam's m1, m2, mhat, vhat and lr mhat / (sqrt(vhat) + eps), operation by operation
            # in place over m1, m2, flat (g, then the step) and the scratch s
            t = it + 1
            m1 *= b1
            m1 += np.multiply(flat, 1 - b1, out=s)
            m2 *= b2
            m2 += np.multiply(np.square(flat, out=flat), 1 - b2, out=flat)
            np.multiply(np.divide(m1, 1 - b1**t, out=s), config.lr, out=s)
            np.sqrt(np.divide(m2, 1 - b2**t, out=flat), out=flat)
            flat += eps
            np.divide(s, flat, out=flat)
            for k, p in params.items():
                p -= views[k]
    return model, log
