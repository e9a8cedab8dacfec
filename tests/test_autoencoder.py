import numpy as np
import pytest

from asymlab import autoencoder
from asymlab.attention import aggregate_attention, l_interact, l_interact_grad
from asymlab.autoencoder import (
    ModelConfig,
    TrainConfig,
    TrainingDiverged,
    build_autoencoder,
    encode,
    kl_to_unit_gaussian,
    loss_and_gradients,
    loss_disent,
    train,
)

TINY = ModelConfig(height=8, width=8, patch=4, n_slots=2, slot_dim=4,
                   d_embed=12, d_ff=10, dec_d_q=8, dec_d_o=6, dec_hidden=8,
                   seed=3)


def tiny_batch(seed=0, n=2):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(n, 8, 8, 3))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(height=10, width=8, patch=4)
    with pytest.raises(ValueError):
        ModelConfig(dec_d_q=9, dec_heads=2)
    for weights in ({"alpha": -0.1}, {"beta": float("nan")}):
        with pytest.raises(ValueError, match="loss weights"):
            TrainConfig(**weights)


@pytest.mark.parametrize("field, bad", [("batch_size", 0), ("iterations", -1),
                                        ("warmup", -5), ("lr", -1e-3), ("lr", 0.0)])
def test_train_config_rejects_out_of_range(field, bad):
    # each names the field and the value
    with pytest.raises(ValueError, match=rf"{field} .*{bad!r}"):
        TrainConfig(**{field: bad})


@pytest.mark.parametrize("field, bad", [("iterations", 2.5), ("batch_size", 2.5),
                                        ("warmup", True), ("seed", 1.0)])
def test_train_config_rejects_non_integers(field, bad):
    with pytest.raises(ValueError, match=rf"{field} must be an integer, got {bad!r}"):
        TrainConfig(**{field: bad})


@pytest.mark.parametrize("field, bad", [("alpha", "0.1"), ("beta", None), ("lr", True),
                                        ("lr", "5e-4")])
def test_train_config_rejects_non_numbers(field, bad):
    with pytest.raises(ValueError, match=rf"{field} must be a number, got {bad!r}"):
        TrainConfig(**{field: bad})


def test_train_config_accepts_boundaries():
    cfg = TrainConfig(batch_size=1, iterations=0, warmup=0, lr=1e-12)
    assert (cfg.batch_size, cfg.iterations, cfg.warmup) == (1, 0, 0)


def test_config_roundtrip():
    clone = ModelConfig.from_json(TINY.to_json())
    assert clone == TINY


def test_encode_shapes_and_clamp():
    model = build_autoencoder(TINY)
    mu, lv = encode(model, tiny_batch())
    assert mu.shape == (2, 2, 4) and lv.shape == (2, 2, 4)
    assert np.all(lv >= -10.0) and np.all(lv <= 10.0)


def test_kl_zero_at_standard_normal():
    assert kl_to_unit_gaussian(np.zeros((1, 2, 4)), np.zeros((1, 2, 4))) == 0.0
    assert kl_to_unit_gaussian(np.ones((1, 1, 1)), np.zeros((1, 1, 1))) == pytest.approx(0.5)


def test_loss_identity():
    model = build_autoencoder(TINY)
    batch = tiny_batch()
    cfg = TrainConfig(alpha=0.07, beta=0.11, seed=1)
    noise = np.random.default_rng(9).normal(size=(2, 2, 4))
    br = loss_disent(model, batch, cfg, None, noise=noise)
    assert br.total == pytest.approx(br.rec + 0.07 * br.interact + 0.11 * br.kl,
                                     rel=1e-12)
    assert br.rec >= 0 and br.kl >= 0 and br.interact >= 0


def test_loss_deterministic_given_noise():
    model = build_autoencoder(TINY)
    batch = tiny_batch()
    cfg = TrainConfig(seed=4)
    noise = np.random.default_rng(2).normal(size=(2, 2, 4))
    a = loss_disent(model, batch, cfg, None, noise=noise)
    b = loss_disent(model, batch, cfg, None, noise=noise)
    assert a.total == b.total


def test_gradients_match_fd_sample():
    model = build_autoencoder(TINY)
    batch = tiny_batch(5)
    cfg = TrainConfig(alpha=0.05, beta=0.05, seed=0)
    noise = np.random.default_rng(3).normal(size=(2, 2, 4))
    _, grads = loss_and_gradients(model, batch, cfg, noise=noise)
    params = model.parameters()
    assert set(grads) == set(params)
    rng = np.random.default_rng(1)
    h = 1e-6
    checked = 0
    for name in ["embed_W", "W_mu", "W_lv", "enc0_W_Q", "enc0_F1",
                 "dec0_W_V", "head_W1", "slot_queries"]:
        arr = params[name]
        for _ in range(3):
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            old = arr[idx]
            arr[idx] = old + h
            up = loss_disent(model, batch, cfg, None, noise=noise).total
            arr[idx] = old - h
            dn = loss_disent(model, batch, cfg, None, noise=noise).total
            arr[idx] = old
            fd = (up - dn) / (2 * h)
            assert abs(fd - grads[name][idx]) < 1e-5 * max(1.0, abs(fd)), name
            checked += 1
    assert checked == 24


def test_gradients_match_fd_two_heads_two_layers():
    # acceptance 08's sizes, sample rule and tolerance on a decoder whose
    # last layer has two heads and takes its queries from an earlier layer
    model = build_autoencoder(ModelConfig(**dict(TINY.to_json(), dec_heads=2, dec_layers=2)))
    batch = np.random.default_rng(0).uniform(0, 1, size=(5, 8, 8, 3))
    cfg = TrainConfig(alpha=0.05, beta=0.05, seed=0)
    noise = np.random.default_rng(3).normal(size=(5, 2, 4))
    _, grads = loss_and_gradients(model, batch, cfg, noise=noise)
    params = model.parameters()
    assert set(grads) == set(params)
    rng = np.random.default_rng(1)
    h = 1e-6
    names = sorted(params)
    quota = {n: min(params[n].size, -(-200 // len(names))) for n in names}
    while sum(quota.values()) < 200:
        for n in names:
            if quota[n] < params[n].size and sum(quota.values()) < 200:
                quota[n] += 1
    worst = 0.0
    for name in names:
        arr = params[name]
        for fi in rng.choice(arr.size, size=quota[name], replace=False):
            idx = np.unravel_index(int(fi), arr.shape)
            old = arr[idx]
            arr[idx] = old + h
            up = loss_disent(model, batch, cfg, None, noise=noise).total
            arr[idx] = old - h
            dn = loss_disent(model, batch, cfg, None, noise=noise).total
            arr[idx] = old
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(fd - grads[name][idx]) / max(1.0, abs(fd)))
    assert sum(quota.values()) == 200
    assert worst <= 1e-4


@pytest.mark.parametrize("config, image", [
    (ModelConfig(**dict(TINY.to_json(), dec_heads=2, dec_layers=2)), (8, 8, 3)),
    (ModelConfig(), (16, 16, 3)),
] + [(ModelConfig(**dict(TINY.to_json(), dec_layers=n, dec_heads=h)), (8, 8, 3))
     for n, h in [(1, 1), (1, 2), (2, 1)]])
def test_loss_overlap_matches_public_penalty(monkeypatch, config, image):
    # the loss takes its overlap and the gradient it routes from the cache's pixel-last
    # weights; the public (P, K) functions on the same forward pass's attention agree bit
    # for bit (at alpha = 1, so that the routed gradient is not rescaled)
    model = build_autoencoder(config)
    batch = np.random.default_rng(0).uniform(0, 1, size=(3,) + image)
    noise = np.random.default_rng(3).normal(size=(3, config.n_slots, config.slot_dim))
    cfg = TrainConfig(alpha=1.0, beta=0.05, seed=0)
    seen = {}
    forward, backward = autoencoder.cross_attention_forward, autoencoder.decoder_backward

    def seen_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        seen["attn"] = [heads.copy() for heads in out[1]]
        return out

    def seen_backward(layers, head, cache, grad_pixels, grad_attention=None):
        seen["routed"] = grad_attention.copy()
        return backward(layers, head, cache, grad_pixels, grad_attention)

    monkeypatch.setattr(autoencoder, "cross_attention_forward", seen_forward)
    monkeypatch.setattr(autoencoder, "decoder_backward", seen_backward)
    breakdown, _ = loss_and_gradients(model, batch, cfg, noise=noise)
    A_sum = aggregate_attention(seen["attn"])
    assert A_sum.shape == (3, config.height * config.width, config.n_slots)
    assert breakdown.interact == l_interact(A_sum)
    assert np.array_equal(seen["routed"], l_interact_grad(A_sum))


def test_loss_needs_rng_or_noise():
    model, batch, cfg = build_autoencoder(TINY), tiny_batch(), TrainConfig()
    with pytest.raises(ValueError, match="need an rng when noise is not supplied"):
        loss_disent(model, batch, cfg, rng=None)
    with pytest.raises(ValueError, match="need an rng when noise is not supplied"):
        loss_and_gradients(model, batch, cfg)


def test_gradients_finite():
    model = build_autoencoder(TINY)
    g = loss_and_gradients(model, tiny_batch(), TrainConfig(seed=0),
                           noise=np.zeros((2, 2, 4)))[1]
    assert all(np.all(np.isfinite(v)) for v in g.values())


def test_train_reduces_reconstruction():
    model = build_autoencoder(TINY)
    data = tiny_batch(7, n=6)
    cfg = TrainConfig(iterations=60, batch_size=4, lr=1e-3, warmup=10, seed=0)
    model, log = train(model, data, cfg)
    assert len(log) == 60
    assert log[-1].rec < log[0].rec


def test_train_deterministic():
    data = tiny_batch(8, n=4)
    cfg = TrainConfig(iterations=12, batch_size=2, seed=5)
    _, log1 = train(build_autoencoder(TINY), data, cfg)
    _, log2 = train(build_autoencoder(TINY), data, cfg)
    assert [b.total for b in log1] == [b.total for b in log2]


def test_divergence_raises_with_log():
    model = build_autoencoder(TINY)
    data = tiny_batch(9, n=4)
    cfg = TrainConfig(iterations=300, lr=3e3, seed=0, warmup=1)
    with pytest.raises(TrainingDiverged) as exc:
        train(model, data, cfg)
    assert len(exc.value.log) >= 1
    # the loss route: the last logged loss is the one past the limit
    assert exc.value.log[-1].total > autoencoder.DIVERGENCE_LIMIT
    assert exc.value.iteration == len(exc.value.log) - 1


def test_divergence_from_non_finite_logits():
    # a huge step overflows the attention logits on the next forward pass
    cfg = TrainConfig(iterations=10, lr=1e200, seed=0, warmup=1)
    with pytest.raises(TrainingDiverged, match="iteration 1") as exc:
        train(build_autoencoder(TINY), tiny_batch(9, n=4), cfg)
    assert isinstance(exc.value.__cause__, FloatingPointError)
    assert exc.value.iteration == 1 and len(exc.value.log) == 1


def test_divergence_on_non_finite_gradient_writes_nothing(monkeypatch):
    model = build_autoencoder(TINY)
    before = {k: v.copy() for k, v in model.parameters().items()}
    real = autoencoder.loss_and_gradients

    def nan_gradient(*args, **kwargs):
        breakdown, grads = real(*args, **kwargs)
        grads["dec0_W_V"] = np.full_like(grads["dec0_W_V"], np.nan)
        return breakdown, grads

    monkeypatch.setattr(autoencoder, "loss_and_gradients", nan_gradient)
    with pytest.raises(TrainingDiverged, match="dec0_W_V") as exc:
        train(model, tiny_batch(9, n=4), TrainConfig(iterations=5, seed=0))
    assert exc.value.group == "dec0_W_V" and exc.value.iteration == 0
    assert len(exc.value.log) == 1
    for k, v in model.parameters().items():
        assert np.array_equal(v, before[k]), k



@pytest.mark.parametrize("field, bad, named", [
    ("slot_dim", 0, "slot_dim must be at least 1, got 0"),
    ("n_slots", 2.0, "n_slots must be an integer, got 2.0"),
    ("patch", True, "patch must be an integer, got True"),
    ("dec_layers", 0, "dec_layers must be at least 1, got 0"),
    ("enc_layers", -1, "enc_layers must be at least 0, got -1"),
    ("seed", -2, "seed must be at least 0, got -2"),
])
def test_model_config_names_bad_counts(field, bad, named):
    with pytest.raises(ValueError, match=named):
        ModelConfig(**{field: bad})


@pytest.mark.parametrize("bad", ["false", 0, 1, None])
def test_model_config_scaling_must_be_a_bool(bad):
    # a truthy string would otherwise turn logit scaling on
    with pytest.raises(ValueError, match=rf"scaling must be a bool, got {bad!r}"):
        ModelConfig(scaling=bad)
    assert build_autoencoder(ModelConfig(scaling=False)).dec_layers[0].scaling is False


def test_loss_and_gradients_same_with_kept_buffers():
    model = build_autoencoder(TINY)
    cfg = TrainConfig(alpha=0.05, beta=0.05, seed=0)
    rng = np.random.default_rng(4)
    buffers: dict = {}
    for step in range(3):
        batch, noise = tiny_batch(step, n=3), rng.normal(size=(3, 2, 4))
        br, grads = loss_and_gradients(model, batch, cfg, noise=noise, buffers=buffers)
        br0, grads0 = loss_and_gradients(model, batch, cfg, noise=noise)
        assert br == br0
        assert all(np.array_equal(grads[k], grads0[k]) for k in grads0)


def _train_per_group(model, dataset, config):
    """Adam as one update per parameter group, the loop train ran before it
    moved to flat vectors: the reference for bitwise equality."""
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    m1 = {k: np.zeros_like(v) for k, v in params.items()}
    m2 = {k: np.zeros_like(v) for k, v in params.items()}
    log = []
    b1, b2, eps = 0.9, 0.999, 1e-8
    for it in range(config.iterations):
        idx = rng.integers(0, dataset.shape[0], size=min(config.batch_size, dataset.shape[0]))
        alpha_scale = min(1.0, (it + 1) / config.warmup) if config.warmup > 0 else 1.0
        noise = rng.standard_normal((len(idx), model.config.n_slots, model.config.slot_dim))
        breakdown, grads = loss_and_gradients(model, dataset[idx], config, noise=noise,
                                              alpha_scale=alpha_scale)
        log.append(breakdown)
        t = it + 1
        for k, p in params.items():
            m1[k] = b1 * m1[k] + (1 - b1) * grads[k]
            m2[k] = b2 * m2[k] + (1 - b2) * grads[k] ** 2
            mhat = m1[k] / (1 - b1**t)
            vhat = m2[k] / (1 - b2**t)
            p -= config.lr * mhat / (np.sqrt(vhat) + eps)
    return model, log


def test_flat_adam_matches_per_group_loop():
    data = tiny_batch(10, n=6)
    cfg = TrainConfig(alpha=0.1, beta=0.07, iterations=20, batch_size=4, warmup=5,
                      lr=2e-3, seed=2)
    model, log = train(build_autoencoder(TINY), data, cfg)
    ref, ref_log = _train_per_group(build_autoencoder(TINY), data, cfg)
    assert [b.as_row() for b in log] == [b.as_row() for b in ref_log]
    for k, v in ref.parameters().items():
        assert np.array_equal(model.parameters()[k], v), k
