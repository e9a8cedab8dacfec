import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from asymlab.attention import (
    CrossAttentionLayer,
    aggregate_attention,
    analytic_slot_jacobian,
    analytic_slot_jacobian_norms,
    attend,
    attend_backward,
    cross_attention_forward,
    decoder_backward,
    l_interact,
    l_interact_grad,
    positional_query_inputs,
    random_decoder,
    softmax_rows,
)


def test_softmax_rows_stochastic():
    logits = np.array([[1e4, 1e4 - 3.0], [-800.0, -802.0]])
    A = softmax_rows(logits)
    assert np.allclose(A.sum(axis=-1), 1.0)
    assert np.all(A >= 0)


@pytest.mark.parametrize("shape, axis", [
    ((16, 1, 3, 256), -2),  # the decoder's training weights, over the slot axis
    ((3, 256), -2),  # the scorer's closed-form weights
    ((16, 3, 16), -1),  # the encoder's weights, over the patch axis
])
def test_softmax_rows_equals_its_formula_bitwise(shape, axis):
    x = np.random.default_rng(len(shape)).normal(scale=3.0, size=shape)
    lines = np.moveaxis(x, axis, -1)  # a view, one softmax line per leading index
    index = list(np.ndindex(lines.shape[:-1]))
    for i in index[::3]:  # a maximum tied between two entries
        lines[i][[0, -1]] = lines[i].max() + 1.0
    for i in index[1::3]:  # one dominant logit: every other weight underflows to 0
        lines[i][1] = lines[i].max() + 800.0
    e = np.exp(x - x.max(axis, keepdims=True))
    want = e / e.sum(axis, keepdims=True)
    got = softmax_rows(x, axis=axis)
    assert np.array_equal(got, want)
    assert np.any(got == 0.0) and np.any(got == 1.0)


@given(arrays(float, (4, 3), elements=st.floats(-50, 50)))
def test_softmax_rows_property(logits):
    A = softmax_rows(logits)
    assert np.allclose(A.sum(axis=-1), 1.0, atol=1e-12)


def test_forward_shapes():
    layers, head = random_decoder(0, n_pixels=5, K=3, slot_dim=4)
    z = np.random.default_rng(1).normal(size=(3, 4))
    pixels, attn = cross_attention_forward(layers, head, z)
    assert pixels.shape == (5, 3)
    assert attn[0][0].shape == (5, 3)
    batch = np.stack([z, 2 * z])
    bp, battn = cross_attention_forward(layers, head, batch)
    assert bp.shape == (2, 5, 3)
    assert np.allclose(bp[0], pixels, atol=1e-12)


def test_multilayer_multihead_runs():
    layers, head = random_decoder(3, n_pixels=4, K=2, slot_dim=4,
                                  n_heads=2, n_layers=2, d_q=6)
    z = np.random.default_rng(2).normal(size=(2, 4))
    pixels, attn = cross_attention_forward(layers, head, z)
    assert pixels.shape == (4, 3)
    assert len(attn) == 2 and len(attn[0]) == 2
    for per_layer in attn:
        for am in per_layer:
            assert np.allclose(am.sum(axis=-1), 1.0, atol=1e-9)


def _attend_fd_check(Q, K, V, scale, G):
    """attend_backward against central differences of sum(G * out) in every
    entry of Q, K and V."""
    def objective():
        return float(np.sum(G * attend(Q, K, V, scale)[0]))

    _, A = attend(Q, K, V, scale)
    grads = attend_backward(G, A, Q, K, V, scale)
    h = 1e-6
    for arr, grad in zip((Q, K, V), grads):
        assert grad.shape == arr.shape
        for idx in np.ndindex(arr.shape):
            old = arr[idx]
            arr[idx] = old + h
            up = objective()
            arr[idx] = old - h
            dn = objective()
            arr[idx] = old
            assert abs((up - dn) / (2 * h) - grad[idx]) < 1e-8


def test_attend_backward_encoder_shaped():
    # one head: 3 slots attend over 5 patches, softmax over the patch axis
    rng = np.random.default_rng(21)
    B, n_slots, n_patches, d = 2, 3, 5, 4
    Q = rng.normal(size=(B, n_slots, d))
    K, V = rng.normal(size=(2, B, n_patches, d))
    _attend_fd_check(Q, K, V, 0.5, rng.normal(size=(B, n_slots, d)))


@pytest.mark.parametrize("K", [1, 2, 3, 7])
@pytest.mark.parametrize("lead", [(), (5,), (4, 2, 5)])
def test_slot_axis_reductions_match_numpy(K, lead):
    # softmax_rows, l_interact and l_interact_grad against their definitions
    # with np.max and np.sum over the slot axis
    rng = np.random.default_rng(K)
    logits = rng.normal(scale=5.0, size=lead + (6, K))
    e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    np.testing.assert_allclose(softmax_rows(logits), e / np.sum(e, axis=-1, keepdims=True),
                               rtol=1e-14, atol=0)
    if K == 1:
        assert np.array_equal(softmax_rows(logits), np.ones(logits.shape))
    A = rng.uniform(0, 2, size=lead[-1:] + (6, K))
    v = A if A.ndim == 3 else A[None]
    pair = 0.5 * (np.sum(v, axis=-1) ** 2 - np.sum(v**2, axis=-1))
    assert l_interact(A) == pytest.approx(np.mean(np.sum(pair, axis=-1)), rel=1e-14, abs=0)
    grad = (np.sum(v, axis=-1, keepdims=True) - v) / v.shape[0]
    np.testing.assert_allclose(l_interact_grad(A), grad if A.ndim == 3 else grad[0],
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("axis", [0, 1, -2])
def test_softmax_rows_along_any_axis(axis):
    # the decoder's softmax over the slot axis -2 of pixel-last weights (B, K, P)
    # is the last-axis softmax of the transposed weights
    logits = np.random.default_rng(5).normal(scale=5.0, size=(4, 3, 6))
    moved = np.moveaxis(logits, axis, -1)
    np.testing.assert_allclose(np.moveaxis(softmax_rows(logits, axis=axis), axis, -1),
                               softmax_rows(moved), rtol=1e-14, atol=0)


def test_multilayer_multihead_matches_per_head_slices():
    # the head axis against a reference that slices heads one at a time
    layers, head = random_decoder(13, n_pixels=5, K=3, slot_dim=4, n_heads=2,
                                  n_layers=2, d_q=6, scaling=True)
    z = np.random.default_rng(14).normal(size=(2, 3, 4))
    pixels, attn = cross_attention_forward(layers, head, z)

    tokens = np.broadcast_to(layers[0].query_inputs, (2,) + layers[0].query_inputs.shape)
    for ly, A_layer in zip(layers, attn):
        Q, Kk, V = tokens @ ly.W_Q.T, z @ ly.W_K.T, z @ ly.W_V.T
        out = np.empty(Q.shape)
        for h in range(ly.n_heads):
            sl = slice(h * ly.head_dim, (h + 1) * ly.head_dim)
            A = softmax_rows(Q[..., sl] @ np.swapaxes(Kk[..., sl], 1, 2)
                             / np.sqrt(ly.head_dim))
            np.testing.assert_allclose(A_layer[h], A, rtol=1e-12, atol=1e-15)
            out[..., sl] = A @ V[..., sl]
        tokens = out
    np.testing.assert_allclose(pixels, head(tokens), rtol=1e-12, atol=1e-15)


def test_aggregate_attention_sums():
    layers, head = random_decoder(4, n_pixels=3, K=2, slot_dim=3,
                                  n_heads=2, n_layers=2, d_q=4)
    z = np.random.default_rng(3).normal(size=(2, 3))
    _, attn = cross_attention_forward(layers, head, z)
    agg = aggregate_attention(attn)
    manual = sum(am for per_layer in attn for am in per_layer)
    assert isinstance(agg, np.ndarray)
    assert np.allclose(agg, manual, atol=1e-12)
    # four row-stochastic matrices summed: rows sum to 4, visibly unnormalized
    assert np.allclose(agg.sum(axis=-1), 4.0, atol=1e-9)


def test_l_interact_hand_values():
    assert l_interact(np.array([[0.5, 0.5]])) == pytest.approx(0.25, abs=1e-15)
    thirds = np.full((1, 3), 1 / 3)
    assert l_interact(thirds) == pytest.approx(1 / 3, abs=1e-12)
    # P uniform K=2 rows: P * 0.25 before batch averaging
    assert l_interact(np.full((7, 2), 0.5)) == pytest.approx(7 * 0.25)


@settings(max_examples=200)
@given(arrays(float, (5, 3),
              elements=st.one_of(st.just(0.0), st.floats(1e-3, 2))), st.data())
def test_l_interact_zero_iff_one_hot(A, data):
    # entries are either exactly zero or of representable product scale;
    # cross products below the rounding floor of the row sum are invisible
    # to any fixed-precision implementation
    if data.draw(st.booleans()):
        keep = data.draw(arrays(np.int64, (5,), elements=st.integers(0, 2)))
        mask = np.zeros_like(A)
        mask[np.arange(5), keep] = 1.0
        A = A * mask
    one_hot = bool(np.all((A > 0).sum(axis=1) <= 1))
    assert (l_interact(A) == 0.0) == one_hot


def test_l_interact_rejects_bad_input():
    with pytest.raises(ValueError):
        l_interact(np.array([[0.5, -0.5]]))
    with pytest.raises(ValueError):
        l_interact(np.array([[np.inf, 0.0]]))


def test_l_interact_grad_matches_fd():
    rng = np.random.default_rng(0)
    A = rng.uniform(0.01, 1, size=(4, 3))
    g = l_interact_grad(A)
    h = 1e-7
    for p in range(4):
        for k in range(3):
            Ap, Am = A.copy(), A.copy()
            Ap[p, k] += h
            Am[p, k] -= h
            fd = (l_interact(Ap) - l_interact(Am)) / (2 * h)
            assert abs(fd - g[p, k]) < 1e-6


def test_analytic_jacobian_matches_fd():
    layers, head = random_decoder(7, n_pixels=4, K=3, slot_dim=3, scaling=True)
    z = np.random.default_rng(5).normal(scale=0.6, size=(3, 3))
    analytic = analytic_slot_jacobian(layers[0], head, z)
    h = 1e-6
    for m in range(3):
        for s in range(3):
            zp, zm = z.copy(), z.copy()
            zp[m, s] += h
            zm[m, s] -= h
            fd = (cross_attention_forward(layers, head, zp)[0]
                  - cross_attention_forward(layers, head, zm)[0]) / (2 * h)
            assert np.max(np.abs(analytic[m, :, :, s] - fd)) < 1e-6


def test_analytic_jacobian_equals_per_slot_loop():
    # the value-mix term minus the softmax term, written one slot at a time
    layers, head = random_decoder(12, n_pixels=5, K=3, slot_dim=4, scaling=True)
    layer = layers[0]
    z = np.random.default_rng(6).normal(size=(3, 4))
    Q = layer.query_inputs @ layer.W_Q.T
    M = Q @ layer.W_K / np.sqrt(layer.d_q)
    A = softmax_rows(Q @ (z @ layer.W_K.T).T / np.sqrt(layer.d_q))
    V = z @ layer.W_V.T
    # the head's derivative per pixel, W2 diag(tanh') W1: (P, C, d_q)
    dtanh = 1.0 - np.tanh((A @ V) @ head.W1.T + head.b1) ** 2
    dpsi = np.stack([head.W2 @ (dt[:, None] * head.W1) for dt in dtanh])
    rows = dpsi.reshape(-1, dpsi.shape[-1])
    dpsi_WV = (rows @ layer.W_V).reshape(5, 3, 4)
    dpsi_V = (rows @ V.T).reshape(5, 3, 3)
    mix = np.sum(dpsi_V * A[:, None, :], axis=-1)
    loop = np.stack([
        A[:, m][:, None, None] * (dpsi_WV + dpsi_V[:, :, m][:, :, None] * M[:, None, :])
        - A[:, m][:, None, None] * mix[:, :, None] * M[:, None, :]
        for m in range(3)])
    np.testing.assert_allclose(analytic_slot_jacobian(layer, head, z), loop, rtol=1e-12, atol=0)


def test_analytic_jacobian_rejects_multihead():
    layers, head = random_decoder(8, n_pixels=3, K=2, slot_dim=4,
                                  n_heads=2, d_q=4)
    z = np.zeros((2, 4))
    with pytest.raises(ValueError):
        analytic_slot_jacobian(layers[0], head, z)


def _norms_of_full_jacobian(layer, head, z):
    return np.sum(np.abs(analytic_slot_jacobian(layer, head, z)), axis=(2, 3)).T


@pytest.mark.parametrize("scaling", [False, True])
@pytest.mark.parametrize("K", [1, 3, 5])
def test_analytic_jacobian_norms_match_full_jacobian(scaling, K):
    # slot_dim 5 against d_q 8, so no product can confuse the two widths
    layers, head = random_decoder(K, n_pixels=7, K=K, slot_dim=5, scaling=scaling)
    z = np.random.default_rng(K).normal(size=(K, 5))
    norms = analytic_slot_jacobian_norms(layers[0], head, z)
    assert norms.shape == (7, K)
    np.testing.assert_allclose(norms, _norms_of_full_jacobian(layers[0], head, z),
                               rtol=1e-12, atol=0)


def test_analytic_jacobian_norms_at_the_model_shapes():
    # the trained decoder's shapes: 256 pixels, 3 slots of width 8, d_q 16, 24 hidden, scaled
    from asymlab.autoencoder import ModelConfig, build_autoencoder

    model = build_autoencoder(ModelConfig(seed=0))
    layer, head = model.dec_layers[0], model.dec_head
    assert layer.query_inputs.shape[0] == 256 and layer.scaling
    assert (layer.slot_dim, layer.d_q, head.b1.size) == (8, 16, 24)
    z = np.random.default_rng(0).normal(size=(3, 8))
    norms = analytic_slot_jacobian_norms(layer, head, z)
    assert norms.shape == (256, 3)
    np.testing.assert_allclose(norms, _norms_of_full_jacobian(layer, head, z),
                               rtol=1e-12, atol=0)


def test_analytic_jacobian_norms_saturated_decoder():
    # keys this large push some softmax weights below exp(-745): exactly 0
    layers, head = random_decoder(4, n_pixels=12, K=3, slot_dim=5, scaling=True)
    layers[0].W_K *= 300.0
    z = np.random.default_rng(3).normal(size=(3, 5))
    A = softmax_rows(layers[0].query_inputs @ layers[0].W_Q.T
                     @ (z @ layers[0].W_K.T).T / np.sqrt(layers[0].d_q))
    assert np.any(A == 0)
    norms = analytic_slot_jacobian_norms(layers[0], head, z)
    assert np.all(norms[A == 0] == 0.0)
    # subnormal weights keep too few bits for a relative comparison
    normal = A >= np.finfo(float).tiny
    np.testing.assert_allclose(norms[normal],
                               _norms_of_full_jacobian(layers[0], head, z)[normal],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("closed_form", [analytic_slot_jacobian, analytic_slot_jacobian_norms])
def test_closed_forms_reject_what_they_do_not_cover(closed_form):
    multihead, head2 = random_decoder(8, n_pixels=3, K=2, slot_dim=4, n_heads=2, d_q=4)
    deep, head = random_decoder(8, n_pixels=3, K=2, slot_dim=4, n_layers=2)
    with pytest.raises(ValueError, match="single-head"):
        closed_form(multihead[0], head2, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="query inputs"):
        closed_form(deep[1], head, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="unbatched"):
        closed_form(deep[0], head, np.zeros((1, 2, 4)))


def test_decoder_backward_weight_gradients():
    layers, head = random_decoder(9, n_pixels=4, K=2, slot_dim=3,
                                  n_heads=2, n_layers=2, d_q=6)
    rng = np.random.default_rng(11)
    z = rng.normal(scale=0.5, size=(2, 2, 3))
    G = rng.normal(size=(2, 4, 3))

    def objective():
        pixels, _ = cross_attention_forward(layers, head, z)
        return float(np.sum(G * pixels))

    _, _, cache = cross_attention_forward(layers, head, z, with_cache=True)
    g_slots, layer_grads, head_grads = decoder_backward(layers, head, cache, G)
    h = 1e-6
    # spot-check one matrix per parameter family, the first layer's queries
    # (shared by the batch), the last layer's keys and values (reached through
    # the pixel head's first layer, not through tokens), and the head weights
    # read before backward overwrites the cache
    for arr, grad in [(layers[0].W_K, layer_grads[0]["W_K"]),
                      (layers[0].W_Q, layer_grads[0]["W_Q"]),
                      (layers[1].W_Q, layer_grads[1]["W_Q"]),
                      (layers[1].W_K, layer_grads[1]["W_K"]),
                      (layers[1].W_V, layer_grads[1]["W_V"]),
                      (head.W1, head_grads["W1"]),
                      (head.W2, head_grads["W2"]),
                      (head.b1, head_grads["b1"]),
                      (head.b2, head_grads["b2"]),
                      (z, g_slots)]:
        it = np.nditer(arr, flags=["multi_index"])
        for _ in range(min(arr.size, 5)):
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            up = objective()
            arr[idx] = old - h
            dn = objective()
            arr[idx] = old
            fd = (up - dn) / (2 * h)
            assert abs(fd - grad[idx]) < 1e-5 * max(1.0, abs(fd))
            next(it, None)


def test_decoder_backward_consumes_its_cache():
    layers, head = random_decoder(9, n_pixels=4, K=2, slot_dim=3)
    z = np.random.default_rng(12).normal(size=(2, 2, 3))
    pixels, _, cache = cross_attention_forward(layers, head, z, with_cache=True)
    decoder_backward(layers, head, cache, np.ones_like(pixels))
    with pytest.raises(ValueError, match="consumed"):
        decoder_backward(layers, head, cache, np.ones_like(pixels))


def test_positional_query_inputs_deterministic():
    a = positional_query_inputs(4, 4, 6, rng_seed=2)
    b = positional_query_inputs(4, 4, 6, rng_seed=2)
    assert np.array_equal(a, b)
    assert a.shape == (16, 6)
    assert not np.allclose(a[0], a[5])  # positions are distinguishable


def test_layer_validation():
    with pytest.raises(ValueError):
        CrossAttentionLayer(W_K=np.eye(3), W_V=np.eye(3), W_Q=np.eye(3),
                            query_inputs=np.zeros((4, 3)), n_heads=2)
    ly = CrossAttentionLayer(W_K=np.eye(4), W_V=np.eye(4), W_Q=np.eye(4),
                             query_inputs=np.zeros((4, 4)), n_heads=2)
    assert ly.head_dim == 2


def _gradients(layers, head, cache, G, g_attn):
    g_slots, layer_grads, head_grads = decoder_backward(layers, head, cache, G, g_attn)
    return [g_slots] + [g for d in layer_grads for g in d.values()] + list(head_grads.values())


def test_decoder_caches_do_not_share_arrays():
    # a second forward pass leaves the first pass's cache as it was
    layers, head = random_decoder(9, n_pixels=4, K=2, slot_dim=3, n_layers=2, d_q=6)
    rng = np.random.default_rng(13)
    z1, z2 = rng.normal(size=(2, 2, 2, 3))
    G, g_attn = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 2))
    lone = _gradients(layers, head, cross_attention_forward(layers, head, z1, True)[2],
                      G, g_attn)
    _, _, first = cross_attention_forward(layers, head, z1, with_cache=True)
    cross_attention_forward(layers, head, z2, with_cache=True)
    for a, b in zip(_gradients(layers, head, first, G, g_attn), lone):
        assert np.array_equal(a, b)


def test_kept_buffers_change_no_result():
    # a training loop's buffers: each step's pixels stay the caller's, and
    # every gradient is bitwise the one computed without buffers
    layers, head = random_decoder(9, n_pixels=4, K=2, slot_dim=3, n_heads=2, d_q=6)
    rng = np.random.default_rng(14)
    buffers: dict = {}
    earlier = []
    for z in rng.normal(size=(3, 2, 2, 3)):
        G = rng.normal(size=(2, 4, 3))
        pixels, _, cache = cross_attention_forward(layers, head, z, True, buffers=buffers)
        fresh, _, plain = cross_attention_forward(layers, head, z, with_cache=True)
        assert np.array_equal(pixels, fresh)
        for a, b in zip(_gradients(layers, head, cache, G, None),
                        _gradients(layers, head, plain, G, None)):
            assert np.array_equal(a, b)
        earlier.append((pixels, pixels.copy()))
        for kept, copy in earlier:
            assert np.array_equal(kept, copy)
    # the last layer's tokens are never formed, so no kept array has their shape
    assert set(buffers) == {"hidden", "g_hidden"}
    assert all(b.shape != (2, 4, 6) for b in buffers.values())
