import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymlab.attention import (
    analytic_slot_jacobian,
    analytic_slot_jacobian_norms,
    cross_attention_forward,
    random_decoder,
)
from asymlab.generators import (
    SlotMap,
    SlotwiseDiffeoSpec,
    compose_slotwise,
    preset_generator,
)
from asymlab.metrics import (
    ZERO_TOL,
    MetricResult,
    PixelAssignment,
    ari,
    assignment_from_masks,
    block_permutation_structure,
    fd_slot_jacobian,
    j_ari,
    j_ari_from_norms,
    jis,
    jis_from_norms,
    local_disentanglement_check,
    position_only_index,
    slot_jacobian_norms,
    slot_shares,
)
from asymlab.multiindex import SlotPartition


def brute_force_ari(x, y):
    """Pair-counting definition, O(n^2), as an independent oracle."""
    n = len(x)
    a = b = ab = 0
    for i, j in itertools.combinations(range(n), 2):
        sx = x[i] == x[j]
        sy = y[i] == y[j]
        a += sx
        b += sy
        ab += sx and sy
    total = math.comb(n, 2)
    expected = a * b / total if total else 0.0
    max_index = (a + b) / 2
    if max_index == expected:
        return 1.0
    return (ab - expected) / (max_index - expected)


def labels(x, fg=None):
    x = np.asarray(x)
    fg = np.ones(len(x), dtype=bool) if fg is None else np.asarray(fg)
    return PixelAssignment(labels=x, foreground=fg)


def test_ari_perfect_and_permuted():
    x = np.array([0, 0, 1, 1, 2, 2])
    assert ari(labels(x), labels(x)) == pytest.approx(1.0)
    assert ari(labels(x), labels((x + 1) % 3)) == pytest.approx(1.0)


def test_ari_against_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(5, 40))
        x = rng.integers(0, 4, size=n)
        y = rng.integers(0, 3, size=n)
        assert ari(labels(x), labels(y)) == pytest.approx(
            brute_force_ari(x, y), abs=1e-12)


def test_ari_foreground_intersection():
    x = np.array([0, 0, 1, 1])
    y = np.array([1, 1, 0, 0])
    fgx = np.array([True, True, True, False])
    fgy = np.array([False, True, True, True])
    # only the shared foreground pixels {1, 2} enter the contingency table
    got = ari(labels(x, fgx), labels(y, fgy))
    assert got == pytest.approx(brute_force_ari(x[1:3], y[1:3]))


def np_unique_ari(a, b):
    """ARI with the contingency table built from np.unique and np.add.at,
    the construction ari's single bincount replaced."""
    fg = a.foreground & b.foreground
    la, lb = a.labels[fg], b.labels[fg]
    ua, inv_a = np.unique(la, return_inverse=True)
    ub, inv_b = np.unique(lb, return_inverse=True)
    table = np.zeros((ua.size, ub.size))
    np.add.at(table, (inv_a, inv_b), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = float(np.sum(comb2(table)))
    sum_rows = float(np.sum(comb2(table.sum(axis=1))))
    sum_cols = float(np.sum(comb2(table.sum(axis=0))))
    expected = sum_rows * sum_cols / comb2(np.array(la.size))
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def test_ari_bincount_table_equals_unique_table():
    rng = np.random.default_rng(3)
    # label pools with background -1, gaps, large values and a single label
    pools = [np.array([-1, 0, 1, 2]), np.array([0, 3, 7, 40]),
             np.array([5]), np.array([-1, 2]), np.arange(6) * 100 - 250]
    for trial in range(600):
        n = int(rng.integers(2, 80))
        x = rng.choice(pools[trial % 5], size=n)
        y = rng.choice(pools[(trial // 5) % 5], size=n)
        fgx = rng.random(n) < (1.0 if trial % 3 == 0 else 0.8)
        fgy = rng.random(n) < (1.0 if trial % 4 == 0 else 0.8)
        fgx[:2] = fgy[:2] = True  # at least two shared pixels
        a, b = labels(x, fgx), labels(y, fgy)
        assert ari(a, b) == np_unique_ari(a, b)


def _norm_table(rng, n_pixels, K):
    """Random (n_pixels, K) norms with tied rows, all-zero rows, rows summing to ZERO_TOL and
    subnormal entries, as a transposed view of a (K, n_pixels) array, the closed form's layout."""
    norms = rng.exponential(size=(n_pixels, K))
    kind = rng.integers(0, 6, size=n_pixels)
    norms[kind == 0] = 0.0
    norms[kind == 1] = rng.exponential()  # every slot tied
    norms[kind == 2, : (K + 1) // 2] = 1.5  # a tie for the largest
    sub = kind == 3
    norms[sub] *= np.where(rng.random((int(sub.sum()), K)) < 0.5, 1e-310, 1.0)
    norms[kind == 4] = np.eye(K)[0] * ZERO_TOL  # excluded: the total must exceed ZERO_TOL
    return np.ascontiguousarray(norms.T).T


def test_metric_cores_equal_the_per_row_formulas():
    # JIS as division first, then row maximum; J-ARI through two PixelAssignments and
    # the np.unique table; both bitwise
    rng = np.random.default_rng(11)
    pools = [np.array([0, 1, 2]), np.array([-1, 0, 7, 40]), np.arange(5) * 100 - 250]
    for trial in range(300):
        n, K = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        norms = _norm_table(rng, n, K)
        fg = rng.random(n) < 0.7
        if trial % 10 == 0:  # a one-pixel foreground
            fg[:] = False
            fg[rng.integers(n)] = True
        gt = labels(rng.choice(pools[trial % 3], size=n), fg)
        totals = np.sum(norms, axis=1)
        nonzero = totals > ZERO_TOL
        use = fg & nonzero
        if not np.any(use):
            with pytest.raises(ValueError):
                jis_from_norms(norms, fg)
            with pytest.raises(ValueError):
                j_ari_from_norms(norms, gt)
            continue
        shares = norms[use] / totals[use, None]
        got = jis_from_norms(norms, fg)
        assert got.value == float(np.mean(np.max(shares, axis=1)))
        assert got.excluded_pixels == int(np.sum(fg & ~nonzero))
        pred = PixelAssignment(labels=np.argmax(norms, axis=1), foreground=use)
        want = 1.0 if np.sum(use) < 2 else np_unique_ari(pred, labels(gt.labels, use))
        got = j_ari_from_norms(norms, gt)
        assert got.value == want
        assert got.excluded_pixels == int(np.sum(fg & ~nonzero))


def test_ari_one_shared_pixel_is_perfect():
    a = PixelAssignment(labels=[0, 1], foreground=[True, False])
    b = PixelAssignment(labels=[2, 2], foreground=[True, True])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ari(a, b) == 1.0
        norms = np.array([[0.0, 2.0], [1.0, 0.0], [0.0, 0.0]])
        gt = PixelAssignment(labels=[0, 1, 1], foreground=[True, False, False])
        assert j_ari_from_norms(norms, gt).value == 1.0


@settings(max_examples=50)
@given(st.lists(st.integers(0, 3), min_size=4, max_size=25), st.data())
def test_ari_symmetric(xs, data):
    ys = data.draw(st.lists(st.integers(0, 2), min_size=len(xs), max_size=len(xs)))
    x, y = np.array(xs), np.array(ys)
    assert ari(labels(x), labels(y)) == pytest.approx(
        ari(labels(y), labels(x)), abs=1e-12)


def test_assignment_validation():
    with pytest.raises(ValueError):
        PixelAssignment(labels=np.zeros(3, dtype=int),
                        foreground=np.ones(4, dtype=bool))
    with pytest.raises(ValueError):
        PixelAssignment(labels=np.zeros(3), foreground=np.ones(3, dtype=bool))
    masks = np.zeros((2, 2, 2), dtype=bool)
    masks[0, 0, 0] = masks[1, 0, 0] = True
    with pytest.raises(ValueError):
        assignment_from_masks(masks)


def test_assignment_from_masks():
    masks = np.zeros((2, 2, 3), dtype=bool)
    masks[0, 0, :2] = True
    masks[1, 1, 2] = True
    pa = assignment_from_masks(masks)
    assert pa.labels.tolist() == [0, 0, -1, -1, -1, 1]
    assert pa.foreground.tolist() == [True, True, False, False, False, True]


def _np_function_softmax(logits, axis):
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("softmax input must be finite")
    e = logits - np.max(logits, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def _np_function_norms(layer, head, z):
    """analytic_slot_jacobian_norms and its closed-form factors in numpy's function
    forms (np.sum, np.max, np.hstack, np.sqrt, a new np.ones), as they were written
    before the ndarray-method forms: the reference for bitwise equality."""
    root = np.sqrt(layer.d_q) if layer.scaling else 1.0
    MT = (layer.W_K.T @ layer.W_Q / root) @ layer.query_inputs.T
    AT = _np_function_softmax(z @ MT, axis=-2)
    s, K, P = MT.shape[0], z.shape[0], MT.shape[1]
    rows = (head.W1 @ np.hstack([layer.W_V, layer.W_V @ z.T])).T
    dtanh = (rows[s:] + head.b1).T @ AT
    np.tanh(dtanh, out=dtanh)
    np.subtract(1.0, np.square(dtanh, out=dtanh), out=dtanh)
    F = ((head.W2[:, None, :] * rows).reshape(-1, rows.shape[1]) @ dtanh).reshape(-1, s + K, P)
    Fv = F[:, s:]
    Fv -= np.sum(Fv * AT, axis=1, keepdims=True)
    buf = F[:, None, s:] * MT[:, None]
    buf += F[:, :s, None]
    acc = np.ones(buf.size // (K * P)) @ np.abs(buf, out=buf).reshape(-1, K * P)
    return (acc.reshape(K, P) * AT).T


def _np_function_ari(la, lb):
    n = la.size
    if n < 2:
        return 1.0
    la, lb = la.astype(np.int64), lb.astype(np.int64)
    la -= la.min()
    lb -= lb.min()
    width = int(lb.max()) + 1
    table = np.bincount(la * width + lb, minlength=(int(la.max()) + 1) * width).reshape(-1, width)
    table = table[table.any(axis=1)][:, table.any(axis=0)].tolist()
    sum_cells = float(sum(x * (x - 1) for row in table for x in row) // 2)
    sum_rows = float(sum(r * (r - 1) for r in map(sum, table)) // 2)
    sum_cols = float(sum(c * (c - 1) for c in map(sum, zip(*table))) // 2)
    expected = sum_rows * sum_cols / (n * (n - 1) / 2.0)
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def _np_function_j_ari_and_jis(norms, gt):
    fg = gt.foreground & (np.sum(norms, axis=1) > ZERO_TOL)
    j_ari_value = _np_function_ari(np.argmax(norms, axis=1)[fg], gt.labels[fg])
    totals = np.sum(norms, axis=1)
    use = gt.foreground & (totals > ZERO_TOL)
    jis_value = float(np.mean(np.max(norms, axis=1)[use] / totals[use]))
    excluded = int(np.count_nonzero(gt.foreground)) - int(np.count_nonzero(use))
    return (j_ari_value, excluded), (jis_value, excluded)


def _assert_scores_equal_np_function_forms(layer, head, zs, gts):
    for z, gt in zip(zs, gts):
        norms = analytic_slot_jacobian_norms(layer, head, z)
        assert np.array_equal(norms, _np_function_norms(layer, head, z))
        want_jari, want_jis = _np_function_j_ari_and_jis(norms, gt)
        got = j_ari_from_norms(norms, gt)
        assert (got.value, got.excluded_pixels) == want_jari
        got = jis_from_norms(norms, gt.foreground)
        assert (got.value, got.excluded_pixels) == want_jis


def test_scoring_path_equals_np_function_forms_at_the_model_shapes():
    from asymlab.autoencoder import ModelConfig, build_autoencoder
    from asymlab.sprites import DataConfig, make_dataset

    model = build_autoencoder(ModelConfig(seed=0))
    scenes = make_dataset(DataConfig(count=6, seed=7)).scenes
    rng = np.random.default_rng(5)
    zs = [rng.normal(scale=scale, size=(3, 8)) for scale in (0.1, 1.0, 3.0, 10.0, 30.0, 100.0)]
    gts = [assignment_from_masks(scene.masks) for scene in scenes]
    _assert_scores_equal_np_function_forms(model.dec_layers[0], model.dec_head, zs, gts)


def test_scoring_path_equals_np_function_forms_on_a_saturated_decoder():
    # keys this large push some softmax weights to exactly 0, and the norms with them
    layers, head = random_decoder(4, n_pixels=12, K=3, slot_dim=5, scaling=True)
    layers[0].W_K *= 300.0
    rng = np.random.default_rng(3)
    zs = [rng.normal(scale=3.0, size=(3, 5)) for _ in range(4)]
    gts = [labels(rng.integers(0, 3, size=12), rng.random(12) < 0.8) for _ in zs]
    assert sum(np.count_nonzero(analytic_slot_jacobian_norms(layers[0], head, z) == 0.0)
               for z in zs) > 10
    _assert_scores_equal_np_function_forms(layers[0], head, zs, gts)


def test_slot_jacobian_norms_analytic_vs_fd():
    layers, head = random_decoder(2, n_pixels=5, K=3, slot_dim=3)
    z = np.random.default_rng(1).normal(scale=0.5, size=(3, 3))
    analytic = slot_jacobian_norms((layers, head), z)

    def fn(zz):
        from asymlab.attention import cross_attention_forward
        return cross_attention_forward(layers, head, zz)[0]

    fd = slot_jacobian_norms(fn, z)
    assert analytic.shape == (5, 3)
    assert np.max(np.abs(analytic - fd)) < 1e-6


def test_fd_slot_jacobian_matches_closed_form():
    K, P, s = 3, 7, 4
    layers, head = random_decoder(9, n_pixels=P, K=K, slot_dim=s, scaling=True)
    z = np.random.default_rng(9).normal(scale=0.6, size=(K, s))
    fd = fd_slot_jacobian((layers, head), z)
    assert fd.shape == (K, P, 3, s)
    closed = analytic_slot_jacobian(layers[0], head, z)
    assert np.max(np.abs(fd - closed)) <= 1e-6 * np.max(np.abs(closed))


def test_fd_slot_jacobian_callable_matches_pair():
    K, s = 3, 4
    layers, head = random_decoder(6, n_pixels=5, K=K, slot_dim=s,
                                  n_heads=2, n_layers=2, d_q=6)
    z = np.random.default_rng(6).normal(scale=0.5, size=(K, s))
    pair = fd_slot_jacobian((layers, head), z)
    by_call = fd_slot_jacobian(lambda zz: cross_attention_forward(layers, head, zz)[0], z)
    assert pair.shape == (K, 5, 3, s)
    np.testing.assert_allclose(by_call, pair, rtol=1e-12, atol=1e-12)


def test_slot_jacobian_norms_multilayer_multihead():
    # no closed form here: the pair goes through the derivative engine
    from asymlab.attention import cross_attention_forward

    K, s, h = 3, 4, 1e-4
    layers, head = random_decoder(5, n_pixels=6, K=K, slot_dim=s,
                                  n_heads=2, n_layers=2, d_q=6)
    z = np.random.default_rng(2).normal(scale=0.5, size=(K, s))

    def fn(zz):
        return cross_attention_forward(layers, head, zz)[0]

    pair = slot_jacobian_norms((layers, head), z)
    assert pair.shape == (6, K)
    np.testing.assert_allclose(pair, slot_jacobian_norms(fn, z), rtol=1e-12, atol=1e-12)
    by_hand = np.zeros((6, K))
    for k in range(K):
        for r in range(s):
            zp, zm = z.copy(), z.copy()
            zp[k, r] += h
            zm[k, r] -= h
            by_hand[:, k] += np.sum(np.abs((fn(zp) - fn(zm)) / (2 * h)), axis=-1)
    assert np.max(np.abs(pair - by_hand)) < 1e-9


def test_j_ari_and_jis_on_planted_structure():
    # decoder built so pixel p reacts to exactly one slot
    K, P, s = 3, 9, 2
    W = np.zeros((K, P, 3, s))
    owner = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
    rng = np.random.default_rng(3)
    for p, k in enumerate(owner):
        W[k, p] = rng.normal(size=(3, s))

    def decoder(z):
        return np.einsum("kpcs,ks->pc", W, z)

    z = rng.normal(size=(K, s))
    gt = PixelAssignment(labels=owner, foreground=np.ones(P, dtype=bool))
    r = j_ari(decoder, z, gt)
    assert isinstance(r, MetricResult)
    assert r.value == pytest.approx(1.0)
    assert r.excluded_pixels == 0
    assert jis(decoder, z).value == pytest.approx(1.0)
    assert float(r) == r.value


def test_metrics_from_norms_equal_decoder_metrics():
    layers, head = random_decoder(6, n_pixels=6, K=3, slot_dim=3)
    z = np.random.default_rng(7).normal(size=(3, 3))
    gt = labels([0, 0, 1, 1, 2, 2], [1, 1, 1, 0, 1, 1])
    norms = slot_jacobian_norms((layers, head), z)
    assert j_ari_from_norms(norms, gt) == j_ari((layers, head), z, gt)
    assert jis_from_norms(norms, gt.foreground) == jis((layers, head), z, gt.foreground)


def test_position_only_index_on_hand_built_norms():
    rng = np.random.default_rng(8)
    # every image gives each pixel the same argmax slot: a fixed tessellation
    owner = np.array([0, 0, 1, 2, 2, 1])
    fixed = rng.uniform(0.0, 0.5, size=(4, 6, 3))
    fixed[:, np.arange(6), owner] += 1.0
    assert position_only_index(fixed) == 1.0
    # slots follow an object that moves: pixels 0-1 change owner on image 2
    following = fixed.copy()
    following[2, :2] = following[2, :2, ::-1]
    assert np.array_equal(np.argmax(following[2, :2], axis=-1), [2, 2])
    assert position_only_index(following) == pytest.approx(4 / 6)
    # one image is trivially position-only
    assert position_only_index(following[2:3]) == 1.0


def test_slot_shares_on_hand_built_norms():
    rng = np.random.default_rng(9)
    fg = np.ones((2, 9), dtype=bool)
    fg[:, 4] = False
    # a collapsed cell: slot 2 wins every pixel on every image
    collapsed = rng.uniform(0.0, 0.5, size=(2, 9, 3))
    collapsed[..., 2] += 1.0
    assert slot_shares(collapsed, fg).tolist() == [1.0, 0.0, 0.0]
    # a 3-way tessellation: three pixels per slot, pixel 4 in the background
    owner = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
    tessellated = rng.uniform(0.0, 0.5, size=(2, 9, 3))
    tessellated[:, np.arange(9), owner] += 1.0
    shares = slot_shares(tessellated, fg)
    assert shares.tolist() == [3 / 8, 3 / 8, 1 / 4]
    assert np.all(np.diff(shares) <= 0)
    # a pixel whose Jacobian row is zero wins no slot
    tessellated[:, 0] = 0.0
    assert slot_shares(tessellated, fg).tolist() == [3 / 7, 2 / 7, 2 / 7]
    with pytest.raises(ValueError):
        slot_shares(tessellated, np.zeros((2, 9), dtype=bool))


def test_j_ari_excludes_dead_pixels():
    K, P, s = 2, 4, 2
    W = np.zeros((K, P, 3, s))
    W[0, 0] = 1.0
    W[1, 1] = 1.0
    # pixels 2, 3 react to nothing

    def decoder(z):
        return np.einsum("kpcs,ks->pc", W, z)

    gt = PixelAssignment(labels=np.array([0, 1, 0, 1]),
                         foreground=np.ones(4, dtype=bool))
    r = j_ari(decoder, np.ones((K, s)), gt)
    assert r.excluded_pixels == 2


def test_jis_uniform_split():
    K, P, s = 2, 3, 2
    W = np.ones((K, P, 3, s))

    def decoder(z):
        return np.einsum("kpcs,ks->pc", W, z)

    r = jis(decoder, np.ones((K, s)))
    assert r.value == pytest.approx(0.5)


def test_jis_checks_pixel_count():
    layers, head = random_decoder(6, n_pixels=6, K=2, slot_dim=3)
    z = np.random.default_rng(0).normal(size=(2, 3))
    assert jis((layers, head), z, foreground=np.ones(6, dtype=bool)).value > 0
    for n in (1, 4):
        with pytest.raises(ValueError, match="pixel counts disagree"):
            jis((layers, head), z, foreground=np.ones(n, dtype=bool))


def test_block_permutation_structure():
    part = SlotPartition(blocks=((0, 1), (2, 3)), latent_dim=4)
    J = np.zeros((4, 4))
    J[:2, 2:] = np.random.default_rng(0).normal(size=(2, 2))
    J[2:, :2] = np.random.default_rng(1).normal(size=(2, 2))
    assert block_permutation_structure(J, part) == (1, 0)
    assert block_permutation_structure(np.eye(4), part) == (0, 1)
    dense = np.ones((4, 4))
    assert block_permutation_structure(dense, part) is None
    # a zero row block breaks the bijection
    J[:2] = 0.0
    assert block_permutation_structure(J, part) is None


def test_block_permutation_size_mismatch():
    part = SlotPartition(blocks=((0,), (1, 2)), latent_dim=3)
    J = np.zeros((3, 3))
    J[0, 1:] = 1.0  # size-2 block feeding the size-1 row block
    J[1:, 0] = 1.0
    assert block_permutation_structure(J, part) is None


def test_local_disentanglement_pass_and_fail():
    gt = preset_generator(2, rng_seed=6)
    part = gt.partition
    rng = np.random.default_rng(4)
    maps = tuple(
        SlotMap(kind="affine",
                matrix=rng.normal(size=(2, 2)) + 2 * np.eye(2),
                offset=rng.normal(scale=0.2, size=2))
        for _ in part.blocks
    )
    pair = compose_slotwise(gt, SlotwiseDiffeoSpec(maps=maps, permutation=(1, 0)))
    samples = rng.uniform(-0.7, 0.7, size=(6, 4))
    rep = local_disentanglement_check(gt, pair, samples)
    assert rep.passed
    assert rep.details["permutation"] == [2, 1]

    theta = 0.8
    R = np.eye(4)
    R[1, 1] = R[2, 2] = np.cos(theta)
    R[1, 2], R[2, 1] = -np.sin(theta), np.sin(theta)
    rep2 = local_disentanglement_check(gt, lambda z: R @ z, samples)
    assert not rep2.passed
    assert rep2.witnesses
