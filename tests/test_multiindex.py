import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymlab.generators import Feature, GeneratorSpec, InteractionTermSet, SlotFunctionSpec
from asymlab.multiindex import (
    SlotPartition,
    all_multiindices,
    independence_groups,
    interaction_indices,
    mi_geq,
    mi_poly_derivative,
    mi_power,
    mi_support,
    monomials,
    multiindices_within_block,
    split_interaction_indices,
    validate_multiindex,
)

mi_strategy = st.lists(st.integers(0, 4), min_size=1, max_size=5).map(tuple)


def mi_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


@given(mi_strategy, st.lists(st.floats(-2, 2), min_size=5, max_size=5))
def test_power_multiplicative(a, zs):
    z = np.asarray(zs[: len(a)])
    assert mi_power(z, a) * mi_power(z, a) == pytest.approx(
        mi_power(z, mi_add(a, a)), rel=1e-12, abs=1e-12)


def test_validate_rejects():
    with pytest.raises(ValueError):
        validate_multiindex((-1, 0))
    with pytest.raises(ValueError):
        validate_multiindex((1, 2), d=3)


@given(mi_strategy, mi_strategy, st.data())
def test_poly_derivative_composes(a, b, data):
    # D^a then D^g of z^b equals D^(a+g) z^b, coefficients included
    d = len(a)
    b = b[:d] + (0,) * max(0, d - len(b))
    g = data.draw(st.lists(st.integers(0, 2), min_size=d, max_size=d).map(tuple))
    c1, r1 = mi_poly_derivative(a, b)
    if c1 == 0:
        c_joint, _ = mi_poly_derivative(mi_add(a, g), b)
        assert c_joint == 0
        return
    c2, r2 = mi_poly_derivative(g, r1)
    c_joint, r_joint = mi_poly_derivative(mi_add(a, g), b)
    assert c1 * c2 == pytest.approx(c_joint)
    if c_joint != 0:
        assert r2 == r_joint


def test_poly_derivative_exact_values():
    # D^(1,2) z0^2 z1^3 = 2 * 6 * z0 z1
    c, rest = mi_poly_derivative((1, 2), (2, 3))
    assert c == 12.0 and rest == (1, 1)
    c, rest = mi_poly_derivative((3, 0), (2, 3))
    assert c == 0.0


@given(st.integers(1, 4), st.integers(0, 4))
def test_all_multiindices_count(d, k):
    out = all_multiindices(d, k)
    assert len(out) == math.comb(d + k - 1, k)
    assert len(set(out)) == len(out)
    assert all(sum(a) == k for a in out)
    assert out == sorted(out)


def test_partition_validation():
    with pytest.raises(ValueError):
        SlotPartition(blocks=((0, 1), (1, 2)), latent_dim=3)
    with pytest.raises(ValueError):
        SlotPartition(blocks=((0,), (2,)), latent_dim=3)
    with pytest.raises(ValueError):
        SlotPartition(blocks=((0,), ()), latent_dim=1)
    p = SlotPartition(blocks=((2, 0), (1,)), latent_dim=3)
    assert p.blocks == ((0, 2), (1,))  # canonicalized order within a block


def test_partition_roundtrip():
    p = SlotPartition(blocks=((0, 1), (2, 3, 4)), latent_dim=5)
    q = SlotPartition.from_json(p.to_json())
    assert q == p
    assert p.to_json()["blocks"][0] == [1, 2]  # serialized 1-based


def test_blocks_touched():
    p = SlotPartition(blocks=((0, 1), (2, 3)), latent_dim=4)
    assert p.blocks_touched((1, 0, 0, 0)) == (0,)
    assert p.blocks_touched((0, 1, 1, 0)) == (0, 1)
    assert p.blocks_touched((0, 0, 0, 0)) == ()


def test_interaction_indices_touch_two_blocks():
    p = SlotPartition(blocks=((0, 1), (2, 3)), latent_dim=4)
    idx = interaction_indices(p, 2)
    assert idx == [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]
    for a in interaction_indices(p, 3):
        assert len(p.blocks_touched(a)) >= 2
        assert sum(a) == 3
    with pytest.raises(ValueError):
        interaction_indices(p, 1)


def test_interaction_indices_upto():
    p = SlotPartition(blocks=((0, 1), (2, 3)), latent_dim=4)
    both = interaction_indices(p, 3, upto=True)
    assert set(interaction_indices(p, 2)) <= set(both)
    assert set(interaction_indices(p, 3)) <= set(both)
    assert len(both) == len(interaction_indices(p, 2)) + len(interaction_indices(p, 3))


def test_within_block_complements_cross():
    # order-k indices split exactly into single-block and cross-block sets
    p = SlotPartition(blocks=((0, 1), (2,)), latent_dim=3)
    for k in (2, 3):
        within = {a for blk in range(p.K) for a in multiindices_within_block(p, blk, k)}
        cross = set(interaction_indices(p, k))
        assert within | cross == set(all_multiindices(3, k))
        assert within & cross == set()


def test_split_interaction_indices():
    p = SlotPartition(blocks=((0, 1, 2), (3,)), latent_dim=4)
    out = split_interaction_indices(p, 0, (0,), (1, 2), 2)
    assert all(a[0] >= 1 and (a[1] + a[2]) >= 1 and a[3] == 0 for a in out)
    assert (1, 1, 0, 0) in out and (1, 0, 1, 0) in out
    # 1-d self split admits only the pure power
    solo = SlotPartition(blocks=((0, 1), (2,)), latent_dim=3)
    assert split_interaction_indices(solo, 1, (2,), (2,), 3) == [(0, 0, 3)]
    with pytest.raises(ValueError):
        split_interaction_indices(p, 0, (0,), (1,), 2)  # not a partition of the block


@settings(max_examples=30)
@given(st.integers(2, 5), st.integers(2, 3))
def test_cross_indices_have_two_sided_support(d, k):
    p = SlotPartition(blocks=(tuple(range(d - 1)), (d - 1,)), latent_dim=d)
    for a in interaction_indices(p, k):
        sup = mi_support(a)
        assert any(i < d - 1 for i in sup) and (d - 1) in sup


GROUP_PARTITIONS = {
    "default": SlotPartition(blocks=((0, 1), (2, 3)), latent_dim=4),
    "three_slots": SlotPartition(blocks=((0, 3), (1,), (2, 4)), latent_dim=5),
    "singletons": SlotPartition(blocks=((0,), (1,), (2,)), latent_dim=3),
}


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(GROUP_PARTITIONS))
def test_independence_groups_cover_each_index_once(name, n):
    part = GROUP_PARTITIONS[name]
    groups = independence_groups(part, n)
    assert all(g for _, g in groups)
    columns = [a for _, g in groups for a in g]
    assert len(set(columns)) == len(columns)
    # every index of order 1..n lies in exactly one group: its first slot's
    lower = [a for m in range(1, n + 1) for a in all_multiindices(part.latent_dim, m)]
    owner = {a: label for label, g in groups for a in g}
    assert sorted(a for a in columns if sum(a) <= n) == sorted(lower)
    for a in lower:
        assert owner[a].startswith(f"block{part.blocks_touched(a)[0] + 1}_")
    # the rest are the within-slot order-(n+1) indices, one group per slot
    top = [label for label, g in groups if sum(g[0]) == n + 1]
    assert top == [f"block{k + 1}_order{n + 1}" for k in range(part.K)]
    for k in range(part.K):
        assert owner.keys() >= set(multiindices_within_block(part, k, n + 1))
    assert len(columns) == len(lower) + sum(
        len(multiindices_within_block(part, k, n + 1)) for k in range(part.K))


def test_independence_groups_at_order_one():
    groups = dict(independence_groups(GROUP_PARTITIONS["default"], 1))
    assert {k: set(v) for k, v in groups.items()} == {
        "block1_order1": {(1, 0, 0, 0), (0, 1, 0, 0)},
        "block2_order1": {(0, 0, 1, 0), (0, 0, 0, 1)},
        "block1_order2": {(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)},
        "block2_order2": {(0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2)},
    }
    with pytest.raises(ValueError, match="order must be >= 0"):
        independence_groups(GROUP_PARTITIONS["default"], -1)


def row_major_monomials(Z, exponents):
    """The kernel as first written: an (N, d, k) power table, gathered per
    coordinate from a strided view; the reference for bitwise equality."""
    Z = np.asarray(Z, dtype=float)
    one = Z.ndim == 1
    Z = Z.reshape(-1, Z.shape[-1])
    E = np.asarray(exponents, dtype=int).reshape(-1, Z.shape[1])
    powers = np.ones((len(Z), Z.shape[1], int(E.max(initial=0)) + 1))
    for k in range(1, powers.shape[2]):
        powers[:, :, k] = powers[:, :, k - 1] * Z
    out = powers[:, 0, E[:, 0]]
    for i in range(1, Z.shape[1]):
        out = out * powers[:, i, E[:, i]]
    return out[0] if one else out


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


EXPONENT_TABLES = {
    "degree_4_with_zero_row": [a for m in range(5) for a in all_multiindices(4, m)],
    "degree_0_only": [(0, 0, 0, 0)],
    "no_rows": np.zeros((0, 4), dtype=int),
}


@pytest.mark.parametrize("table", sorted(EXPONENT_TABLES))
@pytest.mark.parametrize("n_points", [None, 1, 16, 2192])
def test_monomials_bitwise_equal_to_row_major_kernel(n_points, table):
    rng = np.random.default_rng(3)
    Z = rng.uniform(-1.7, 1.7, size=(4,) if n_points is None else (n_points, 4))
    E = EXPONENT_TABLES[table]
    assert _bitwise_equal(monomials(Z, E), row_major_monomials(Z, E))


def test_point_monomials_bitwise_equal_to_row_major_kernel():
    rng = np.random.default_rng(4)
    for a in all_multiindices(3, 3) + [(0, 0, 0), (4, 0, 0)]:
        z = rng.uniform(-1.5, 1.5, size=3)
        assert _bitwise_equal(mi_power(z, a), float(row_major_monomials(z, [a])[0]))
    # a one-slot generator holding the single feature u^(2, 1) with weight 1
    spec = GeneratorSpec(
        partition=SlotPartition(blocks=((0, 1),), latent_dim=2),
        slot_functions=(SlotFunctionSpec(0, (Feature(kind="mon", exponents=(2, 1)),),
                                         np.ones((1, 1))),),
        interactions=InteractionTermSet(order_bound=0), out_dim=1)
    U = rng.uniform(-1.5, 1.5, size=(16, 2))
    assert _bitwise_equal(spec(U)[:, 0], row_major_monomials(U, [(2, 1)])[..., 0])
    assert _bitwise_equal(float(spec(U[0])[0]), float(row_major_monomials(U[0], [(2, 1)])[0]))


CACHED_ENUMERATORS = {
    "all_multiindices": (all_multiindices, (4, 2)),
    "interaction_indices": (interaction_indices, (GROUP_PARTITIONS["default"], 3)),
    "interaction_indices_upto": (interaction_indices, (GROUP_PARTITIONS["default"], 3, True)),
    "multiindices_within_block": (multiindices_within_block, (GROUP_PARTITIONS["default"], 1, 3)),
    "independence_groups": (independence_groups, (GROUP_PARTITIONS["three_slots"], 2)),
    "split_interaction_indices": (split_interaction_indices,
                                  (GROUP_PARTITIONS["three_slots"], 0, (0,), (3,), 3)),
}


@pytest.mark.parametrize("name", sorted(CACHED_ENUMERATORS))
def test_cached_enumerators_hand_out_new_lists(name):
    fn, args = CACHED_ENUMERATORS[name]
    fn.cache_clear()
    got = fn(*args)
    want = copy.deepcopy(got)
    assert isinstance(got, list) and got
    for item in got:  # independence_groups' groups are lists too
        if isinstance(item[-1], list):
            item[-1].clear()
    got.append(got[0])
    assert fn(*args) == want
    assert fn(*args) is not fn(*args)
