import copy
import json
import math
import re

import numpy as np
import pytest

from asymlab import cli
from asymlab.asymmetry import random_basis_changes
from asymlab.derivatives import derivative_by_multiindex
from asymlab.generators import (
    Box,
    ComposedPair,
    Feature,
    GeneratorSpec,
    GraphBand,
    InteractionTermSet,
    SlotFunctionSpec,
    SlotMap,
    SlotwiseDiffeoSpec,
    compose_slotwise,
    default_partition,
    monomial_features,
    preset_family,
    preset_generator,
    random_equivalence,
    required_output_dim,
    sample_cpe,
    top_order_cross_nonzero,
)
from asymlab.multiindex import SlotPartition, interaction_indices


def test_feature_kinds():
    # one slot holding both features, each written to its own output
    mon = Feature(kind="mon", exponents=(2, 1))
    s = Feature(kind="sin", weights=(1.0, 2.0), bias=0.1)
    spec = GeneratorSpec(
        partition=SlotPartition(blocks=((0, 1),), latent_dim=2),
        slot_functions=(SlotFunctionSpec(0, (mon, s), np.eye(2)),),
        interactions=InteractionTermSet(order_bound=0), out_dim=2)
    u = np.array([0.5, -0.3])
    assert spec(u) == pytest.approx([0.5**2 * -0.3, np.sin(0.5 - 0.6 + 0.1)])
    with pytest.raises(ValueError):
        Feature(kind="mon", exponents=(5, 0))  # beyond C^3-safe degree cap


def test_monomial_features_count():
    feats = monomial_features(2, max_degree=3)
    assert len(feats) == 9  # degrees 1..3 on two variables
    # preset coefficients are drawn per feature, so the order is pinned too
    assert [f.exponents for f in feats] == [
        (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]


def test_preset_declared_order_holds():
    # cross derivatives of order n+1 vanish, order n cross terms are present
    for n in (1, 2):
        spec = preset_generator(n, rng_seed=n * 13)
        part = spec.partition
        z = np.random.default_rng(0).uniform(-0.6, 0.6, size=part.latent_dim)
        for alpha in interaction_indices(part, n + 1)[:4]:
            val = derivative_by_multiindex(spec, z, alpha)
            assert np.max(np.abs(val)) < 1e-6
        assert top_order_cross_nonzero(spec)


def test_preset_json_roundtrip():
    spec = preset_generator(2, rng_seed=3)
    clone = GeneratorSpec.from_json(spec.to_json())
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = rng.uniform(-1, 1, size=spec.partition.latent_dim)
        assert np.allclose(spec(z), clone(z), atol=1e-12)
    assert clone.order_bound == spec.order_bound


def test_spec_refuses_misplaced_slot_functions_and_misfit_features(tmp_path, capsys):
    # slot functions are placed by position, so a file listing them out of
    # slot_index order, or a feature not fitting its slot, would certify a
    # generator other than the file's
    spec = preset_generator(1, rng_seed=0).to_json()
    cases = [(dict(spec, slot_functions=spec["slot_functions"][::-1]),
              "slot function 1 has slot_index 2")]
    for kind, key, named in (("mon", "exponents", "slot 2 has a mon feature of length 3"),
                             ("sin", "weights", "slot 2 has a sin feature of length 3")):
        bad = copy.deepcopy(spec)
        feat = next(f for f in bad["slot_functions"][1]["features"] if f["kind"] == kind)
        feat[key] = [0, 1, 0]
        cases.append((bad, f"{named}, expected 2"))
    for bad, named in cases:
        with pytest.raises(ValueError, match=named):
            GeneratorSpec.from_json(bad)
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps(bad))
        rc = cli.main(["check", "--generator", str(gen), "--order", "1",
                       "--out", str(tmp_path / "out")])
        assert rc == 2 and f"bad generator file: {named}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_random_equivalence_pushes_points():
    spec = preset_generator(2, rng_seed=7)
    part = spec.partition
    rng = np.random.default_rng(5)
    eq = compose_slotwise(spec, random_equivalence(part, rng))
    assert eq.permutation == (0, 1)
    for _ in range(4):
        z = rng.uniform(-0.8, 0.8, size=part.latent_dim)
        # the equivalent generator at the pushed point reproduces f(z)
        assert np.allclose(eq.model(eq.latent_map(z)), spec(z), atol=1e-9)


def test_random_equivalence_condition_cap():
    part = default_partition(2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        for m in random_equivalence(part, rng).maps:
            assert m.kind == "affine" and not np.any(m.offset)
            assert np.linalg.cond(m.matrix) <= 50.0 + 1e-9


def test_slotmap_affine_invert():
    m = SlotMap(kind="affine", matrix=np.array([[2.0, 0.3], [0.1, 1.5]]),
                offset=np.array([0.5, -1.0]))
    u = np.array([0.7, -0.2])
    assert np.allclose(m.invert(m(u)), u, atol=1e-10)


def test_slotmap_cubic_invert():
    m = SlotMap(kind="cubic", linear=np.array([1.2, 0.8]),
                cubic=np.array([0.4, 0.0]))
    u = np.array([1.4, -2.0])
    assert np.allclose(m.invert(m(u)), u, atol=1e-8)
    with pytest.raises(ValueError):
        SlotMap(kind="cubic", linear=np.array([-1.0]), cubic=np.array([0.0]))


def test_slotmap_singular_rejected():
    with pytest.raises(ValueError):
        SlotMap(kind="affine", matrix=np.zeros((2, 2)), offset=np.zeros(2))
    # a missing or misfit field is named, never stored as nan
    for kwargs, named in (
            ({"kind": "affine", "matrix": np.eye(2)}, "affine slot map needs offset"),
            ({"kind": "affine", "offset": np.zeros(2)}, "affine slot map needs matrix"),
            ({"kind": "affine", "matrix": np.eye(2), "offset": np.zeros(3)},
             "affine slot map offset has shape (3,), expected (2,)"),
            ({"kind": "affine", "matrix": np.ones((2, 3)), "offset": np.zeros(2)},
             "affine slot map matrix must be square, got shape (2, 3)"),
            ({"kind": "cubic", "linear": [1, 1]}, "cubic slot map needs cubic"),
            ({"kind": "cubic", "cubic": [0, 0]}, "cubic slot map needs linear"),
            ({"kind": "cubic", "linear": [1, 1], "cubic": [0.0]},
             "cubic slot map needs linear and cubic of one size, got shapes (2,) and (1,)")):
        with pytest.raises(ValueError, match=re.escape(named)):
            SlotMap(**kwargs)


def _reference_draws(partition, rng, samples):
    """Every slot's M_k^-1 of `samples` equivalences, one candidate drawn and
    checked at a time, and the count of rejected candidates."""
    draws, rejected = [], 0
    for _ in range(samples):
        draws.append([])
        for b in partition.blocks:
            while True:
                m = np.eye(len(b)) + 0.5 * rng.uniform(-1, 1, size=(len(b), len(b)))
                if np.linalg.cond(m) <= 50.0:
                    draws[-1].append(np.linalg.inv(m))
                    break
                rejected += 1
    return draws, rejected


@pytest.mark.parametrize("blocks, samples, seed, rejects", [
    (((0, 1), (2, 3)), 3, 0, False),  # the default partition
    (((0,), (1, 2)), 4, 1, False),  # unequal slots: drawn one at a time
    ((tuple(range(6)), tuple(range(6, 12))), 12, 1, True),  # 6-d slots, a rejection
    (((0, 1), (2, 3)), 0, 0, False),  # no sample
])
def test_batched_draws_equal_sequential_calls(blocks, samples, seed, rejects):
    part = SlotPartition(blocks=blocks, latent_dim=sum(map(len, blocks)))
    ref_rng, seq_rng, batch_rng = (np.random.default_rng(seed) for _ in range(3))
    want, rejected = _reference_draws(part, ref_rng, samples)
    assert (rejected > 0) == rejects
    L_inv = random_basis_changes(part, batch_rng, samples)
    assert L_inv.shape == (samples, part.latent_dim, part.latent_dim)
    for s in range(samples):
        eq = random_equivalence(part, seq_rng)
        off_blocks = np.ones_like(L_inv[s], dtype=bool)
        for k, b in enumerate(blocks):
            assert L_inv[s][np.ix_(b, b)].tobytes() == want[s][k].tobytes()
            assert eq.maps[k].matrix.tobytes() == want[s][k].tobytes()
            off_blocks[np.ix_(b, b)] = False
        assert not L_inv[s][off_blocks].any()
    assert batch_rng.bit_generator.state == ref_rng.bit_generator.state
    assert seq_rng.bit_generator.state == ref_rng.bit_generator.state


def test_composed_pair_roundtrip_and_permutation():
    spec = preset_generator(2, rng_seed=21)
    part = spec.partition
    rng = np.random.default_rng(3)
    maps = tuple(
        SlotMap(kind="affine",
                matrix=rng.normal(size=(len(b), len(b))) + 2 * np.eye(len(b)),
                offset=rng.normal(scale=0.2, size=len(b)))
        for b in part.blocks
    )
    pair = compose_slotwise(spec, SlotwiseDiffeoSpec(maps=maps, permutation=(1, 0)))
    z = rng.uniform(-0.5, 0.5, size=part.latent_dim)
    assert np.allclose(pair.h(pair.h_inverse(z)), z, atol=1e-8)
    assert np.allclose(pair.model(pair.latent_map(z)), spec(z), atol=1e-8)
    assert pair.permutation == (1, 0)


def _cubic_maps(rng, part):
    return tuple(SlotMap(kind="cubic", linear=rng.uniform(0.7, 1.3, size=len(b)),
                         cubic=rng.uniform(0.0, 0.3, size=len(b)))
                 for b in part.blocks)


def test_h_inverse_one_solve_matches_per_slot_invert():
    spec = preset_generator(2, rng_seed=5, include_trig=False)
    part = spec.partition
    rng = np.random.default_rng(8)
    maps = _cubic_maps(rng, part)
    pair = compose_slotwise(spec, SlotwiseDiffeoSpec(maps=maps, permutation=(1, 0)))
    Y = rng.uniform(-1.5, 1.5, size=(64, part.latent_dim))
    per_slot = np.empty_like(Y)
    for k, m in enumerate(maps):
        per_slot[:, list(part.blocks[pair.permutation[k]])] = m.invert(Y[:, list(part.blocks[k])])
    assert np.max(np.abs(pair.h_inverse(Y) - per_slot)) <= 1e-13
    for y in (Y[0], Y):
        assert np.max(np.abs(pair.h(pair.h_inverse(y)) - y)) <= 1e-12


def test_h_inverse_mixes_affine_and_cubic_slots():
    spec = preset_generator(2, rng_seed=6, include_trig=False)
    part = spec.partition
    rng = np.random.default_rng(9)
    affine = SlotMap(kind="affine", matrix=rng.normal(size=(2, 2)) + 2 * np.eye(2),
                     offset=rng.normal(scale=0.2, size=2))
    pair = compose_slotwise(spec, SlotwiseDiffeoSpec(
        maps=(affine, _cubic_maps(rng, part)[1]), permutation=(1, 0)))
    Y = rng.uniform(-1.5, 1.5, size=(64, part.latent_dim))
    for y in (Y[0], Y):
        assert np.max(np.abs(pair.h(pair.h_inverse(y)) - y)) <= 1e-12


def test_diffeo_size_mismatch():
    part = SlotPartition(blocks=((0,), (1, 2)), latent_dim=3)
    maps = (SlotMap(kind="affine", matrix=np.eye(2), offset=np.zeros(2)),
            SlotMap(kind="affine", matrix=np.eye(2), offset=np.zeros(2)))
    spec = SlotwiseDiffeoSpec(maps=maps, permutation=(0, 1))
    with pytest.raises(ValueError):
        spec.validate(part)


def test_support_membership():
    sup = Box(4)
    pts = sup.sample(np.random.default_rng(0), 50)
    assert pts.shape == (50, 4) and np.all(sup.contains(pts))
    outside = pts.copy()
    outside[::2, 1] = 1.5
    assert list(sup.contains(outside)) == [i % 2 == 1 for i in range(50)]


def test_cpe_complement_outside_support():
    # the band ties z3 to z0*z1*z2 across the two slots, so its CPE is
    # strictly larger than the band
    part = default_partition(2)
    sup = GraphBand(0.1)
    pts = sample_cpe(sup, part, np.random.default_rng(1), 30)
    assert pts.shape == (30, 4)
    assert not np.any(sup.contains(pts))
    # inside the CPE: each slot's coordinates are those of some band point
    assert np.all(np.abs(pts) <= 1.0)
    assert np.all(np.abs(pts[:, 3]) <= np.abs(pts[:, 2]) + 0.1 + 1e-12)


@pytest.mark.parametrize("width", [0.1, 0.3, 0.5])
def test_wide_bands_stay_in_the_cube(width):
    # an offset that pushes z3 past the cube is redrawn, so neither the band's
    # rows nor the CPE rows built from them leave [-1, 1]^4
    sup, rng = GraphBand(width), np.random.default_rng(3)
    assert np.all(sup.contains(sup.sample(rng, 20_000)))
    pts = sample_cpe(sup, default_partition(2), rng, 5_000)
    assert np.all(np.abs(pts) <= 1.0) and not np.any(sup.contains(pts))


def test_a_band_draw_with_no_row_outside_is_the_plain_draw():
    rng, ref = np.random.default_rng(0), np.random.default_rng(0)
    Z = GraphBand(0.1).sample(rng, 50)
    plain = ref.uniform(-1, 1, size=(50, 4))
    plain[:, 3] = plain[:, 0] * plain[:, 1] * plain[:, 2]
    plain[:, 3] += ref.uniform(-0.1, 0.1, size=50)
    assert np.max(np.abs(plain[:, 3])) <= 1  # the premise: nothing to redraw
    assert np.array_equal(Z, plain)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_box_cpe_complement_is_empty():
    part = default_partition(2)
    with pytest.raises(RuntimeError):
        sample_cpe(Box(part.latent_dim), part, np.random.default_rng(0), 5)


@pytest.mark.parametrize("blocks", [((0, 1), (2, 3)), ((0, 3), (1,), (2, 4)), ((0,), (1,), (2,))])
def test_required_output_dim_closed_form(blocks):
    part = SlotPartition(blocks=blocks, latent_dim=sum(len(b) for b in blocks))
    d_z = part.latent_dim
    for n in (0, 1, 2, 3):
        want = (sum(math.comb(len(b) + n, n + 1) for b in blocks)
                + sum(math.comb(d_z + m - 1, m) for m in range(1, n + 1)))
        if n == 0:
            want += sum(1 for b in blocks if len(b) >= 2)  # one spare row per multi-coordinate slot
        assert required_output_dim(part, n) == want
    assert required_output_dim(default_partition(3), 3) == 44


def test_required_output_dim_monotone():
    part = default_partition(0)
    dims = [required_output_dim(part, n) for n in (0, 1, 2)]
    assert dims[0] >= part.latent_dim
    assert dims[1] >= part.latent_dim and dims[2] >= part.latent_dim


def test_preset_family_deterministic():
    fam1 = preset_family(1, 3, base_seed=5)
    fam2 = preset_family(1, 3, base_seed=5)
    z = np.random.default_rng(0).uniform(-1, 1, size=4)
    for a, b in zip(fam1, fam2):
        assert np.allclose(a(z), b(z), atol=0)
    assert len(fam1) == 3


def test_preset_rejects_bad_order():
    with pytest.raises(ValueError):
        preset_generator(3, rng_seed=0)
    with pytest.raises(ValueError):
        preset_generator(2, rng_seed=0, d_x=2)


def test_composed_pair_validates():
    part = default_partition(2)
    f = preset_generator(2, rng_seed=0)
    bad = SlotwiseDiffeoSpec(
        maps=(SlotMap(kind="affine", matrix=np.eye(2), offset=np.zeros(2)),) * 2,
        permutation=(0, 0))
    with pytest.raises(ValueError):
        ComposedPair(f, part, bad)


def _assert_rows_match(batch, rows):
    rows = np.stack(rows)
    assert batch.shape == rows.shape
    assert np.all(np.abs(batch - rows) <= 1e-13 * (1.0 + np.abs(rows)))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_batched_evaluation_matches_points(n):
    spec = preset_generator(n, rng_seed=60 + n)  # trig features included
    part = spec.partition
    rng = np.random.default_rng(n)
    Z = rng.uniform(-0.9, 0.9, size=(37, part.latent_dim))
    _assert_rows_match(spec(Z), [spec(z) for z in Z])

    eq = compose_slotwise(spec, random_equivalence(part, rng))
    Y = eq.latent_map(Z)
    _assert_rows_match(Y, [eq.latent_map(z) for z in Z])
    _assert_rows_match(eq.model(Y), [eq.model(y) for y in Y])

    maps = (SlotMap(kind="cubic", linear=rng.uniform(0.7, 1.3, size=2),
                    cubic=rng.uniform(0.0, 0.3, size=2)),
            SlotMap(kind="affine", matrix=rng.normal(size=(2, 2)) + 2 * np.eye(2),
                    offset=rng.normal(scale=0.2, size=2)))
    pair = compose_slotwise(spec, SlotwiseDiffeoSpec(maps=maps, permutation=(1, 0)))
    _assert_rows_match(pair.model(Z), [pair.model(z) for z in Z])
    _assert_rows_match(pair.h_inverse(Z), [pair.h_inverse(z) for z in Z])


def test_batched_flag_follows_wrapped_function():
    spec = preset_generator(1, rng_seed=2)
    part = spec.partition
    identity = SlotwiseDiffeoSpec(
        maps=tuple(SlotMap(kind="affine", matrix=np.eye(len(b)), offset=np.zeros(len(b)))
                   for b in part.blocks),
        permutation=tuple(range(part.K)))
    assert compose_slotwise(spec, identity).batched
    single = compose_slotwise(lambda z: spec(z), identity, part)
    assert not single.batched
    Z = np.random.default_rng(0).uniform(-1, 1, size=(5, part.latent_dim))
    assert np.allclose(single.model(Z), spec(Z), atol=1e-12)
