import itertools
import json
import re
import sys

import numpy as np
import pytest

from asymlab.asymmetry import (
    CheckReport,
    _chain_rule,
    _cross_alphas,
    _differenced,
    _equivalents,
    _full_rank,
    _independence_alphas,
    _independence_stack,
    _judge_independence,
    _judge_within,
    _peaks,
    _rank_sum,
    _request,
    _Table,
    _within_plan,
    active_tolerance,
    certify,
    certify_all,
    check_interaction_asymmetry,
    check_no_interaction,
    check_order_at_most_n,
    check_within_slot_order,
    compositionality_check,
    irreducibility_check,
    numerical_rank,
    rank_factorization_property,
    sufficient_independence_check,
    sufficient_nonlinearity_check,
)
from asymlab.derivatives import partials
from asymlab.experiments import exp_characterization
from asymlab.generators import compose_slotwise, preset_generator, random_equivalence
from asymlab.multiindex import (SlotPartition, independence_groups, multiindices_within_block,
                                unit_indices)

PART = SlotPartition(blocks=((0, 1), (2, 3)), latent_dim=4)
RNG = np.random.default_rng(42)
PROBES = RNG.uniform(-0.7, 0.7, size=(6, 4))


def additive_cross(z):
    # within-slot entangled, nothing shared across slots
    return np.array([
        np.exp(0.5 * (z[0] + z[1])), z[0] ** 2 * z[1] + z[0],
        np.sin(z[0] + 0.7 * z[1]),
        np.exp(0.5 * (z[2] + z[3])), z[2] * z[3] ** 2 + z[3],
        np.cos(z[2] - 0.4 * z[3]),
    ])


def bilinear_cross(z):
    out = additive_cross(z)
    out = out + 0.8 * z[0] * z[2]
    return out


def triple_cross(z):
    return additive_cross(z) + 0.6 * z[0] * z[1] * z[2]


def test_report_requires_witness_on_failure():
    with pytest.raises(ValueError):
        CheckReport(name="x", passed=False, margin=-1.0, witnesses=[],
                    probes_used=1, probes_passed=0)


def test_report_json_shape():
    rep = check_no_interaction(additive_cross, PART, PROBES)
    js = rep.to_json()
    assert js["name"] == "no_interaction"
    assert js["passed"] is True
    assert js["probes_used"] == 6
    assert rep.pass_fraction == 1.0


def test_active_tolerance_scales():
    small = active_tolerance(np.ones((2, 2)))
    big = active_tolerance(1e4 * np.ones((2, 2)))
    assert big > small


def test_active_tolerance_of_a_stack_equals_each_matrix():
    J = np.random.default_rng(5).normal(scale=30.0, size=(7, 6, 4))
    stacked = active_tolerance(J)
    assert stacked.shape == (7,)
    assert stacked.tolist() == [float(active_tolerance(Jz)) for Jz in J]
    assert stacked.tolist() == [1e-5 * (1.0 + float(np.max(np.abs(Jz)))) for Jz in J]


def test_no_interaction_verdicts():
    assert check_no_interaction(additive_cross, PART, PROBES).passed
    rep = check_no_interaction(bilinear_cross, PART, PROBES)
    assert not rep.passed
    assert rep.witnesses  # failure carries a located witness
    w = rep.witnesses[0]
    assert set(w) == {"point", "index", "value"}


def test_order_bounds():
    # a bilinear cross term is an order-2 interaction: fails the n=1 bound
    assert not check_order_at_most_n(bilinear_cross, PART, 1, PROBES).passed
    assert check_order_at_most_n(bilinear_cross, PART, 2, PROBES).passed
    assert not check_order_at_most_n(triple_cross, PART, 2, PROBES).passed
    # order 0 is the shared-output condition: the no-interaction report itself
    rep = check_order_at_most_n(bilinear_cross, PART, 0, PROBES)
    assert rep.to_json() == check_no_interaction(bilinear_cross, PART, PROBES).to_json()
    assert rep.name == "no_interaction" and not rep.passed
    for check in (check_order_at_most_n, check_within_slot_order):
        with pytest.raises(ValueError, match="order must be >= 0"):
            check(bilinear_cross, PART, -1, PROBES)


def test_within_slot_split_detection():
    # slot coordinates writing to disjoint outputs do not interact at n=0
    def split_slot(z):
        return np.array([np.sin(z[0]), z[1] ** 2,
                         np.exp(0.4 * (z[2] + z[3])), z[2] * z[3]])

    rep = check_within_slot_order(split_slot, PART, 0, PROBES)
    assert not rep.passed
    assert any(w["index"].get("slot") == 1 for w in rep.witnesses)
    assert check_within_slot_order(additive_cross, PART, 0, PROBES).passed


def test_within_slot_higher_order():
    # additive within slots: no second-order within-slot interaction
    def additive_within(z):
        return np.array([np.sin(z[0]) + z[1] ** 2, z[0] ** 3 + np.cos(z[1]),
                         np.sin(z[2]) + z[3] ** 2, z[2] ** 2 + z[3] ** 3])

    assert not check_within_slot_order(additive_within, PART, 1, PROBES).passed
    assert check_within_slot_order(additive_cross, PART, 1, PROBES).passed


def test_asymmetry_bundle_on_presets():
    for n in (0, 1, 2):
        spec = preset_generator(n, rng_seed=n + 30)
        rep = check_interaction_asymmetry(spec, PART, n, PROBES,
                                          equiv_samples=2, rng_seed=1)
        assert rep.passed, rep.witnesses[:2]
        assert "cross" in rep.details and "within" in rep.details
        assert "within_equiv_0" in rep.details


def test_asymmetry_fails_with_subcheck_tag():
    rep = check_interaction_asymmetry(bilinear_cross, PART, 0, PROBES,
                                      equiv_samples=0)
    assert not rep.passed
    assert all("sub_check" in w for w in rep.witnesses)


def test_asymmetry_rejects_negative_equiv_samples():
    for check in (check_interaction_asymmetry, certify):
        with pytest.raises(ValueError, match="equiv_samples must be at least 0, got -1"):
            check(additive_cross, PART, 1, PROBES, equiv_samples=-1)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_equivalents_by_chain_rule_match_composed_pairs(n):
    # each equivalent's Jacobian and within-slot partials, derived from f's
    # table, against the engine run on the composed pair at the pushed probes
    spec = preset_generator(n, rng_seed=60 + n)
    alphas = [a for k in range(PART.K) for a in multiindices_within_block(PART, k, n + 1)]
    table = _request(spec, PROBES, alphas)
    rng = np.random.default_rng(4)
    for eq_table in _equivalents(table, PART, n, 3, 4):
        pair = compose_slotwise(spec, random_equivalence(PART, rng), PART)
        ref, _ = partials(pair.model, pair.latent_map(PROBES), unit_indices(4) + tuple(alphas))
        for got, want in ((eq_table.J, ref[:, :4].transpose(0, 2, 1)),
                          (eq_table.get(alphas), ref[:, 4:])):
            assert np.max(np.abs(got - want)) <= 1e-6 * (1 + np.max(np.abs(want)))


def test_equivalent_witnesses_name_the_pushed_probes():
    # slot 2 moves no output, so every split of it fails at every order for f
    # and for every equivalent generator, at the probes the composed pair's
    # latent map pushes
    def dead_slot(z):
        return np.array([np.sin(z[0] + z[1]), z[0] * z[1], np.exp(z[0])])

    for n in (0, 1, 2):
        rep = check_interaction_asymmetry(dead_slot, PART, n, PROBES, equiv_samples=2, rng_seed=3)
        rng = np.random.default_rng(3)
        for s in range(2):
            pair = compose_slotwise(dead_slot, random_equivalence(PART, rng), PART)
            points = [w["point"] for w in rep.witnesses if w["sub_check"] == f"within_equiv_{s}"]
            assert points == pair.latent_map(PROBES).tolist(), (n, s)


def first_order_only(z):
    # slot 1 writes each coordinate to its own output: its split shares no
    # output, but a random basis change of the slot mixes them
    return np.array([z[0], z[1], np.sin(z[2] + z[3]), z[2] * z[3]])


@pytest.mark.parametrize("f, n", [(preset_generator(2, rng_seed=32), 2),
                                  (first_order_only, 0), (bilinear_cross, 1)])
def test_stacked_within_reports_equal_each_table_judged_alone(f, n):
    # f and its equivalents, from the request check_interaction_asymmetry
    # makes, judged as one stack on the probe axis, against the within judge
    # run on each of their tables alone
    table = _request(f, PROBES, [*_differenced(_cross_alphas(PART, n), n),
                                 *_chain_rule(PART, n + 1)[0]])
    tables = [table, *_equivalents(table, PART, n, 3, 2)]
    union = _within_plan(PART, n)[2]
    stacked = _judge_within([_peaks(t, union, n) for t in tables], PART, n)
    rep = check_interaction_asymmetry(f, PART, n, PROBES, equiv_samples=3, rng_seed=2)
    verdicts = []
    for s, (t, got) in enumerate(zip(tables, stacked)):
        alone = _judge_within([_peaks(t, union, n)], PART, n)[0]
        assert got.to_json() == alone.to_json()
        label = f"within_equiv_{s - 1}" if s else "within"
        assert rep.details[label] == {"passed": alone.passed, "margin": alone.margin}
        assert sum(w["sub_check"] == label for w in rep.witnesses) == len(alone.witnesses)
        verdicts.append(alone.passed)
    if f is first_order_only:
        assert verdicts == [False, True, True, True]


def _reference_margins(f, n):
    """The within-slot and cross margins at PROBES from first principles: every
    order-(max(n, 1) + 1) multi-index valued by max |D^alpha f| over outputs,
    or at n = 0, alpha = e_i + e_j, by max |D_i f * D_j f|; each split's best is
    its largest candidate.  Each slot of PART has two coordinates: one split."""
    order = max(n, 1) + 1
    alphas = sorted({tuple(axes.count(i) for i in range(4))
                     for axes in itertools.combinations_with_replacement(range(4), order)})
    values, _ = partials(f, PROBES, unit_indices(4) + (tuple(alphas) if n else ()))
    J = values[:, :4]  # (N, d_z, d_x)
    tol = 1e-5 * (1 + np.max(np.abs(J), axis=(1, 2)))

    def peak(alpha):
        if n:
            return np.max(np.abs(values[:, 4 + alphas.index(alpha)]), axis=1)
        i, j = [c for c in range(4) for _ in range(alpha[c])]
        return np.max(np.abs(J[:, i] * J[:, j]), axis=1)

    within = [np.max([peak(a) for a in alphas if a[i] and a[j] and a[i] + a[j] == order],
                     axis=0) - tol for i, j in PART.blocks]
    cross = np.max([peak(a) for a in alphas if a[0] + a[1] and a[2] + a[3]], axis=0)
    return float(np.min(within)), float(np.min(tol - cross))


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("f", [preset_generator(2, rng_seed=32), first_order_only])
def test_margins_equal_a_reference_from_the_partials(f, n):
    within, cross = _reference_margins(f, n)
    for rep, want in ((check_within_slot_order(f, PART, n, PROBES), within),
                      (check_order_at_most_n(f, PART, n, PROBES), cross)):
        assert abs(rep.margin - want) <= 1e-6 * (1 + abs(want)), (rep.name, rep.margin, want)


def test_group_ranks_skipped_only_where_the_whole_matrix_has_full_rank():
    # the rank sum and the report against every group ranked at every probe
    rng = np.random.default_rng(9)
    groups = independence_groups(PART, 1)  # 2 + 2 first-order, 3 + 3 second-order columns
    alphas = [a for _, g in groups for a in g]
    ends = np.cumsum([len(g) for _, g in groups])
    tall = rng.normal(size=(7, 12, len(alphas)))  # probes 0, 1: full column rank
    tall[2, :, 1] = tall[2, :, 0]  # a dependence inside one group
    tall[3, :, 2] = tall[3, :, 0]  # a dependence across two groups
    tall[4, :, ends[2]:] *= 1e-6  # a small group, still above the whole matrix's floor
    tall[5, :, ends[2]:] *= 1e-9  # a group below the whole matrix's floor, alone of full rank
    tall[6, :, 3] = 0.0  # a zero column
    narrow = rng.normal(size=(3, 6, len(alphas)))  # d_x < columns: never full column rank
    ranks = []
    for W in (tall, narrow):
        probes = rng.uniform(-1, 1, size=(len(W), 4))
        t = _Table(W.transpose(0, 2, 1).copy(), {a: c for c, a in enumerate(alphas)}, 0,
                   probes.__getitem__)
        matrices = _independence_stack(t, PART, 1)
        stack, slices = matrices.values, matrices.column.items()
        r_whole = numerical_rank(stack)
        r_sum = sum(numerical_rank(stack[:, :, cols]) for _, cols in slices)
        assert _rank_sum(stack, slices, r_whole).tolist() == r_sum.tolist()
        gap = np.abs(r_whole - r_sum)
        rep = _judge_independence(matrices, 1)
        assert (rep.passed, rep.margin, rep.probes_passed) == (
            not gap.any(), -float(gap.max()), int(np.sum(gap == 0)))
        assert rep.witnesses == [
            {"point": probes[p].tolist(), "index": {"rank_whole": int(r_whole[p]),
                                                    "rank_sum": int(r_sum[p])},
             "value": float(gap[p])} for p in np.nonzero(gap)[0]]
        ranks.append((r_whole.tolist(), r_sum.tolist()))
    assert ranks == [([10, 10, 9, 9, 10, 7, 9], [10, 10, 9, 10, 10, 10, 9]),
                     ([6, 6, 6], [10, 10, 10])]


def test_certify_judges_every_report_from_one_request():
    for n in (0, 1, 2):
        spec = preset_generator(n, rng_seed=n + 30)
        reports = certify(spec, PART, n, PROBES, equiv_samples=2, rng_seed=1)
        alone = {"cross": check_order_at_most_n(spec, PART, n, PROBES),
                 "within": check_within_slot_order(spec, PART, n, PROBES),
                 "asymmetry": check_interaction_asymmetry(spec, PART, n, PROBES,
                                                          equiv_samples=2, rng_seed=1),
                 "independence": sufficient_independence_check(spec, PART, n, PROBES)}
        if n:
            alone["below"] = check_order_at_most_n(spec, PART, n - 1, PROBES)
        assert sorted(reports) == sorted(alone)
        assert len({rep.details["evaluations"] for rep in reports.values()}) == 1
        for key, rep in alone.items():
            got = reports[key]
            assert (got.name, got.passed, got.probes_passed) == (rep.name, rep.passed,
                                                                 rep.probes_passed)
            assert len(got.witnesses) == len(rep.witnesses)
            assert abs(got.margin - rep.margin) <= 1e-6 * (1 + abs(rep.margin))


class _Altered:
    """A preset generator altered to fail one condition at order n, evaluated in
    batches like the preset: "cross" adds a cross term of order n + 2 to the
    first output, "dead" freezes slot 2, and "rank" zeroes every output past the
    first columns - 2 of the order-n independence matrix, which so loses rank."""

    batched = True

    def __init__(self, spec, n, how):
        self.spec, self.n, self.how = spec, n, how

    def __call__(self, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if self.how == "dead":
            Z = np.concatenate([Z[:, :2], np.zeros_like(Z[:, 2:])], axis=1)
        X = np.array(self.spec(Z), dtype=float).reshape(len(Z), -1)
        if self.how == "cross":
            X[:, 0] += np.prod(Z[:, [0, 2, 1, 3][:self.n + 2]], axis=1)
        elif self.how == "rank":
            X[:, len(_independence_alphas(PART, self.n)) - 2:] = 0.0
        return X


def _family(n):
    """Two passing presets of order n and three that each fail one condition."""
    specs = [preset_generator(n, rng_seed=70 + 10 * n + i) for i in range(5)]
    return [specs[0], _Altered(specs[1], n, "cross"), specs[2], _Altered(specs[3], n, "dead"),
            _Altered(specs[4], n, "rank")]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_certify_all_equals_certify_for_each_generator(n):
    family = _family(n)
    probes = np.random.default_rng(n).uniform(-0.7, 0.7, size=(len(family), 6, 4))
    seeds = [3, 1, 4, 1, 5]
    together = certify_all(family, PART, n, probes, 2, seeds)
    assert len(together) == len(family)
    for f, z, seed, got in zip(family, probes, seeds, together):
        alone = certify(f, PART, n, z, equiv_samples=2, rng_seed=seed)
        assert list(got) == list(alone)
        assert {k: r.to_json() for k, r in got.items()} == {k: r.to_json()
                                                            for k, r in alone.items()}
    # the family exercises every failing path
    passed = [{k: r.passed for k, r in reports.items()} for reports in together]
    assert passed[0]["asymmetry"] and passed[0]["independence"]
    assert not passed[1]["cross"]
    assert not passed[3]["within"]
    assert not passed[4]["independence"]


def test_certify_all_refuses_a_mixed_family():
    presets = [preset_generator(1, rng_seed=s) for s in (1, 2)]
    probes = PROBES[:4]
    wide = np.c_[probes, probes[:, :1]]  # probes for a partition of another latent dimension
    shared = "need one probe set, all of one shape (N, 4), and one seed per generator, got "
    cases = [
        # probe counts
        (presets, [probes, probes[:3]], shared + "2 generators, probe sets of shapes [(3, 4), "
         "(4, 4)] and 2 seeds"),
        # partitions
        (presets, [probes, wide], shared + "2 generators, probe sets of shapes [(4, 4), (4, 5)]"),
        (presets, np.stack([wide, wide]), shared + "2 generators, probe sets of shapes [(4, 5)]"),
        # output dimensions
        ([presets[0], preset_generator(1, rng_seed=3, d_x=14)], [probes, probes],
         "generators must share an output dimension, got 12 and 14"),
        # one probe set and one seed per generator
        (presets, [probes], shared + "2 generators, probe sets of shapes [(4, 4)] and 2 seeds"),
        ([], [], shared + "0 generators, probe sets of shapes [] and 0 seeds"),
    ]
    for fs, z, named in cases:
        with pytest.raises(ValueError, match=re.escape(named)):
            certify_all(fs, PART, 1, z, 1, [0] * len(fs))
    with pytest.raises(ValueError, match=re.escape(shared + "2 generators, probe sets of shapes "
                                                   "[(4, 4)] and 1 seeds")):
        certify_all(presets, PART, 1, [probes, probes], 1, [0])


def test_certify_all_names_the_generator_that_overflows():
    def overflowing(z):
        return np.exp(np.exp(np.exp(z * 10.0)))

    family = [additive_cross, overflowing, additive_cross]
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite function value") as e:
            certify_all(family, PART, 1, np.stack([PROBES] * 3), 0, [0, 0, 0])
    assert e.value.generator == 1


def test_a_rank_deficient_member_is_ranked_alone(monkeypatch):
    # the dead-slot and rank members' matrices are rank-deficient: each
    # member's ranks are taken over its own probes, so neither sends the
    # other members' matrices to the SVD
    family = _family(2)
    probes = np.random.default_rng(5).uniform(-0.7, 0.7, size=(len(family), 6, 4))
    svd, shapes = np.linalg.svd, []

    def counted(M, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "numerical_rank":
            shapes.append(M.shape)
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    together = certify_all(family, PART, 2, probes, 1, [0] * len(family))
    monkeypatch.undo()
    alone = [certify(f, PART, 2, z, 1, 0)["independence"] for f, z in zip(family, probes)]
    assert [r["independence"].to_json() for r in together] == [r.to_json() for r in alone]
    assert [r.passed for r in alone] == [True, True, True, False, False]
    assert {w["index"]["rank_whole"] for w in alone[4].witnesses} == {20}
    assert shapes[0] == (6, 24, 22) and all(len(shape) == 3 and shape[0] == 6 for shape in shapes)


def test_numerical_rank():
    M = np.diag([1.0, 1e-3, 1e-12])
    assert numerical_rank(M) == 2
    assert type(numerical_rank(M)) is int
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.zeros((3, 0))) == 0


def test_numerical_rank_of_a_stack_equals_the_loop():
    def rank_of_one(M, rank_tol=1e-7):  # one SVD per matrix, as the checks did
        s = np.linalg.svd(M, compute_uv=False)
        return int(np.sum(s > rank_tol * s[0])) if s[0] > 0 else 0

    rng = np.random.default_rng(3)
    # ranks 0..4 of 6 x 4 matrices, plus a nearly rank-2 one, in a (2, 3) stack
    mats = [rng.normal(size=(6, r)) @ rng.normal(size=(r, 4)) for r in (0, 1, 2, 3, 4)]
    mats.append(mats[2] + 1e-9 * rng.normal(size=(6, 4)))
    stack = np.stack(mats).reshape(2, 3, 6, 4)
    ranks = numerical_rank(stack)
    assert ranks.shape == (2, 3)
    assert ranks.tolist() == [[rank_of_one(m) for m in row] for row in stack]
    assert ranks.ravel().tolist() == [0, 1, 2, 3, 4, 2]


def _scaled_columns(rng, rows, scales):
    """A (rows, len(scales)) matrix with orthonormal columns times scales: its
    singular values are the scales."""
    q, _ = np.linalg.qr(rng.normal(size=(rows, len(scales))))
    return q * np.asarray(scales)


def test_numerical_rank_equals_an_svd_of_each_matrix():
    def rank_of_one(M):
        s = np.linalg.svd(M, compute_uv=False)
        return int(np.sum(s > 1e-7 * s[0]))

    rng = np.random.default_rng(11)
    full = rng.normal(size=(5, 12, 10))
    deficient = rng.normal(size=(5, 12, 7)) @ rng.normal(size=(5, 7, 10))
    ratios = [3e-7, 1e-7 * (1 - 1e-3), 1e-7 * (1 + 1e-3)]
    near_floor = np.stack([_scaled_columns(rng, 12, [1.0] * 9 + [r]) for r in ratios])
    zero_column = full.copy()
    zero_column[:, :, 4] = 0.0
    one_by_one = np.array([2.5, -1e-300, 0.0, 5e-324, 1e300]).reshape(5, 1, 1)
    stacks = {"full": full, "deficient": deficient, "near floor": near_floor,
              "zero column": zero_column, "wide": full.transpose(0, 2, 1),
              "one by one": one_by_one, "one by one, nonzero": np.array([2.5, -0.75]).reshape(2, 1, 1),
              "mixed": np.concatenate([full, deficient[:1], near_floor[:1], full])}
    # subnormal entries, or a Gram matrix outside the normal range, where its
    # rounding is no longer relative: a rank-one matrix can pass a Cholesky there
    for scale in (1e-310, 1e-160, 1e-100, 1e100, 1e160):
        stacks[f"full x {scale:g}"] = full * scale
        stacks[f"deficient x {scale:g}"] = deficient * scale
    stacks["rank one x 1e-160"] = np.outer([0.7, 0.5, -0.2], [1.0, 3.0])[None] * 1e-160
    for name, stack in stacks.items():
        assert numerical_rank(stack).tolist() == [rank_of_one(M) for M in stack], name
    assert [rank_of_one(M) for M in near_floor] == [10, 9, 10]
    # which stacks the certificate proves; every other one takes the SVD
    proved = [name for name, stack in stacks.items() if _full_rank(stack)]
    assert proved == ["full", "wide", "one by one, nonzero", "full x 1e-100", "full x 1e+100"]


def test_a_characterization_round_ranks_without_an_svd(monkeypatch):
    # every preset's stack is proved of full column rank; one SVD per preset
    # checks its batch of equivalence draws
    callers, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    exp_characterization({"seed": 0})
    assert callers == ["random_basis_changes"] * 21


def test_sufficient_independence_on_presets():
    for n in (0, 1, 2):
        spec = preset_generator(n, rng_seed=50 + n)
        rep = sufficient_independence_check(spec, PART, n, PROBES)
        assert rep.passed
        assert rep.margin == 0.0


def test_independence_matrix_groups():
    spec = preset_generator(2, rng_seed=8)
    table = _request(spec, PROBES[:3], _independence_alphas(PART, 2), jacobian=False)
    matrices = _independence_stack(table, PART, 2)
    stack, slices = matrices.values, list(matrices.column.items())
    labels = [lab for lab, _ in slices]
    assert labels == [lab for lab, _ in independence_groups(PART, 2)]
    assert len(labels) == len(set(labels))
    # n=2 dedup: each unordered second-derivative pair appears exactly once;
    # 4 first + 10 distinct unordered pairs + 2x4 within-block third order
    assert stack.shape == (3, spec.out_dim, 4 + 10 + 8)
    assert [cols.stop - cols.start for _, cols in slices] == [2 + 7, 2 + 3, 4, 4]
    assert slices[-1][1].stop == stack.shape[2]


def test_failing_rank_reports_are_plain_json():
    # an n = 0 preset writes each slot to its own rows: too few of them to
    # carry the order-1 columns, so rank additivity fails at every probe
    spec = preset_generator(0, rng_seed=77)
    rep = sufficient_independence_check(spec, PART, 1, PROBES)
    assert not rep.passed and len(rep.witnesses) == len(PROBES)
    assert json.loads(json.dumps(rep.to_json())) == rep.to_json()
    w = rep.witnesses[0]["index"]
    assert all(type(v) is int for v in w.values())
    rep = sufficient_nonlinearity_check(lambda z: np.concatenate([z, z[::-1]]), PART, PROBES[:2])
    assert not rep.passed
    assert json.loads(json.dumps(rep.to_json())) == rep.to_json()


def test_sufficient_independence_rejects_zero():
    with pytest.raises(ValueError):
        sufficient_independence_check(lambda z: np.zeros(4), PART, 0, PROBES[:2])


def test_rank_factorization_applicable():
    rng = np.random.default_rng(0)
    A1 = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 3))  # rank 2 of 3 cols
    A2 = np.zeros((6, 2))
    A2[3:, :1] = rng.normal(size=(3, 1))  # rank 1 of 2 cols
    A = np.concatenate([A1 * 0, A2 * 0], axis=1)  # start all-zero then fill
    A[:3, :3] = A1[:3]
    A[:, 3:] = A2
    blocks = [(0, 1, 2), (3, 4)]
    rep = rank_factorization_property(A, blocks, trials=30)
    assert rep.details["applicable"]
    assert rep.passed


def test_rank_factorization_not_applicable():
    rng = np.random.default_rng(1)
    v = rng.normal(size=5)
    A = np.stack([v, 2 * v, rng.normal(size=5)], axis=1)  # shared direction
    rep = rank_factorization_property(A, [(0,), (1, 2)], trials=10)
    assert rep.details["applicable"] is False
    assert rep.passed  # not-applicable is reported, not failed


def test_compositionality():
    assert compositionality_check(additive_cross, PART, PROBES).passed
    rep = compositionality_check(bilinear_cross, PART, PROBES)
    assert not rep.passed
    assert rep.witnesses[0]["index"]["slots"] == [1, 2]


def test_compositionality_names_the_first_clashing_pair():
    # three 1-d slots with I_1 = {1, 3}, I_2 = {2, 4}, I_3 = {2, 3}: the first
    # clashing pair in order, (1, 3), is named at output 3, ahead of (2, 3)
    # and its smaller shared output 2; where z_3 = 0, output 3 leaves I_1
    def f(z):
        return np.array([z[0], z[1] + z[2], z[0] * z[2], z[1]])

    part = SlotPartition(blocks=((0,), (1,), (2,)), latent_dim=3)
    probes = np.vstack([PROBES[:4, :3], [0.4, -0.3, 0.0]])
    rep = compositionality_check(f, part, probes)
    assert not rep.passed and rep.margin == -1.0 and rep.probes_passed == 0
    assert [w["index"] for w in rep.witnesses] == [{"slots": [1, 3], "output": 3}] * 4 + [
        {"slots": [2, 3], "output": 2}]
    assert [w["point"] for w in rep.witnesses] == probes.tolist()


def test_irreducibility_on_preset():
    spec = preset_generator(0, rng_seed=2)
    assert irreducibility_check(spec, PART, PROBES).passed

    def reducible(z):  # slot 0 splits into independent halves
        return np.array([np.sin(z[0]), z[1] ** 2, z[1] ** 3,
                         np.exp(0.4 * (z[2] + z[3])), z[2] * z[3], z[2] ** 2])

    assert not irreducibility_check(reducible, PART, PROBES).passed


def test_irreducibility_enumerates_every_split_once():
    # a dense invertible linear map: each slot moves all 4 outputs and every
    # split has rank(S1) + rank(S2) = rank(all), so every split fails and
    # the witnesses list the enumerated splits in order
    def dense(z):
        return (np.eye(4) + np.ones((4, 4))) @ z

    I_k = [0, 1, 2, 3]
    expected = []  # the enumeration irreducibility_check used to spell out
    anchor, rest = I_k[0], I_k[1:]
    for r in range(len(rest)):
        for extra in itertools.combinations(rest, r):
            S1 = [anchor, *extra]
            S2 = [i for i in I_k if i not in S1]
            if S2:
                expected.append([[i + 1 for i in S1], [i + 1 for i in S2]])
    assert len(expected) == 7

    rep = irreducibility_check(dense, PART, PROBES[:1])
    for slot in (1, 2):
        got = [w["index"]["split"] for w in rep.witnesses if w["index"]["slot"] == slot]
        assert got == expected


def test_sufficient_nonlinearity_small_model():
    def rich(z):
        out = [np.exp(0.3 * z[0] + 0.2 * z[1]), z[0] ** 2 + z[0] * z[1],
               z[1] ** 3 + z[0] ** 3, np.sin(z[0] - z[1]), z[0] * z[1] ** 2,
               np.exp(0.2 * z[2] - 0.3 * z[3]), z[2] ** 2 + z[2] * z[3],
               z[3] ** 3 - z[2] ** 3, np.cos(z[2] + 0.5 * z[3]), z[2] ** 2 * z[3]]
        return np.array(out)

    assert sufficient_nonlinearity_check(rich, PART, PROBES[:3]).passed

    def linear(z):
        return np.concatenate([z, z[::-1]])

    assert not sufficient_nonlinearity_check(linear, PART, PROBES[:3]).passed


def test_checks_report_evaluations():
    # per probe: the Jacobian's 2 x 4 axis points, plus 4 corners for each
    # of the 4 cross pairs (order-1 bound) or for each slot's one mixed
    # index (within-slot, order 2)
    probes = PROBES[:2]
    assert check_no_interaction(additive_cross, PART, probes).details["evaluations"] == 2 * 8
    cross = check_order_at_most_n(additive_cross, PART, 1, probes)
    assert cross.details["evaluations"] == 2 * (8 + 4 * 4)
    within = check_within_slot_order(additive_cross, PART, 1, probes)
    assert within.details["evaluations"] == 2 * (8 + 2 * 4)
    # the bundle's one request: the cross bound's points, then per slot the
    # mixed index's 4 corners, the 2 x 2 axis points at step h2 of its two
    # pure second derivatives, and the centre those share; its equivalent
    # generators are evaluated nowhere
    bundle = check_interaction_asymmetry(additive_cross, PART, 1, probes, equiv_samples=2)
    assert bundle.details["evaluations"] == 2 * (8 + 4 * 4 + 2 * (4 + 4) + 1)
    for rep in (compositionality_check(additive_cross, PART, probes),
                irreducibility_check(additive_cross, PART, probes)):
        assert rep.details["evaluations"] == 2 * 8
