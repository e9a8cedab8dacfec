"""Numerical certification of derivative-structure conditions.

Every check shares the same shape: ask the derivative engine for all the
partials it needs at every probe of a declared probe set in one request,
compare against a scale-aware tolerance, and emit a CheckReport carrying the
verdict, the worst-case margin, and witnesses for failures.  "For all z" in
the written conditions always means "at every probe" here; reports record
the probe count so the claim's scope is explicit, and details["evaluations"]
records how many points the engine evaluated the function at.

One code path serves every order n >= 0; only the n = 0 cross bound, a
condition on shared outputs rather than derivatives, is check_no_interaction.
The rank checks take their columns from multiindex.independence_groups (the
rule generators.required_output_dim counts), stack them for every probe into
one (N, d_x, columns) array and take each rank over the whole stack.  Orders
the derivative engine cannot difference (above 3) raise ValueError.

Every check uses one tolerance and the engine's one stencil
(derivatives.StencilConfig()).  The constants: a derivative counts as
nonzero when |value| exceeds ACTIVE_TOL_FACTOR * (1 + max |Df(z)|) with
ACTIVE_TOL_FACTOR = 1e-5, and numerical rank counts singular values above
RANK_TOL * sigma_max with RANK_TOL = 1e-7, the finite-difference noise
floor.  irreducibility_check enumerates every split of an output set of at
most MAX_ENUMERATE = 12 outputs and otherwise samples SAMPLED_SPLITS = 200
random splits; its samples and rank_factorization_property's null vectors
are drawn from a generator seeded with 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .derivatives import partials
from .derivatives import jacobian  # noqa: F401  (re-exported for existing callers)
from .generators import compose_slotwise, random_equivalence
from .multiindex import (
    MultiIndex,
    SlotPartition,
    independence_groups,
    interaction_indices,
    split_interaction_indices,
    unit_indices,
)

VectorFn = Callable[[np.ndarray], np.ndarray]

ACTIVE_TOL_FACTOR = 1e-5
RANK_TOL = 1e-7
MAX_ENUMERATE = 12
SAMPLED_SPLITS = 200


@dataclass
class CheckReport:
    """Outcome of one structural check.

    margin is the worst-case slack against the tolerance: >= 0 on pass,
    < 0 on fail (for integer rank mismatches the slack is minus the
    mismatch, so a clean pass sits at 0).  Failures always carry at least
    one witness (point, 1-based index tuple, measured value).
    """

    name: str
    passed: bool
    margin: float
    witnesses: list[dict] = field(default_factory=list)
    probes_used: int = 0
    probes_passed: int = 0
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.passed and not self.witnesses:
            raise ValueError("failing report must carry a witness")

    @property
    def pass_fraction(self) -> float:
        return self.probes_passed / self.probes_used if self.probes_used else 1.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "margin": float(self.margin),
            "witnesses": self.witnesses,
            "probes_used": self.probes_used,
            "probes_passed": self.probes_passed,
            "pass_fraction": self.pass_fraction,
            "details": self.details,
        }


def _as_probes(probes) -> np.ndarray:
    p = np.asarray(probes, dtype=float)
    if p.ndim == 1:
        p = p[None, :]
    if p.size == 0:
        raise ValueError("probe set must be non-empty")
    return p


def active_tolerance(J: np.ndarray) -> np.ndarray:
    """The activity threshold of a Jacobian (d_x, d_z), or of every Jacobian
    of a stack (..., d_x, d_z): ACTIVE_TOL_FACTOR * (1 + max |J|)."""
    return ACTIVE_TOL_FACTOR * (1.0 + np.max(np.abs(J), axis=(-2, -1)))


def _request(f: VectorFn, probes: np.ndarray,
             alphas: Sequence[MultiIndex]) -> tuple[np.ndarray, np.ndarray, int]:
    """One engine request for the Jacobian and the given partials at every
    probe: J (N, d_x, d_z), the partials (N, len(alphas), d_x), and the
    number of points evaluated."""
    d = probes.shape[1]
    values, evaluations = partials(f, probes, unit_indices(d) + tuple(alphas))
    return values[:, :d].transpose(0, 2, 1), values[:, d:], evaluations


def _witness(z: np.ndarray, index, value) -> dict:
    return {"point": [float(v) for v in z], "index": index, "value": float(value)}


def _cross_pairs(partition: SlotPartition):
    for k, j in itertools.combinations(range(partition.K), 2):
        for i1 in partition.blocks[k]:
            for i2 in partition.blocks[j]:
                yield i1, i2


def check_no_interaction(
    f: VectorFn,
    partition: SlotPartition,
    probes,
) -> CheckReport:
    """No interaction across slots: D_i f (.) D_j f = 0 elementwise for every
    cross-block coordinate pair (Hadamard product of Jacobian columns)."""
    probes = _as_probes(probes)
    J, _, evaluations = _request(f, probes, ())
    tol_z = active_tolerance(J)
    pairs = list(_cross_pairs(partition))
    # |D_i1 f * D_i2 f| per probe, flattened pair-major so argmax finds the
    # first pair (then the first output) reaching the maximum
    prods = np.abs(np.stack([J[:, :, i1] * J[:, :, i2] for i1, i2 in pairs], axis=1)
                   if pairs else np.zeros((len(probes), 1, 1))).reshape(len(probes), -1)
    worst = prods.max(axis=1)
    where = prods.argmax(axis=1)
    witnesses = []
    for p in np.nonzero(worst > tol_z)[0]:
        (i1, i2), l = pairs[where[p] // J.shape[1]], where[p] % J.shape[1]
        witnesses.append(_witness(probes[p], (i1 + 1, i2 + 1, int(l) + 1), worst[p]))
    passed_probes = len(probes) - len(witnesses)
    return CheckReport(
        name="no_interaction",
        passed=passed_probes == len(probes),
        margin=float(np.min(tol_z - worst)),
        witnesses=witnesses,
        probes_used=len(probes),
        probes_passed=passed_probes,
        details={"evaluations": evaluations},
    )


def check_order_at_most_n(
    f: VectorFn,
    partition: SlotPartition,
    n: int,
    probes,
) -> CheckReport:
    """At most n-th order interaction across slots: every order-(n+1)
    multi-index touching two or more blocks has D^alpha f = 0.  At n = 0 the
    condition is about shared outputs, not derivatives, and this returns
    check_no_interaction's report.  Orders the derivative engine cannot
    difference raise ValueError."""
    if n < 0:
        raise ValueError(f"interaction order must be >= 0, got {n}")
    if n == 0:
        return check_no_interaction(f, partition, probes)
    probes = _as_probes(probes)
    alphas = interaction_indices(partition, n + 1)
    J, D, evaluations = _request(f, probes, alphas)
    tol_z = active_tolerance(J)
    vals = np.concatenate([np.zeros((len(probes), 1)), np.max(np.abs(D), axis=2)], axis=1)
    worst = vals.max(axis=1)
    witnesses = [_witness(probes[p], list(alphas[vals[p].argmax() - 1]), worst[p])
                 for p in np.nonzero(worst > tol_z)[0]]
    passed_probes = len(probes) - len(witnesses)
    return CheckReport(
        name=f"order_at_most_{n}",
        passed=passed_probes == len(probes),
        margin=float(np.min(tol_z - worst)),
        witnesses=witnesses,
        probes_used=len(probes),
        probes_passed=passed_probes,
        details={"multi_indices_checked": len(alphas), "evaluations": evaluations},
    )


def _slot_splits(block: Sequence[int]):
    """2-part splits of a sorted index set, each once, as sorted tuples, the
    first half holding the first index; a 1-d block interacts with itself."""
    if len(block) == 1:
        yield (block[0],), (block[0],)
        return
    for r in range(len(block) - 1):
        for extra in itertools.combinations(block[1:], r):
            A = (block[0], *extra)
            yield A, tuple(i for i in block if i not in A)


def check_within_slot_order(
    f: VectorFn,
    partition: SlotPartition,
    n: int,
    probes,
) -> CheckReport:
    """Within-slot richness: every 2-part split of every slot shows an active
    order-(n+1) derivative with mass on both sides.

    Candidate multi-indices are restricted to the slot's own coordinates;
    when the cross-slot bound at order n holds (the companion check), any
    order-(n+1) index straddling the slot boundary vanishes anyway, so the
    restriction loses nothing.
    """
    if n < 0:
        raise ValueError(f"interaction order must be >= 0, got {n}")
    if any(len(b) > 6 for b in partition.blocks):
        raise ValueError("slot too large to enumerate splits (max 6)")
    probes = _as_probes(probes)
    splits = [(k, A, B) for k, block in enumerate(partition.blocks)
              for A, B in _slot_splits(block)]
    candidates = [split_interaction_indices(partition, k, A, B, n + 1) if n else []
                  for k, A, B in splits]
    alphas = sorted({a for c in candidates for a in c})
    J, D, evaluations = _request(f, probes, alphas)
    tol_z = active_tolerance(J)
    vals = np.max(np.abs(D), axis=2)
    column = {a: c for c, a in enumerate(alphas)}
    best = np.zeros((len(probes), len(splits)))
    for s, ((k, A, B), cand) in enumerate(zip(splits, candidates)):
        if n == 0:
            # first-order interaction is the shared-output condition: some
            # output moved from both sides of the split
            for iA in A:
                for iB in B:
                    best[:, s] = np.maximum(
                        best[:, s], np.max(np.abs(J[:, :, iA] * J[:, :, iB]), axis=1))
        elif cand:
            # the first candidate above tolerance decides the split; without
            # one, the largest candidate is the margin
            v = vals[:, [column[a] for a in cand]]
            above = v > tol_z[:, None]
            first = v[np.arange(len(probes)), above.argmax(axis=1)]
            best[:, s] = np.where(above.any(axis=1), first, v.max(axis=1))
    witnesses = []
    for p in range(len(probes)):
        for s in np.nonzero(best[p] <= tol_z[p])[0]:
            k, A, B = splits[s]
            witnesses.append(_witness(probes[p], {
                "slot": k + 1, "split": [sorted(i + 1 for i in A), sorted(i + 1 for i in B)]},
                best[p, s]))
    passed_probes = int(np.sum(np.all(best > tol_z[:, None], axis=1)))
    return CheckReport(
        name=f"within_slot_order_{n + 1}",
        passed=passed_probes == len(probes),
        margin=float(np.min(best - tol_z[:, None])),
        witnesses=witnesses,
        probes_used=len(probes),
        probes_passed=passed_probes,
        details={"evaluations": evaluations},
    )


def check_interaction_asymmetry(
    f: VectorFn,
    partition: SlotPartition,
    n: int,
    probes,
    equiv_samples: int = 10,
    rng_seed: int = 0,
    cross: CheckReport | None = None,
    within: CheckReport | None = None,
) -> CheckReport:
    """Interaction asymmetry at order n: the cross-slot bound holds for f,
    and the within-slot richness holds for f and for a random sample of
    equivalent generators (pairs composed with a slot-wise basis change,
    probes pushed through the pair's latent map).
    Sub-check reports already made for f at these probes come in as cross and within."""
    probes = _as_probes(probes)
    sub = [("cross", cross or check_order_at_most_n(f, partition, n, probes)),
           ("within", within or check_within_slot_order(f, partition, n, probes))]
    rng = np.random.default_rng(rng_seed)
    for s in range(equiv_samples):
        pair = compose_slotwise(f, random_equivalence(partition, rng), partition)
        rep = check_within_slot_order(pair.model, partition, n, pair.latent_map(probes))
        sub.append((f"within_equiv_{s}", rep))

    witnesses = []
    for label, rep in sub:
        for w in rep.witnesses:
            witnesses.append({**w, "sub_check": label})
    passed = all(rep.passed for _, rep in sub)
    return CheckReport(
        name=f"interaction_asymmetry_n{n}",
        passed=passed,
        margin=float(min(rep.margin for _, rep in sub)),
        witnesses=witnesses,
        probes_used=len(probes),
        probes_passed=min(rep.probes_passed for _, rep in sub),
        details={
            **{label: {"passed": rep.passed, "margin": rep.margin} for label, rep in sub},
            "evaluations": sum(rep.details["evaluations"] for _, rep in sub),
        },
    )


# ---------------------------------------------------------------------------
# rank conditions


def numerical_rank(M: np.ndarray):
    """Numerical rank of a matrix (m, n) as an int, or of every matrix of a
    stack (..., m, n) as an int array, from one SVD call."""
    M = np.asarray(M, dtype=float)
    if M.shape[-1] == 0 or M.shape[-2] == 0:
        ranks = np.zeros(M.shape[:-2], dtype=int)
    else:
        s = np.linalg.svd(M, compute_uv=False)
        ranks = np.sum(s > RANK_TOL * s[..., :1], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def _independence_matrices(
    f: VectorFn,
    partition: SlotPartition,
    n: int,
    probes: np.ndarray,
) -> tuple[np.ndarray, list[tuple[str, slice]], int]:
    """The order-n matrix at every probe from one engine request, as one
    (N, d_x, columns) array with independence_groups' columns in order; the
    column slice of each group; and the number of points evaluated."""
    groups = independence_groups(partition, n)
    alphas = sorted({a for _, g in groups for a in g})
    values, evaluations = partials(f, probes, alphas)
    column = {a: c for c, a in enumerate(alphas)}
    stack = values[:, [column[a] for _, g in groups for a in g]].transpose(0, 2, 1)
    ends = np.cumsum([len(g) for _, g in groups])
    slices = [(name, slice(end - len(g), end)) for (name, g), end in zip(groups, ends)]
    return stack, slices, evaluations


def sufficient_independence_check(
    f: VectorFn,
    partition: SlotPartition,
    n: int,
    probes,
) -> CheckReport:
    """Rank additivity of the order-n derivative groups at every probe:
    rank(whole) must equal the sum of per-group ranks, each rank taken over
    the probe stack in one SVD call."""
    probes = _as_probes(probes)
    stack, slices, evaluations = _independence_matrices(f, partition, n, probes)
    if not np.all(np.any(stack, axis=(1, 2))):
        raise ValueError("degenerate all-zero derivative matrix")
    r_whole = numerical_rank(stack)
    r_sum = sum(numerical_rank(stack[:, :, cols]) for _, cols in slices)
    gap = np.abs(r_whole - r_sum)
    witnesses = [_witness(probes[p], {"rank_whole": int(r_whole[p]), "rank_sum": int(r_sum[p])},
                          gap[p]) for p in np.nonzero(gap)[0]]
    details = {"order": n, "evaluations": evaluations}
    if stack.shape[1] < stack.shape[2]:
        details["satisfiability_warning"] = (
            "output dimension below the stacked column count; condition may be unsatisfiable"
        )
    return CheckReport(
        name=f"sufficient_independence_n{n}",
        passed=not witnesses,
        margin=float(-gap.max()),
        witnesses=witnesses,
        probes_used=len(probes),
        probes_passed=len(probes) - len(witnesses),
        details=details,
    )


def rank_factorization_property(
    A: np.ndarray,
    column_blocks: Sequence[Sequence[int]],
    trials: int = 100,
) -> CheckReport:
    """Empirical rank-factorization lemma: when rank(A) equals the sum of the
    per-block column ranks, every null vector z of A satisfies A_S z_S = 0
    blockwise.  When the rank equation fails the lemma does not apply and
    the report says so instead of judging."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix must be finite")
    blocks = [list(b) for b in column_blocks]
    flat = sorted(i for b in blocks for i in b)
    if flat != list(range(A.shape[1])):
        raise ValueError("column blocks must partition the columns")
    r_whole = numerical_rank(A)
    r_sum = sum(numerical_rank(A[:, b]) for b in blocks)
    if r_whole != r_sum:
        return CheckReport(
            name="rank_factorization",
            passed=True,
            margin=0.0,
            probes_used=0,
            probes_passed=0,
            details={"applicable": False, "rank_whole": r_whole, "rank_sum": r_sum},
        )

    # null-space basis from the SVD's trailing right singular vectors
    _, s, vt = np.linalg.svd(A)
    null_dim = A.shape[1] - r_whole
    if null_dim == 0:
        return CheckReport(
            name="rank_factorization",
            passed=True,
            margin=0.0,
            probes_used=0,
            probes_passed=0,
            details={"applicable": True, "null_dim": 0},
        )
    basis = vt[-null_dim:].T
    rng = np.random.default_rng(0)
    scale = 1e-8 * max(1.0, float(np.max(np.abs(A))))
    witnesses = []
    worst = 0.0
    ok = 0
    for _ in range(trials):
        v = basis @ rng.normal(size=null_dim)
        nv = float(np.max(np.abs(v)))
        if nv == 0:
            ok += 1
            continue
        v = v / nv
        res = max(float(np.max(np.abs(A[:, b] @ v[b]))) for b in blocks)
        worst = max(worst, res)
        if res <= scale:
            ok += 1
        else:
            witnesses.append({"point": None, "index": {"residual": res}, "value": res})
    return CheckReport(
        name="rank_factorization",
        passed=ok == trials,
        margin=float(scale - worst),
        witnesses=witnesses,
        probes_used=trials,
        probes_passed=ok,
        details={"applicable": True, "null_dim": null_dim},
    )


# ---------------------------------------------------------------------------
# prior-work conditions (unification checks)


def _active_outputs(J: np.ndarray, partition: SlotPartition, k: int, tol_z: float) -> set[int]:
    block = list(partition.blocks[k])
    mask = np.max(np.abs(J[:, block]), axis=1) > tol_z
    return set(np.nonzero(mask)[0].tolist())


def compositionality_check(
    f: VectorFn,
    partition: SlotPartition,
    probes,
) -> CheckReport:
    """Output-index sets I_k(z) (outputs with an active slot derivative) must
    be pairwise disjoint at every probe."""
    probes = _as_probes(probes)
    Js, _, evaluations = _request(f, probes, ())
    witnesses = []
    passed_probes = 0
    for z, J, tol_z in zip(probes, Js, active_tolerance(Js)):
        sets = [_active_outputs(J, partition, k, tol_z) for k in range(partition.K)]
        clash = None
        for k, j in itertools.combinations(range(partition.K), 2):
            shared = sets[k] & sets[j]
            if shared:
                clash = (k, j, min(shared))
                break
        if clash is None:
            passed_probes += 1
        else:
            k, j, l = clash
            witnesses.append(_witness(z, {"slots": [k + 1, j + 1], "output": l + 1}, 0.0))
    return CheckReport(
        name="compositionality",
        passed=passed_probes == len(probes),
        margin=0.0 if passed_probes == len(probes) else -1.0,
        witnesses=witnesses,
        probes_used=len(probes),
        probes_passed=passed_probes,
        details={"evaluations": evaluations},
    )


def irreducibility_check(
    f: VectorFn,
    partition: SlotPartition,
    probes,
) -> CheckReport:
    """Every 2-part split S1 | S2 of each I_k(z) must satisfy
    rank(Df_S1) + rank(Df_S2) > rank(Df_{I_k}) (rows restricted, all
    columns).  Slots whose I_k has fewer than 2 outputs admit no split and
    pass vacuously."""
    probes = _as_probes(probes)
    Js, _, evaluations = _request(f, probes, ())
    rng = np.random.default_rng(0)
    witnesses = []
    margin = np.inf
    passed_probes = 0
    for z, J, tol_z in zip(probes, Js, active_tolerance(Js)):
        probe_ok = True
        for k in range(partition.K):
            I_k = sorted(_active_outputs(J, partition, k, tol_z))
            if len(I_k) < 2:
                continue
            r_total = numerical_rank(J[I_k, :])
            if len(I_k) <= MAX_ENUMERATE:
                splits = list(_slot_splits(I_k))
            else:
                splits = []
                for _ in range(SAMPLED_SPLITS):
                    mask = rng.integers(0, 2, size=len(I_k)).astype(bool)
                    if mask.all() or not mask.any():
                        continue
                    S1 = [i for i, m in zip(I_k, mask) if m]
                    S2 = [i for i, m in zip(I_k, mask) if not m]
                    splits.append((S1, S2))
            for S1, S2 in splits:
                slack = numerical_rank(J[S1, :]) + numerical_rank(J[S2, :]) - r_total - 1
                margin = min(margin, float(slack))
                if slack < 0:
                    probe_ok = False
                    witnesses.append(
                        _witness(z, {"slot": k + 1, "split": [[i + 1 for i in S1], [i + 1 for i in S2]]}, slack)
                    )
        if probe_ok:
            passed_probes += 1
    if margin == np.inf:
        margin = 0.0
    return CheckReport(
        name="irreducibility",
        passed=passed_probes == len(probes),
        margin=float(margin),
        witnesses=witnesses,
        probes_used=len(probes),
        probes_passed=passed_probes,
        details={"evaluations": evaluations},
    )


def sufficient_nonlinearity_check(
    f: VectorFn,
    partition: SlotPartition,
    probes,
) -> CheckReport:
    """W(z) = [per-block first derivatives | per-block unordered within-block
    second derivatives] must have full column rank at every probe."""
    probes = _as_probes(probes)
    # W(z) is the order-1 sufficient-independence matrix taken whole
    W, _, evaluations = _independence_matrices(f, partition, 1, probes)
    r = numerical_rank(W)
    gap = W.shape[2] - r
    witnesses = [_witness(probes[p], {"rank": int(r[p]), "columns": W.shape[2]}, gap[p])
                 for p in np.nonzero(gap)[0]]
    return CheckReport(
        name="sufficient_nonlinearity",
        passed=not witnesses,
        margin=float(-gap.max()),
        witnesses=witnesses,
        probes_used=len(probes),
        probes_passed=len(probes) - len(witnesses),
        details={"evaluations": evaluations},
    )
