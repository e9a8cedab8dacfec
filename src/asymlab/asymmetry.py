"""Numerical certification of derivative-structure conditions.

Every check shares the same shape: ask the derivative engine for all the
partials it needs at every probe of a declared probe set in one request,
then judge that table of partials against a scale-aware tolerance and emit
a CheckReport carrying the verdict, the worst-case margin, and witnesses
for failures.  "For all z" in the written conditions always means "at
every probe" here; reports record the probe count so the claim's scope is
explicit, and details["evaluations"] records how many points the engine
evaluated the function at for the request the report was judged from.

Each public check requests exactly its own multi-indices; certify judges all
of a generator's order-n reports from one request, each recording its points.
The equivalent generators f_bar = f o L^-1 (L = diag(M_k); all S inverses
drawn by one random_basis_changes call, the same bits as S
generators.random_equivalence calls) add none: by the chain rule
J_bar = J L^-1, and their order-(n+1) within-slot partials are f's slot
tensors contracted with M_k^-1 on every axis, formed for all S in one
product each; their witnesses name probes pushed to y = L z by solving
against L^-1's blocks, slot by slot.

certify_all certifies every generator of one order in one pass; certify and
check_interaction_asymmetry are its one-generator calls.  Each generator
keeps its own request, and each table is reduced as soon as it is made to
what its judges read (_peaks, _independence_stack), so that no table stays
alive.  The cross, below and within judges then run once each over every
reduction stacked on the probe axis, and cut each table's report from its
own N-row block.  The independence judge ranks each table alone.

One code path serves every order n >= 0: at n = 0 the cross bound and
within-slot richness read n = 1's order-2 multi-indices, valuing e_i + e_j by
the first-order interaction D_i f (.) D_j f read off J, not by a differenced
D^alpha f.  A within-slot split is judged by its largest candidate.
The rank checks take their columns from multiindex.independence_groups (the
rule generators.required_output_dim counts), stack them for every probe into
one (N, d_x, columns) array and take each rank over the whole stack: a
Cholesky certificate proves full rank for a whole stack without an SVD
(_full_rank), and any stack it cannot prove takes one SVD call.  The
column groups are ranked only at probes where the whole matrix W is
column-rank-deficient: a group G is a column subset of W, so sigma_max(G) <=
sigma_max(W) and, by interlacing, sigma_min(G) >= sigma_min(W); where W has
full column rank every group has too, and the ranks add up.  When d_x is
below the column count W never has full column rank, and every probe is
ranked group by group.  Orders the derivative engine cannot difference
(above 3) raise ValueError.

The prior-work checks read every slot's output set I_k(z) at every probe
off one activity mask of J (_active).

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
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .derivatives import partials
from .derivatives import jacobian  # noqa: F401  (re-exported for existing callers)
from .multiindex import (
    MultiIndex,
    SlotPartition,
    independence_groups,
    interaction_indices,
    multiindices_within_block,
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


@dataclass
class _Table:
    """Partials (N, n_alphas, d_x) at every probe, a column per multi-index,
    or what one judge reads of them (_peaks, _independence_stack); J (N, d_x,
    d_z) and tol, its active_tolerance at every probe, if requested;
    points(rows), the points witnesses name."""

    values: np.ndarray
    column: dict
    evaluations: int
    points: Callable[[np.ndarray], np.ndarray]
    J: np.ndarray | None = None
    tol: np.ndarray | None = None

    def get(self, alphas: Sequence[MultiIndex]) -> np.ndarray:
        return self.values[:, [self.column[a] for a in alphas]]


def _request(f: VectorFn, probes, alphas: Sequence[MultiIndex], jacobian: bool = True) -> _Table:
    """One engine request at every probe for the given multi-indices
    (duplicates dropped), after every unit index when jacobian is set."""
    probes = _as_probes(probes)
    units = unit_indices(probes.shape[1]) if jacobian else ()
    request = tuple(dict.fromkeys(units + tuple(alphas)))
    values, evaluations = partials(f, probes, request)
    J = values[:, :len(units)].transpose(0, 2, 1) if jacobian else None
    return _Table(values, {a: c for c, a in enumerate(request)}, evaluations,
                  probes.__getitem__, J, None if J is None else active_tolerance(J))


def _report(name: str, t: _Table, margin, witnesses, passed_probes, **details) -> CheckReport:
    N = len(t.values)
    return CheckReport(name, passed_probes == N, float(margin), witnesses, N, passed_probes,
                       {**details, "evaluations": t.evaluations})


def _witness(z: np.ndarray, index, value) -> dict:
    return {"point": [float(v) for v in z], "index": index, "value": float(value)}


def _cross_alphas(partition: SlotPartition, n: int) -> list[MultiIndex]:
    """The cross bound's multi-indices, of order max(n, 1) + 1."""
    if n < 0:
        raise ValueError(f"interaction order must be >= 0, got {n}")
    return interaction_indices(partition, max(n, 1) + 1)


def _differenced(alphas: Sequence[MultiIndex], n: int) -> Sequence[MultiIndex]:
    """What the engine differences for alphas at order n: none at n = 0 (see _peaks)."""
    return alphas if n else ()


def _peaks(t: _Table, alphas: Sequence[MultiIndex], n: int) -> _Table:
    """What the cross and within judges read of t: each multi-index's largest
    |value| over outputs at every probe, (N, n_alphas), and t's tolerance:
    D^alpha f at n >= 1; at n = 0, where every alpha is e_i + e_j,
    D_i f (.) D_j f."""
    if n:
        peaks = np.abs(t.get(alphas)).max(axis=2)
    else:
        i, j = np.array([[c for c, m in enumerate(a) for _ in range(m)] for a in alphas],
                        dtype=int).reshape(-1, 2).T
        peaks = np.abs(t.J[:, :, i] * t.J[:, :, j]).max(axis=1)
    return _Table(peaks, {}, t.evaluations, t.points, tol=t.tol)


def _judge_order(tables: Sequence[_Table], partition: SlotPartition, n: int) -> list[CheckReport]:
    """One cross-bound report per table of _peaks over _cross_alphas, all
    judged in one pass over the tables stacked on the probe axis; every table
    holds the same probe count N."""
    alphas = _cross_alphas(partition, n)
    P, N = len(tables), len(tables[0].values)
    tol_z = np.concatenate([t.tol for t in tables])
    vals = np.concatenate([t.values for t in tables])
    worst = vals.max(axis=1, initial=0.0)
    margins = (tol_z - worst).reshape(P, N).min(axis=1)
    failed = (worst > tol_z).reshape(P, N)
    reports = []
    for b, t in enumerate(tables):
        rows = b * N + np.nonzero(failed[b])[0]
        witnesses = [_witness(z, list(alphas[vals[p].argmax()]), worst[p])
                     for p, z in zip(rows, t.points(rows - b * N))]
        reports.append(_report(f"order_at_most_{n}" if n else "no_interaction", t, margins[b],
                               witnesses, N - len(witnesses), multi_indices_checked=len(alphas)))
    return reports


def check_no_interaction(
    f: VectorFn,
    partition: SlotPartition,
    probes,
) -> CheckReport:
    """No interaction across slots, the cross bound at n = 0: D_i f (.) D_j f = 0
    elementwise for every cross-block coordinate pair."""
    return check_order_at_most_n(f, partition, 0, probes)


def check_order_at_most_n(
    f: VectorFn,
    partition: SlotPartition,
    n: int,
    probes,
) -> CheckReport:
    """At most n-th order interaction across slots: every order-(n+1)
    multi-index touching two or more blocks has D^alpha f = 0.  At n = 0 the
    order-2 ones are valued by the first-order interaction instead, and the
    report is check_no_interaction's.  Orders the derivative engine cannot
    difference raise ValueError."""
    alphas = _cross_alphas(partition, n)
    return _judge_order([_peaks(_request(f, probes, _differenced(alphas, n)), alphas, n)],
                        partition, n)[0]


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


@lru_cache(maxsize=256)
def _within_plan(partition: SlotPartition, n: int):
    """Every slot's 2-part splits (k, A, B), each split's candidates of order
    max(n, 1) + 1 as positions in their sorted union, and that union."""
    if n < 0:
        raise ValueError(f"interaction order must be >= 0, got {n}")
    if any(len(b) > 6 for b in partition.blocks):
        raise ValueError("slot too large to enumerate splits (max 6)")
    splits = [(k, A, B) for k, block in enumerate(partition.blocks)
              for A, B in _slot_splits(block)]
    candidates = [split_interaction_indices(partition, k, A, B, max(n, 1) + 1)
                  for k, A, B in splits]
    union = sorted({a for c in candidates for a in c})
    position = {a: i for i, a in enumerate(union)}
    positions = [np.array([position[a] for a in c], dtype=int) for c in candidates]
    for cand in positions:
        cand.setflags(write=False)
    return splits, positions, union


def _judge_within(tables: Sequence[_Table], partition: SlotPartition, n: int) -> list[CheckReport]:
    """One within-slot report per table of _peaks over _within_plan's union,
    all judged in one pass over the tables stacked on the probe axis; every
    table holds the same probe count."""
    splits, positions, _ = _within_plan(partition, n)
    tol_z = np.concatenate([t.tol for t in tables])[:, None]
    vals = np.concatenate([t.values for t in tables])
    # a split's best value is its largest candidate
    best = np.stack([vals[:, cand].max(axis=1) for cand in positions], axis=1)
    P, N = len(tables), len(tables[0].values)
    margins = (best - tol_z).reshape(P, -1).min(axis=1)
    passed = (best > tol_z).all(axis=1).reshape(P, N).sum(axis=1)
    failed = (best <= tol_z).reshape(P, N, -1)
    reports = []
    for b, t in enumerate(tables):
        # failing (probe, split) pairs in row-major order: probe by probe
        rows, cols = np.nonzero(failed[b]) if passed[b] < N else ((), ())
        witnesses = []
        for p, s, z in zip(rows, cols, t.points(rows) if len(rows) else ()):
            k, A, B = splits[s]
            witnesses.append(_witness(z, {
                "slot": k + 1, "split": [sorted(i + 1 for i in A), sorted(i + 1 for i in B)]},
                best[b * N + p, s]))
        reports.append(_report(f"within_slot_order_{n + 1}", t, margins[b], witnesses,
                               int(passed[b])))
    return reports


def check_within_slot_order(
    f: VectorFn,
    partition: SlotPartition,
    n: int,
    probes,
) -> CheckReport:
    """Within-slot richness: every 2-part split of every slot shows an active
    order-(n+1) derivative with mass on both sides (at n = 0, an output that
    both sides move).

    Candidate multi-indices are restricted to the slot's own coordinates;
    when the cross-slot bound at order n holds (the companion check), any
    order-(n+1) index straddling the slot boundary vanishes anyway, so the
    restriction loses nothing.
    """
    union = _within_plan(partition, n)[2]
    return _judge_within([_peaks(_request(f, probes, _differenced(union, n)), union, n)],
                         partition, n)[0]


@lru_cache(maxsize=256)
def _chain_rule(partition: SlotPartition, order: int):
    """The chain rule for within-slot partials of one order under z = L^-1 y:
    D^beta f_bar = sum over axis sequences s within a slot of D^alpha(s) f *
    prod_r L^-1[s_r, j_r], with j the axes of beta.  Returns every slot's
    multi-indices and their columns; index (n_beta, n_seq, order), the flat
    positions of L^-1[s_r, j_r]; and gather (n_seq, n_alpha), s -> alpha(s)."""
    alphas = [a for k in range(partition.K) for a in multiindices_within_block(partition, k, order)]
    column = {a: c for c, a in enumerate(alphas)}
    seqs = [s for b in partition.blocks for s in itertools.product(b, repeat=order)]
    d = partition.latent_dim
    axes = [[i for i, a in enumerate(beta) for _ in range(a)] for beta in alphas]
    index = np.array([[[s[r] * d + j[r] for r in range(order)] for s in seqs] for j in axes])
    gather = np.zeros((len(seqs), len(alphas)))
    for c, s in enumerate(seqs):
        gather[c, column[tuple(s.count(i) for i in range(d))]] = 1.0
    for table in (index, gather):
        table.setflags(write=False)
    return alphas, column, index, gather


def random_basis_changes(partition: SlotPartition, rng: np.random.Generator,
                         samples: int) -> np.ndarray:
    """The inverses L^-1 = diag(M_1^-1, ..., M_K^-1) of `samples` random
    slot-wise basis changes y_{B_k} = M_k z_{B_k}, as one (samples, d_z, d_z)
    array.  M_k = I + 0.5 * G with G uniform in [-1, 1], drawn sample by
    sample and slot by slot, each resampled until its condition number is at
    most 50 (keeps the family well-behaved and every draw reproducible from
    the generator state).

    When every slot has one size, all samples * K candidates come from one
    uniform call, are checked by one batched SVD and inverted by one batched
    inv.  A rejected candidate, or slots of different sizes, restore the
    generator and take the loop that redraws each rejected candidate in its
    turn; so every matrix and the generator's final state are the same bits
    either way."""
    L_inv = np.zeros((samples, partition.latent_dim, partition.latent_dim))
    sizes = {len(b) for b in partition.blocks}
    if samples and len(sizes) == 1:
        d = sizes.pop()
        state = rng.bit_generator.state
        m = np.eye(d) + 0.5 * rng.uniform(-1, 1, size=(samples, partition.K, d, d))
        s = np.linalg.svd(m, compute_uv=False)  # s[0] / s[-1] is np.linalg.cond(m)
        if np.all(s[..., 0] / s[..., -1] <= 50.0):
            inv = np.linalg.inv(m)
            for k, b in enumerate(partition.blocks):
                L_inv[(slice(None), *np.ix_(b, b))] = inv[:, k]
            return L_inv
        rng.bit_generator.state = state
    for L in L_inv:
        for b in partition.blocks:
            while True:
                m = np.eye(len(b)) + 0.5 * rng.uniform(-1, 1, size=(len(b), len(b)))
                s = np.linalg.svd(m, compute_uv=False)
                if s[0] / s[-1] <= 50.0:
                    L[np.ix_(b, b)] = np.linalg.inv(m)
                    break
    return L_inv


def _equivalents(t: _Table, partition: SlotPartition, n: int, samples: int, rng_seed: int):
    """Tables of `samples` equivalent generators f o L^-1 from f's table t,
    every L^-1 drawn by one random_basis_changes call, each table by the chain
    rule with every sample's R, J L^-1 and tolerance formed in one product;
    witnesses name the probes pushed to y = L z, solved slot by slot against
    L^-1's blocks on demand."""
    alphas, column, index, gather = _chain_rule(partition, n + 1)
    d = partition.latent_dim
    L_inv = random_basis_changes(partition, np.random.default_rng(rng_seed), samples)
    R = np.prod(L_inv.reshape(samples, d * d)[:, index], axis=-1) @ gather
    values = R[:, None] @ t.get(alphas)
    J = t.J @ L_inv[:, None]
    points = t.points  # the witnesses keep f's probes alive, not f's whole table
    for L, v, J_bar, tol in zip(L_inv, values, J, active_tolerance(J)):
        def pushed(rows, L=L):
            z = points(rows)
            y = np.empty_like(z)
            for b in partition.blocks:
                y[:, b] = np.linalg.solve(L[np.ix_(b, b)], z[:, b].T).T
            return y
        yield _Table(v, column, t.evaluations, pushed, J_bar, tol)


def _certify(fs: Sequence[VectorFn], partition: SlotPartition, n: int, probes,
             equiv_samples: int, rng_seeds: Sequence[int], full: bool) -> list[dict]:
    """Each generator's cross, within and asymmetry reports, and with full its
    below and independence reports (see certify), from one request each; see
    certify_all and the module docstring."""
    if equiv_samples < 0:
        raise ValueError(f"equiv_samples must be at least 0, got {equiv_samples}")
    sets = [_as_probes(z) for z in probes]
    shapes = sorted({z.shape for z in sets})
    if not 0 < len(fs) == len(sets) == len(rng_seeds) or len(shapes) > 1 or \
            shapes[0][1] != partition.latent_dim:
        raise ValueError(f"need one probe set, all of one shape (N, {partition.latent_dim}), and "
                         f"one seed per generator, got {len(fs)} generators, probe sets of "
                         f"shapes {shapes} and {len(rng_seeds)} seeds")
    cross_alphas, union = _cross_alphas(partition, n), _within_plan(partition, n)[2]
    below_alphas = _cross_alphas(partition, n - 1) if full and n > 0 else []
    alphas = [*_differenced(cross_alphas, n), *_chain_rule(partition, n + 1)[0], *below_alphas,
              *(_independence_alphas(partition, n) if full else ())]
    cross, within, below, matrices, d_x = [], [], [], [], 0
    for i, (f, z, seed) in enumerate(zip(fs, sets, rng_seeds)):
        try:
            t = _request(f, z, alphas)
        except FloatingPointError as e:
            e.generator = i  # lets a caller name the generator that overflowed
            raise
        d_x = d_x or t.values.shape[2]
        if t.values.shape[2] != d_x:
            raise ValueError(f"generators must share an output dimension, got {d_x} and "
                             f"{t.values.shape[2]}")
        cross.append(_peaks(t, cross_alphas, n))
        within += [_peaks(e, union, n)
                   for e in (t, *_equivalents(t, partition, n, equiv_samples, seed))]
        below += [_peaks(t, below_alphas, n - 1)] if below_alphas else []
        matrices += [_independence_stack(t, partition, n)] if full else []
    within = _judge_within(within, partition, n)
    reports, S = [], equiv_samples + 1  # within reports per generator: f's, its equivalents'
    for b, (t, rep) in enumerate(zip(cross, _judge_order(cross, partition, n))):
        sub = [("cross", rep)] + [(f"within_equiv_{s - 1}" if s else "within", w)
                                  for s, w in enumerate(within[b * S:(b + 1) * S])]
        # every sub-report passes exactly when all its probes do
        asym = _report(f"interaction_asymmetry_n{n}", t, min(x.margin for _, x in sub),
                       [{**w, "sub_check": label} for label, x in sub for w in x.witnesses],
                       min(x.probes_passed for _, x in sub),
                       **{label: {"passed": x.passed, "margin": x.margin} for label, x in sub})
        reports.append({"cross": rep, "within": sub[1][1], "asymmetry": asym})
    for key, judged in (("below", _judge_order(below, partition, n - 1) if below else ()),
                        ("independence", [_judge_independence(m, n) for m in matrices])):
        for rep, r in zip(reports, judged):
            rep[key] = r
    return reports


def check_interaction_asymmetry(
    f: VectorFn,
    partition: SlotPartition,
    n: int,
    probes,
    equiv_samples: int = 10,
    rng_seed: int = 0,
) -> CheckReport:
    """Interaction asymmetry at order n: the cross-slot bound holds for f,
    and the within-slot richness holds for f and for equiv_samples random
    equivalent generators, all judged from one request (see the module
    docstring); a negative equiv_samples raises ValueError."""
    return _certify([f], partition, n, [probes], equiv_samples, [rng_seed], False)[0]["asymmetry"]


def certify(
    f: VectorFn,
    partition: SlotPartition,
    n: int,
    probes,
    equiv_samples: int = 10,
    rng_seed: int = 0,
) -> dict[str, CheckReport]:
    """Every order-n certificate of f from one engine request: "cross" (the
    bound at n), "below" (the bound at n - 1, for n >= 1 only), "within",
    "asymmetry" (as check_interaction_asymmetry) and "independence" (as
    sufficient_independence_check).  Each records that request's
    evaluations."""
    return certify_all([f], partition, n, [probes], equiv_samples, [rng_seed])[0]


def certify_all(fs: Sequence[VectorFn], partition: SlotPartition, n: int, probes,
                equiv_samples: int, rng_seeds: Sequence[int]) -> list[dict[str, CheckReport]]:
    """certify for each fs[i] at probes[i] (probes a (P, N, d) stack) with
    rng_seeds[i], in one pass (see the module docstring).  ValueError unless
    the generators share the partition, a probe count and an output
    dimension; a FloatingPointError from a request carries the position in fs
    of its generator as `generator`."""
    return _certify(fs, partition, n, probes, equiv_samples, rng_seeds, True)


# ---------------------------------------------------------------------------
# rank conditions


def _full_rank(M: np.ndarray) -> bool:
    """True only when every matrix of the stack M (..., m, n) provably has
    sigma_min > 2 RANK_TOL sigma_max, so that its SVD counts every singular
    value: with W in its tall orientation and F = ||W||_F^2, a Cholesky
    factorization of W^T W - tau I with tau = (4 RANK_TOL^2 + 8 (m + n)^2
    eps) F succeeds for every matrix.  By Higham's backward-error bound
    (Accuracy and Stability of Numerical Algorithms, 2002, Thm 10.3) the
    rounding of the Gram product, the shift and the factorization moves the
    smallest eigenvalue by at most about (m + n) eps F, well inside tau's
    8 (m + n)^2 eps F, so lambda_min(W^T W) > 4 RANK_TOL^2 F >= 4 RANK_TOL^2
    sigma_max^2.  The computed singular values are within a few eps sigma_max
    of the exact ones, far inside that factor of 2.  F must lie in the
    normal range, where every rounding error is relative as the bound
    assumes; a stack outside it, or one factorization that fails, proves
    nothing."""
    if M.shape[-2] < M.shape[-1]:
        M = M.swapaxes(-2, -1)
    m, n = M.shape[-2:]
    with np.errstate(all="ignore"):  # an overflow or underflow fails the range test below
        G = M.swapaxes(-2, -1) @ M
        F = G.trace(axis1=-2, axis2=-1)
    if not ((F > 2.0 ** -900) & (F < 2.0 ** 900)).all():
        return False
    tau = (4 * RANK_TOL ** 2 + 8 * (m + n) ** 2 * np.finfo(float).eps) * F
    G.reshape(*G.shape[:-2], n * n)[..., ::n + 1] -= tau[..., None]  # G - tau I, in place
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def numerical_rank(M: np.ndarray):
    """Numerical rank of a matrix (m, n) as an int, or of every matrix of a
    stack (..., m, n) as an int array: the count of singular values above
    RANK_TOL * sigma_max.  A stack _full_rank proves gets min(m, n) without
    an SVD; any other stack takes one SVD call.  A single matrix goes straight
    to its SVD: on the small matrices that checks such as irreducibility_check
    rank one at a time, the certificate's extra numpy calls cost more than the
    SVD they would save."""
    M = np.asarray(M, dtype=float)
    if M.shape[-1] == 0 or M.shape[-2] == 0:
        ranks = np.zeros(M.shape[:-2], dtype=int)
    elif M.ndim > 2 and _full_rank(M):
        ranks = np.full(M.shape[:-2], min(M.shape[-2:]))
    else:
        s = np.linalg.svd(M, compute_uv=False)
        ranks = np.sum(s > RANK_TOL * s[..., :1], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def _independence_alphas(partition: SlotPartition, n: int) -> list[MultiIndex]:
    return sorted({a for _, g in independence_groups(partition, n) for a in g})


def _independence_stack(t: _Table, partition: SlotPartition, n: int) -> _Table:
    """What the independence judge reads of t: the order-n matrix at every
    probe, (N, d_x, columns), with independence_groups' columns in order, and
    each group's column slice by name."""
    groups = independence_groups(partition, n)
    stack = t.get([a for _, g in groups for a in g]).transpose(0, 2, 1)
    ends = np.cumsum([len(g) for _, g in groups])
    return _Table(stack, {name: slice(end - len(g), end) for (name, g), end in zip(groups, ends)},
                  t.evaluations, t.points)


def _rank_sum(stack: np.ndarray, slices, r_whole: np.ndarray) -> np.ndarray:
    """The sum of the column groups' ranks at every probe, given the whole
    matrix's: a group of a full-column-rank matrix has full column rank (see
    the module docstring), so only the rank-deficient probes are ranked
    group by group."""
    r_sum = np.full(len(stack), stack.shape[2])
    rows = np.nonzero(r_whole < stack.shape[2])[0]
    if len(rows):
        deficient = stack[rows]
        r_sum[rows] = sum(numerical_rank(deficient[:, :, cols]) for _, cols in slices)
    return r_sum


def _judge_independence(t: _Table, n: int) -> CheckReport:
    """The report of one _independence_stack.  Each table is ranked alone: one
    stack of every table's matrices would be certified in fewer calls, but at
    n = 2 (seven presets' 16 matrices of 24 x 22) that stack and its Gram and
    Cholesky arrays take fresh pages at every call, which cost more."""
    stack = t.values
    if not np.all(np.any(stack, axis=(1, 2))):
        raise ValueError("degenerate all-zero derivative matrix")
    r_whole = numerical_rank(stack)
    r_sum = _rank_sum(stack, t.column.items(), r_whole)
    gap = np.abs(r_whole - r_sum)
    rows = np.nonzero(gap)[0]
    witnesses = [_witness(z, {"rank_whole": int(r_whole[p]), "rank_sum": int(r_sum[p])}, gap[p])
                 for p, z in zip(rows, t.points(rows))]
    rep = _report(f"sufficient_independence_n{n}", t, -gap.max(), witnesses,
                  len(gap) - len(witnesses), order=n)
    if stack.shape[1] < stack.shape[2]:
        rep.details["satisfiability_warning"] = (
            "output dimension below the stacked column count; condition may be unsatisfiable"
        )
    return rep


def sufficient_independence_check(
    f: VectorFn,
    partition: SlotPartition,
    n: int,
    probes,
) -> CheckReport:
    """Rank additivity of the order-n derivative groups at every probe:
    rank(whole) must equal the sum of per-group ranks, each rank taken over
    the probe stack at once (see numerical_rank)."""
    t = _request(f, probes, _independence_alphas(partition, n), jacobian=False)
    return _judge_independence(_independence_stack(t, partition, n), n)


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


def _active(t: _Table, partition: SlotPartition) -> np.ndarray:
    """The output-index sets I_k(z) of every slot at every probe as one mask
    (N, d_x, K): output l is in I_k(z) when some derivative of it along slot
    k's coordinates exceeds t's tolerance."""
    return np.stack([np.abs(t.J[:, :, b]).max(axis=2) for b in partition.blocks],
                    axis=2) > t.tol[:, None, None]


def compositionality_check(
    f: VectorFn,
    partition: SlotPartition,
    probes,
) -> CheckReport:
    """Output-index sets I_k(z) (outputs with an active slot derivative) must
    be pairwise disjoint at every probe.  A failing probe's witness names the
    first clashing slot pair and their smallest shared output."""
    t = _request(f, probes, ())
    active = _active(t, partition)
    rows = np.nonzero((active.sum(axis=2) > 1).any(axis=1))[0]
    witnesses = []
    for p, z in zip(rows, t.points(rows)):
        k, j, l = next((k, j, l) for k, j in itertools.combinations(range(partition.K), 2)
                       for l in np.nonzero(active[p, :, k] & active[p, :, j])[0][:1])
        witnesses.append(_witness(z, {"slots": [k + 1, j + 1], "output": int(l) + 1}, 0.0))
    return _report("compositionality", t, -1.0 if len(rows) else 0.0, witnesses,
                   len(t.values) - len(rows))


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
    t = _request(f, probes, ())
    active = _active(t, partition)
    rng = np.random.default_rng(0)
    witnesses = []
    margin = np.inf
    passed_probes = 0
    for z, J, I in zip(probes, t.J, active):
        probe_ok = True
        for k in range(partition.K):
            I_k = np.nonzero(I[:, k])[0].tolist()
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
    return _report("irreducibility", t, 0.0 if margin == np.inf else margin, witnesses,
                   passed_probes)


def sufficient_nonlinearity_check(
    f: VectorFn,
    partition: SlotPartition,
    probes,
) -> CheckReport:
    """W(z) = [per-block first derivatives | per-block unordered within-block
    second derivatives] must have full column rank at every probe."""
    probes = _as_probes(probes)
    # W(z) is the order-1 sufficient-independence matrix taken whole
    t = _request(f, probes, _independence_alphas(partition, 1), jacobian=False)
    W = _independence_stack(t, partition, 1).values
    r = numerical_rank(W)
    gap = W.shape[2] - r
    witnesses = [_witness(probes[p], {"rank": int(r[p]), "columns": W.shape[2]}, gap[p])
                 for p in np.nonzero(gap)[0]]
    return _report("sufficient_nonlinearity", t, -gap.max(), witnesses,
                   len(probes) - len(witnesses))
