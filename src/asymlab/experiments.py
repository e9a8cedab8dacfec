"""Experiment drivers: generator certification, compositional generalization,
training ablation, decoder Jacobian verification, plus the single-run train
and data-generation entry points used by the CLI.

Every driver returns an ExperimentResult embedding its config and a content
hash of it, and optionally writes results.json / metrics.csv / log.csv /
images / tensors into an output directory.  Independent cells (seeds, grid
points) run in a process pool capped by ASYMLAB_THREADS; each cell is
single-threaded and fully seeded, so the pool size never changes results.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

# the training stack (attention, autoencoder, metrics) and the process pool are imported
# where training or scoring needs them: certification never loads or compiles them
from . import tensorio
from .asymmetry import CheckReport, certify_all
from .generators import (
    PRESET_ORDERS,
    Box,
    GraphBand,
    SlotMap,
    SlotwiseDiffeoSpec,
    compose_slotwise,
    default_partition,
    preset_generator,
    sample_cpe,
    top_order_cross_nonzero,
)
from .multiindex import (
    SlotPartition,
    all_multiindices,
    interaction_indices,
    monomials,
    multiindices_within_block,
)
from .sprites import PALETTE, DataConfig, check_integers, check_numbers, make_dataset

if TYPE_CHECKING:
    from .autoencoder import ModelConfig, TrainConfig, TrainingDiverged

IN_SUPPORT_FLOOR = 1e-14


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def pool_size() -> int:
    env = os.environ.get("ASYMLAB_THREADS")
    if not env:  # the CPUs this process may run on, where the platform tells
        return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    try:
        n = int(env)
    except ValueError:
        n = 0  # reported below, like any count under 1
    if n < 1:
        raise ValueError(f"ASYMLAB_THREADS must be a positive integer, got {env!r}")
    return n


@dataclass
class ExperimentResult:
    experiment_id: str
    config: dict
    seed: int
    reports: list[dict] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)
    wall_clock: float = 0.0
    passed: bool = True
    extras: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)

    def add_metric(self, run_id: str, metric: str, value: float, excluded: int = 0):
        self.metrics.append(
            {"run_id": run_id, "metric": metric, "value": float(value),
             "excluded_pixels": int(excluded)}
        )

    def add_report(self, run_id: str, report: CheckReport):
        self.reports.append({"run_id": run_id, **report.to_json()})

    def to_json(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "config": self.config,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "reports": self.reports,
            "metrics": self.metrics,
            "wall_clock": self.wall_clock,
            "passed": self.passed,
            "extras": self.extras,
        }

    def finish(self, t0: float, out: str | os.PathLike | None,
               passed: bool | None = None) -> "ExperimentResult":
        """Set the verdict, if one is given, and the wall time since t0 (a
        time.perf_counter reading); write results.json and metrics.csv into out,
        if there is one."""
        if passed is not None:
            self.passed = passed
        self.wall_clock = time.perf_counter() - t0
        if out is not None:
            self.write(out)
        return self

    def write(self, out: str | os.PathLike) -> None:
        out = Path(out)
        tensorio.save_json(out / "results.json", self.to_json())
        tensorio.save_csv(
            out / "metrics.csv",
            ["run_id", "metric", "value", "excluded_pixels"],
            [[m["run_id"], m["metric"], m["value"], m["excluded_pixels"]]
             for m in self.metrics],
        )


def _merge_defaults(config: dict | None, defaults: dict, integers: dict | None = None,
                    numbers: tuple[str, ...] = ()) -> dict:
    """defaults updated by config.  ValueError naming an unknown key, a section whose
    default is a JSON object but whose value is not, or a field that fails
    check_integers (at least its minimum in integers) or check_numbers."""
    merged = dict(defaults)
    if config:
        unknown = set(config) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(config)
    for name, default in defaults.items():
        if isinstance(default, dict) and not isinstance(merged[name], dict):
            raise ValueError(f"{name} must be a JSON object, got {merged[name]!r}")
    fields = SimpleNamespace(**merged)
    check_integers(fields, integers or {})
    check_numbers(fields, numbers)
    return merged


def _check_list(cfg: dict, name: str, integers: bool = True) -> None:
    """ValueError naming a config field, and its value, that is not a non-empty list of
    integers (with integers=False, of numbers) at least 0, or that repeats a value (0 and
    0.0 are one value): a repeat would run twice under one run id."""
    v, kinds = cfg[name], (int, np.integer) if integers else (int, float, np.integer, np.floating)
    if not isinstance(v, (list, tuple)) or not v or any(
            isinstance(i, bool) or not isinstance(i, kinds) or not i >= 0 for i in v):
        raise ValueError(f"{name} must be a non-empty list of "
                         f"{'integers' if integers else 'numbers'} at least 0, got {v!r}")
    if len(set(v)) < len(v):
        raise ValueError(f"{name} must not repeat a value, got {v!r}")


def _check_at_least_zero(cfg: dict, names: tuple[str, ...]) -> None:
    """ValueError naming a config field, and its value, below 0 or NaN."""
    for name in names:
        if not cfg[name] >= 0:
            raise ValueError(f"{name} must be at least 0, got {cfg[name]!r}")


# the largest w for which rng.uniform(-w, w) draws from a finite width 2 w
MAX_HALF_WIDTH = float(np.finfo(float).max / 2)


def _check_finite(cfg: dict, names: tuple[str, ...], most: float = np.inf) -> None:
    """ValueError naming a config field, and its value, that is not finite or is above most."""
    for name in names:
        if not (-np.inf < cfg[name] < np.inf and cfg[name] <= most):  # NaN too
            bound = f" and at most {most!r}" if most < np.inf else ""
            raise ValueError(f"{name} must be finite{bound}, got {cfg[name]!r}")


def _check_preset_orders(name: str, orders) -> None:
    """ValueError naming a config field that asks for an order no preset generator has."""
    bad = [n for n in orders if n not in PRESET_ORDERS]
    if bad:
        raise ValueError(f"{name} must be among the preset orders {PRESET_ORDERS}, got {bad[0]!r}")


_LOG_HEADER = ["iter", "rec", "kl", "interact", "total"]


def _log_rows(log: list) -> list[tuple]:
    return [(i,) + b.as_row() for i, b in enumerate(log)]


def _record_divergence(result: ExperimentResult, out, t0: float, e: TrainingDiverged,
                       header: list[str], log_rows: list, **where) -> None:
    """Leave the partial log and a failed results.json naming the point of
    divergence (plus where, e.g. the ablation cell) in out, if there is one."""
    if out is None:
        return
    result.extras["divergence"] = {**where, "iteration": e.iteration, "cause": e.args[0],
                                   "group": e.group}
    result.finish(t0, out, passed=False)
    tensorio.save_csv(Path(out) / "log.csv", header, log_rows)


# ---------------------------------------------------------------------------
# generator certification


def exp_characterization(config: dict | None = None,
                         out: str | os.PathLike | None = None) -> ExperimentResult:
    """For each preset generator, certified from one engine request: the
    cross-order check at its declared n must pass; at n-1 it must fail when
    the top-order cross terms are nonzero; asymmetry and independence too."""
    cfg = _merge_defaults(config, {
        "presets_per_n": 7,
        "orders": [0, 1, 2],
        "probes": 16,
        "equiv_samples": 3,
        "seed": 0,
        "probe_scale": 0.8,
    }, {"presets_per_n": 1, "probes": 1, "equiv_samples": 0, "seed": 0}, ("probe_scale",))
    _check_list(cfg, "orders")
    _check_preset_orders("orders", cfg["orders"])
    if not cfg["probe_scale"] > 0:  # NaN too
        raise ValueError(f"probe_scale must be greater than 0, got {cfg['probe_scale']!r}")
    _check_finite(cfg, ("probe_scale",), MAX_HALF_WIDTH)
    t0 = time.perf_counter()
    result = ExperimentResult("characterization", cfg, cfg["seed"])
    rng = np.random.default_rng(cfg["seed"])
    all_ok = True
    for n in cfg["orders"]:
        presets = range(cfg["presets_per_n"])
        specs = [preset_generator(n, rng_seed=1000 * n + i + cfg["seed"]) for i in presets]
        part = specs[0].partition
        # the same values as one (probes, latent_dim) draw per preset in turn
        probes = rng.uniform(-cfg["probe_scale"], cfg["probe_scale"],
                             size=(len(specs), cfg["probes"], part.latent_dim))
        try:
            # the engine names a non-finite value itself; numpy's warnings add nothing
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                certified = certify_all(specs, part, n, probes, cfg["equiv_samples"],
                                        [cfg["seed"] + i for i in presets])
        except FloatingPointError as e:  # a generator that overflows at a stencil point
            raise ValueError(f"cannot certify n{n}_preset{e.generator} at order {n}: {e}") from e
        for i, (spec, reports) in enumerate(zip(specs, certified)):
            run_id = f"n{n}_preset{i}"
            rep = reports["cross"]
            result.add_report(run_id, rep)
            ok = rep.passed
            result.add_metric(run_id, "order_check_as_expected", float(ok))
            all_ok &= ok

            if n >= 1 and top_order_cross_nonzero(spec):
                ok_low = not reports["below"].passed
                result.add_metric(run_id, "fails_below_declared_order", float(ok_low))
                all_ok &= ok_low

            asym = reports["asymmetry"]
            result.add_report(run_id, asym)
            result.add_metric(run_id, "asymmetry_margin", asym.margin)
            all_ok &= asym.passed

            sind = reports["independence"]
            result.add_report(run_id, sind)
            result.add_metric(run_id, "sufficient_independence_pass_fraction",
                              sind.pass_fraction)
            all_ok &= sind.passed
    return result.finish(t0, out, passed=all_ok)


# ---------------------------------------------------------------------------
# compositional generalization


def constrained_features(partition: SlotPartition, n: int, degree: int = 3):
    """Constant, per-slot monomials up to the slot degree, and the admissible
    cross-slot monomials of order 2..n."""
    feats = [(0,) * partition.latent_dim]
    for k in range(partition.K):
        feats.extend(a for deg in range(1, degree + 1)
                     for a in reversed(multiindices_within_block(partition, k, deg)))
    if n >= 2:
        feats.extend(interaction_indices(partition, n, upto=True))
    return feats


def full_poly_features(d: int, degree: int = 3):
    """Every monomial of total degree <= degree, by degree and, within a
    degree, in reverse lexicographic order of the exponents."""
    return [a for deg in range(degree + 1) for a in reversed(all_multiindices(d, deg))]


@dataclass
class FitModel:
    """Linear-in-features regression model: the coefficients of its design
    table's columns."""

    coefficients: np.ndarray
    solver: str = "cholesky"
    condition: float = 0.0


def _gram_min_norm(X: np.ndarray, Y: np.ndarray, gram: np.ndarray) -> np.ndarray | None:
    """The minimum-norm least-squares solution from the eigenvectors of gram = XᵀX,
    or None when that solution is not certified to make lstsq's rank decision.

    Directions with eigenvalue <= F·eps·w_max are dropped.  The certificate: each
    dropped direction v has ‖X v‖ <= eps·max(N, F)·sqrt(w_max), lstsq's rcond=None
    cutoff measured on X itself, and the kept eigenvalues span at most 1e8, so
    every kept singular value lies far above that cutoff."""
    if not np.all(np.isfinite(gram)):
        return None  # an overflowed gram: lstsq works on X itself
    N, F = X.shape
    eps = np.finfo(X.dtype).eps
    w, V = np.linalg.eigh(gram)
    if not w[-1] > 0:
        return None
    keep = w > F * eps * w[-1]
    if np.any(np.linalg.norm(X @ V[:, ~keep], axis=0) > eps * max(N, F) * np.sqrt(w[-1])):
        return None
    w_k, V_k = w[keep], V[:, keep]
    if w_k[-1] > 1e8 * w_k[0]:
        return None
    return (V_k / w_k) @ (V_k.T @ (X.T @ Y))


def fit_linear(X: np.ndarray, Y: np.ndarray) -> FitModel:
    """Least squares on the design table X (N, F), recording which path ran
    ("cholesky" or "svd") and the condition number of gram = XᵀX.

    Below condition 1e12 it solves the normal equations.  Otherwise (a
    rank-deficient table, such as the full polynomial on the band) it returns
    the minimum-norm solution from gram's eigenvectors when `_gram_min_norm`
    certifies that it drops exactly the directions lstsq would, and calls
    np.linalg.lstsq(X, Y, rcond=None) when it does not.  Without the
    certificate a Gram pseudo-inverse would drop singular values between about
    1e-13 and 1e-7 of the largest that lstsq keeps, and so change the fit on
    near-band tables."""
    gram = X.T @ X
    cond = float(np.linalg.cond(gram))
    if np.isfinite(cond) and cond < 1e12:
        coef = np.linalg.solve(gram, X.T @ Y)
        solver = "cholesky"
    else:
        coef = _gram_min_norm(X, Y, gram)
        if coef is None:
            coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
        solver = "svd"
    return FitModel(coefficients=coef, solver=solver, condition=cond)


def design_tables(feature_sets):
    """Z -> [monomials(Z, feats) per feature set], from one table over their union.  Each
    is rows of the (F, N) table, transposed: a table's own layout, so equal bit for bit."""
    column = {a: i for i, a in enumerate(dict.fromkeys(a for fs in feature_sets for a in fs))}
    union = np.array(list(column), dtype=int)
    rows = [np.array([column[a] for a in feats], dtype=int) for feats in feature_sets]
    def tables(Z: np.ndarray) -> list[np.ndarray]:
        table = monomials(Z, union).T
        return [table[r].T for r in rows]
    return tables


def _mse(tables, models, Y: np.ndarray) -> list[float]:
    """Mean squared error of each model's prediction from its design table."""
    return [float(np.mean((X @ m.coefficients - Y) ** 2)) for X, m in zip(tables, models)]


def exp_compgen(config: dict | None = None,
                out: str | os.PathLike | None = None) -> ExperimentResult:
    """Extrapolation contest on a band support.

    Per seed: fit the slot-structured basis and a degree-matched full
    polynomial baseline to noiseless samples of a slot-structured ground
    truth on the band, then compare mean squared error on samples from the
    Cartesian-product extension outside the band.  Also verifies that a
    constructed model f o h agreeing on the band keeps agreeing on the
    extension.
    """
    cfg = _merge_defaults(config, {
        "seeds": list(range(10)),
        "order": 2,
        "degree": 3,
        "n_train": 400,
        "n_eval_cpe": 400,
        "n_eval_support": 200,
        "band_width": 0.0,
        "support_kind": "band",
        "ratio_required": 10.0,
        "cpe_mse_limit": 1e-8,
        "pair_tol": 1e-8,
    }, {"order": 0, "n_train": 1, "n_eval_cpe": 1, "n_eval_support": 1, "degree": 1},
        ("band_width", "ratio_required", "cpe_mse_limit", "pair_tol"))
    _check_list(cfg, "seeds")
    _check_preset_orders("order", [cfg["order"]])
    # below these bounds a gate passes every seed (ratio_required) or fails every one
    _check_at_least_zero(cfg, ("band_width", "cpe_mse_limit", "pair_tol"))
    if not cfg["ratio_required"] > 0:
        raise ValueError(f"ratio_required must be greater than 0, got {cfg['ratio_required']!r}")
    # at infinity too: every seed passes (cpe_mse_limit, pair_tol) or fails (ratio_required)
    _check_finite(cfg, ("cpe_mse_limit", "pair_tol", "ratio_required"))
    _check_finite(cfg, ("band_width",), MAX_HALF_WIDTH)
    if cfg["support_kind"] not in ("band", "box"):
        raise ValueError(f"support_kind must be 'band' or 'box', got {cfg['support_kind']!r}")
    t0 = time.perf_counter()
    result = ExperimentResult("compgen", cfg, int(cfg["seeds"][0]))
    part = default_partition(cfg["order"])
    support = (GraphBand(cfg["band_width"]) if cfg["support_kind"] == "band"
               else Box(part.latent_dim))
    feats_c = constrained_features(part, cfg["order"], cfg["degree"])
    feats_b = full_poly_features(part.latent_dim, cfg["degree"])
    design = design_tables((feats_c, feats_b))
    all_ok = True
    for seed in cfg["seeds"]:
        run_id = f"seed{seed}"
        rng = np.random.default_rng(seed)
        gt = preset_generator(cfg["order"], rng_seed=seed, partition=part,
                              include_trig=False)

        Z_train = support.sample(rng, cfg["n_train"])
        Y_train = gt(Z_train)
        model_c, model_b = (fit_linear(X, Y_train) for X in design(Z_train))

        Z_in = support.sample(rng, cfg["n_eval_support"])
        Y_in = gt(Z_in)
        in_c, in_b = _mse(design(Z_in), (model_c, model_b), Y_in)
        result.add_metric(run_id, "in_support_mse_constrained", in_c)
        result.add_metric(run_id, "in_support_mse_baseline", in_b)
        if cfg["support_kind"] == "box":
            # a box is its own CPE: nothing to extrapolate to
            result.add_metric(run_id, "extrapolation_region_empty", 1.0)
            continue

        Z_cpe = sample_cpe(support, part, rng, cfg["n_eval_cpe"])
        Y_cpe = gt(Z_cpe)
        cpe_c, cpe_b = _mse(design(Z_cpe), (model_c, model_b), Y_cpe)

        ok_c = cpe_c <= cfg["cpe_mse_limit"]
        ok_ratio = cpe_b >= cfg["ratio_required"] * max(cpe_c, IN_SUPPORT_FLOOR)
        ok_in = in_b <= 2.0 * in_c + IN_SUPPORT_FLOOR
        for name, val in [
            ("cpe_mse_constrained", cpe_c),
            ("cpe_mse_baseline", cpe_b),
            ("solver_condition_constrained", model_c.condition),
            ("solver_condition_baseline", model_b.condition),
            ("constrained_extrapolates", float(ok_c)),
            ("baseline_ratio_met", float(ok_ratio)),
            ("in_support_match", float(ok_in)),
        ]:
            result.add_metric(run_id, name, val)
        result.extras.setdefault("solvers", {})[run_id] = {
            "constrained": model_c.solver, "baseline": model_b.solver,
        }
        all_ok &= ok_c and ok_ratio and ok_in

        # constructed pair f o h: at its own latents h^{-1}(z) it must reproduce
        # f(z) on the band and off it (one evaluation on both sets' rows); this
        # exercises the iterative slot-map inversion at extension points
        maps = tuple(
            SlotMap(kind="cubic",
                    linear=rng.uniform(0.7, 1.3, size=len(b)),
                    cubic=rng.uniform(0.0, 0.3, size=len(b)))
            for b in part.blocks
        )
        pair = compose_slotwise(gt, SlotwiseDiffeoSpec(maps=maps, permutation=(1, 0)))
        gap = np.max(np.abs(pair.model(pair.latent_map(np.concatenate([Z_in[:32], Z_cpe[:32]])))
                            - np.concatenate([Y_in[:32], Y_cpe[:32]])), axis=1)
        agree_sup, agree_cpe = (float(np.max(g)) for g in np.split(gap, [len(Z_in[:32])]))
        ok_pair = agree_sup <= cfg["pair_tol"] and agree_cpe <= cfg["pair_tol"]
        result.add_metric(run_id, "constructed_pair_support_agreement", agree_sup)
        result.add_metric(run_id, "constructed_pair_cpe_agreement", agree_cpe)
        all_ok &= ok_pair
    return result.finish(t0, out, passed=all_ok)


# ---------------------------------------------------------------------------
# training ablation


def _default_ablation_config() -> dict:
    return {
        "alphas": [0.0, 0.05],
        "betas": [0.0, 0.05],
        "seeds": [0, 1, 2],
        "iterations": 1500,
        "batch_size": 16,
        "lr": 1e-3,
        "warmup": 300,
        "eval_images": 8,
        "data": DataConfig(count=64, seed=7).to_json(),
        "model": {"n_slots": 3, "slot_dim": 8},
        "jis_margin": 0.05,
    }


def _model_config(data_cfg: DataConfig, model: dict, whose: str, **driver_set) -> ModelConfig:
    """The model config of a run on data_cfg's images: height and width from the image
    size, channels from the renderer's RGB palette, driver_set (the ablation's seed)
    from the driver, the rest from model.  ValueError naming the keys model sets of
    those, or a bad field."""
    from .autoencoder import ModelConfig
    bad = sorted({"height", "width", "channels", *driver_set} & set(model))
    if bad:
        raise ValueError(f"{whose} model config must not set {', '.join(bad)}")
    return ModelConfig(height=data_cfg.image_size, width=data_cfg.image_size,
                       channels=PALETTE.shape[1], **driver_set, **model)


def _check_held_out(data_cfg: DataConfig, eval_images: int) -> None:
    """ValueError when a run would score no held-out image, so that it never passes
    with nothing scored; the test split's size follows from data_cfg alone."""
    if not min(data_cfg.split_sizes()[2], eval_images):
        raise ValueError("no held-out image to score: the test split or eval_images is empty")


def train(model, dataset, config):
    """autoencoder.train, called through this module's name so that a replacement of
    experiments.train (the benchmark's timed copy) is the one that runs."""
    from . import autoencoder
    return autoencoder.train(model, dataset, config)


def _train_and_score(data_cfg: DataConfig, mc: ModelConfig, tc: TrainConfig,
                     eval_images: int) -> tuple:
    """Draw the dataset, train a fresh model on its train split, and score the first
    eval_images test-split images (a shorter split whole), each from one slot Jacobian.
    Returns (model, log, scores), scores being per-image J-ARI, JIS, the summed J-ARI
    exclusions, per-image (n_pixels, K) norms and foregrounds.  ValueError before
    drawing data when no image is held out (_check_held_out)."""
    from .autoencoder import build_autoencoder, encode
    from .metrics import (assignment_from_masks, j_ari_from_norms, jis_from_norms,
                          slot_jacobian_norms)
    _check_held_out(data_cfg, eval_images)
    dataset = make_dataset(data_cfg)
    eval_idx = dataset.manifest["splits"]["test"][:eval_images]
    model, log = train(build_autoencoder(mc), dataset.split("train"), tc)
    decoder = (model.dec_layers, model.dec_head)
    jari_vals, jis_vals, excluded, norms, fg = [], [], 0, [], []
    for idx in eval_idx:
        scene = dataset.scenes[idx]
        mu, _ = encode(model, scene.image[None])
        gt = assignment_from_masks(scene.masks)
        norms.append(slot_jacobian_norms(decoder, mu[0]))
        r = j_ari_from_norms(norms[-1], gt)
        jari_vals.append(r.value)
        excluded += r.excluded_pixels
        jis_vals.append(jis_from_norms(norms[-1], gt.foreground).value)
        fg.append(gt.foreground)
    return model, log, (jari_vals, jis_vals, excluded, norms, fg)


def _run_ablation_cell(data_cfg: DataConfig, mc: ModelConfig, tc: TrainConfig,
                       eval_images: int) -> dict:
    """One (alpha, beta, seed) training run; self-contained for the pool.  A
    diverged run returns its TrainingDiverged under "diverged" and its
    partial log, so the driver can name the cell."""
    from .autoencoder import TrainingDiverged
    from .metrics import position_only_index, slot_shares
    cell = {"alpha": tc.alpha, "beta": tc.beta, "seed": tc.seed}
    try:
        model, log, scores = _train_and_score(data_cfg, mc, tc, eval_images)
    except TrainingDiverged as e:
        return dict(cell, diverged=e, log_rows=_log_rows(e.log))

    jari_vals, jis_vals, excl, norms, fg = scores
    # convergence-window mean smooths single-batch noise
    tail = log[-50:]
    return {
        **cell,
        "j_ari": float(np.mean(jari_vals)), "jis": float(np.mean(jis_vals)),
        "position_only_index": position_only_index(norms),
        "slot_shares": slot_shares(norms, fg),
        "excluded": excl,
        "images_scored": len(jari_vals),
        "final_interact": float(np.mean([b.interact for b in tail])),
        "final_rec": float(np.mean([b.rec for b in tail])),
        "initial_rec": log[0].rec,
        "log_rows": _log_rows(log),
        "heatmaps": [norms[0][:, k].reshape(mc.height, mc.width) for k in range(mc.n_slots)],
    }


def exp_train_ablation(config: dict | None = None,
                       out: str | os.PathLike | None = None) -> ExperimentResult:
    """Train the toy autoencoder over the (alpha, beta) grid for several
    seeds each; report J-ARI, JIS, the position-only index and the sorted
    slot shares per cell, dump per-slot Jacobian heat maps, and compare the
    regularized corner against the unregularized one.  A diverged cell leaves
    log.csv and a failed results.json naming it, then raises TrainingDiverged."""
    from .autoencoder import TrainConfig, TrainingDiverged
    cfg = _merge_defaults(config, _default_ablation_config(), {"eval_images": 1},
                          ("jis_margin",))
    _check_list(cfg, "alphas", integers=False)
    _check_list(cfg, "betas", integers=False)
    _check_list(cfg, "seeds")
    if np.isnan(cfg["jis_margin"]):  # a NaN margin fails every grid
        raise ValueError(f"jis_margin must not be NaN, got {cfg['jis_margin']!r}")
    t0 = time.perf_counter()
    result = ExperimentResult("train_ablation", cfg, int(cfg["seeds"][0]))
    # every cell's configs, before any dataset is drawn or pool started
    data_cfg = DataConfig.from_json(cfg["data"])
    _check_held_out(data_cfg, cfg["eval_images"])
    train_fields = {k: cfg[k] for k in ("iterations", "batch_size", "lr", "warmup")}
    mcs, tcs = zip(*[
        (_model_config(data_cfg, cfg["model"], "the ablation's", seed=s),
         TrainConfig(alpha=a, beta=b, seed=s, **train_fields))
        for a in cfg["alphas"] for b in cfg["betas"] for s in cfg["seeds"]
    ])
    run_cell = partial(_run_ablation_cell, data_cfg, eval_images=cfg["eval_images"])
    workers = min(pool_size(), len(mcs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_cell, mcs, tcs))
    else:
        rows = list(map(run_cell, mcs, tcs))

    def run_id(row):
        return f"a{row['alpha']}_b{row['beta']}_s{row['seed']}"

    log_rows = [[run_id(row), *r] for row in rows for r in row["log_rows"]]
    diverged = next((row for row in rows if "diverged" in row), None)
    if diverged is not None:
        e, cell = diverged["diverged"], {k: diverged[k] for k in ("alpha", "beta", "seed")}
        _record_divergence(result, out, t0, e, ["run_id"] + _LOG_HEADER, log_rows, cell=cell)
        raise TrainingDiverged(f"cell {run_id(diverged)}: {e.args[0]}", e.log,
                               e.iteration, e.group) from e

    cells: dict[tuple[float, float], list[dict]] = {}
    for row in rows:
        cells.setdefault((row["alpha"], row["beta"]), []).append(row)
        for metric in ("j_ari", "jis", "position_only_index", "final_interact", "final_rec"):
            result.add_metric(run_id(row), metric, row[metric],
                              row["excluded"] if metric == "j_ari" else 0)
        result.add_metric(run_id(row), "rec_improved",
                          float(row["final_rec"] < row["initial_rec"]))
        if out is not None:
            for k, hm in enumerate(row["heatmaps"]):
                tensorio.save_ppm(
                    Path(out) / "images" / f"{run_id(row)}_slot{k + 1}_jacobian.ppm",
                    tensorio.heatmap_rgb(hm),
                )

    summary = {}  # by (alpha, beta) value, so 0 and 0.0 find the same cell
    for (a, b), rs in cells.items():
        summary[a, b] = {
            "j_ari_mean": float(np.mean([r["j_ari"] for r in rs])),
            "j_ari_std": float(np.std([r["j_ari"] for r in rs])),
            "jis_mean": float(np.mean([r["jis"] for r in rs])),
            "jis_std": float(np.std([r["jis"] for r in rs])),
            "position_only_index": float(np.mean([r["position_only_index"] for r in rs])),
            "slot_shares": np.mean([r["slot_shares"] for r in rs], axis=0).tolist(),
            "interact_mean": float(np.mean([r["final_interact"] for r in rs])),
            "images_scored": rs[0]["images_scored"],
        }
    result.extras["cells"] = {f"a{a}_b{b}": cell for (a, b), cell in summary.items()}
    result.extras["published_reference"] = {
        "note": "full-scale study values, not reproducible at this toy scale",
        "sprites": {"j_ari": [93.6, 0.5], "jis": [95.0, 1.7]},
        "clevr6": {"j_ari": [96.5, 0.3]},
    }

    a_hi, b_hi = max(cfg["alphas"]), max(cfg["betas"])
    reg, base = summary.get((a_hi, b_hi)), summary.get((0, 0))
    if reg and base and (a_hi > 0 or b_hi > 0):
        ok_jis = reg["jis_mean"] >= base["jis_mean"] + cfg["jis_margin"]
        ok_int = reg["interact_mean"] < base["interact_mean"]
        result.add_metric("grid", "regularized_jis_gain",
                          reg["jis_mean"] - base["jis_mean"])
        result.add_metric("grid", "regularized_jari_gain",
                          reg["j_ari_mean"] - base["j_ari_mean"])
        result.add_metric("grid", "regularized_interact_drop",
                          base["interact_mean"] - reg["interact_mean"])
        result.passed = bool(ok_jis and ok_int)
    result.finish(t0, out)
    if out is not None:
        tensorio.save_csv(Path(out) / "log.csv", ["run_id"] + _LOG_HEADER, log_rows)
    return result


# ---------------------------------------------------------------------------
# decoder Jacobian verification


def zero_attention_instance(rng_seed: int, n_pixels: int = 6, K: int = 3,
                            slot_dim: int = 4):
    """Decoder instance plus slots where one slot's logits sit ~128 below the
    rest, so its attention mass underflows to numerical zero."""
    from .attention import CrossAttentionLayer, PixelHead
    rng = np.random.default_rng(rng_seed)
    d_q = slot_dim
    layer = CrossAttentionLayer(
        W_K=np.eye(d_q, slot_dim),
        W_V=rng.normal(size=(d_q, slot_dim)),
        W_Q=np.eye(d_q),
        query_inputs=np.concatenate(
            [np.full((n_pixels, 1), 8.0), 0.1 * rng.normal(size=(n_pixels, d_q - 1))],
            axis=1,
        ),
    )
    head = PixelHead(
        W1=rng.normal(size=(5, d_q)), b1=np.zeros(5),
        W2=rng.normal(size=(3, 5)), b2=np.zeros(3),
    )
    z = rng.normal(scale=0.3, size=(K, slot_dim))
    z[:, 0] = 8.0
    suppressed = int(rng.integers(0, K))
    z[suppressed, 0] = -8.0
    return layer, head, z, suppressed


def exp_jacobian_check(config: dict | None = None,
                       out: str | os.PathLike | None = None) -> ExperimentResult:
    """Random decoder instances: closed-form slot Jacobian vs central
    differences; suppressed-attention slots must show zero blocks; the
    overlap regularizer must vanish exactly on one-hot rows and match its
    hand-computed values."""
    from .attention import (analytic_slot_jacobian, cross_attention_forward, l_interact,
                            random_decoder)
    from .metrics import fd_slot_jacobian
    cfg = _merge_defaults(config, {
        "trials": 100,
        "seed": 0,
        "rel_tol": 1e-5,
        "zero_tol": 1e-8,
        "zero_trials": 10,
        "battery": 2000,
    }, {"trials": 1, "zero_trials": 1, "battery": 1, "seed": 0}, ("rel_tol", "zero_tol"))
    _check_at_least_zero(cfg, ("rel_tol", "zero_tol"))  # below 0 no run passes
    t0 = time.perf_counter()
    result = ExperimentResult("jacobian_check", cfg, cfg["seed"])
    rng = np.random.default_rng(cfg["seed"])
    worst = 0.0
    for t in range(cfg["trials"]):
        K = int(rng.integers(2, 5))
        s = int(rng.integers(2, 6))
        P = int(rng.integers(3, 9))
        layers, head = random_decoder(cfg["seed"] * 7919 + t, P, K, s,
                                      d_q=int(rng.integers(3, 9)),
                                      scaling=bool(t % 2))
        z = rng.normal(scale=0.8, size=(K, s))
        analytic = analytic_slot_jacobian(layers[0], head, z)
        fd = fd_slot_jacobian((layers, head), z)
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, float(np.max(np.abs(analytic - fd))) / scale)
    result.add_metric("analytic_vs_fd", "max_rel_error", worst)
    ok_fd = worst <= cfg["rel_tol"]

    worst_zero = 0.0
    for t in range(cfg["zero_trials"]):
        layer, head, z, m = zero_attention_instance(cfg["seed"] + t)
        analytic = analytic_slot_jacobian(layer, head, z)
        _, attn = cross_attention_forward([layer], head, z)
        a_m = float(np.max(attn[0][0][:, m]))
        worst_zero = max(worst_zero, float(np.max(np.abs(analytic[m]))), a_m)
    result.add_metric("zero_attention", "max_block_norm", worst_zero)
    ok_zero = worst_zero <= cfg["zero_tol"]

    false_verdicts = 0
    for t in range(cfg["battery"]):
        P = int(rng.integers(1, 6))
        K = int(rng.integers(2, 5))
        if t % 3 == 0:
            A = np.zeros((P, K))
            A[np.arange(P), rng.integers(0, K, size=P)] = rng.uniform(0.1, 2, size=P)
        else:
            A = rng.uniform(0, 1, size=(P, K)) * (rng.uniform(size=(P, K)) < 0.6)
        one_hot = bool(np.all(np.sum(A > 0, axis=1) <= 1))
        if (l_interact(A) == 0.0) != one_hot:
            false_verdicts += 1
    half = l_interact(np.array([[0.5, 0.5]]))
    third = l_interact(np.array([[1 / 3, 1 / 3, 1 / 3]]))
    ok_vals = abs(half - 0.25) < 1e-15 and abs(third - 1 / 3) < 1e-12
    result.add_metric("l_interact", "false_verdicts", false_verdicts)
    result.add_metric("l_interact", "uniform_pair_value", half)
    result.add_metric("l_interact", "uniform_triple_value", third)

    return result.finish(
        t0, out, passed=bool(ok_fd and ok_zero and false_verdicts == 0 and ok_vals))


# ---------------------------------------------------------------------------
# single training run and dataset generation (CLI entry points)


def exp_train(config: dict | None = None,
              out: str | os.PathLike | None = None) -> ExperimentResult:
    from .autoencoder import TrainConfig, TrainingDiverged
    cfg = _merge_defaults(config, {
        "data": DataConfig(count=64, seed=7).to_json(),
        "model": {},
        "train": {},
        "eval_images": 8,
    }, {"eval_images": 1})
    t0 = time.perf_counter()
    data_cfg = DataConfig.from_json(cfg["data"])
    mc = _model_config(data_cfg, cfg["model"], "the train driver's")  # seed is the model's own
    tc = TrainConfig(**cfg["train"])
    result = ExperimentResult("train", cfg, tc.seed)
    try:
        model, log, (jari_vals, jis_vals, *_) = _train_and_score(data_cfg, mc, tc,
                                                                 cfg["eval_images"])
    except TrainingDiverged as e:
        _record_divergence(result, out, t0, e, _LOG_HEADER, _log_rows(e.log))
        raise
    result.add_metric("train", "final_rec", log[-1].rec)
    result.add_metric("train", "final_kl", log[-1].kl)
    result.add_metric("train", "final_interact", log[-1].interact)
    result.add_metric("train", "rec_improved", float(log[-1].rec < log[0].rec))

    result.add_metric("eval", "j_ari", float(np.mean(jari_vals)))
    result.add_metric("eval", "jis", float(np.mean(jis_vals)))
    result.finish(t0, out, passed=bool(log[-1].rec < log[0].rec))
    if out is not None:
        tensorio.save_csv(Path(out) / "log.csv", _LOG_HEADER, _log_rows(log))
        tdir = Path(out) / "tensors"
        manifest = {"model_config": mc.to_json(), "train_config": tc.to_json(),
                    "parameters": {}}
        for name, arr in model.parameters().items():
            fname = f"param_{name}.atns"
            tensorio.save_tensor(tdir / fname, arr)
            manifest["parameters"][name] = fname
        tensorio.save_json(Path(out) / "checkpoint.json", manifest)
    return result


def exp_gen_data(config: dict | None = None,
                 out: str | os.PathLike | None = None,
                 preview: int = 8) -> ExperimentResult:
    cfg = DataConfig.from_json(config) if config else DataConfig()
    t0 = time.perf_counter()
    result = ExperimentResult("gen_data", cfg.to_json(), cfg.seed)
    dataset = make_dataset(cfg)
    labels = dataset.owner.astype(float)  # object index per pixel, -1 on background
    result.add_metric("dataset", "scenes", float(cfg.count))
    result.add_metric("dataset", "mean_foreground_fraction",
                      float(np.mean(labels >= 0)))
    if out is not None:
        out = Path(out)
        tensorio.save_tensor(out / "tensors" / "images.atns", dataset.images)
        tensorio.save_tensor(out / "tensors" / "labels.atns", labels)
        tensorio.save_json(out / "manifest.json", dataset.manifest)
        for i in range(min(preview, cfg.count)):
            tensorio.save_ppm(out / "images" / f"scene_{i:04d}.ppm",
                              dataset.images[i])
    return result.finish(t0, out)
