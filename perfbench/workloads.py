"""The benchmark's workloads.

Each workload has a set-up (imports, inputs, model construction, warm-up),
checks made before timing, a round of operations that repeats identically
until the run length is reached, and checks made after timing.  A round's
driver writes its output into a fresh temporary directory, as the CLI does,
and the round's checks read that output back.

Operations and what makes one fail:

* certify: one preset generator certified by ``exp_characterization``.  It
  fails unless it passes at its declared order, fails one order below when
  its top-order cross terms are nonzero, and passes interaction asymmetry
  and sufficient independence.
* compgen: one seed of ``exp_compgen``.  It fails unless the constrained
  fit's CPE error is within the driver's bound and the free baseline's is at
  least ten times larger.
* train: one training step inside ``exp_train``.  It fails when its logged
  losses are not finite, and every step of a round fails when the round's
  late-window reconstruction loss is not below its first step's.
* score: one held-out image scored (encode, J-ARI, JIS).  It fails unless the
  image is in the test split and not the training split, J-ARI is in
  [-1, 1] and JIS is in [1/K, 1].
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from pace import clock

import numpy as np

from reference import ClosedFormGenerator, central_difference_jacobian
from spans import Tracer


@dataclass
class RoundResult:
    ops: int
    failed: int
    timed_s: float  # the interval the workload's rate is measured over
    wall_s: float  # the whole driver call


@contextlib.contextmanager
def scratch_dir(parent: Path):
    parent.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent, prefix="run-"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Workload:
    name = ""
    op = ""

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.info: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> list[str]:
        return []

    def run_round(self) -> RoundResult:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------


class Certify(Workload):
    name = "certify"
    op = "preset certified"

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        # the characterize driver's defaults, spelled out so the workload
        # stays fixed if the defaults move
        self.config = {"presets_per_n": 7, "orders": [0, 1, 2], "probes": 16,
                       "equiv_samples": 3, "seed": seed, "probe_scale": 0.8}

    def setup(self) -> None:
        from asymlab import experiments

        self.experiments = experiments
        warm = dict(self.config, presets_per_n=1, probes=2, equiv_samples=1)
        with scratch_dir(self.out) as d:
            experiments.exp_characterization(warm, out=d)

    def prepare_checks(self) -> list[str]:
        from asymlab.generators import preset_generator

        # each preset's generator, seeded as the driver seeds it
        self.presets = []
        for n in self.config["orders"]:
            for i in range(self.config["presets_per_n"]):
                spec = preset_generator(n, rng_seed=1000 * n + i + self.seed)
                self.presets.append((n, f"n{n}_preset{i}", spec,
                                     ClosedFormGenerator(spec.to_json())))
        return []

    def run_round(self) -> RoundResult:
        with scratch_dir(self.out) as d:
            t0 = clock()
            self.experiments.exp_characterization(self.config, out=d)
            dt = clock() - t0
            res = json.loads((d / "results.json").read_text())
        metric = {(m["run_id"], m["metric"]): m["value"] for m in res["metrics"]}
        passed = {(r["run_id"], r["name"]): r["passed"] for r in res["reports"]}
        failed = 0
        for n, run_id, _, ref in self.presets:
            ok = metric.get((run_id, "order_check_as_expected")) == 1.0
            if ref.top_order_cross_nonzero(n):
                ok &= metric.get((run_id, "fails_below_declared_order")) == 1.0
            ok &= passed.get((run_id, f"interaction_asymmetry_n{n}")) is True
            ok &= passed.get((run_id, f"sufficient_independence_n{n}")) is True
            failed += not ok
        return RoundResult(len(self.presets), failed, dt, dt)

    def final_checks(self) -> list[str]:
        """The derivative oracle's partials against the closed form, at one
        probe per preset and every multi-index of orders 1 to 3.  A central
        stencil's leading error is a constant of at most one times h^2 times
        a higher derivative; the generators' slot polynomials have degree
        three and their trigonometric features have weights below one, so
        the largest partial of order <= 3 bounds those derivatives."""
        from asymlab.derivatives import StencilConfig, derivative_by_multiindex

        stencil = StencilConfig()
        rng = np.random.default_rng(self.seed)
        errors = []
        for n, run_id, spec, ref in self.presets:
            d = ref.d
            z = rng.uniform(-self.config["probe_scale"], self.config["probe_scale"], size=d)
            alphas = [a for o in (1, 2, 3) for a in _multiindices(d, o)]
            exact = {a: ref.partial(z[None], a)[0] for a in alphas}
            bound = 1.0 + max(float(np.max(np.abs(v))) for v in exact.values())
            for a in alphas:
                h = stencil.step(sum(a))
                err = float(np.max(np.abs(derivative_by_multiindex(spec, z, a, stencil) - exact[a])))
                if not err <= h * h * bound:
                    errors.append(f"{run_id}: oracle D^{a} off by {err:.3e} "
                                  f"(bound {h * h * bound:.3e})")
        return errors


def _multiindices(d: int, order: int) -> list[tuple[int, ...]]:
    """Exponent vectors of length d summing to order (enumerated here rather
    than taken from asymlab.multiindex, which the check is about)."""
    if d == 1:
        return [(order,)]
    return [(k,) + rest for k in range(order, -1, -1)
            for rest in _multiindices(d - 1, order - k)]


# ---------------------------------------------------------------------------


class Compgen(Workload):
    name = "compgen"
    op = "seed fitted and extrapolated"
    RATIO = 10.0

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        # the compgen driver's defaults, with ten seeds drawn from the run's
        self.config = {"seeds": [10 * seed + k for k in range(10)], "order": 2,
                       "degree": 3, "n_train": 400, "n_eval_cpe": 400,
                       "n_eval_support": 200, "band_width": 0.0,
                       "support_kind": "band", "ratio_required": 10.0,
                       "cpe_mse_limit": 1e-8, "pair_tol": 1e-8}

    def setup(self) -> None:
        from asymlab import experiments

        self.experiments = experiments
        with scratch_dir(self.out) as d:
            experiments.exp_compgen(dict(self.config, seeds=self.config["seeds"][:1]), out=d)

    def prepare_checks(self) -> list[str]:
        """One round with every generator evaluation recorded.  Evaluations at
        plain points are the band and CPE samples (and the constructed pair's
        round trips to them); the ground truth must match its closed form
        there, band points must lie on z3 = z0*z1*z2, and the rest must lie
        off it and inside the CPE, |z3| <= |z2| <= 1."""
        cfg = self.config
        tracer = Tracer(capture_generator_points=True)
        with tracer, scratch_dir(self.out) as d:
            self.experiments.exp_compgen(cfg, out=d)
        by_spec: dict[int, list] = {}
        for spec, Z, Y in tracer.captured:
            by_spec.setdefault(id(spec), [spec, [], []])
            by_spec[id(spec)][1].append(Z)
            by_spec[id(spec)][2].append(Y)
        errors = []
        if len(by_spec) != len(cfg["seeds"]):
            errors.append(f"expected {len(cfg['seeds'])} ground truths, saw {len(by_spec)}")
        width = cfg["band_width"]
        for k, (spec, Zs, Ys) in enumerate(by_spec.values()):
            Z, Y = np.concatenate(Zs), np.concatenate(Ys)
            ref = ClosedFormGenerator(spec.to_json())
            gap_val = float(np.max(np.abs(ref.value(Z) - Y)))
            if gap_val > 1e-10 * (1.0 + float(np.max(np.abs(Y)))):
                errors.append(f"ground truth {k}: values off the closed form by {gap_val:.3e}")
            gap = np.abs(Z[:, 3] - Z[:, 0] * Z[:, 1] * Z[:, 2])
            on = gap <= width + 1e-9
            off = gap > width + 1e-6
            if np.any(~on & ~off):
                errors.append(f"ground truth {k}: points neither on nor clearly off the band")
            if on.sum() < cfg["n_train"] + cfg["n_eval_support"]:
                errors.append(f"ground truth {k}: {on.sum()} band points")
            if off.sum() < cfg["n_eval_cpe"]:
                errors.append(f"ground truth {k}: {off.sum()} CPE points")
            cpe = Z[off]
            if np.any(np.abs(cpe) > 1 + 1e-12) or np.any(np.abs(cpe[:, 3]) > np.abs(cpe[:, 2]) + 1e-12):
                errors.append(f"ground truth {k}: CPE points outside the extension")
        return errors

    def run_round(self) -> RoundResult:
        with scratch_dir(self.out) as d:
            t0 = clock()
            self.experiments.exp_compgen(self.config, out=d)
            dt = clock() - t0
            res = json.loads((d / "results.json").read_text())
        metric = {(m["run_id"], m["metric"]): m["value"] for m in res["metrics"]}
        failed = 0
        for s in self.config["seeds"]:
            c = metric.get((f"seed{s}", "cpe_mse_constrained"), math.inf)
            b = metric.get((f"seed{s}", "cpe_mse_baseline"), 0.0)
            failed += not (c <= self.config["cpe_mse_limit"] and b >= self.RATIO * c)
        return RoundResult(len(self.config["seeds"]), failed, dt, dt)


# ---------------------------------------------------------------------------

N_SLOTS = 3
LATE_WINDOW = 50


class Train(Workload):
    name = "train"
    op = "training step"
    ITERATIONS = 300

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        self.train_cfg = {"alpha": 0.05, "beta": 0.05, "iterations": self.ITERATIONS,
                          "warmup": 100, "batch_size": 16, "seed": seed}

    def setup(self) -> None:
        from asymlab import experiments
        from asymlab.sprites import DataConfig

        self.experiments = experiments
        self.config = {"data": DataConfig(count=64, seed=7).to_json(),
                       "model": {"n_slots": N_SLOTS, "seed": self.seed},
                       "train": self.train_cfg, "eval_images": 8}
        warm = dict(self.config, train=dict(self.train_cfg, iterations=2), eval_images=1)
        with scratch_dir(self.out) as d:
            experiments.exp_train(warm, out=d)

    def prepare_checks(self) -> list[str]:
        """Backprop against central differences of the loss, on three entries
        of every parameter group, under one fixed noise draw."""
        from asymlab.autoencoder import (ModelConfig, TrainConfig, build_autoencoder,
                                         loss_and_gradients, loss_disent)
        from asymlab.sprites import DataConfig, make_dataset

        data = make_dataset(DataConfig.from_json(self.config["data"]))
        batch = data.split("train")[:4]
        model = build_autoencoder(ModelConfig(**self.config["model"]))
        cfg = TrainConfig(**self.train_cfg)
        rng = np.random.default_rng(self.seed)
        noise = rng.standard_normal((len(batch), N_SLOTS, model.config.slot_dim))
        _, grads = loss_and_gradients(model, batch, cfg, noise=noise, alpha_scale=0.5)
        h = 1e-5
        errors = []
        for name, arr in sorted(model.parameters().items()):
            for flat in rng.choice(arr.size, size=min(3, arr.size), replace=False):
                idx = np.unravel_index(int(flat), arr.shape)
                old = arr[idx]
                arr[idx] = old + h
                up = loss_disent(model, batch, cfg, None, noise=noise, alpha_scale=0.5).total
                arr[idx] = old - h
                down = loss_disent(model, batch, cfg, None, noise=noise, alpha_scale=0.5).total
                arr[idx] = old
                fd = (up - down) / (2 * h)
                g = float(grads[name][idx])
                if not abs(fd - g) <= 1e-9 + 1e-5 * abs(fd):
                    errors.append(f"gradient of {name}{idx}: backprop {g:.6e}, "
                                  f"central difference {fd:.6e}")
        return errors

    def run_round(self) -> RoundResult:
        timed = []
        orig = self.experiments.train

        def timed_train(*args, **kwargs):
            t = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                timed.append(clock() - t)

        self.experiments.train = timed_train
        try:
            with scratch_dir(self.out) as d:
                t0 = clock()
                self.experiments.exp_train(self.config, out=d)
                wall = clock() - t0
                with open(d / "log.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                res = json.loads((d / "results.json").read_text())
        finally:
            self.experiments.train = orig
        losses = np.array([[float(r[k]) for k in ("rec", "kl", "interact", "total")]
                           for r in rows]) if rows else np.zeros((0, 4))
        failed = int(np.sum(~np.all(np.isfinite(losses), axis=1)))
        steps = self.ITERATIONS
        if len(rows) != steps or not (
                np.mean(losses[-LATE_WINDOW:, 0]) < losses[0, 0]):
            failed = steps
        metric = {(m["run_id"], m["metric"]): m["value"] for m in res["metrics"]}
        self.info = {"final_rec": metric.get(("train", "final_rec"), math.nan),
                     "late_window_rec": float(np.mean(losses[-LATE_WINDOW:, 0])),
                     "eval_jis": metric.get(("eval", "jis"), math.nan)}
        return RoundResult(steps, failed, timed[0], wall)


# ---------------------------------------------------------------------------


class Score(Workload):
    name = "score"
    op = "held-out image scored"
    SCENES = 2000
    TRAIN_STEPS = 100

    def setup(self) -> None:
        from asymlab import autoencoder, metrics, sprites

        self.autoencoder, self.metrics = autoencoder, metrics
        self.data = sprites.make_dataset(sprites.DataConfig(count=self.SCENES, seed=7))
        self.model = autoencoder.build_autoencoder(
            autoencoder.ModelConfig(n_slots=N_SLOTS, seed=self.seed))
        autoencoder.train(self.model, self.data.split("train"), autoencoder.TrainConfig(
            alpha=0.05, beta=0.05, iterations=self.TRAIN_STEPS, warmup=50, seed=self.seed))
        self.test = list(self.data.manifest["splits"]["test"])
        self.test_set = set(self.test)
        self.train_set = set(self.data.manifest["splits"]["train"])
        self._score(self.test[:1])

    def _score(self, indices):
        """encode + J-ARI + JIS per image, as the train and ablation drivers
        score their evaluation images."""
        ae, mt = self.autoencoder, self.metrics
        decoder = (self.model.dec_layers, self.model.dec_head)
        out = []
        for idx in indices:
            scene = self.data.scenes[idx]
            mu, _ = ae.encode(self.model, scene.image[None])
            gt = mt.assignment_from_masks(scene.masks)
            r1 = mt.j_ari(decoder, mu[0], gt)
            r2 = mt.jis(decoder, mu[0], foreground=gt.foreground)
            out.append((idx, r1.value, r2.value))
        return out

    def run_round(self) -> RoundResult:
        t0 = clock()
        scored = self._score(self.test)
        dt = clock() - t0
        failed = 0
        for idx, jari, jis_ in scored:
            ok = idx in self.test_set and idx not in self.train_set
            ok &= -1.0 - 1e-12 <= jari <= 1.0 + 1e-12
            ok &= 1.0 / N_SLOTS - 1e-12 <= jis_ <= 1.0 + 1e-12
            failed += not ok
        self.info = {"mean_jis": float(np.mean([s[2] for s in scored])),
                     "mean_j_ari": float(np.mean([s[1] for s in scored]))}
        return RoundResult(len(self.test), failed, dt, dt)

    def final_checks(self) -> list[str]:
        """The closed-form slot Jacobian the metrics use against central
        differences of the decoder output, on the first scored image."""
        from asymlab.attention import analytic_slot_jacobian, cross_attention_forward

        layers, head = self.model.dec_layers, self.model.dec_head
        mu, _ = self.autoencoder.encode(self.model, self.data.scenes[self.test[0]].image[None])
        z = mu[0]
        closed = analytic_slot_jacobian(layers[0], head, z)  # (K, P, C, s)
        fd = central_difference_jacobian(
            lambda v: cross_attention_forward(layers, head, v)[0], z)  # (P, C, K, s)
        fd = fd.transpose(2, 0, 1, 3)
        scale = max(1.0, float(np.max(np.abs(fd))))
        err = float(np.max(np.abs(closed - fd))) / scale
        return [] if err <= 1e-6 else [f"slot Jacobian off central differences by {err:.3e}"]


WORKLOADS = {w.name: w for w in (Certify, Compgen, Train, Score)}
