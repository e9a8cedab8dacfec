import hashlib
import json
import os
import re
import warnings

import numpy as np
import pytest

from asymlab import cli
from asymlab.experiments import (
    PREVIEW_SCENES,
    ExperimentResult,
    _gram_min_norm,
    _merge_defaults,
    config_hash,
    constrained_features,
    design_tables,
    exp_characterization,
    exp_compgen,
    exp_gen_data,
    exp_jacobian_check,
    exp_train,
    fit_linear,
    full_poly_features,
)
from asymlab.generators import Box, GraphBand, default_partition, preset_generator, sample_cpe
from asymlab.multiindex import SlotPartition, monomials
from asymlab.tensorio import load_json, load_tensor


def test_config_hash_order_independent():
    a = {"x": 1, "y": [1, 2], "z": {"k": 0.5}}
    b = {"z": {"k": 0.5}, "y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    assert config_hash({"x": 2, "y": [1, 2], "z": {"k": 0.5}}) != config_hash(a)


def test_merge_defaults_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        _merge_defaults({"typo": 2}, {"a": 1})
    assert _merge_defaults({"b": 3}, {"a": 1, "b": 2}) == {"a": 1, "b": 3}
    assert _merge_defaults(None, {"a": 1}) == {"a": 1}


def test_experiment_result_serialization(tmp_path):
    r = ExperimentResult(experiment_id="demo", config={"k": 1}, seed=0)
    r.add_metric(0, "mse", 0.5)
    r.add_metric(1, "mse", 0.25, excluded=2)
    r.wall_clock = 1.5
    obj = r.to_json()
    assert obj["experiment_id"] == "demo"
    assert obj["config_hash"] == config_hash({"k": 1})
    r.write(tmp_path)
    saved = load_json(tmp_path / "results.json")
    assert saved["passed"] is True
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("run_id")
    assert len(lines) == 3


def test_graph_band_samplers():
    rng = np.random.default_rng(0)
    part = SlotPartition(blocks=((0,), (1,), (2,), (3,)), latent_dim=4)
    Z = GraphBand(0.0).sample(rng, 50)
    assert Z.shape == (50, 4)
    np.testing.assert_allclose(Z[:, 3], Z[:, 0] * Z[:, 1] * Z[:, 2], atol=1e-15)
    assert np.all(GraphBand(0.0).contains(Z))
    Zw = GraphBand(0.1).sample(rng, 50)
    assert np.all(np.abs(Zw[:, 3] - Zw[:, 0] * Zw[:, 1] * Zw[:, 2]) <= 0.1 + 1e-12)
    assert np.all(GraphBand(0.1).contains(Zw))
    C = sample_cpe(GraphBand(0.0), part, rng, 30)
    assert C.shape == (30, 4)
    assert np.all(np.abs(C[:, 3] - C[:, 0] * C[:, 1] * C[:, 2]) > 1e-6)
    assert np.all(np.abs(C) <= 1.0)


def test_fit_linear_solver_switch():
    rng = np.random.default_rng(1)
    Z = rng.uniform(-1, 1, size=(200, 2))
    feats = full_poly_features(2, degree=2)
    Y = Z[:, :1] * Z[:, 1:]
    fit = fit_linear(monomials(Z, feats), Y)
    assert fit.solver == "cholesky"
    # duplicated feature makes the gram matrix exactly singular
    dup = feats + [feats[-1]]
    fit2 = fit_linear(monomials(Z, dup), Y)
    assert fit2.solver == "svd"
    assert fit2.condition > 1e12


def _band_fit_inputs(width: float, seed: int = 5):
    """The baseline table, targets, CPE table and CPE targets of one compgen seed."""
    part, feats = default_partition(2), full_poly_features(4, 3)
    support = GraphBand(width)
    rng = np.random.default_rng(seed)
    gt = preset_generator(2, rng_seed=seed, partition=part, include_trig=False)
    Z = support.sample(rng, 400)
    Z_cpe = sample_cpe(support, part, rng, 400)
    return monomials(Z, feats), gt(Z), monomials(Z_cpe, feats), gt(Z_cpe)


def _lstsq_forbidden(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit_linear fell back to lstsq")
    monkeypatch.setattr(np.linalg, "lstsq", refuse)


def test_fit_linear_gram_path_matches_lstsq_on_the_band(monkeypatch):
    X, Y, X_cpe, Y_cpe = _band_fit_inputs(0.0)
    ref, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    assert rank < X.shape[1]
    _lstsq_forbidden(monkeypatch)
    fit = fit_linear(X, Y)
    assert fit.solver == "svd"
    # same rank: nothing along the directions lstsq drops as null
    null = np.linalg.svd(X)[2][rank:]
    assert np.max(np.abs(null @ fit.coefficients)) <= 1e-9 * np.max(np.abs(ref))
    np.testing.assert_allclose(fit.coefficients, ref, rtol=0, atol=1e-9 * np.max(np.abs(ref)))
    cpe, cpe_ref = (np.mean((X_cpe @ c - Y_cpe) ** 2) for c in (fit.coefficients, ref))
    assert cpe == pytest.approx(cpe_ref, rel=1e-9)


def test_fit_linear_gram_path_matches_lstsq_underdetermined(monkeypatch):
    Z = Box(4).sample(np.random.default_rng(0), 20)
    X = monomials(Z, full_poly_features(4, 3))
    Y = np.sin(Z)
    ref, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    assert rank == 20 < X.shape[1]
    _lstsq_forbidden(monkeypatch)
    fit = fit_linear(X, Y)
    assert fit.solver == "svd"
    np.testing.assert_allclose(fit.coefficients, ref, rtol=0, atol=1e-9 * np.max(np.abs(ref)))
    np.testing.assert_allclose(X @ fit.coefficients, Y, rtol=0, atol=1e-9)


def test_fit_linear_near_band_is_lstsq_bit_for_bit():
    # singular values between the Gram cutoff and lstsq's: the certificate must refuse
    X, Y, *_ = _band_fit_inputs(1e-9)
    assert _gram_min_norm(X, Y, X.T @ X) is None
    fit = fit_linear(X, Y)
    assert fit.solver == "svd"
    assert np.array_equal(fit.coefficients, np.linalg.lstsq(X, Y, rcond=None)[0])


@pytest.mark.parametrize("width, passed", [
    (0.0, True), (1e-12, True), (1e-10, False), (1e-8, False), (1e-6, False), (1e-4, False),
])
def test_exp_compgen_verdict_by_band_width(width, passed):
    # from 1e-10 up lstsq keeps the small singular values of the band's thickness, so the
    # baseline extrapolates too and its ratio gate fails; dropping them would pass
    assert exp_compgen({"band_width": width}).passed is passed


@pytest.mark.parametrize("order, degree", [(2, 3), (2, 1)])
def test_shared_design_table_fits_bit_for_bit(order, degree):
    # at degree 1 the constrained cross monomials are not in the baseline set
    part = default_partition(order)
    feats_c = constrained_features(part, order, degree)
    feats_b = full_poly_features(part.latent_dim, degree)
    assert (set(feats_c) <= set(feats_b)) == (degree >= order)
    Z = GraphBand(0.0).sample(np.random.default_rng(3), 400)
    Y = preset_generator(order, rng_seed=3, partition=part, include_trig=False)(Z)
    for feats, X in zip((feats_c, feats_b), design_tables((feats_c, feats_b))(Z)):
        own = monomials(Z, feats)
        assert np.array_equal(X, own)
        shared, alone = fit_linear(X, Y), fit_linear(own, Y)
        assert np.array_equal(shared.coefficients, alone.coefficients)
        assert (shared.solver, shared.condition) == (alone.solver, alone.condition)
        assert np.array_equal(X @ shared.coefficients, own @ alone.coefficients)


def test_exp_compgen_repeats_in_one_process():
    # the cached preset features and index sets carry no state from call to call
    cfg = {"seeds": [0, 1], "n_train": 200, "n_eval_cpe": 100, "n_eval_support": 80}
    a, b = exp_compgen(cfg).to_json(), exp_compgen(cfg).to_json()
    a.pop("wall_clock"), b.pop("wall_clock")
    assert a == b


@pytest.mark.parametrize("field, bad, named", [
    ("seeds", [], "seeds must be a non-empty list of integers at least 0, got []"),
    ("seeds", [0, 1.5], "seeds must be a non-empty list of integers at least 0, got [0, 1.5]"),
    ("n_eval_cpe", 0, "n_eval_cpe must be at least 1, got 0"),
    ("n_train", 2.5, "n_train must be an integer, got 2.5"),
    ("n_eval_support", 0, "n_eval_support must be at least 1, got 0"),
    ("degree", 0, "degree must be at least 1, got 0"),
    ("band_width", -1, "band_width must be at least 0, got -1"),
    ("band_width", "0.1", "band_width must be a number, got '0.1'"),
    ("pair_tol", None, "pair_tol must be a number, got None"),
    # preset generators exist at orders 0, 1 and 2 only
    ("order", 3, "order must be among the preset orders (0, 1, 2), got 3"),
    ("order", -1, "order must be at least 0, got -1"),
    ("order", 2.0, "order must be an integer, got 2.0"),
    ("order", True, "order must be an integer, got True"),
    # a repeated seed would write its run id twice
    ("seeds", [3, 3], "seeds must not repeat a value, got [3, 3]"),
    # unchecked, these gates passed every seed or failed every one
    ("ratio_required", -1, "ratio_required must be greater than 0, got -1"),
    ("ratio_required", 0, "ratio_required must be greater than 0, got 0"),
    ("cpe_mse_limit", -1, "cpe_mse_limit must be at least 0, got -1"),
    ("pair_tol", -1e-8, "pair_tol must be at least 0, got -1e-08"),
])
def test_exp_compgen_names_bad_config(tmp_path, capsys, field, bad, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        exp_compgen({field: bad})
    path = tmp_path / "compgen.json"
    path.write_text(json.dumps({field: bad}))
    rc = cli.main(["compgen", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and "bad configuration" in err and named in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd, field, bad, named", [
    # unchecked, zero trials or presets pass with nothing checked
    ("jac-check", "trials", 0, "trials must be at least 1, got 0"),
    ("jac-check", "trials", -3, "trials must be at least 1, got -3"),
    ("jac-check", "zero_trials", 0, "zero_trials must be at least 1, got 0"),
    ("jac-check", "battery", 1.5, "battery must be an integer, got 1.5"),
    ("jac-check", "seed", -1, "seed must be at least 0, got -1"),
    ("jac-check", "rel_tol", "1e-5", "rel_tol must be a number, got '1e-5'"),
    ("jac-check", "zero_tol", None, "zero_tol must be a number, got None"),
    ("characterize", "presets_per_n", 0, "presets_per_n must be at least 1, got 0"),
    ("characterize", "orders", [],
     "orders must be a non-empty list of integers at least 0, got []"),
    ("characterize", "orders", [1, -1],
     "orders must be a non-empty list of integers at least 0, got [1, -1]"),
    ("characterize", "orders", [1, 3],
     "orders must be among the preset orders (0, 1, 2), got 3"),
    ("characterize", "probes", 2.5, "probes must be an integer, got 2.5"),
    ("characterize", "equiv_samples", -1, "equiv_samples must be at least 0, got -1"),
    ("characterize", "seed", True, "seed must be an integer, got True"),
    ("characterize", "probe_scale", "0.8", "probe_scale must be a number, got '0.8'"),
    # unchecked, -1 slices off the last held-out image instead of scoring none
    ("train", "eval_images", -1, "eval_images must be at least 1, got -1"),
    ("train", "eval_images", 2.0, "eval_images must be an integer, got 2.0"),
    ("ablate", "eval_images", -1, "eval_images must be at least 1, got -1"),
    ("ablate", "eval_images", 0, "eval_images must be at least 1, got 0"),
    ("ablate", "alphas", [], "alphas must be a non-empty list of numbers at least 0, got []"),
    ("ablate", "betas", [0, -0.05],
     "betas must be a non-empty list of numbers at least 0, got [0, -0.05]"),
    ("ablate", "alphas", "0.05", "alphas must be a non-empty list of numbers at least 0, got '0.05'"),
    ("ablate", "seeds", [], "seeds must be a non-empty list of integers at least 0, got []"),
    ("ablate", "seeds", [0.5], "seeds must be a non-empty list of integers at least 0, got [0.5]"),
    # a repeated order would write its reports twice
    ("characterize", "orders", [1, 1], "orders must not repeat a value, got [1, 1]"),
    # 0 and 0.0 are one grid value: the copies would pool into one cell
    ("ablate", "alphas", [0, 0.0], "alphas must not repeat a value, got [0, 0.0]"),
    # a section that is not a JSON object, named instead of a TypeError from **
    ("train", "train", [1], "train must be a JSON object, got [1]"),
    ("train", "model", "x", "model must be a JSON object, got 'x'"),
    ("train", "data", 5, "data must be a JSON object, got 5"),
    ("ablate", "model", ["seed"], "model must be a JSON object, got ['seed']"),
    # the driver sets these from the image size
    ("train", "model", {"height": 8}, "the train driver's model config must not set height"),
    ("train", "model", {"width": 8, "height": 8},
     "the train driver's model config must not set height, width"),
    # appended last, so the ids of the cases above keep their indices
    # below 0, or NaN, no run can pass the gate
    ("jac-check", "rel_tol", -1, "rel_tol must be at least 0, got -1"),
    ("jac-check", "rel_tol", float("nan"), "rel_tol must be at least 0, got nan"),
    ("jac-check", "zero_tol", -1e-8, "zero_tol must be at least 0, got -1e-08"),
    ("jac-check", "zero_tol", float("nan"), "zero_tol must be at least 0, got nan"),
    # unchecked, a string margin failed only after every cell had trained
    ("ablate", "jis_margin", "x", "jis_margin must be a number, got 'x'"),
    ("ablate", "jis_margin", float("nan"), "jis_margin must not be NaN, got nan"),
    # gen-data refuses its config the same way
    ("gen-data", "count", 0, "count must be at least 1, got 0"),
    # a draw width that is not finite: an OverflowError traceback from rng.uniform, or
    # numpy's "high - low < 0" naming no field
    ("characterize", "probe_scale", float("nan"), "probe_scale must be greater than 0, got nan"),
    ("characterize", "probe_scale", -0.5, "probe_scale must be greater than 0, got -0.5"),
    ("characterize", "probe_scale", 0, "probe_scale must be greater than 0, got 0"),
    ("characterize", "probe_scale", float("inf"),
     "probe_scale must be finite and at most 8.988465674311579e+307, got inf"),
    ("compgen", "band_width", float("inf"),
     "band_width must be finite and at most 8.988465674311579e+307, got inf"),
    ("compgen", "band_width", 1e308,
     "band_width must be finite and at most 8.988465674311579e+307, got 1e+308"),
    # an infinite gate passes every seed (cpe_mse_limit, pair_tol) or fails every one
    ("compgen", "cpe_mse_limit", float("inf"), "cpe_mse_limit must be finite, got inf"),
    ("compgen", "pair_tol", float("inf"), "pair_tol must be finite, got inf"),
    ("compgen", "ratio_required", float("inf"), "ratio_required must be finite, got inf"),
    # zero iterations trained nothing, then failed on the empty log with an IndexError
    ("train", "train", {"iterations": 0}, "iterations must be at least 1, got 0"),
    ("ablate", "iterations", 0, "iterations must be at least 1, got 0"),
])
def test_cli_names_bad_driver_config(tmp_path, capsys, cmd, field, bad, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({field: bad}))
    rc = cli.main([cmd, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and "bad configuration" in err and named in err, err
    assert not (tmp_path / "out").exists()  # refused before anything is written


def test_cli_flag_overrides_config_file(tmp_path):
    # --trials and --seeds win over the keys they name in the config file
    jac = tmp_path / "jac.json"
    jac.write_text(json.dumps({"trials": 50, "zero_trials": 1, "battery": 10}))
    ablate = tmp_path / "ablate.json"
    ablate.write_text(json.dumps({"alphas": [0.0], "betas": [0.0], "seeds": [0, 1, 2],
                                  "iterations": 2, "batch_size": 4, "warmup": 1,
                                  "eval_images": 1, "data": {"count": 10, "seed": 4}}))
    for argv, key, want in ((["jac-check", "--trials", "2", "--config", str(jac)], "trials", 2),
                            (["ablate", "--seeds", "1", "--config", str(ablate)], "seeds", [0])):
        out = tmp_path / argv[0]
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert json.loads((out / "results.json").read_text())["config"][key] == want


def test_cli_jac_check_rejects_zero_trials_flag(tmp_path, capsys):
    rc = cli.main(["jac-check", "--trials", "0", "--out", str(tmp_path / "jc")])
    assert rc == 2 and "trials must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, named", [
    ("--probes", "0", "probes must be at least 1, got 0"),
    ("--probes", "-1", "probes must be at least 1, got -1"),
    ("--equiv", "-1", "equiv must be at least 0, got -1"),
    ("--seed", "-1", "seed must be at least 0, got -1"),
    ("--order", "3",
     "cannot certify the generator at order 3: unsupported derivative order |alpha| = 4"),
    ("--order", "-1", "order must be at least 0, got -1"),
])
def test_cli_check_rejects_bad_counts(tmp_path, capsys, flag, value, named):
    # refused with exit 2 and the field and value named, leaving no output directory
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(preset_generator(1, rng_seed=0).to_json()))
    rc = cli.main(["check", "--generator", str(gen), "--order", "1", flag, value,
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and err == f"error: bad configuration: {named}\n", err
    assert not (tmp_path / "out").exists()


def test_cli_check_names_an_overflowing_generator(tmp_path, capsys):
    # exp(1000 (z_1 + z_2)) overflows at the stencil points: one error line
    # naming the point, exit 2, and no numpy warning on the way
    spec = preset_generator(1, rng_seed=3).to_json()
    for slot in spec["slot_functions"]:
        for feat in slot["features"]:
            if feat["kind"] == "sin":
                feat.update(kind="exp", weights=[1000, 1000])
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["check", "--generator", str(gen), "--order", "1",
                       "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: bad configuration: cannot certify the generator at order 1: "
                          "non-finite function value at stencil point [")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_characterize_names_an_overflowing_preset(tmp_path, capsys):
    # probes this far out overflow the preset's monomials: one error line naming the
    # preset and the stencil point, exit 2, no numpy warning and no results.json
    path = tmp_path / "charac.json"
    path.write_text(json.dumps({"probe_scale": 1e200, "presets_per_n": 1, "orders": [1]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["characterize", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: bad configuration: cannot certify n1_preset0 at order 1: "
                          "non-finite function value at stencil point ["), err
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / "results.json").exists()


def test_cli_ablate_rejects_zero_seeds_flag(tmp_path, capsys):
    rc = cli.main(["ablate", "--seeds", "0", "--out", str(tmp_path / "ab")])
    assert rc == 2 and "seeds must be a non-empty list" in capsys.readouterr().err


def test_cli_names_unreadable_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"seeds\": [0,")
    for path, named in ((tmp_path / "missing.json", "cannot read"),
                        (bad, "is not valid JSON")):
        rc = cli.main(["compgen", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2 and f"{path}" in err and named in err, err
        assert not (tmp_path / "out" / "results.json").exists()


@pytest.mark.parametrize("argv", [["ablate", "--seeds", "2"], ["jac-check", "--trials", "2"],
                                  ["train"]])
def test_cli_names_config_file_not_an_object(tmp_path, capsys, argv):
    # the flags would otherwise set a key on a list, a TypeError traceback
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    rc = cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and f"{path} must hold a JSON object, got list" in err, err
    assert not (tmp_path / "out").exists()


def test_exp_compgen_single_seed(tmp_path):
    r = exp_compgen({"seeds": [0], "n_train": 200, "n_eval_cpe": 100,
                     "n_eval_support": 80}, out=tmp_path)
    assert r.passed
    names = {m["metric"] for m in r.metrics}
    assert "cpe_mse_constrained" in names
    assert "cpe_mse_baseline" in names
    assert (tmp_path / "results.json").exists()
    saved = load_json(tmp_path / "results.json")
    assert saved["config_hash"] == r.to_json()["config_hash"]


def test_exp_compgen_box_support():
    r = exp_compgen({"seeds": [0], "support_kind": "box", "n_train": 150,
                     "n_eval_cpe": 50, "n_eval_support": 50})
    flags = [m for m in r.metrics if m["metric"] == "extrapolation_region_empty"]
    assert flags and flags[0]["value"] == 1.0
    with pytest.raises(ValueError, match="support_kind"):
        exp_compgen({"seeds": [0], "support_kind": "ball"})


def test_exp_jacobian_check_small():
    r = exp_jacobian_check({"trials": 5, "zero_trials": 2, "battery": 200})
    assert r.passed
    names = {m["metric"] for m in r.metrics}
    assert "max_rel_error" in names
    max_rel = [m["value"] for m in r.metrics if m["metric"] == "max_rel_error"][0]
    assert max_rel <= 1e-5


def test_exp_characterization_small():
    r = exp_characterization({"presets_per_n": 1, "orders": [1, 2],
                              "probes": 8, "equiv_samples": 2})
    assert r.passed
    assert any(rep["name"].startswith("order") for rep in r.reports)


def test_exp_gen_data_and_train(tmp_path):
    data_dir = tmp_path / "data"
    rd = exp_gen_data({"count": 10, "seed": 4}, out=data_dir)
    assert rd.passed
    images = load_tensor(data_dir / "tensors" / "images.atns")
    labels = load_tensor(data_dir / "tensors" / "labels.atns")
    assert images.shape == (10, 16, 16, 3)
    assert labels.shape == (10, 16, 16)
    assert set(np.unique(labels)) <= {-1.0, 0.0, 1.0, 2.0}
    manifest = load_json(data_dir / "manifest.json")
    assert len(manifest["splits"]["train"]) == 8
    previews = sorted((data_dir / "images").glob("scene_*.ppm"))
    assert [p.name for p in previews] == [f"scene_{i:04d}.ppm" for i in range(PREVIEW_SCENES)]

    run_dir = tmp_path / "run"
    rt = exp_train({"data": {"count": 10, "seed": 4},
                    "train": {"iterations": 40, "batch_size": 4,
                              "warmup": 10, "lr": 2e-3},
                    "eval_images": 2}, out=run_dir)
    assert rt.passed
    log = (run_dir / "log.csv").read_text().splitlines()
    assert len(log) == 41  # header + one row per iteration
    ck = load_json(run_dir / "checkpoint.json")
    tensors = list((run_dir / "tensors").glob("param_*.atns"))
    assert tensors
    assert len(ck["parameters"]) == len(tensors)
    assert {m["metric"] for m in rt.metrics} >= {"final_rec", "j_ari", "jis"}


@pytest.mark.parametrize("config, digests", [
    (None, ("a967a217cbe5fe08660814adde0f005689283ba4803c62244ca8e3fb79c1afdb",
            "8aedf48bed4c80998f4fc3f25b37fd8529696bf3a3f8a97fa4783fc7e223e2fd",
            "3d2f65b1a753bbe0ea90b5a6a6020b4deb432df6910e337d90bd475c53f4fb36")),
    ({"count": 40, "seed": 3, "max_objects": 5},
     ("4e4f4a5f69a1824cd56c17171f04f0866d269c38e8cea0edd00095dcc4e4d607",
      "e06b58e04541e8fea9d26ed62896fdba2f8748374846d8cefbec1afd65bcb428",
      "b48334a2fe83f1ebccb297e9a04aa97582969e66c16ea55dd63539704d36b442")),
])
def test_cli_gen_data_bytes_pinned(tmp_path, config, digests):
    """labels.atns, images.atns and manifest.json, pinned on the per-scene renderer
    and per-scene label loop that the batched renderer's owner map replaced."""
    argv = ["gen-data", "--out", str(tmp_path / "out")]
    if config:
        (tmp_path / "data.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "data.json")]
    assert cli.main(argv) == 0
    files = ("tensors/labels.atns", "tensors/images.atns", "manifest.json")
    got = tuple(hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in files)
    assert got == digests


def test_cli_check_pass_and_fail(tmp_path):
    spec_path = tmp_path / "gen.json"
    spec = preset_generator(1, rng_seed=0)
    spec_path.write_text(json.dumps(spec.to_json()))
    out = tmp_path / "out"
    rc = cli.main(["check", "--generator", str(spec_path), "--order", "1",
                   "--out", str(out), "--probes", "8"])
    assert rc == 0
    results = load_json(out / "results.json")
    assert results["passed"] is True

    out2 = tmp_path / "out2"
    rc = cli.main(["check", "--generator", str(spec_path), "--order", "0",
                   "--out", str(out2), "--probes", "8"])
    assert rc == 1


def test_cli_refuses_nonempty_out(tmp_path):
    spec_path = tmp_path / "gen.json"
    spec_path.write_text(json.dumps(preset_generator(0, rng_seed=1).to_json()))
    out = tmp_path / "busy"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    args = ["check", "--generator", str(spec_path), "--order", "0",
            "--out", str(out), "--probes", "6"]
    assert cli.main(args) == 2
    assert cli.main(args + ["--force"]) == 0


def test_cli_bad_inputs(tmp_path, capsys):
    rc = cli.main(["check", "--generator", str(tmp_path / "missing.json"),
                   "--order", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["check", "--generator", str(bad), "--order", "1",
                   "--out", str(tmp_path / "o2")])
    assert rc == 2
    assert cli.main(["check"]) == 2  # missing required arguments
    # a generator and an order are required by the driver, from flags or the config file
    for argv, named in ((["--order", "1"], "generator must be given"),
                        (["--generator", str(tmp_path / "gen.json")],
                         "order must be an integer, got None")):
        (tmp_path / "gen.json").write_text(json.dumps(preset_generator(1, rng_seed=0).to_json()))
        assert cli.main(["check", *argv, "--out", str(tmp_path / "o3")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o3").exists()
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(preset_generator(1, rng_seed=0).to_json()))
    for order in ("-1", "3"):  # below 0, and beyond the engine's order-3 stencils
        rc = cli.main(["check", "--generator", str(gen), "--order", order,
                       "--out", str(tmp_path / f"order{order}"), "--probes", "2"])
        assert rc == 2
    assert cli.main(["no-such-command"]) == 2


def test_cli_jac_check(tmp_path):
    rc = cli.main(["jac-check", "--trials", "3", "--out", str(tmp_path / "jc")])
    assert rc == 0
    assert (tmp_path / "jc" / "results.json").exists()


def test_cli_train_reports_divergence(tmp_path, capsys):
    def run(name, train):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"data": {"count": 10, "seed": 4}, "eval_images": 1,
                                   "train": dict(train, iterations=5, batch_size=4)}))
        rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / name)])
        return rc, capsys.readouterr().err

    for name, lr in (("loss", 100.0), ("logits", 1e200)):
        rc, err = run(name, {"lr": lr, "warmup": 1})
        assert rc == 1, name
        # the CLI's one-line report is all of stderr: numpy does not warn first
        assert re.fullmatch(r"error: training diverged: .* at iteration (\d+)\n", err), err
        iteration = int(re.search(r"at iteration (\d+)", err).group(1))
        # the output directory names the point of divergence and keeps the partial log
        res = json.loads((tmp_path / name / "results.json").read_text())
        assert res["passed"] is False
        div = res["extras"]["divergence"]
        assert div["iteration"] == iteration and div["cause"] in err
        assert set(div) == {"iteration", "cause", "group"}
        rows = (tmp_path / name / "log.csv").read_text().splitlines()
        assert rows[0] == "iter,rec,kl,interact,total"
        # on the loss route the failed step's losses were computed, so it is logged
        assert len(rows) - 1 == iteration + (name == "loss")
    # a key the trainer no longer has is a configuration error
    rc, err = run("removed", {"optimizer": "sgd"})
    assert rc == 2 and "bad configuration" in err


def test_cli_names_bad_train_config(tmp_path, capsys):
    # rejected with the field and its value, before anything trains
    train = tmp_path / "train.json"
    train.write_text(json.dumps({"data": {"count": 10, "seed": 4}, "eval_images": 1,
                                 "train": {"batch_size": 0, "iterations": 5}}))
    ablate = tmp_path / "ablate.json"
    ablate.write_text(json.dumps({"alphas": [0.0], "betas": [0.0], "seeds": [0],
                                  "iterations": 5, "batch_size": 4, "warmup": -5,
                                  "eval_images": 1, "data": {"count": 10, "seed": 4}}))
    for cmd, cfg, named in (("train", train, "batch_size must be at least 1, got 0"),
                            ("ablate", ablate, "warmup must be at least 0, got -5")):
        rc = cli.main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd)])
        err = capsys.readouterr().err
        assert rc == 2 and "bad configuration" in err and named in err, err
        assert not (tmp_path / cmd / "log.csv").exists()


def test_drivers_check_configs_before_drawing_data(tmp_path, monkeypatch, capsys):
    # a bad model or training field is named before any dataset is rendered or pool started
    from asymlab import experiments

    def refuse(config):
        raise AssertionError("a dataset was drawn before the configs were checked")

    monkeypatch.setattr(experiments, "make_dataset", refuse)
    no_test_split = ({"data": {"count": 10, "seed": 4, "train_fraction": 0.9,
                               "val_fraction": 0.1}}, "no held-out image to score")
    inf, nan = float("inf"), float("nan")
    # the renderer's palette is RGB: any other channel count failed only after the draw
    for bad, named in (({"model": {"slot_dim": 0}}, "slot_dim must be at least 1, got 0"),
                       ({"train": {"batch_size": 0}}, "batch_size must be at least 1, got 0"),
                       ({"model": {"channels": 1}},
                        "the train driver's model config must not set channels"),
                       ({"train": {"alpha": inf}}, "alpha must be finite, got inf"),
                       ({"train": {"beta": -inf}}, "beta must be finite, got -inf"),
                       ({"train": {"lr": inf}}, "lr must be finite, got inf"),
                       ({"train": {"lr": nan}}, "lr must be positive, got nan"),
                       no_test_split):
        with pytest.raises(ValueError, match=named):
            exp_train(bad)
    for bad, named in (({"model": {"n_slots": 3, "slot_dim": 0}},
                        "slot_dim must be at least 1, got 0"),
                       ({"warmup": -5}, "warmup must be at least 0, got -5"),
                       ({"model": {"channels": 4}},
                        "the ablation's model config must not set channels"),
                       ({"alphas": [0.0, inf]}, "alpha must be finite, got inf"),
                       ({"betas": [inf]}, "beta must be finite, got inf"),
                       ({"lr": inf}, "lr must be finite, got inf"),
                       no_test_split):
        with pytest.raises(ValueError, match=named):
            experiments.exp_train_ablation(bad)
    monkeypatch.setenv("ASYMLAB_THREADS", "2")
    for cmd, cfg, named in (
            ("ablate", {"model": {"n_slots": 3, "slot_dim": 0}},
             "slot_dim must be at least 1, got 0"),
            # an infinite weight used to diverge at iteration 0 and exit 1
            ("train", {"train": {"alpha": inf}}, "alpha must be finite, got inf")):
        path = tmp_path / f"{cmd}.json"
        path.write_text(json.dumps({**cfg, "data": {"count": 2000, "seed": 7}}))
        rc = cli.main([cmd, "--config", str(path), "--out", str(tmp_path / cmd)])
        err = capsys.readouterr().err
        assert rc == 2 and "bad configuration" in err and named in err, err


def test_cli_names_non_integer_train_fields(tmp_path, capsys):
    # a float count is a configuration error naming the field, not a TypeError from numpy
    train = tmp_path / "train.json"
    train.write_text(json.dumps({"data": {"count": 10, "seed": 4}, "eval_images": 1,
                                 "train": {"iterations": 2.5, "batch_size": 4}}))
    ablate = tmp_path / "ablate.json"
    ablate.write_text(json.dumps({"alphas": [0.0], "betas": [0.0], "seeds": [0],
                                  "iterations": 5, "batch_size": 2.5, "warmup": 1,
                                  "eval_images": 1, "data": {"count": 10, "seed": 4}}))
    for cmd, cfg, named in (("train", train, "iterations must be an integer, got 2.5"),
                            ("ablate", ablate, "batch_size must be an integer, got 2.5")):
        rc = cli.main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd)])
        err = capsys.readouterr().err
        assert rc == 2 and "bad configuration" in err and named in err, err
        assert not (tmp_path / cmd / "log.csv").exists()


def test_cli_names_bad_model_and_data_fields(tmp_path, capsys):
    # a zero slot width is named, not a ZeroDivisionError traceback
    base = {"data": {"count": 10, "seed": 4}, "eval_images": 1,
            "train": {"iterations": 2, "batch_size": 2}}
    for name, cfg, named in (
            ("model", dict(base, model={"slot_dim": 0}), "slot_dim must be at least 1, got 0"),
            ("data", dict(base, data={"count": 10.0}), "count must be an integer, got 10.0"),
            # nothing held out: J-ARI and JIS would be skipped and the run pass
            ("split", dict(base, data={"count": 10, "seed": 4, "train_fraction": 0.9,
                                       "val_fraction": 0.1}), "no held-out image to score")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / name)])
        err = capsys.readouterr().err
        assert rc == 2 and "bad configuration" in err and named in err, err
        assert not (tmp_path / name / "log.csv").exists()


def test_cli_names_non_bool_scaling(tmp_path, capsys):
    # "false" is truthy: without the check it would train a scaled decoder
    path = tmp_path / "train.json"
    path.write_text(json.dumps({"data": {"count": 10, "seed": 4}, "eval_images": 1,
                                "model": {"scaling": "false"},
                                "train": {"iterations": 2, "batch_size": 2}}))
    rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and "bad configuration" in err and "scaling must be a bool, got 'false'" in err
    assert not (tmp_path / "out" / "log.csv").exists()


def test_cli_ablate_reports_divergence(tmp_path, capsys):
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps({"alphas": [0.0], "betas": [0.0], "seeds": [0],
                               "iterations": 5, "batch_size": 4, "warmup": 1, "lr": 1e200,
                               "eval_images": 1, "data": {"count": 10, "seed": 4}}))
    rc = cli.main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")])
    err = capsys.readouterr().err
    assert rc == 1
    # one line naming the cell and the iteration
    m = re.fullmatch(r"error: training diverged: cell a0\.0_b0\.0_s0: .* at iteration (\d+)\n",
                     err)
    assert m, err
    res = json.loads((tmp_path / "ab" / "results.json").read_text())
    assert res["passed"] is False
    div = res["extras"]["divergence"]
    assert set(div) == {"cell", "iteration", "cause", "group"}
    assert div["cell"] == {"alpha": 0.0, "beta": 0.0, "seed": 0}
    assert div["iteration"] == int(m.group(1)) and div["cause"] in err
    rows = (tmp_path / "ab" / "log.csv").read_text().splitlines()
    assert rows[0] == "run_id,iter,rec,kl,interact,total"
    assert len(rows) - 1 == div["iteration"]
    assert all(r.startswith("a0.0_b0.0_s0,") for r in rows[1:])


def test_exp_train_deterministic(tmp_path):
    cfg = {"data": {"count": 20, "seed": 4}, "eval_images": 2,
           "train": {"iterations": 20, "batch_size": 4, "warmup": 5, "seed": 3}}
    runs = []
    for name in ("first", "second"):
        exp_train(cfg, out=tmp_path / name)
        res = json.loads((tmp_path / name / "results.json").read_text())
        res.pop("wall_clock")
        runs.append((json.dumps(res), (tmp_path / name / "log.csv").read_bytes()))
    assert runs[0] == runs[1]


def _ablation_cell_configs(**train):
    """The default ablation's data config, and the model and training configs of its
    (0, 0, seed 0) cell with the training fields train."""
    from asymlab.autoencoder import TrainConfig
    from asymlab.experiments import _default_ablation_config, _model_config
    from asymlab.sprites import DataConfig

    cfg = _default_ablation_config()
    data_cfg = DataConfig.from_json(cfg["data"])
    mc = _model_config(data_cfg, cfg["model"], "the ablation's", seed=0)
    return data_cfg, mc, TrainConfig(alpha=0.0, beta=0.0, seed=0, **train)


def test_scoring_takes_one_slot_jacobian_per_image(monkeypatch):
    from asymlab import experiments, metrics

    calls = []
    norms = metrics.slot_jacobian_norms

    def counting(decoder, z):
        calls.append(1)
        return norms(decoder, z)

    monkeypatch.setattr(metrics, "slot_jacobian_norms", counting)
    # this data's test split holds three images
    r = exp_train({"data": {"count": 30, "seed": 4}, "eval_images": 3,
                   "train": {"iterations": 2, "batch_size": 4, "warmup": 1}})
    assert len(calls) == 3
    assert {m["metric"] for m in r.metrics} >= {"j_ari", "jis"}
    calls.clear()
    # the ablation cell also draws its heat maps from the first image's norms
    data_cfg, mc, tc = _ablation_cell_configs(iterations=2, batch_size=4, lr=1e-3, warmup=1)
    row = experiments._run_ablation_cell(data_cfg, mc, tc, 3)
    assert len(calls) == row["images_scored"] == 3
    assert len(row["heatmaps"]) == 3
    assert 0.0 < row["position_only_index"] <= 1.0
    assert len(row["slot_shares"]) == 3 and sum(row["slot_shares"]) == pytest.approx(1.0)


def test_pool_size_rejects_non_integer(monkeypatch):
    from asymlab.experiments import pool_size

    for bad in ("two", "0", "-1"):
        monkeypatch.setenv("ASYMLAB_THREADS", bad)
        with pytest.raises(ValueError, match=f"ASYMLAB_THREADS.*'{bad}'"):
            pool_size()
    monkeypatch.setenv("ASYMLAB_THREADS", "3")
    assert pool_size() == 3


def test_pool_size_defaults_to_the_cpus_this_process_may_run_on(monkeypatch):
    from asymlab.experiments import pool_size

    monkeypatch.delenv("ASYMLAB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3}, raising=False)
    assert pool_size() == 2
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without it
    assert pool_size() == 64


def test_cli_names_bad_thread_variable(tmp_path, monkeypatch, capsys):
    for bad in ("2.5", "0", "-1"):
        monkeypatch.setenv("ASYMLAB_THREADS", bad)
        rc = cli.main(["ablate", "--out", str(tmp_path / "ab")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "ASYMLAB_THREADS" in err and f"'{bad}'" in err
        assert "bad configuration" not in err


def test_ablation_rejects_reserved_model_keys():
    from asymlab.experiments import exp_train_ablation

    # rejected before any cell trains
    with pytest.raises(ValueError, match="height, seed"):
        exp_train_ablation({"model": {"n_slots": 3, "seed": 1, "height": 16}})


def test_ablation_results_independent_of_pool_size(tmp_path, monkeypatch):
    from asymlab.experiments import exp_train_ablation

    # eval_images within the 7-image test split of the default data
    cfg = {"alphas": [0.0, 0.05], "betas": [0.0], "seeds": [0],
           "iterations": 20, "warmup": 10, "eval_images": 4}
    runs, written = [], []
    for threads in ("1", "2"):
        monkeypatch.setenv("ASYMLAB_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        obj = exp_train_ablation(cfg, out=out).to_json()
        obj.pop("wall_clock")
        runs.append(obj)
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*")
                 if p.is_file() and p.name != "results.json"}
        on_disk = json.loads((out / "results.json").read_text())
        on_disk.pop("wall_clock")
        files["results.json"] = json.dumps(on_disk, sort_keys=True).encode()
        written.append(files)
    assert runs[0] == runs[1]
    assert set(written[0]) == {"results.json", "metrics.csv", "log.csv"} | {
        f"images/a{a}_b0.0_s0_slot{k}_jacobian.ppm" for a in (0.0, 0.05) for k in (1, 2, 3)}
    assert written[0] == written[1]
    assert runs[0]["extras"]["cells"]["a0.0_b0.0"]["images_scored"] == 4
    assert len(runs[0]["extras"]["cells"]["a0.0_b0.0"]["slot_shares"]) == 3


def test_train_and_one_cell_ablation_score_alike():
    from asymlab.experiments import exp_train_ablation

    # one data draw, model, training run and seed: the two drivers share one run path
    data, fields = {"count": 30, "seed": 4}, {"lr": 1e-3, "iterations": 30,
                                               "batch_size": 16, "warmup": 10}
    single = exp_train({"data": data, "eval_images": 3,
                        "model": {"n_slots": 3, "slot_dim": 8, "seed": 1},
                        "train": dict(fields, alpha=0.05, beta=0.0, seed=1)})
    grid = exp_train_ablation({"data": data, "eval_images": 3,
                               "model": {"n_slots": 3, "slot_dim": 8},
                               "alphas": [0.05], "betas": [0.0], "seeds": [1], **fields})
    scores = [{m["metric"]: m["value"] for m in r.metrics if m["metric"] in ("j_ari", "jis")}
              for r in (single, grid)]
    assert scores[0] == scores[1] and len(scores[0]) == 2


def test_ablation_verdict_finds_integer_zero_cell():
    from asymlab.experiments import exp_train_ablation

    # the unregularized cell is found by value, whether its zeros are written 0 or 0.0
    base = {"betas": [0.0], "seeds": [0], "iterations": 5, "batch_size": 4, "warmup": 1,
            "eval_images": 1, "data": {"count": 10, "seed": 4}}
    grid = [{m["metric"]: m["value"] for m in exp_train_ablation(dict(base, alphas=alphas)).metrics
             if m["run_id"] == "grid"} for alphas in ([0, 0.05], [0.0, 0.05])]
    assert set(grid[0]) == {"regularized_jis_gain", "regularized_jari_gain",
                            "regularized_interact_drop"}
    assert grid[0] == grid[1]


def test_ablation_scores_held_out_images_only(monkeypatch):
    from asymlab import autoencoder, experiments
    from asymlab.sprites import DataConfig, make_dataset

    # the default data: 7 test images, fewer than the 8 eval_images asked for
    cfg = experiments._default_ablation_config()
    dataset = make_dataset(DataConfig.from_json(cfg["data"]))
    flat = dataset.images.reshape(len(dataset.images), -1)
    scored = []
    encode = autoencoder.encode

    def spy(model, images, with_cache=False):
        if not with_cache:  # scoring's calls; each training step asks for the cache
            for image in images:
                scored.extend(np.flatnonzero(np.all(flat == image.ravel(), axis=1)).tolist())
        return encode(model, images, with_cache)

    monkeypatch.setattr(autoencoder, "encode", spy)
    data_cfg, mc, tc = _ablation_cell_configs(iterations=2, batch_size=4, lr=1e-3, warmup=1)
    row = experiments._run_ablation_cell(data_cfg, mc, tc, cfg["eval_images"])
    splits = dataset.manifest["splits"]
    assert set(scored) <= set(splits["test"])
    assert not set(scored) & set(splits["train"])
    assert len(scored) == row["images_scored"] == len(splits["test"]) == 7

    def refuse(*args):
        raise AssertionError("trained with no held-out image to score")

    monkeypatch.setattr(experiments, "train", refuse)
    with pytest.raises(ValueError, match="no held-out image"):
        experiments._run_ablation_cell(data_cfg, mc, tc, 0)


def _count_engine_requests(monkeypatch) -> list:
    from asymlab import asymmetry

    calls = []
    partials = asymmetry.partials

    def counting(*args, **kwargs):
        calls.append(1)
        return partials(*args, **kwargs)

    monkeypatch.setattr(asymmetry, "partials", counting)
    return calls


def test_characterization_runs_no_check_twice(monkeypatch):
    calls = _count_engine_requests(monkeypatch)
    exp_characterization()
    # per preset: one to draw it and one to certify it; the equivalent
    # generators come from the certification's partials by the chain rule
    assert len(calls) == 21 + 21


def _characterization_reference(cfg: dict) -> tuple[list, list]:
    """exp_characterization's reports and metrics rebuilt preset by preset:
    each preset certified alone, at probes drawn one (N, d) block at a time."""
    from asymlab.asymmetry import certify
    from asymlab.generators import top_order_cross_nonzero

    rng = np.random.default_rng(cfg["seed"])
    reports, metrics = [], []
    for n in cfg["orders"]:
        for i in range(cfg["presets_per_n"]):
            run_id = f"n{n}_preset{i}"
            spec = preset_generator(n, rng_seed=1000 * n + i + cfg["seed"])
            probes = rng.uniform(-cfg["probe_scale"], cfg["probe_scale"],
                                 size=(cfg["probes"], spec.partition.latent_dim))
            reps = certify(spec, spec.partition, n, probes, cfg["equiv_samples"], cfg["seed"] + i)
            reports.append({"run_id": run_id, **reps["cross"].to_json()})
            metrics.append((run_id, "order_check_as_expected", float(reps["cross"].passed)))
            if n >= 1 and top_order_cross_nonzero(spec):
                metrics.append((run_id, "fails_below_declared_order",
                                float(not reps["below"].passed)))
            reports.append({"run_id": run_id, **reps["asymmetry"].to_json()})
            metrics.append((run_id, "asymmetry_margin", reps["asymmetry"].margin))
            reports.append({"run_id": run_id, **reps["independence"].to_json()})
            metrics.append((run_id, "sufficient_independence_pass_fraction",
                            reps["independence"].pass_fraction))
    return reports, metrics


@pytest.mark.parametrize("config", [{"seed": 0}, {"seed": 7},
                                    {"seed": 3, "equiv_samples": 0, "probes": 5}])
def test_characterization_equals_each_preset_certified_alone(config):
    cfg = {"presets_per_n": 7, "orders": [0, 1, 2], "probes": 16, "equiv_samples": 3,
           "probe_scale": 0.8, **config}
    res = exp_characterization(config).to_json()
    reports, metrics = _characterization_reference(cfg)
    assert res["reports"] == reports
    assert [(m["run_id"], m["metric"], m["value"]) for m in res["metrics"]] == metrics


@pytest.mark.parametrize("equiv", [1, 3])
def test_cli_check_runs_no_check_twice(tmp_path, monkeypatch, equiv):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(preset_generator(2, rng_seed=0).to_json()))
    calls = _count_engine_requests(monkeypatch)
    rc = cli.main(["check", "--generator", str(gen), "--order", "2", "--equiv", str(equiv),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    # every report, equivalent generators included, from one request
    assert len(calls) == 1


def _check_reference(spec, order: int, probes: int, seed: int, equiv: int, csv_path):
    """check's reports, rebuilt from certify as the check command built them before it
    became a driver, and its metrics.csv written at csv_path in that command's layout."""
    from asymlab.asymmetry import certify
    from asymlab.tensorio import save_csv

    rng = np.random.default_rng(seed)
    z = rng.uniform(-0.8, 0.8, size=(probes, spec.partition.latent_dim))
    certs = certify(spec, spec.partition, order, z, equiv, seed)
    reports = {"cross_order": certs["cross"], "within_slot": certs["within"],
               "sufficient_independence": certs["independence"]}
    if equiv > 0:
        reports["asymmetry"] = certs["asymmetry"]
    save_csv(csv_path, ["run_id", "metric", "value", "excluded_pixels"],
             [[k, "margin", r.margin, 0] for k, r in reports.items()]
             + [[k, "passed", float(r.passed), 0] for k, r in reports.items()])
    return [{"run_id": k, **r.to_json()} for k, r in reports.items()]


@pytest.mark.parametrize("order, equiv, rc", [(2, 3, 0), (1, 3, 1), (2, 0, 0)])
def test_cli_check_matches_certify(tmp_path, order, equiv, rc):
    # the same reports (witnesses included), metrics.csv and exit code from the flags or
    # from a config file holding the spec itself
    spec = preset_generator(2, rng_seed=0)
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(spec.to_json()))
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({"generator": spec.to_json(), "order": order, "probes": 8,
                               "seed": 5, "equiv": equiv}))
    reports = _check_reference(spec, order, 8, 5, equiv, tmp_path / "ref.csv")
    assert all(r["passed"] for r in reports) == (rc == 0)
    for name, argv in (("flags", ["--generator", str(gen), "--order", str(order), "--probes",
                                  "8", "--seed", "5", "--equiv", str(equiv)]),
                       ("config", ["--config", str(cfg)])):
        assert cli.main(["check", *argv, "--out", str(tmp_path / name)]) == rc
        res = load_json(tmp_path / name / "results.json")
        assert res["reports"] == json.loads(json.dumps(reports))
        assert (res["experiment_id"], res["passed"]) == ("check", rc == 0)
        assert ((tmp_path / name / "metrics.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())


def test_cli_parser_makes_every_command_from_the_table():
    import argparse

    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli.EXPERIMENTS)
    for command, (_, _, flags) in cli.EXPERIMENTS.items():
        options = {o for a in sub.choices[command]._actions for o in a.option_strings}
        assert options == {"-h", "--help", "--config", "--out", "--force"} | {
            f"--{name}" for name, *_ in flags}


def test_every_command_writes_one_results_schema(tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(preset_generator(1, rng_seed=0).to_json()))
    tiny = {
        "check": (["--generator", str(gen), "--order", "1", "--probes", "2"], {}),
        "characterize": ([], {"presets_per_n": 1, "orders": [0], "probes": 2}),
        "compgen": ([], {"seeds": [0], "n_train": 200, "n_eval_cpe": 20,
                         "n_eval_support": 20}),
        "train": ([], {"data": {"count": 10, "seed": 4}, "eval_images": 1,
                       "train": {"iterations": 2, "batch_size": 4, "warmup": 1}}),
        "ablate": ([], {"alphas": [0.0], "betas": [0.0], "seeds": [0], "iterations": 2,
                        "batch_size": 4, "warmup": 1, "eval_images": 1,
                        "data": {"count": 10, "seed": 4}}),
        "jac-check": (["--trials", "1"], {"zero_trials": 1, "battery": 3}),
        "gen-data": ([], {"count": 2}),
    }
    assert set(tiny) == set(cli.EXPERIMENTS)
    keys = set(ExperimentResult("x", {}, 0).to_json())
    for command, (argv, config) in tiny.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / command
        assert cli.main([command, *argv, "--config", str(path), "--out", str(out)]) in (0, 1)
        assert set(load_json(out / "results.json")) == keys, command
        assert (out / "metrics.csv").read_text().startswith(
            "run_id,metric,value,excluded_pixels\n")


def test_characterization_same_with_cold_and_warm_caches():
    from asymlab import multiindex

    def run():
        res = exp_characterization({"seed": 0}).to_json()
        res.pop("wall_clock")
        return json.dumps(res)

    for name in ("all_multiindices", "interaction_indices", "multiindices_within_block",
                 "independence_groups", "split_interaction_indices"):
        getattr(multiindex, name).cache_clear()
    cold = run()
    assert run() == cold
