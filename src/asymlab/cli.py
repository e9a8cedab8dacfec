"""Command-line front end.

Exit codes: 0 when every expected verdict held, 1 when a check or
experiment reported a mismatch or training diverged, 2 for usage or
configuration errors.
An existing non-empty output directory is refused unless --force is given.
The output directory is made by the first file written into it, so a
refused run leaves none behind.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiments, tensorio
from .asymmetry import certify
from .generators import GeneratorSpec


class UsageError(Exception):
    pass


def _check_out(path: str, force: bool) -> Path:
    """The output directory, refused when it is a file, or not empty without
    --force; not created."""
    out = Path(path)
    if out.exists():
        if not out.is_dir():
            raise UsageError(f"output path is not a directory: {out}")
        if any(out.iterdir()) and not force:
            raise UsageError(
                f"output directory {out} is not empty; pass --force to reuse it")
    return out


def _load_json(path: str) -> dict:
    try:
        obj = tensorio.load_json(path)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from e
    except ValueError as e:  # malformed JSON, or bytes that are not text
        raise UsageError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise UsageError(f"{path} must hold a JSON object, got {type(obj).__name__}")
    return obj


def _cmd_check(args) -> int:
    for flag, value, least in (("--probes", args.probes, 1), ("--equiv", args.equiv, 0),
                               ("--seed", args.seed, 0)):
        if value < least:
            raise UsageError(f"{flag} must be at least {least}, got {value}")
    spec_json = _load_json(args.generator)
    try:
        spec = GeneratorSpec.from_json(spec_json)
    except (KeyError, ValueError, TypeError) as e:
        raise UsageError(f"bad generator file: {e}") from e
    out = _check_out(args.out, args.force)
    part = spec.partition
    rng = np.random.default_rng(args.seed)
    probes = rng.uniform(-0.8, 0.8, size=(args.probes, part.latent_dim))

    try:
        # the engine names a non-finite value itself; numpy's warnings add nothing
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            certs = certify(spec, part, args.order, probes, args.equiv, args.seed)
    except (ValueError, FloatingPointError) as e:
        # an order the engine cannot difference, an all-zero matrix, or a
        # generator that overflows at a stencil point
        raise UsageError(f"cannot certify at order {args.order}: {e}") from e
    reports = {"cross_order": certs["cross"], "within_slot": certs["within"],
               "sufficient_independence": certs["independence"]}
    if args.equiv > 0:
        reports["asymmetry"] = certs["asymmetry"]

    passed = all(r.passed for r in reports.values())
    tensorio.save_json(out / "results.json", {
        "experiment_id": "check",
        "config": {"generator": args.generator, "order": args.order,
                   "probes": args.probes, "seed": args.seed,
                   "equiv": args.equiv},
        "passed": passed,
        "reports": {k: r.to_json() for k, r in reports.items()},
    })
    tensorio.save_csv(out / "metrics.csv",
                      ["run_id", "metric", "value", "excluded_pixels"],
                      [[k, "margin", r.margin, 0] for k, r in reports.items()]
                      + [[k, "passed", float(r.passed), 0]
                         for k, r in reports.items()])
    for k, r in reports.items():
        print(f"{k}: {'pass' if r.passed else 'FAIL'} (margin {r.margin:.3e})")
    return 0 if passed else 1


# command -> (driver, help, None or (flag, help, its config value from the count given));
# a flag given sets the config key it is named after, over the config file's
EXPERIMENTS = {
    "compgen": (experiments.exp_compgen, "band-support extrapolation contest", None),
    "train": (experiments.exp_train, "single autoencoder training run", None),
    "ablate": (experiments.exp_train_ablation, "regularizer ablation grid",
               ("seeds", "number of seeds per cell", lambda n: list(range(n)))),
    "jac-check": (experiments.exp_jacobian_check, "decoder Jacobian verification",
                  ("trials", "random instances to test", int)),
    "characterize": (experiments.exp_characterization,
                     "preset generator certification suite", None),
}


def _cmd_experiment(args) -> int:
    driver, _, flag = EXPERIMENTS[args.command]
    if driver is experiments.exp_train_ablation:
        try:
            experiments.pool_size()  # a bad ASYMLAB_THREADS is not the config's fault
        except ValueError as e:
            raise UsageError(str(e)) from e
    config = _load_json(args.config) if args.config else {}
    count = getattr(args, flag[0]) if flag else None
    if count is not None:
        config[flag[0]] = flag[2](count)
    out = _check_out(args.out, args.force)
    try:
        result = driver(config or None, out=out)
    except RuntimeError as e:
        from .autoencoder import TrainingDiverged  # not at the top: certification never loads it
        if not isinstance(e, TrainingDiverged):
            raise
        print(f"error: training diverged: {e}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as e:
        raise UsageError(f"bad configuration: {e}") from e
    print(f"{result.experiment_id}: {'pass' if result.passed else 'FAIL'} "
          f"({result.wall_clock:.1f}s, config {result.config_hash})")
    return 0 if result.passed else 1


def _cmd_gen_data(args) -> int:
    out = _check_out(args.out, args.force)
    raw = _load_json(args.config) if args.config else None
    try:
        result = experiments.exp_gen_data(raw, out=out)
    except (ValueError, TypeError) as e:
        raise UsageError(f"bad configuration: {e}") from e
    print(f"gen-data: wrote {result.config['count']} scenes to {out}")
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="asymlab",
        description="interaction-asymmetry verification lab")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--force", action="store_true",
                        help="reuse a non-empty output directory")

    sp = sub.add_parser("check", help="certify a generator from a JSON spec")
    sp.add_argument("--generator", required=True, help="generator spec JSON")
    sp.add_argument("--order", type=int, required=True,
                    help="interaction order to certify at")
    sp.add_argument("--probes", type=int, default=16)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--equiv", type=int, default=3,
                    help="random equivalent generators to include (0 skips)")
    common(sp)
    sp.set_defaults(fn=_cmd_check)

    for command, (_, help_text, flag) in EXPERIMENTS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help="config JSON (optional)")
        if flag:
            sp.add_argument(f"--{flag[0]}", type=int, help=flag[1])
        common(sp)
        sp.set_defaults(fn=_cmd_experiment)

    sp = sub.add_parser("gen-data", help="render a sprite dataset")
    sp.add_argument("--config", help="data config JSON (optional)")
    common(sp)
    sp.set_defaults(fn=_cmd_gen_data)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
