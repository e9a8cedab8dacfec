"""Command-line front end: every command is a row of EXPERIMENTS, run through
one function that builds the driver's config and writes into --out.

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

from . import experiments, tensorio


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


# command -> (driver, help, flags); each flag is (name, help, argparse type, its config
# value from the value given), and a flag given sets the config key it is named after,
# over the config file's
EXPERIMENTS = {
    "check": (experiments.exp_check, "certify a generator from a JSON spec", (
        ("generator", "generator spec JSON file", str, _load_json),
        ("order", "interaction order to certify at", int, int),
        ("probes", "probe points (default 16)", int, int),
        ("seed", "probe and equivalence seed (default 0)", int, int),
        ("equiv", "random equivalent generators to include, 0 skips (default 3)", int, int))),
    "compgen": (experiments.exp_compgen, "band-support extrapolation contest", ()),
    "train": (experiments.exp_train, "single autoencoder training run", ()),
    "ablate": (experiments.exp_train_ablation, "regularizer ablation grid",
               (("seeds", "number of seeds per cell", int, lambda n: list(range(n))),)),
    "jac-check": (experiments.exp_jacobian_check, "decoder Jacobian verification",
                  (("trials", "random instances to test", int, int),)),
    "characterize": (experiments.exp_characterization,
                     "preset generator certification suite", ()),
    "gen-data": (experiments.exp_gen_data, "render a sprite dataset", ()),
}


def _cmd_experiment(args) -> int:
    """Run one command of EXPERIMENTS: its config file, updated by its flags, through
    its driver into --out."""
    driver, _, flags = EXPERIMENTS[args.command]
    if driver is experiments.exp_train_ablation:
        try:
            experiments.pool_size()  # a bad ASYMLAB_THREADS is not the config's fault
        except ValueError as e:
            raise UsageError(str(e)) from e
    config = _load_json(args.config) if args.config else {}
    for name, _, _, to_config in flags:
        if getattr(args, name) is not None:
            config[name] = to_config(getattr(args, name))
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="asymlab",
        description="interaction-asymmetry verification lab")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in EXPERIMENTS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help="config JSON (optional)")
        for name, flag_help, kind, _ in flags:
            sp.add_argument(f"--{name}", type=kind, help=flag_help)
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--force", action="store_true",
                        help="reuse a non-empty output directory")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _cmd_experiment(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
