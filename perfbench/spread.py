"""Run the benchmark several times per workload, each with another seed, and
report each metric's median, quartiles and spread (the distance between the
quartiles as a share of the median).

    python3 perfbench/spread.py --runs 10 [--seconds 20] [--workloads certify train]
                                [--first-seed 0] [--json out.json]

Runs are sequential, from the checkout root, with the command and run length
in BENCHMARK.json unless overridden.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in manifest["workloads"]])
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--json", help="write the summary here as well")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to have quartiles")

    summary = {}
    for w in args.workloads:
        values: dict[str, list[float]] = {}
        fails = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = manifest["command"] + ["--workload", w, "--seed", str(seed),
                                         "--seconds", str(args.seconds),
                                         "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{w} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{w} seed {seed}: a check failed")
            fails.append((result["failed"], result["attempted"]))
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        summary[w] = {"failed_share": sorted({f / a for f, a in fails}),
                      "metrics": {k: dict(spread(v), values=v) for k, v in values.items()}}
        for k, s in summary[w]["metrics"].items():
            print(f"{w} {k}: median {s['median']:.5g}, quartiles "
                  f"[{s['q1']:.5g}, {s['q3']:.5g}], spread {100 * s['spread']:.2f}%")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
