"""asymlab benchmark: one command, four workloads, end-to-end and per-layer
metrics.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 20 --trace 0

Run it from a checkout's root; it imports asymlab from ``src/`` without
installing it and writes only under ``.perfbench_out/``.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up time, peak
memory, operations per reference second), measured with nothing wrapped but
a timer around ``exp_train``'s call into ``train``; the host's pace is
sampled during every round (see pace.py).  With ``--trace 1`` untraced and
traced rounds alternate; for a traced round the public functions of every
module are wrapped from here (see spans.py).  The metrics are then per
layer, per traced round, plus the tracing overhead, and the spans are
written to ``.perfbench_out/trace-<workload>-seed<seed>.npz``.  The
workloads and their operations are described in workloads.py and README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads.  Every matrix these workloads
# multiply is tiny (at most 256 x 32); a second BLAS thread adds CPU time
# without shortening a round and makes timings depend on the core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import Pacer, ref_seconds, sampling_s
from spans import LAYER_UNITS, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
E2E_UNITS = {"ops_per_ref_s": "ops/ref_s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_asymlab() -> None:
    """Put the checkout's ``src/`` first on the import path and make sure
    asymlab really comes from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import asymlab.experiments
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import asymlab from {src}: {e}")
    origin = Path(asymlab.experiments.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: asymlab was imported from {origin}, not {src}")


def setup_seconds(workload: str, seed: int) -> float:
    """Median time, in reference seconds, from launching a fresh interpreter
    to the moment it has imported asymlab, built the workload's inputs and
    model, and warmed up.  The child samples the pace from the moment numpy
    is loaded and reports the end on the system-wide monotonic clock, less
    its sampling time; timing the child's exit instead would add interpreter
    teardown and the polling granularity of a wait with a timeout."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                                "--workload", workload, "--seed", str(seed), "--seconds", "1"],
                               cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                               stdout=subprocess.PIPE, text=True)
        end, loop_s = map(float, child.stdout.split()[-2:])
        times.append(ref_seconds(end - t0, loop_s))
    return statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (one set-up time sample)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if args.setup_only:
        with Pacer() as pacer:
            import_asymlab()
            WORKLOADS[args.workload](args.seed, OUT).setup()
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC) - sampling_s()), repr(pacer.loop_s))
        return 0

    import_asymlab()
    wl = WORKLOADS[args.workload](args.seed, OUT)

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    wl.setup()
    errors = wl.prepare_checks()

    tracer = Tracer() if args.trace else None
    rounds, traced, overheads, rates, wall_rates = [], [], [], [], []
    t0 = time.perf_counter()
    while True:
        if tracer is None:
            with Pacer() as pacer:
                r = wl.run_round()
            rates.append(r.ops / ref_seconds(r.timed_s, pacer.loop_s))
            wall_rates.append(r.ops / r.timed_s)
        else:
            r = wl.run_round()
        rounds.append(r)
        if tracer is not None:
            # each traced round follows an untraced one, so a drift in the
            # machine's speed mostly cancels from the overhead
            with tracer:
                t = wl.run_round()
            rounds.append(t)
            traced.append(t)
            overheads.append(t.wall_s / r.wall_s - 1.0)
        if time.perf_counter() - t0 >= args.seconds:
            break
    errors += wl.final_checks()

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        values = layer_metrics(tracer, len(traced))
        values["trace.overhead_pct"] = 100.0 * statistics.median(overheads)
        wl.info.update(traced_round_s=statistics.fmean(t.wall_s for t in traced))
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}
        tracer.save(OUT / f"trace-{wl.name}-seed{args.seed}.npz")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the first round ran up to 10% slower than later ones on train; it
        # only warms up when later rounds were timed
        timed = slice(1 if len(rates) > 1 else 0, None)
        values = {"ops_per_ref_s": statistics.median(rates[timed]), "setup_s": setup_s,
                  "peak_rss_mb": peak_mb}
        wl.info.update(wall_ops_per_s=statistics.median(wall_rates[timed]))
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"{wl.name}: {len(rounds)} rounds, {attempted} x {wl.op}, {failed} failed")
    for k, v in wl.info.items():
        print(f"{wl.name}: {k} = {v:.6g}")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
