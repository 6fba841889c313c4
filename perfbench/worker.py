"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py --workload hom-450 --seed 0 --out DIR [--trace]

The worker imports the package and loads the workload's shipped config, then
prints `ready`: the parent times set-up from process start to that line.
It then applies the workload's overrides and seed, runs `bench.run` once with
threads=1 into DIR, and prints one JSON line with the wall time, the peak
RSS of this process and, with --trace, the per-layer span summary.
`--setup-only` stops after `ready`.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402  (standard library only)

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
parser.add_argument("--seed", type=int, default=0)
parser.add_argument("--out", default=None)
parser.add_argument("--trace", action="store_true")
parser.add_argument("--cutoff", type=int, default=None)
parser.add_argument("--spans", default=None, help="write the traced spans here as CSV")
parser.add_argument("--setup-only", action="store_true")
args = parser.parse_args()
workload = WORKLOADS[args.workload]

from bosonsynth.bench import load_config, run  # noqa: E402

shipped = load_config(workload.config_path)
print("ready", flush=True)
if args.setup_only:
    sys.exit(0)

import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import tracer as tracing  # noqa: E402
from environment import environment  # noqa: E402
from workloads import t_min_factor  # noqa: E402

overrides = dict(workload.overrides)
if args.cutoff is not None:
    overrides["cutoff"] = args.cutoff
config = dataclasses.replace(
    shipped, t_min=shipped.t_min * t_min_factor(args.seed), **overrides
)

out = {
    "config": {
        "t_min": config.t_min,
        "t_max": config.t_max,
        "points": config.points,
        "csv": config.out_csv or f"{config.application}.csv",
        "json": config.out_json or f"{config.application}.json",
    },
    "error": None,
}

tracer = None
if args.trace:
    tracer = tracing.Tracer()
    tracer.install()
else:
    leftover = tracing.leftover_wrappers()
    if leftover:
        raise SystemExit(f"untraced run found tracing wrappers: {leftover}")

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always", RuntimeWarning)
    started = time.perf_counter()
    try:
        if tracer is None:
            run(config, out_dir=args.out, threads=1)
        else:
            tracer.run(run, config, out_dir=args.out, threads=1)
    except Exception as exc:  # reported as failed grid points, not a crash
        out["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    out["wall_s"] = time.perf_counter() - started
out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
out["warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)

if tracer is not None:
    patched = tracer.patched_count()
    tracer.uninstall()
    out["trace"] = {
        "patched": patched,
        "leftover": tracing.leftover_wrappers(),
        "summary": tracer.summary(),
        "dims": {k: {str(n): c for n, c in sorted(v.items())} for k, v in tracer.dims.items()},
        "artifact_bytes": tracer.artifact_bytes,
        "memo_bytes": tracer.memo_bytes.get(0, 0),
    }
    if args.spans:
        tracer.write_spans(args.spans)
else:
    out["environment"] = environment()

print(json.dumps(out), flush=True)
