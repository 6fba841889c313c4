"""Benchmark of the bosonsynth experiment runner.

    python3 perfbench/run.py --workload hom-450 --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. Every repetition is a fresh interpreter
(perfbench/worker.py) that imports the package, loads the workload's shipped
config, applies the workload's overrides and seed, and calls
`bosonsynth.bench.run(config, out_dir, threads=1)` once. Repetitions run
back to back: at least two, and another only while it is expected to end
within --seconds. Each one's CSV/JSON artifacts are checked against the
ledger and, for the default seed, the stored reference.

--trace 0 reports the end-to-end metrics (medians over repetitions):
wall_s, setup_s, peak_rss_mb and pass_frac. --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics of the traced ones,
with the traced and untraced wall times side by side. The last line of
stdout is one JSON object: correct, attempted, failed, metrics. Full
results and the traced spans go under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_artifacts, load_reference  # noqa: E402
from environment import git_commit  # noqa: E402
from workloads import REFERENCE_DIR, ROOT, WORKLOADS  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
# Set-up probes: one untimed probe warms the bytecode and file caches (users
# pay those once per install, not per run), then SETUP_PROBES timed ones.
# Every repetition's worker gives one more sample, so they span the run.
SETUP_PROBES = 3
# A run must end within 180 s; workers still going at this point are killed.
DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)

PER_LAYER = (
    ("tensor_core.s", "s"),
    ("tensor_core.spectral_norm.calls", "count"),
    ("tensor_core.spectral_norm.s", "s"),
    ("tensor_core.expm.calls", "count"),
    ("tensor_core.expm.s", "s"),
    ("applications.exact.calls", "count"),
    ("applications.exact.s", "s"),
    ("applications.build.s", "s"),
    ("applications.build.self_s", "s"),
    ("block_encodings.compile.s", "s"),
    ("block_encodings.nodes", "count"),
    ("product_formulas.s", "s"),
    ("product_formulas.primitive_init.calls", "count"),
    ("product_formulas.primitive_init.s", "s"),
    ("product_formulas.primitive_unitary.calls", "count"),
    ("product_formulas.primitive_unitary.s", "s"),
    ("product_formulas.primitive_unitary.computed_gflop", "GFLOP"),
    ("product_formulas.eval.calls", "count"),
    ("product_formulas.eval.misses", "count"),
    ("product_formulas.eval.hit_ratio", "ratio"),
    ("product_formulas.eval.self_s", "s"),
    ("product_formulas.memo.bytes", "B"),
    ("product_formulas.timeslice.calls", "count"),
    ("product_formulas.timeslice.s", "s"),
    ("bench.artifacts.s", "s"),
    ("bench.artifacts.bytes", "B"),
    ("bench.warnings", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)


def spawn(workload: str, seed: int, out_dir: Path | None, trace: bool = False,
          cutoff: int | None = None, spans: Path | None = None,
          setup_only: bool = False, timeout: float = DEADLINE_S) -> tuple[float | None, dict | None, str]:
    """Run one worker; return (set-up seconds, its JSON result, its stderr).
    A worker still running after `timeout` seconds is killed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if out_dir is not None:
        cmd += ["--out", str(out_dir)]
    if trace:
        cmd.append("--trace")
    if cutoff is not None:
        cmd += ["--cutoff", str(cutoff)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=BUILD_DIR) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT)
        watchdog = threading.Timer(max(1.0, timeout), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline().strip() == "ready"
            setup_s = time.perf_counter() - started if ready else None
            rest = proc.stdout.read()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    result = None
    lines = rest.strip().splitlines()
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return setup_s, result, stderr


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    trace = rep["trace"]
    names, layers = trace["summary"]["names"], trace["summary"]["layers"]

    def get(span: str, key: str):
        return names.get(span, {}).get(key, 0)

    evals = get("product_formulas.eval", "calls")
    misses = get("product_formulas.eval", "parent_calls")
    unitary_dims = trace["dims"].get("product_formulas.primitive_unitary", {})
    out = {
        "tensor_core.s": layers.get("tensor_core", 0.0),
        "product_formulas.s": layers.get("product_formulas", 0.0),
        "applications.build.self_s": get("applications.build", "self_s"),
        "block_encodings.nodes": get("block_encodings.compile", "calls"),
        "product_formulas.eval.misses": misses,
        "product_formulas.eval.hit_ratio": (evals - misses) / evals if evals else 0.0,
        "product_formulas.eval.self_s": get("product_formulas.eval", "self_s"),
        # computed, not measured: 8 n^3 real flops per dense complex matmul
        "product_formulas.primitive_unitary.computed_gflop":
            sum(8 * int(n) ** 3 * c for n, c in unitary_dims.items()) / 1e9,
        "product_formulas.memo.bytes": trace["memo_bytes"],
        "bench.artifacts.bytes": trace["artifact_bytes"],
        "bench.warnings": rep["warnings"],
        "trace.spans": trace["summary"]["spans"],
    }
    for metric, _ in PER_LAYER:
        for suffix, key in ((".calls", "calls"), (".s", "outer_s")):
            if metric not in out and metric.endswith(suffix):
                out[metric] = get(metric[: -len(suffix)], key)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            cutoff: int | None = None, reference: dict | None = None) -> dict:
    """Run repetitions for `seconds` and aggregate them into one result."""
    deadline = time.perf_counter() + DEADLINE_S

    def remaining() -> float:
        return deadline - time.perf_counter()

    if reference is None:
        reference = load_reference(workload)
    points = len(reference["times"])
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BUILD_DIR))
    setups, reps, problems = [], [], []
    attempted = failed = 0

    def probe(timed: bool = True) -> None:
        setup_s, _, stderr = spawn(workload, seed, None, setup_only=True, timeout=remaining())
        if setup_s is None:
            raise RuntimeError(f"set-up probe failed:\n{stderr}")
        if timed:
            setups.append(setup_s)

    try:
        if not trace:
            probe(timed=False)
            for _ in range(SETUP_PROBES):
                probe()
        started = time.perf_counter()
        while True:
            traced = trace and len(reps) % 2 == 1
            out_dir = tmp / f"rep{len(reps)}"
            spans = BUILD_DIR / f"spans-{workload}.csv" if traced else None
            setup_s, result, stderr = spawn(workload, seed, out_dir, traced, cutoff, spans,
                                            timeout=remaining())
            if result is None:
                attempted += points
                failed += points
                problems.append(f"rep {len(reps)} crashed: {stderr.strip()[-2000:]}")
            else:
                n, bad, why = check_artifacts(out_dir, result, seed, reference)
                attempted += n
                failed += bad
                problems += [f"rep {len(reps)}: {w}" for w in why]
                if result.get("error"):
                    problems.append(stderr.strip()[-2000:])
                if setup_s is not None:
                    setups.append(setup_s)
                result["traced"] = traced
            reps.append(result)
            shutil.rmtree(out_dir, ignore_errors=True)
            # Another repetition starts only if one of the mean length so
            # far still ends within `seconds`, so runs do not overshoot.
            elapsed = time.perf_counter() - started
            if len(reps) >= 2 and elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    done = [r for r in reps if r is not None and not r["error"]]
    untraced = [r for r in done if not r["traced"]]
    traced_reps = [r for r in done if r["traced"]]
    if not untraced or (trace and not traced_reps):
        raise RuntimeError("no repetition completed:\n" + "\n".join(problems))

    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "repetitions": len(reps),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "environment": {**untraced[0]["environment"], "git_commit": git_commit(ROOT)},
        "samples": {
            "wall_s": [r["wall_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "setup_s": setups,
        },
    }
    if not trace:
        values = {
            "wall_s": _median(result["samples"]["wall_s"]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median(result["samples"]["peak_rss_mb"]),
            "pass_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    else:
        per_rep = [layer_metrics(r) for r in traced_reps]
        values = {k: _median([m[k] for m in per_rep]) for k in per_rep[0]}
        values["trace.wall_s"] = _median([r["wall_s"] for r in traced_reps])
        values["trace.untraced_wall_s"] = _median(result["samples"]["wall_s"])
        values["trace.overhead_frac"] = values["trace.wall_s"] / values["trace.untraced_wall_s"] - 1.0
        result["traced_wall_s"] = [r["wall_s"] for r in traced_reps]
        result["restored"] = all(r["trace"]["patched"] > 0 and not r["trace"]["leftover"] for r in traced_reps)
        if not result["restored"]:
            problems.append("tracing wrappers were not all restored")
        # computed from argument shapes, not measured
        result["computed_dims"] = traced_reps[-1]["trace"]["dims"]
        units = PER_LAYER
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units}
    result["correct"] = failed == 0 and not problems
    return result


def _print_human(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"repetitions {result['repetitions']}")
    for name, metric in result["metrics"].items():
        samples = result["samples"].get(name)
        extra = ""
        if samples:
            extra = f"  (median of {len(samples)}; min {min(samples):.6g}, max {max(samples):.6g})"
        print(f"  {name:<52} {metric['value']:.6g} {metric['unit']}{extra}")
    print(f"  {'failed_frac':<52} {result['failed'] / result['attempted']:.6g} ratio  "
          f"({result['failed']} of {result['attempted']} grid points)")
    if result["trace"]:
        print(f"  traced wall_s {result['traced_wall_s']}  untraced wall_s {result['samples']['wall_s']}")
        print(f"  computed per-call matrix dims: {json.dumps(result['computed_dims'])}")
        print(f"  wrappers restored: {result['restored']}")
    for problem in result["problems"][:20]:
        print(f"  problem: {problem}")
    print("environment " + json.dumps(result["environment"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the `finally` blocks that kill and reap the
    # running worker and remove its artifacts.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    needed = [ROOT / "src" / "bosonsynth" / "bench.py", WORKLOADS[args.workload].config_path,
              REFERENCE_DIR / f"{args.workload}.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from the root of a bosonsynth checkout; missing {missing}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = BUILD_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    _print_human(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
