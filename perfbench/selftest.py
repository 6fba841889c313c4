"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at cutoff 2, against a reference taken from a
first tiny run, and asserts that
  1. every metric BENCHMARK.json names is emitted, with its unit, by the
     untraced (end-to-end) and the traced (per-layer) mode;
  2. a corrupted artifact drives failed_frac above 0: one wrong error value
     fails its grid point, a wrong ledger fails them all;
  3. the tracing wrappers are gone afterwards, both in the traced worker and
     when the tracer is installed and removed in this process.
Exits 0 when all hold.
"""

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_artifacts, reference_from_artifacts  # noqa: E402
from run import BUILD_DIR, measure, spawn  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

# Small enough that every workload runs in a second or two.
TINY_CUTOFF = 2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect_metrics(result: dict, section: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{section}: emitted {got}, BENCHMARK.json names {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{name} has no numeric value"


def corrupt_csv_value(path: Path) -> None:
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) * 1.5)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def corrupt_ledger(path: Path) -> None:
    report = json.loads(path.read_text())
    label = sorted(report["gate_counts"])[0]
    report["gate_counts"][label] += 1
    path.write_text(json.dumps(report))


def check_workload(name: str, tmp: Path) -> None:
    cutoff = TINY_CUTOFF
    _, first, stderr = spawn(name, 0, tmp / "ref", cutoff=cutoff)
    assert first and not first["error"], f"reference run failed: {first} {stderr}"
    reference = reference_from_artifacts(tmp / "ref" / first["config"]["json"], 0)

    plain = measure(name, 0, 0, trace=False, cutoff=cutoff, reference=reference)
    expect_metrics(plain, "end_to_end")
    assert plain["correct"] and plain["failed"] == 0, plain["problems"]

    other_seed = measure(name, 7, 0, trace=False, cutoff=cutoff, reference=reference)
    assert other_seed["correct"], other_seed["problems"]

    traced = measure(name, 0, 0, trace=True, cutoff=cutoff, reference=reference)
    expect_metrics(traced, "per_layer")
    assert traced["correct"], traced["problems"]
    assert traced["restored"], "traced worker left wrappers installed"

    _, rep, stderr = spawn(name, 0, tmp / "rep", cutoff=cutoff)
    assert rep and not rep["error"], stderr
    csv_path = tmp / "rep" / rep["config"]["csv"]
    json_path = tmp / "rep" / rep["config"]["json"]
    assert check_artifacts(tmp / "rep", rep, 0, reference)[1] == 0
    saved = csv_path.read_text()
    corrupt_csv_value(csv_path)
    attempted, failed, _ = check_artifacts(tmp / "rep", rep, 0, reference)
    assert 0 < failed < attempted, f"corrupted error value: failed_frac {failed}/{attempted}"
    csv_path.write_text(saved)
    corrupt_ledger(json_path)
    attempted, failed, _ = check_artifacts(tmp / "rep", rep, 0, reference)
    assert failed == attempted, f"corrupted ledger: failed_frac {failed}/{attempted}"
    print(f"{name}: ok (cutoff {cutoff}; wall_s {plain['metrics']['wall_s']['value']:.3f} s)")


def snapshot(tracing) -> dict:
    """Every module attribute and class member of the package, by name."""
    names = {}
    for mod in tracing.package_modules():
        for attr, value in vars(mod).items():
            names[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for member, fn in vars(value).items():
                    names[(mod.__name__, attr, member)] = fn
    return names


def check_in_process_restore(tmp: Path) -> None:
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    from bosonsynth import bench

    before = snapshot(tracing)
    t = tracing.Tracer()
    t.install()
    assert tracing.leftover_wrappers(), "install patched nothing"
    config = dataclasses.replace(
        bench.load_config(WORKLOADS["hom-450"].config_path), cutoff=TINY_CUTOFF, points=4
    )
    t.run(bench.run, config, out_dir=tmp / "inproc", threads=1)
    t.uninstall()
    assert tracing.leftover_wrappers() == [], tracing.leftover_wrappers()
    after = snapshot(tracing)
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed, f"names not restored: {changed}"
    assert t.summary()["names"]["tensor_core.spectral_norm"]["calls"] == 4
    print("in-process install/uninstall: ok")


def main() -> int:
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=BUILD_DIR))
    try:
        for name in WORKLOADS:
            check_workload(name, tmp)
        check_in_process_restore(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
