"""Correctness check of one run's CSV/JSON artifacts.

A grid point fails when its CSV row is missing or malformed, disagrees with
the JSON report, carries a gate count or slice count off the ledger, or has
an error that is not finite or lies outside [0, 2] (two unitaries are at
most 2 apart in operator norm). Every point fails when the run raised or the
ledger differs from the reference. For the default seed each error must
also match the stored reference within REL_TOL.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import DEFAULT_SEED, REFERENCE_DIR, grid

# Accepts the exact-SVD norm where the runner now uses power iteration (at
# dim 578 it reads up to 2.2e-5 relative low), and nothing near a change of
# formula or order, which moves errors by factors.
REL_TOL = 1e-3
# Absolute floor for errors that sit at rounding level.
ABS_TOL = 1e-12

LEDGER_KEYS = ("slices", "gate_count_step", "gate_count_total", "gate_counts")


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def reference_from_artifacts(json_path: Path, seed: int) -> dict:
    """The stored subset of a run's JSON report."""
    data = json.loads(Path(json_path).read_text())
    keep = ("times", "op_norm_error", "autocorr_error") + LEDGER_KEYS
    return {"seed": seed, **{k: data[k] for k in keep}}


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref) + ABS_TOL


def _error_ok(value) -> bool:
    return value is not None and math.isfinite(value) and 0.0 <= value <= 2.0


def _cell(text: str):
    return None if text == "" else float(text)


def check_artifacts(out_dir: Path, run: dict, seed: int, reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for the artifacts one worker wrote.

    run is the worker's result: its config block names the files and the
    grid, its error field is set when bench.run raised.
    """
    cfg = run["config"]
    attempted = int(cfg["points"])
    expected_t = grid(cfg["t_min"], cfg["t_max"], attempted)
    if run.get("error"):
        return attempted, attempted, [f"run raised {run['error']}"]
    try:
        report = json.loads((Path(out_dir) / cfg["json"]).read_text())
        with open(Path(out_dir) / cfg["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, ValueError) as exc:
        return attempted, attempted, [f"unreadable artifacts: {exc}"]

    problems = []
    for key in LEDGER_KEYS:
        if report.get(key) != reference[key]:
            problems.append(f"ledger {key}: {report.get(key)!r} != {reference[key]!r}")
    if report.get("gate_count_total") != report.get("gate_count_step", 0) * report.get("slices", 0):
        problems.append("gate_count_total != gate_count_step * slices")
    if problems:
        return attempted, attempted, problems

    compare = seed == DEFAULT_SEED and reference.get("seed") == DEFAULT_SEED
    failed = 0
    for i in range(attempted):
        why = _point_problem(i, rows, report, expected_t[i], reference if compare else None)
        if why:
            failed += 1
            problems.append(f"point {i}: {why}")
    if len(rows) != attempted:
        problems.append(f"{len(rows)} CSV rows for {attempted} grid points")
    return attempted, failed, problems


def _point_problem(i: int, rows: list, report: dict, t: float, reference: dict | None) -> str | None:
    if i >= len(rows):
        return "missing CSV row"
    row = rows[i]
    try:
        t_csv, op, ac = _cell(row["t"]), _cell(row["op_norm_error"]), _cell(row["autocorr_error"])
        gates, slices = int(row["gate_count"]), int(row["slices"])
        op_json = report["op_norm_error"][i]
        ac_json = report["autocorr_error"][i] if report["autocorr_error"] is not None else None
        t_json = report["times"][i]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed row: {exc!r}"
    if gates != report["gate_count_total"] or slices != report["slices"]:
        return "gate count or slices off the ledger"
    if (t_csv, op, ac) != (t_json, op_json, ac_json):
        return "CSV and JSON disagree"
    if t_csv is None or abs(t_csv - t) > 1e-12 * t:
        return f"grid time {t_csv} != {t}"
    for name, value in (("op_norm_error", op), ("autocorr_error", ac)):
        ref_value = None
        if reference is not None and reference[name] is not None:
            ref_value = reference[name][i]
        if name == "autocorr_error" and value is None and ref_value is None:
            continue
        if not _error_ok(value):
            return f"{name} {value} not finite in [0, 2]"
        if reference is not None and (ref_value is None or not _close(value, ref_value)):
            return f"{name} {value!r} != reference {ref_value!r}"
    return None
