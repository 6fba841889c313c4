"""Golden artifacts: the five fast shipped configs, and three inline configs
for runner paths no shipped config reaches, rerun against the files stored
in tests/golden/. The gate-count ledger must match exactly; errors,
times and matrix moduli must agree within 1e-12 absolute, so the check holds
on BLAS builds that differ in the last bits. Regenerate a file only when a
change to its numbers is intended, with `bosonsynth run`/`sweep` on the
config into tests/golden/ (an inline config written out as YAML first)."""
import csv
import json
import math
from pathlib import Path

import pytest

from bosonsynth.bench import load_config, run, run_sweep

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*well-conditioned range.*:RuntimeWarning"
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
ATOL = 1e-12

CONFIGS = {
    "conditional-rotation-dynamics": (
        run,
        ["conditional-rotation.csv", "conditional-rotation.json"],
    ),
    "hom-beam-splitter": (
        run,
        ["hom-beam-splitter.csv", "hom-beam-splitter.json"],
    ),
    "state-prep-t2": (
        run,
        ["state-prep-t2.csv", "state-prep-t2.json", "state-prep-t2_heatmap.csv"],
    ),
    "nonlinear-timeslice": (
        run,
        ["nonlinear-timeslice.csv", "nonlinear-timeslice.json"],
    ),
    "state-prep-ladder": (
        run_sweep,
        ["state-prep-ladder.csv", "state-prep-ladder.json"],
    ),
}

# Runner paths no shipped config reaches: a ladder power that is no power of
# two (arb_power), the symmetrized split base (the symmetrize inside add), and
# the cross-Kerr gate at a second commutator order. The CI smoke step runs
# the same three.
INLINE = {
    "state-prep-t3": (
        "application: state-prep-T\n"
        "cutoff: 6\n"
        "physical: {k: 3}\n"
        "grid: {min: 1.0e-3, max: 1.0e-1, points: 4}\n"
        "output: {csv: state-prep-t3.csv, json: state-prep-t3.json}\n",
        ["state-prep-t3.csv", "state-prep-t3.json", "state-prep-t3_heatmap.csv"],
    ),
    "state-prep-t4-symmetrized": (
        "application: state-prep-T\n"
        "cutoff: 6\n"
        "physical: {k: 4}\n"
        "grid: {min: 1.0e-3, max: 1.0e-1, points: 4}\n"
        "orders: {base: lean, symmetrized: true}\n"
        "output: {csv: state-prep-t4-symmetrized.csv, json: state-prep-t4-symmetrized.json}\n",
        [
            "state-prep-t4-symmetrized.csv",
            "state-prep-t4-symmetrized.json",
            "state-prep-t4-symmetrized_heatmap.csv",
        ],
    ),
    "fswap-bch2": (
        "application: fswap\n"
        "cutoff: 3\n"
        "grid: {min: 1.0e-3, max: 1.0e-1, points: 4}\n"
        "orders: {bch: 2}\n"
        "output: {csv: fswap-bch2.csv, json: fswap-bch2.json}\n",
        ["fswap-bch2.csv", "fswap-bch2.json"],
    ),
}

# CSV columns and JSON keys that must match exactly: the ledger and the keys
# that identify a row.
EXACT_COLUMNS = {"gate_count", "slices", "order", "base", "row", "col"}
EXACT_KEYS = {"config", "gate_counts", "gate_count_step", "gate_count_total", "slices",
              "order", "base", "exponent_reliable", "within_bound"}
# JSON values derived from a fit or a closed form, compared relatively.
DERIVED_KEYS = {"exponent", "prefactor", "residual", "bound"}


def _close(got: str, want: str) -> bool:
    if want == "" or got == "":
        return got == want
    return abs(float(got) - float(want)) <= ATOL


def _compare_csv(got: Path, want: Path) -> None:
    with open(got) as fg, open(want) as fw:
        rows_got, rows_want = list(csv.DictReader(fg)), list(csv.DictReader(fw))
    assert len(rows_got) == len(rows_want), got.name
    for i, (rg, rw) in enumerate(zip(rows_got, rows_want)):
        assert rg.keys() == rw.keys(), got.name
        for col, value in rw.items():
            ok = rg[col] == value if col in EXACT_COLUMNS else _close(rg[col], value)
            assert ok, f"{got.name} row {i} {col}: {rg[col]} != {value}"


def _compare_json(got, want, key: str = "") -> None:
    where = key or "top level"
    if key in EXACT_KEYS:
        assert got == want, where
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for k in want:
            _compare_json(got[k], want[k], k)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for g, w in zip(got, want):
            _compare_json(g, w, key)
    elif isinstance(want, float) and key in DERIVED_KEYS:
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=ATOL), f"{where}: {got} != {want}"
    elif isinstance(want, float):
        assert abs(got - want) <= ATOL, f"{where}: {got} != {want}"
    else:
        assert got == want, where


def _compare_dir(out: Path, names: list) -> None:
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    for name in names:
        if name.endswith(".csv"):
            _compare_csv(out / name, GOLDEN / name)
        else:
            _compare_json(
                json.loads((out / name).read_text()),
                json.loads((GOLDEN / name).read_text()),
            )


@pytest.mark.parametrize("stem", sorted(CONFIGS))
def test_rerun_matches_golden(stem, tmp_path):
    runner, names = CONFIGS[stem]
    runner(load_config(ROOT / "configs" / f"{stem}.yaml"), out_dir=tmp_path)
    _compare_dir(tmp_path, names)


@pytest.mark.parametrize("stem", sorted(INLINE))
def test_inline_config_matches_golden(stem, tmp_path):
    text, names = INLINE[stem]
    config = tmp_path / f"{stem}.yaml"
    config.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    run(load_config(config), out_dir=out)
    _compare_dir(out, names)
