"""Regenerate reference/<workload>.json from a default-seed run.

    python3 perfbench/make_reference.py [workload ...]

The reference holds the grid, both error columns and the gate-count ledger
of one run at DEFAULT_SEED. Regenerate it only when a change is meant to
alter those results, and say so in the change.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import reference_from_artifacts  # noqa: E402
from run import BUILD_DIR, spawn  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS  # noqa: E402


def main(names) -> int:
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
            _, result, stderr = spawn(name, DEFAULT_SEED, Path(tmp))
            if result is None or result["error"]:
                print(f"{name}: run failed\n{stderr}", file=sys.stderr)
                return 1
            ref = reference_from_artifacts(Path(tmp) / result["config"]["json"], DEFAULT_SEED)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps({"workload": name, **ref}, indent=1) + "\n")
        print(f"{name}: wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
