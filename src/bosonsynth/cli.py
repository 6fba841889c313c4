"""Command-line front end for the experiment runner."""

from __future__ import annotations

import argparse
import sys

from . import bench
from .bench import ResourceExhaustedError, UsageError
from .tensor_core import TOL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonsynth",
        description="Benchmark synthesized bosonic gates and emit CSV/JSON reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="path to a YAML experiment config")
        p.add_argument("--out-dir", default=".", help="directory for artifacts")
        p.add_argument("--threads", type=int, default=1, help="grid-point worker threads")
        p.add_argument(
            "--dim-cap",
            type=int,
            default=TOL.dim_cap,
            help="largest allowed Hilbert dimension (default %(default)s)",
        )

    add_shared(sub.add_parser("run", help="evaluate one config over its timestep grid"))
    add_shared(sub.add_parser("sweep", help="order-by-timestep matrix for one config"))
    sub.add_parser("list", help="list registered applications")
    describe_p = sub.add_parser("describe", help="show one application's parameters")
    describe_p.add_argument("application")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            print(bench.list_applications())
        elif args.command == "describe":
            print(bench.describe(args.application))
        elif args.command == "run":
            config = bench.load_config(args.config)
            report = bench.run(
                config, out_dir=args.out_dir, threads=args.threads, dim_cap=args.dim_cap
            )
            exponent = "unreliable" if report.exponent is None else f"{report.exponent:.3f}"
            print(f"{config.application}: {len(report.times)} points, slices {report.slices}")
            print(f"gates {report.gate_count_total} (bound {report.bound:.4g}, "
                  f"within {report.within_bound})")
            print(f"fitted exponent: {exponent}")
        elif args.command == "sweep":
            config = bench.load_config(args.config)
            cells = bench.run_sweep(
                config, out_dir=args.out_dir, threads=args.threads, dim_cap=args.dim_cap
            )
            for cell in cells:
                exponent = "unreliable" if cell.exponent is None else f"{cell.exponent:.3f}"
                print(f"order {cell.order} ({cell.base}): gates {cell.gate_count_step}, "
                      f"exponent {exponent}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
