"""Experiment runner: sweeps synthesized gate families over timestep grids
and emits plot-ready CSV/JSON artifacts with gate-count ledgers.

Configs are YAML files with nested sections (grid, orders, physical, fit,
output); see `configs/` for the shipped examples. Reports carry per-timestep
operator-norm and autocorrelation errors, the gate-count ledger, a power-law
fit of the error curve, and the applicable closed-form cost ceiling.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .applications import (
    ApplicationSpec,
    arb_power_count_bound,
    conditional_beam_splitter,
    conditional_rotation_phase_space,
    cross_kerr_gate,
    nonlinear_hamiltonian,
    state_prep_T,
)
from .product_formulas import fit_power_law, sliced, suzuki_index, timeslice
from .tensor_core import TOL, ResourceExhaustedError, spectral_norm

__all__ = [
    "UsageError",
    "ResourceExhaustedError",
    "ExperimentConfig",
    "SynthesisReport",
    "SweepCell",
    "load_config",
    "run",
    "run_sweep",
    "list_applications",
    "describe",
    "emit_csv",
    "emit_json",
    "emit_heatmap",
    "report_from_json",
]


class UsageError(ValueError):
    """Invalid configuration or command-line input (exit code 2)."""


_TOP_KEYS = {"application", "cutoff", "physical", "grid", "orders", "slices", "fit", "output"}
_GRID_KEYS = {"min", "max", "points", "log_spaced"}
_ORDER_KEYS = {"bch", "symmetrized", "base"}
_FIT_KEYS = {"residual_cap"}
_OUTPUT_KEYS = {"csv", "json"}


@dataclass
class ExperimentConfig:
    """One experiment: an application, a timestep grid, and formula orders."""

    application: str
    cutoff: int = 8
    physical: dict = field(default_factory=dict)
    t_min: float = 1e-3
    t_max: float = 1e-1
    points: int = 12
    log_spaced: bool = True
    bch_order: int = 1
    symmetrized: bool = False
    base: str | None = None
    slices: int | str = 1
    residual_cap: float = 0.1
    out_csv: str | None = None
    out_json: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.application not in _REGISTRY:
            known = ", ".join(_REGISTRY)
            raise UsageError(f"unknown application {self.application!r} (known: {known})")
        if self.cutoff < 1:
            raise UsageError("cutoff must be >= 1")
        if self.points < 4:
            raise UsageError(f"grid needs at least 4 points for fits, got {self.points}")
        if not (0.0 < self.t_min < self.t_max):
            raise UsageError(f"grid needs 0 < min < max, got [{self.t_min}, {self.t_max}]")
        if self.bch_order < 1:
            raise UsageError("formula orders must be >= 1")
        if self.base not in (None, "lean", "split"):
            raise UsageError(f"base must be 'lean' or 'split', got {self.base!r}")
        if isinstance(self.slices, str):
            if self.slices != "auto":
                raise UsageError(f"slices must be a positive integer or 'auto', got {self.slices!r}")
        elif not isinstance(self.slices, int) or self.slices < 1:
            raise UsageError(f"slices must be a positive integer or 'auto', got {self.slices!r}")
        if not self.residual_cap > 0:
            raise UsageError("residual_cap must be positive")
        for key, value in self.physical.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise UsageError(f"physical parameter {key!r} must be a finite number")
        if self.slices == "auto" and not 0.0 < self.physical.get("delta", 0.1) <= 1.0:
            raise UsageError("slices: auto needs 0 < physical.delta <= 1")

    def grid(self) -> np.ndarray:
        if self.log_spaced:
            return np.geomspace(self.t_min, self.t_max, self.points)
        return np.linspace(self.t_min, self.t_max, self.points)

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ExperimentConfig":
        if not isinstance(data, Mapping):
            raise UsageError("config root must be a mapping")
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if "application" not in data:
            raise UsageError("config must name an application")

        def section(name: str, allowed: set) -> Mapping:
            sub = data.get(name) or {}
            if not isinstance(sub, Mapping):
                raise UsageError(f"config section {name!r} must be a mapping")
            bad = set(sub) - allowed
            if bad:
                raise UsageError(f"unknown keys in section {name!r}: {sorted(bad)}")
            return sub

        grid = section("grid", _GRID_KEYS)
        orders = section("orders", _ORDER_KEYS)
        fit = section("fit", _FIT_KEYS)
        output = section("output", _OUTPUT_KEYS)
        physical = section("physical", set(data.get("physical") or {}))
        return cls(
            application=str(data["application"]),
            cutoff=int(data.get("cutoff", 8)),
            physical={str(k): float(v) for k, v in physical.items()},
            t_min=float(grid.get("min", 1e-3)),
            t_max=float(grid.get("max", 1e-1)),
            points=int(grid.get("points", 12)),
            log_spaced=bool(grid.get("log_spaced", True)),
            bch_order=int(orders.get("bch", 1)),
            symmetrized=bool(orders.get("symmetrized", False)),
            base=orders.get("base"),
            slices=data.get("slices", 1),
            residual_cap=float(fit.get("residual_cap", 0.1)),
            out_csv=output.get("csv"),
            out_json=output.get("json"),
        )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise UsageError(f"cannot parse config {path}: {exc}") from exc
    return ExperimentConfig.from_mapping(data)


# ---------------------------------------------------------------------------
# Application registry

@dataclass(frozen=True)
class _AppEntry:
    brief: str
    params: str
    build: Callable[[ExperimentConfig], ApplicationSpec]
    bound: Callable[[ExperimentConfig], float]
    modes: int
    detail: str = ""


def _trotter_reps(p: int) -> int:
    return 2 * 5 ** (suzuki_index(p) - 1)


def _build_conditional_rotation(cfg: ExperimentConfig) -> ApplicationSpec:
    return conditional_rotation_phase_space(p=cfg.bch_order, cutoff=cfg.cutoff, base=cfg.base)


def _bound_conditional_rotation(cfg: ExperimentConfig) -> float:
    p = cfg.bch_order
    return _trotter_reps(p) * (16.0 * 6.0 ** (p - 1) + 1.0)


def _build_state_prep(cfg: ExperimentConfig) -> ApplicationSpec:
    k = int(cfg.physical.get("k", 2))
    return state_prep_T(
        k, p=cfg.bch_order, cutoff=cfg.cutoff, base=cfg.base, symmetrized=cfg.symmetrized
    )


def _bound_state_prep(cfg: ExperimentConfig) -> float:
    k = int(cfg.physical.get("k", 2))
    p = cfg.bch_order
    if k & (k - 1) == 0:
        return 6.0 ** math.log2(k) * 420.0 ** (k * p / 2.0)
    return arb_power_count_bound(k, p)


def _build_hom(cfg: ExperimentConfig) -> ApplicationSpec:
    return conditional_beam_splitter(
        p=cfg.bch_order, cutoff=cfg.cutoff, base=cfg.base or "lean", symmetrized=cfg.symmetrized
    )


def _bound_hom(cfg: ExperimentConfig) -> float:
    p = cfg.bch_order
    return 2.0 * _trotter_reps(p) * 8.0 * 6.0 ** (p - 1)


def _build_nonlinear(cfg: ExperimentConfig) -> ApplicationSpec:
    omega = float(cfg.physical.get("omega", 1.0))
    kappa = float(cfg.physical.get("kappa", 1.0))
    return nonlinear_hamiltonian(
        omega, kappa, q=cfg.bch_order, cutoff=cfg.cutoff, base=cfg.base or "lean"
    )


def _bound_nonlinear(cfg: ExperimentConfig) -> float:
    q = cfg.bch_order
    return 2.0 * suzuki_index(q) * 16.0 * 6.0 ** (2 * q - 1) * (1.0 + 6.0 * 420.0 ** (2 * q))


def _build_fswap(cfg: ExperimentConfig) -> ApplicationSpec:
    return cross_kerr_gate(p=cfg.bch_order, cutoff=cfg.cutoff, base=cfg.base or "lean")


def _bound_fswap(cfg: ExperimentConfig) -> float:
    return 8.0 * 6.0 ** (cfg.bch_order - 1)


_REGISTRY: dict[str, _AppEntry] = {
    "conditional-rotation": _AppEntry(
        brief="qubit-conditioned rotation exp(it(x^2+p^2-1/2)sz) from quadrature squares",
        params="cutoff; orders.bch (commutator order p); orders.base",
        build=_build_conditional_rotation,
        bound=_bound_conditional_rotation,
        modes=1,
        detail=(
            "Trotterized sum of two commutator-synthesized squares plus one exact\n"
            "phase.  Exact-gate autocorrelation from |g,2> follows cos(2t).  Cost\n"
            "ceiling per step: 2*5^(s-1)*(16*6^(p-1)+1) with s = ceil(p/2-1/4)."
        ),
    ),
    "state-prep-T": _AppEntry(
        brief="k-photon ladder gate exp(it(a^k + a^dag k)) for Fock-state preparation",
        params="physical.k (photon number); cutoff; orders.bch; orders.base; orders.symmetrized",
        build=_build_state_prep,
        bound=_bound_state_prep,
        modes=1,
        detail=(
            "Powers of the seed encoding assembled by repeated squaring.  Driving\n"
            "|1,0> for the exact flip time t = (2n+1)*pi/(2*sqrt(k!)) lands the\n"
            "full population on |0,k>; the error-protected variant flips at\n"
            "t = pi/(4*sqrt(k!)).  Runs also emit a <csv-stem>_heatmap.csv with\n"
            "exact and synthesized matrix moduli at the flip time.  Cost ceiling:\n"
            "6^(log2 k)*420^(k p/2) for k a power of two."
        ),
    ),
    "hom-beam-splitter": _AppEntry(
        brief="conditional 50:50 beam splitter exp(-it sz (a1 a2^dag + a1^dag a2))",
        params="cutoff (per mode); orders.bch; orders.base; orders.symmetrized",
        build=_build_hom,
        bound=_bound_hom,
        modes=2,
        detail=(
            "Commutator synthesis from two conditional quadrature couplings.  From\n"
            "|g,1,1> the exact gate shows the two-photon interference dip: the\n"
            "both-modes-singly-occupied probability vanishes at accumulated angle\n"
            "2*theta = pi/2.  Cost ceiling per step: 2*reps*8*6^(p-1)."
        ),
    ),
    "nonlinear-hamiltonian": _AppEntry(
        brief="Kerr oscillator exp(it(w n + (K/2) n(n-1))) on the qubit-0 block",
        params="physical.omega, physical.kappa; cutoff; orders.bch (q); orders.base",
        build=_build_nonlinear,
        bound=_bound_nonlinear,
        modes=1,
        detail=(
            "Number operator and its square assembled from ladder products, then\n"
            "Trotterized.  The qubit must start in |0>.  slices: auto picks the\n"
            "slice count that meets physical.delta (default 0.1) at the top of\n"
            "the grid."
        ),
    ),
    "fswap": _AppEntry(
        brief="fermionic SWAP: beam splitter, linear phases, and a cross-Kerr at pi",
        params="cutoff (per mode); orders.bch; orders.base",
        build=_build_fswap,
        bound=_bound_fswap,
        modes=2,
        detail=(
            "The swap with a -1 phase on doubly occupied pairs factors into exact\n"
            "linear optics times exp(i pi n1 n2).  The sweep benchmarks the cross-\n"
            "Kerr factor, the only synthesized piece; the grid parameter is the\n"
            "Kerr angle."
        ),
    ),
}


def list_applications() -> str:
    width = max(len(name) for name in _REGISTRY)
    return "\n".join(f"{name:<{width}}  {entry.brief}" for name, entry in _REGISTRY.items())


def describe(application: str) -> str:
    entry = _REGISTRY.get(application)
    if entry is None:
        known = ", ".join(_REGISTRY)
        raise UsageError(f"unknown application {application!r} (known: {known})")
    return f"{application}: {entry.brief}\n\nparameters: {entry.params}\n\n{entry.detail}"


# ---------------------------------------------------------------------------
# Reports

@dataclass
class SynthesisReport:
    """Everything a run produces: errors, counts, fit and bound."""

    config: ExperimentConfig
    times: list
    op_norm_error: list
    autocorr_error: list | None
    slices: int
    gate_count_step: int
    gate_count_total: int
    gate_counts: dict
    exponent: float | None
    prefactor: float | None
    residual: float | None
    exponent_reliable: bool
    bound: float
    within_bound: bool

    def __post_init__(self):
        if len(self.op_norm_error) != len(self.times):
            raise ValueError("error array not aligned with grid")
        if self.autocorr_error is not None and len(self.autocorr_error) != len(self.times):
            raise ValueError("autocorrelation array not aligned with grid")
        for arr in (self.times, self.op_norm_error, self.autocorr_error or []):
            if any(not math.isfinite(v) for v in arr):
                raise ValueError("non-finite value in report arrays")


@dataclass
class SweepCell:
    """One (order, base) row group of an order-by-timestep sweep."""

    order: int
    base: str
    times: list
    op_norm_error: list
    gate_count_step: int
    slices: int
    exponent: float | None
    prefactor: float | None
    residual: float | None
    exponent_reliable: bool
    bound: float
    within_bound: bool


def _resolve_slices(cfg: ExperimentConfig, spec: ApplicationSpec) -> int:
    if cfg.slices == "auto":
        delta = float(cfg.physical.get("delta", 0.1))
        result = timeslice(spec.synthesis, spec.exact, cfg.t_max, delta, cfg.bch_order + 0.5)
        return result.slices
    return int(cfg.slices)


def _grid_errors(spec: ApplicationSpec, family, grid: np.ndarray, threads: int):
    psi0 = spec.initial_state

    def one(t: float):
        approx = family.eval(t).mat
        exact = spec.exact(t).mat
        op_err = spectral_norm(approx - exact)
        ac_err = None
        if psi0 is not None:
            ac_err = abs(
                float(np.real(np.vdot(psi0, approx @ psi0)))
                - float(np.real(np.vdot(psi0, exact @ psi0)))
            )
        return op_err, ac_err

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, grid))
    else:
        results = [one(t) for t in grid]
    op_errs = [r[0] for r in results]
    ac_errs = None if psi0 is None else [r[1] for r in results]
    return op_errs, ac_errs


def _fit_or_none(times, errs, cap: float):
    try:
        fit = fit_power_law(times, errs)
    except ValueError:
        return None, None, None, False
    reliable = fit.residual < cap
    if not reliable:
        return None, None, fit.residual, False
    return fit.exponent, fit.prefactor, fit.residual, True


def _check_limits(
    entry: _AppEntry, config: ExperimentConfig, threads: int, dim_cap: int
) -> None:
    """Refuse a run before any work: bad thread counts exit 2, dimensions
    over the cap exit 3."""
    if threads < 1:
        raise UsageError("threads must be >= 1")
    dim = 2 * (config.cutoff + 1) ** entry.modes
    if dim > dim_cap:
        raise ResourceExhaustedError(f"dimension {dim} exceeds cap {dim_cap}")


def run(
    config: ExperimentConfig,
    out_dir: str | Path = ".",
    threads: int = 1,
    dim_cap: int = TOL.dim_cap,
) -> SynthesisReport:
    """Evaluate one config over its grid and write the CSV/JSON artifacts."""
    entry = _REGISTRY[config.application]
    _check_limits(entry, config, threads, dim_cap)
    spec = entry.build(config)

    slices = _resolve_slices(config, spec)
    family = sliced(spec.synthesis, slices)
    grid = config.grid()
    op_errs, ac_errs = _grid_errors(spec, family, grid, threads)
    exponent, prefactor, residual, reliable = _fit_or_none(grid, op_errs, config.residual_cap)

    step_cost = spec.synthesis.cost()
    bound = entry.bound(config)
    report = SynthesisReport(
        config=config,
        times=[float(t) for t in grid],
        op_norm_error=op_errs,
        autocorr_error=ac_errs,
        slices=slices,
        gate_count_step=step_cost,
        gate_count_total=step_cost * slices,
        gate_counts={k: v * slices for k, v in sorted(spec.synthesis.cost_counter.items())},
        exponent=exponent,
        prefactor=prefactor,
        residual=residual,
        exponent_reliable=reliable,
        bound=bound,
        within_bound=step_cost <= bound,
    )

    out_dir = Path(out_dir)
    csv_path = out_dir / (config.out_csv or f"{config.application}.csv")
    json_path = out_dir / (config.out_json or f"{config.application}.json")
    emit_csv(report, csv_path)
    emit_json(report, json_path)
    if config.application == "state-prep-T":
        heat_path = csv_path.with_name(csv_path.stem + "_heatmap.csv")
        emit_heatmap(spec, float(spec.time), heat_path)
    return report


def run_sweep(
    config: ExperimentConfig,
    out_dir: str | Path = ".",
    threads: int = 1,
    dim_cap: int = TOL.dim_cap,
) -> list:
    """Order-by-timestep matrix: orders 1..bch with both commutator bases."""
    entry = _REGISTRY[config.application]
    _check_limits(entry, config, threads, dim_cap)
    grid = config.grid()
    cells = []
    for order in range(1, config.bch_order + 1):
        for base in ("lean", "split"):
            cell_cfg = dataclasses.replace(config, bch_order=order, base=base)
            spec = entry.build(cell_cfg)
            slices = _resolve_slices(cell_cfg, spec)
            family = sliced(spec.synthesis, slices)
            op_errs, _ = _grid_errors(spec, family, grid, threads)
            exponent, prefactor, residual, reliable = _fit_or_none(
                grid, op_errs, config.residual_cap
            )
            step_cost = spec.synthesis.cost()
            bound = entry.bound(cell_cfg)
            cells.append(
                SweepCell(
                    order=order,
                    base=base,
                    times=[float(t) for t in grid],
                    op_norm_error=op_errs,
                    gate_count_step=step_cost,
                    slices=slices,
                    exponent=exponent,
                    prefactor=prefactor,
                    residual=residual,
                    exponent_reliable=reliable,
                    bound=bound,
                    within_bound=step_cost <= bound,
                )
            )

    out_dir = Path(out_dir)
    csv_path = out_dir / (config.out_csv or f"{config.application}-sweep.csv")
    json_path = out_dir / (config.out_json or f"{config.application}-sweep.json")
    lines = ["order,base,t,op_norm_error,gate_count,slices"]
    for cell in cells:
        for t, err in zip(cell.times, cell.op_norm_error):
            lines.append(
                f"{cell.order},{cell.base},{t:.17g},{err:.17g},"
                f"{cell.gate_count_step * cell.slices},{cell.slices}"
            )
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    _atomic_write(json_path, _dump_json([_cell_jsonable(c) for c in cells]) + "\n")
    return cells


# ---------------------------------------------------------------------------
# Serialization

def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("refusing to serialize a non-finite value")
        return f"{value:.17g}"
    return str(value)


def emit_csv(report: SynthesisReport, path: str | Path) -> None:
    lines = ["t,op_norm_error,autocorr_error,gate_count,slices"]
    for i, t in enumerate(report.times):
        ac = report.autocorr_error[i] if report.autocorr_error is not None else None
        lines.append(
            f"{_fmt(t)},{_fmt(report.op_norm_error[i])},{_fmt(ac)},"
            f"{report.gate_count_total},{report.slices}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def emit_heatmap(spec: ApplicationSpec, t: float, path: str | Path) -> None:
    exact = spec.exact(t).mat
    synth = spec.synthesized(t).mat
    lines = ["row,col,exact_modulus,synth_modulus"]
    for i in range(exact.shape[0]):
        for j in range(exact.shape[1]):
            lines.append(f"{i},{j},{_fmt(abs(exact[i, j]))},{_fmt(abs(synth[i, j]))}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_value(value, indent: int) -> str:
    pad = " " * indent
    if value is None or isinstance(value, (bool, int, float, str)):
        if isinstance(value, bool):
            return "true" if value else "false"
        if value is None:
            return "null"
        if isinstance(value, float):
            return _fmt(value)
        if isinstance(value, str):
            return json.dumps(value)
        return str(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_json_value(v, indent + 2)}" for v in value)
        return f"[\n{inner}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json_value(v, indent + 2)}" for k, v in value.items()
        )
        return f"{{\n{inner}\n{pad}}}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _dump_json(obj) -> str:
    return _json_value(obj, 0)


def _config_jsonable(cfg: ExperimentConfig) -> dict:
    return {
        "application": cfg.application,
        "cutoff": cfg.cutoff,
        "physical": dict(sorted(cfg.physical.items())),
        "grid": {
            "min": cfg.t_min,
            "max": cfg.t_max,
            "points": cfg.points,
            "log_spaced": cfg.log_spaced,
        },
        "orders": {
            "bch": cfg.bch_order,
            "symmetrized": cfg.symmetrized,
            "base": cfg.base,
        },
        "slices": cfg.slices,
        "fit": {"residual_cap": cfg.residual_cap},
        "output": {"csv": cfg.out_csv, "json": cfg.out_json},
    }


def _report_jsonable(report: SynthesisReport) -> dict:
    return {
        "config": _config_jsonable(report.config),
        "times": report.times,
        "op_norm_error": report.op_norm_error,
        "autocorr_error": report.autocorr_error,
        "slices": report.slices,
        "gate_count_step": report.gate_count_step,
        "gate_count_total": report.gate_count_total,
        "gate_counts": report.gate_counts,
        "exponent": report.exponent,
        "prefactor": report.prefactor,
        "residual": report.residual,
        "exponent_reliable": report.exponent_reliable,
        "bound": report.bound,
        "within_bound": report.within_bound,
    }


def _cell_jsonable(cell: SweepCell) -> dict:
    return {
        "order": cell.order,
        "base": cell.base,
        "times": cell.times,
        "op_norm_error": cell.op_norm_error,
        "gate_count_step": cell.gate_count_step,
        "slices": cell.slices,
        "exponent": cell.exponent,
        "prefactor": cell.prefactor,
        "residual": cell.residual,
        "exponent_reliable": cell.exponent_reliable,
        "bound": cell.bound,
        "within_bound": cell.within_bound,
    }


def emit_json(report: SynthesisReport, path: str | Path) -> None:
    _atomic_write(path, _dump_json(_report_jsonable(report)) + "\n")


def report_from_json(path: str | Path) -> SynthesisReport:
    with open(path) as fh:
        data = json.load(fh)
    cfg_data = data["config"]
    config = ExperimentConfig(
        application=cfg_data["application"],
        cutoff=cfg_data["cutoff"],
        physical=cfg_data["physical"],
        t_min=cfg_data["grid"]["min"],
        t_max=cfg_data["grid"]["max"],
        points=cfg_data["grid"]["points"],
        log_spaced=cfg_data["grid"]["log_spaced"],
        bch_order=cfg_data["orders"]["bch"],
        symmetrized=cfg_data["orders"]["symmetrized"],
        base=cfg_data["orders"]["base"],
        slices=cfg_data["slices"],
        residual_cap=cfg_data["fit"]["residual_cap"],
        out_csv=cfg_data["output"]["csv"],
        out_json=cfg_data["output"]["json"],
    )
    return SynthesisReport(
        config=config,
        times=data["times"],
        op_norm_error=data["op_norm_error"],
        autocorr_error=data["autocorr_error"],
        slices=data["slices"],
        gate_count_step=data["gate_count_step"],
        gate_count_total=data["gate_count_total"],
        gate_counts=data["gate_counts"],
        exponent=data["exponent"],
        prefactor=data["prefactor"],
        residual=data["residual"],
        exponent_reliable=data["exponent_reliable"],
        bound=data["bound"],
        within_bound=data["within_bound"],
    )
