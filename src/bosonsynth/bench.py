"""Experiment runner: sweeps synthesized gate families over timestep grids
and emits plot-ready CSV/JSON artifacts with gate-count ledgers.

Configs are YAML files with nested sections (grid, orders, physical,
output); see `configs/` for the shipped examples. `ExperimentConfig` is the
one schema: each field names its YAML location, its annotation is the type
every value is checked against, and the registry names the physical keys
each application reads, so bad input raises `UsageError` before any work.
`run` and `run_sweep` share one measurement (`_measure`), and reports carry
per-timestep operator-norm and autocorrelation errors, the gate-count
ledger, a power-law fit of the error curve, and the applicable closed-form
cost ceiling.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import re
import typing
from collections.abc import Callable, Mapping
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
from .product_formulas import fit_power_law, measure, sliced, suzuki_index, timeslice
from .tensor_core import TOL, ResourceExhaustedError

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
]


class UsageError(ValueError):
    """Invalid configuration or command-line input (exit code 2)."""


# The largest grid bound a config may set. A bound near the float range
# overflows a primitive's phases into non-finite entries; the shipped configs
# stay below 2.
_GRID_CEILING = 1e6

# Above this RMS log10 residual the fitted exponent is unreliable, and a
# report gives no exponent or prefactor.
_RESIDUAL_CAP = 0.1


def _at(*path: str, **kw):
    """A config field stored in the YAML at `path`, such as ("grid", "min")."""
    return field(metadata={"at": path}, **kw)


@dataclass
class ExperimentConfig:
    """One experiment: an application, a timestep grid, and formula orders.

    Each field names its YAML location, and its annotation is the type a
    value must have there: an int field takes no bool, a float field also
    takes an int, and null is allowed only where the default is null.
    """

    application: str = _at("application")
    cutoff: int = _at("cutoff", default=8)
    physical: dict = _at("physical", default_factory=dict)
    t_min: float = _at("grid", "min", default=1e-3)
    t_max: float = _at("grid", "max", default=1e-1)
    points: int = _at("grid", "points", default=12)
    bch_order: int = _at("orders", "bch", default=1)
    symmetrized: bool = _at("orders", "symmetrized", default=False)
    base: str | None = _at("orders", "base", default=None)
    slices: int | str = _at("slices", default=1)
    out_csv: str | None = _at("output", "csv", default=None)
    out_json: str | None = _at("output", "json", default=None)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, _FIELD_TYPES[f.name]):
                raise UsageError(f"{'.'.join(f.metadata['at'])} must be {f.type}, got {value!r}")
            if _FIELD_TYPES[f.name] is float:
                setattr(self, f.name, float(value))
        entry = _REGISTRY.get(self.application)
        if entry is None:
            known = ", ".join(_REGISTRY)
            raise UsageError(f"unknown application {self.application!r} (known: {known})")
        if self.cutoff < entry.min_cutoff:
            raise UsageError(
                f"{self.application} needs cutoff >= {entry.min_cutoff}, got {self.cutoff}"
            )
        if self.points < 4:
            raise UsageError(f"grid needs at least 4 points for fits, got {self.points}")
        if self.points > 10_000:
            raise UsageError(f"grid allows at most 10000 points, got {self.points}")
        for key, value in (("min", self.t_min), ("max", self.t_max)):
            if not math.isfinite(value):
                raise UsageError(f"grid.{key} must be finite, got {value}")
            if value > _GRID_CEILING:
                raise UsageError(f"grid.{key} must be at most {_GRID_CEILING:g}, got {value:g}")
        if not (0.0 < self.t_min < self.t_max):
            raise UsageError(f"grid needs 0 < min < max, got [{self.t_min}, {self.t_max}]")
        if self.bch_order < 1:
            raise UsageError("formula orders must be >= 1")
        if self.symmetrized and not entry.symmetrizes:
            raise UsageError(f"{self.application} takes no orders.symmetrized")
        if self.base not in (None, "lean", "split"):
            raise UsageError(f"base must be 'lean' or 'split', got {self.base!r}")
        if self.slices != "auto" and (isinstance(self.slices, str) or self.slices < 1):
            raise UsageError(f"slices must be a positive integer or 'auto', got {self.slices!r}")
        for key, value in self.physical.items():
            if not _has_type(value, float) or not math.isfinite(value):
                raise UsageError(f"physical parameter {key!r} must be a finite number")
        unknown = set(self.physical) - {"delta", *entry.physical}
        if unknown:
            takes = ", ".join(("delta", *entry.physical))
            raise UsageError(
                f"unknown physical keys {sorted(map(str, unknown))} for {self.application} "
                f"(it takes: {takes})"
            )
        self.physical = {key: float(value) for key, value in sorted(self.physical.items())}
        if "delta" in self.physical and self.slices != "auto":
            raise UsageError(
                f"physical.delta applies only to slices: auto, not slices: {self.slices}"
            )
        if self.slices == "auto" and not 0.0 < self.physical.get("delta", 0.1) <= 1.0:
            raise UsageError("slices: auto needs 0 < physical.delta <= 1")
        if "k" in entry.physical:
            k = self.physical.get("k", 2.0)
            if not (k.is_integer() and 1 <= k <= self.cutoff):
                raise UsageError(f"physical.k must be an integer in 1..{self.cutoff}, got {k:g}")
        for key in ("omega", "kappa"):
            if self.physical.get(key, 0.0) < 0:
                raise UsageError(f"physical.{key} must be >= 0")

    def grid(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.points)

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ExperimentConfig":
        if not isinstance(data, Mapping):
            raise UsageError("config root must be a mapping")
        names = {f.metadata["at"]: f.name for f in dataclasses.fields(cls)}
        sections = {at[0] for at in names if len(at) == 2}
        unknown = [key for key in data if key not in sections and (key,) not in names]
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(map(str, unknown))}")
        if "application" not in data:
            raise UsageError("config must name an application")
        kwargs = {names[(key,)]: value for key, value in data.items() if key not in sections}
        for name in (key for key in data if key in sections):
            sub = data[name] or {}
            if not isinstance(sub, Mapping):
                raise UsageError(f"config section {name!r} must be a mapping")
            bad = [key for key in sub if (name, key) not in names]
            if bad:
                raise UsageError(f"unknown keys in section {name!r}: {sorted(map(str, bad))}")
            kwargs.update({names[(name, key)]: value for key, value in sub.items()})
        return cls(**kwargs)


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _has_type(value, hint) -> bool:
    """Whether a config value has the annotated type; bool is not an int here,
    and an int is also a float."""
    allowed = typing.get_args(hint) or (hint,)
    if float in allowed:
        allowed += (int,)
    return isinstance(value, allowed) and (bool in allowed or not isinstance(value, bool))


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, which follows YAML 1.1, taking floats also in
    the YAML 1.2 forms 1e-3, 2e5 and 1.5e3 (1.1 wants a dot and a signed
    exponent, and reads these as strings), and refusing a key repeated in
    one mapping, where PyYAML would keep the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode):
                if (key.tag, key.value) in seen:
                    raise yaml.YAMLError(
                        f"repeated key {key.value!r} at line {key.start_mark.line + 1}"
                    )
                seen.add((key.tag, key.value))
        return super().construct_mapping(node, deep)


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=_Loader)
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
    physical: tuple[str, ...] = ()  # the physical keys `build` reads, besides delta
    symmetrizes: bool = False  # whether `build` reads orders.symmetrized
    min_cutoff: int = 1  # the smallest cutoff `build` takes


def _trotter_reps(p: int) -> int | float:
    s = suzuki_index(p)  # inf past 5^441, the float range, before a huge integer is formed
    return math.inf if s - 1 > 441 else 2 * 5 ** (s - 1)


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
    if math.log2(k).is_integer():  # one halving tree, as arb_power builds a single-bit k
        return 6.0 ** math.log2(k) * 420.0 ** (k * p / 2.0)
    return arb_power_count_bound(k, p)


def _build_hom(cfg: ExperimentConfig) -> ApplicationSpec:
    return conditional_beam_splitter(
        p=cfg.bch_order, cutoff=cfg.cutoff, base=cfg.base, symmetrized=cfg.symmetrized
    )


def _bound_hom(cfg: ExperimentConfig) -> float:
    p = cfg.bch_order
    return 2.0 * _trotter_reps(p) * 8.0 * 6.0 ** (p - 1)


def _build_nonlinear(cfg: ExperimentConfig) -> ApplicationSpec:
    omega = float(cfg.physical.get("omega", 1.0))
    kappa = float(cfg.physical.get("kappa", 1.0))
    return nonlinear_hamiltonian(omega, kappa, q=cfg.bch_order, cutoff=cfg.cutoff, base=cfg.base)


def _bound_nonlinear(cfg: ExperimentConfig) -> float:
    q = cfg.bch_order
    return 2.0 * suzuki_index(q) * 16.0 * 6.0 ** (2 * q - 1) * (1.0 + 6.0 * 420.0 ** (2 * q))


def _build_fswap(cfg: ExperimentConfig) -> ApplicationSpec:
    return cross_kerr_gate(p=cfg.bch_order, cutoff=cfg.cutoff, base=cfg.base)


def _bound_fswap(cfg: ExperimentConfig) -> float:
    return 8.0 * 6.0 ** (cfg.bch_order - 1)


_REGISTRY: dict[str, _AppEntry] = {
    "conditional-rotation": _AppEntry(
        brief="qubit-conditioned rotation exp(it(x^2+p^2-1/2)sz) from quadrature squares",
        params="cutoff; orders.bch (commutator order p); orders.base",
        build=_build_conditional_rotation,
        bound=_bound_conditional_rotation,
        modes=1,
        min_cutoff=2,
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
        physical=("k",),
        symmetrizes=True,
        detail=(
            "Powers of the seed encoding assembled by repeated squaring, joined\n"
            "over the binary digits of k.  Driving |1,0> for the exact flip time\n"
            "t = (2n+1)*pi/(2*sqrt(k!)) lands the full population on |0,k>.  Runs\n"
            "also emit a <csv-stem>_heatmap.csv with exact and synthesized matrix\n"
            "moduli at the flip time.  Cost ceiling: 6^(log2 k)*420^(k p/2) for k\n"
            "a power of two, arb_power_count_bound(k, p) otherwise."
        ),
    ),
    "hom-beam-splitter": _AppEntry(
        brief="conditional 50:50 beam splitter exp(-it sz (a1 a2^dag + a1^dag a2))",
        params="cutoff (per mode); orders.bch; orders.base; orders.symmetrized",
        build=_build_hom,
        bound=_bound_hom,
        modes=2,
        symmetrizes=True,
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
        physical=("omega", "kappa"),
        min_cutoff=2,
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
    autocorr_error: list
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
        if len(self.autocorr_error) != len(self.times):
            raise ValueError("autocorrelation array not aligned with grid")
        for arr in (self.times, self.op_norm_error, self.autocorr_error):
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


def _grid_errors(spec: ApplicationSpec, family, grid: np.ndarray, threads: int, known: dict):
    """Errors of family over grid, each point measured against the exact
    reference one class of sectors at a time (product_formulas.measure) unless
    known holds it. threads > 1 maps the points in order through a pool of at
    most min(threads, points, usable CPUs) workers; only such a run loads it."""
    psi0 = spec.initial_state

    def one(t: float):
        measured = known.pop(t) if t in known else measure(family, t, spec.reference, psi0)
        overlaps = [np.real(np.vdot(psi0, s)) for s in (measured.state, measured.exact_state)]
        return measured.error, abs(float(overlaps[0]) - float(overlaps[1]))

    if threads > 1:
        # Imported here: its logging and queue cost about 0.8 MB a one-thread run never needs.
        from concurrent.futures import ThreadPoolExecutor
        usable = getattr(os, "sched_getaffinity", None)
        cpus = len(usable(0)) if usable else os.cpu_count() or 1
        with ThreadPoolExecutor(max_workers=min(threads, len(grid), cpus)) as pool:
            results = list(pool.map(one, grid))
    else:
        results = [one(t) for t in grid]
    op_errs, ac_errs = (list(errs) for errs in zip(*results))
    return op_errs, ac_errs


def _measure(
    entry: _AppEntry, cfg: ExperimentConfig, threads: int, bound: float
) -> tuple[ApplicationSpec, dict]:
    """Build one config's gate, resolve its slice count and measure it over
    the grid. `bound` is the config's cost ceiling. Returns the spec and
    every SynthesisReport field but config."""
    spec = entry.build(cfg)
    slices, known = cfg.slices, {}
    if slices == "auto":
        delta = cfg.physical.get("delta", 0.1)
        found = timeslice(spec.synthesis, spec.reference, cfg.t_max, delta, spec.initial_state)
        # The search ends with a measurement at grid.max, which the grid reuses.
        slices, known[cfg.t_max] = found.slices, found.measured
    grid = cfg.grid()
    op_errs, ac_errs = _grid_errors(spec, sliced(spec.synthesis, slices), grid, threads, known)
    try:
        fit = fit_power_law(grid, op_errs)
    except ValueError:
        fit = None
    reliable = fit is not None and fit.residual < _RESIDUAL_CAP
    step_cost = spec.synthesis.cost()
    return spec, dict(
        times=[float(t) for t in grid],
        op_norm_error=op_errs,
        autocorr_error=ac_errs,
        slices=slices,
        gate_count_step=step_cost,
        gate_count_total=step_cost * slices,
        gate_counts={k: v * slices for k, v in sorted(spec.synthesis.cost_counter.items())},
        exponent=fit.exponent if reliable else None,
        prefactor=fit.prefactor if reliable else None,
        residual=None if fit is None else fit.residual,
        exponent_reliable=reliable,
        bound=bound,
        within_bound=step_cost <= bound,
    )


def _check_limits(
    entry: _AppEntry, config: ExperimentConfig, threads: int, dim_cap: int
) -> float:
    """Refuse a run before any work: bad thread counts exit 2; dimensions
    over the cap, and a cost ceiling past the float range, exit 3. Returns
    the ceiling at the config's orders, the highest a sweep measures (every
    ceiling grows with the order)."""
    if threads < 1:
        raise UsageError("threads must be >= 1")
    dim = 2 * (config.cutoff + 1) ** entry.modes
    if dim > dim_cap:
        raise ResourceExhaustedError(f"dimension {dim} exceeds cap {dim_cap}")
    try:
        bound = entry.bound(config)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ResourceExhaustedError(
            f"the cost ceiling of {config.application} at orders.bch {config.bch_order} "
            "exceeds the float range"
        )
    return bound


def _artifact_paths(
    config: ExperimentConfig, out_dir: str | Path, stem: str, heatmap: bool = False
) -> list[Path]:
    """The files a run writes: its CSV and JSON (named `stem` unless the
    config names them) and, with heatmap, `<csv stem>_heatmap.csv` beside
    the CSV. Two that name one file, or a path that is a directory (an
    existing one, or another artifact's), exit 2, and a path below a regular
    file exits 4, before any work."""
    out_dir = Path(out_dir)
    csv_path = out_dir / (config.out_csv or f"{stem}.csv")
    paths = [csv_path, out_dir / (config.out_json or f"{stem}.json")]
    if heatmap:
        paths.append(csv_path.with_name(csv_path.stem + "_heatmap.csv"))
    resolved = [path.resolve() for path in paths]
    if len(set(resolved)) < len(paths):
        raise UsageError(f"artifacts would overwrite each other: {', '.join(map(str, paths))}")
    for path, full in zip(paths, resolved):
        if full.is_dir() or any(full in other.parents for other in resolved):
            raise UsageError(f"artifact path {path} is a directory")
        ancestor = next(parent for parent in full.parents if parent.exists())
        if not ancestor.is_dir():
            raise OSError(f"writing {path}: {ancestor} is not a directory")
    return paths


def run(
    config: ExperimentConfig,
    out_dir: str | Path = ".",
    threads: int = 1,
    dim_cap: int = TOL.dim_cap,
) -> SynthesisReport:
    """Evaluate one config over its grid and write the CSV/JSON artifacts."""
    entry = _REGISTRY[config.application]
    bound = _check_limits(entry, config, threads, dim_cap)
    heatmap = config.application == "state-prep-T"
    csv_path, json_path, *heat_path = _artifact_paths(config, out_dir, config.application, heatmap)
    spec, measured = _measure(entry, config, threads, bound)
    report = SynthesisReport(config=config, **measured)

    emit_csv(report, csv_path)
    emit_json(report, json_path)
    if heatmap:
        emit_heatmap(spec, report.slices, float(spec.time), *heat_path)
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
    csv_path, json_path = _artifact_paths(config, out_dir, f"{config.application}-sweep")
    cells = []
    for order in range(1, config.bch_order + 1):
        for base in ("lean", "split"):
            cell_cfg = dataclasses.replace(config, bch_order=order, base=base)
            _, measured = _measure(entry, cell_cfg, threads, entry.bound(cell_cfg))
            shared = [f.name for f in dataclasses.fields(SweepCell) if f.name in measured]
            cells.append(SweepCell(order=order, base=base, **{k: measured[k] for k in shared}))

    lines = ["order,base,t,op_norm_error,gate_count,slices"]
    for cell in cells:
        for t, err in zip(cell.times, cell.op_norm_error):
            lines.append(
                f"{cell.order},{cell.base},{t:.17g},{err:.17g},"
                f"{cell.gate_count_step * cell.slices},{cell.slices}"
            )
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    _atomic_write(json_path, _json_value(cells, 0) + "\n")
    return cells


# ---------------------------------------------------------------------------
# Serialization

def _atomic_write(path: str | Path, text: str) -> None:
    """Write text to path through a `.tmp` file, removed if either step fails."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise OSError(f"writing {path}: {exc}") from exc


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("refusing to serialize a non-finite value")
    return f"{value:.17g}"


def emit_csv(report: SynthesisReport, path: str | Path) -> None:
    lines = ["t,op_norm_error,autocorr_error,gate_count,slices"]
    for row in zip(report.times, report.op_norm_error, report.autocorr_error):
        lines.append(f"{','.join(map(_fmt, row))},{report.gate_count_total},{report.slices}")
    _atomic_write(path, "\n".join(lines) + "\n")


def emit_heatmap(spec: ApplicationSpec, slices: int, t: float, path: str | Path) -> None:
    exact = spec.exact(t).mat
    synth = sliced(spec.synthesis, slices).eval(t).mat
    lines = ["row,col,exact_modulus,synth_modulus"]
    for i in range(exact.shape[0]):
        for j in range(exact.shape[1]):
            lines.append(f"{i},{j},{_fmt(abs(exact[i, j]))},{_fmt(abs(synth[i, j]))}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_value(value, indent: int) -> str:
    """Deterministic JSON: floats as `_fmt` writes them, dataclasses as
    objects in field order, a config in its YAML layout."""
    pad = " " * indent
    if isinstance(value, ExperimentConfig):
        value = _config_jsonable(value)
    elif dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
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


def _config_jsonable(cfg: ExperimentConfig) -> dict:
    """The inverse of `ExperimentConfig.from_mapping`: the config in its
    YAML layout."""
    out: dict = {}
    for f in dataclasses.fields(cfg):
        *section, key = f.metadata["at"]
        node = out.setdefault(section[0], {}) if section else out
        node[key] = getattr(cfg, f.name)
    return out


def emit_json(report: SynthesisReport, path: str | Path) -> None:
    _atomic_write(path, _json_value(report, 0) + "\n")
