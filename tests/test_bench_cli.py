"""Tests for the experiment runner and its command line front end."""
import concurrent.futures
import csv
import dataclasses
import filecmp
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from bosonsynth import bench, cli
from bosonsynth.applications import state_prep_T
from bosonsynth.bench import (
    ExperimentConfig,
    ResourceExhaustedError,
    UsageError,
    describe,
    emit_csv,
    list_applications,
    load_config,
    run,
    run_sweep,
)
from bosonsynth.product_formulas import (
    Leaf,
    ParamUnitary,
    Primitive,
    Repeat,
    _topological,
    sliced,
)
from bosonsynth.tensor_core import TOL
from demos import report_from_json

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

APPS = [
    "conditional-rotation",
    "state-prep-T",
    "hom-beam-splitter",
    "nonlinear-hamiltonian",
    "fswap",
]


FAST = dict(application="fswap", cutoff=3, t_min=1e-3, t_max=1e-1, points=4)


def fast_config(**over):
    return ExperimentConfig(**{**FAST, **over})


class TestConfigValidation:
    def test_accepts_minimal(self):
        cfg = fast_config()
        assert cfg.points == 4
        assert len(cfg.grid()) == 4

    def test_unknown_application(self):
        with pytest.raises(UsageError, match="unknown application"):
            fast_config(application="frobnicator")

    def test_too_few_points(self):
        with pytest.raises(UsageError, match="at least 4"):
            fast_config(points=3)

    def test_too_many_points(self):
        assert fast_config(points=10_000).points == 10_000
        with pytest.raises(UsageError, match="at most 10000"):
            fast_config(points=10**9)

    def test_inverted_grid(self):
        with pytest.raises(UsageError):
            fast_config(t_min=0.5, t_max=0.1)

    def test_zero_t_min(self):
        with pytest.raises(UsageError):
            fast_config(t_min=0.0)

    @pytest.mark.parametrize("slices", [0, -2, "some", 1.5])
    def test_bad_slices(self, slices):
        with pytest.raises(UsageError, match="slices"):
            fast_config(slices=slices)

    def test_bad_base(self):
        with pytest.raises(UsageError, match="base"):
            fast_config(base="fat")

    def test_nonfinite_physical(self):
        with pytest.raises(UsageError, match="finite"):
            fast_config(physical={"k": float("inf")})


class TestFromMapping:
    def test_round_trip_sections(self):
        cfg = ExperimentConfig.from_mapping(
            {
                "application": "fswap",
                "cutoff": 3,
                "grid": {"min": 1e-3, "max": 1e-1, "points": 5},
                "orders": {"bch": 2, "base": "lean"},
                "output": {"csv": "a.csv"},
            }
        )
        assert cfg.points == 5
        assert cfg.bch_order == 2
        assert cfg.base == "lean"
        assert cfg.out_csv == "a.csv"

    def test_rejects_unknown_top_key(self):
        with pytest.raises(UsageError, match="unknown config keys"):
            ExperimentConfig.from_mapping({"application": "fswap", "bogus": 1})

    def test_rejects_unknown_section_key(self):
        with pytest.raises(UsageError, match="grid"):
            ExperimentConfig.from_mapping(
                {"application": "fswap", "grid": {"step": 0.1}}
            )

    def test_rejects_non_mapping_section(self):
        with pytest.raises(UsageError, match="must be a mapping"):
            ExperimentConfig.from_mapping({"application": "fswap", "grid": 3})

    def test_requires_application(self):
        with pytest.raises(UsageError, match="application"):
            ExperimentConfig.from_mapping({"cutoff": 3})

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
    def test_inverse_of_jsonable(self, path):
        cfg = load_config(path)
        assert ExperimentConfig.from_mapping(bench._config_jsonable(cfg)) == cfg

    def test_readme_config_block(self):
        text = (ROOT / "README.md").read_text().split("## Config format", 1)[1]
        block = text.split("```yaml\n", 1)[1].split("```", 1)[0]
        cfg = ExperimentConfig.from_mapping(yaml.safe_load(block))
        assert (cfg.application, cfg.physical, cfg.base) == ("state-prep-T", {"k": 2.0}, "lean")


class TestLoadConfig:
    def test_loads_yaml(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump({"application": "fswap", "cutoff": 3}))
        cfg = load_config(path)
        assert cfg.application == "fswap"

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError):
            load_config(tmp_path / "absent.yaml")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_config_not_utf8_exits_2(self, tmp_path, capsys, command):
        """A config whose bytes are not UTF-8 is bad input, not a crash."""
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"\xff\xfe\x00bad")
        assert cli.main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read config ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not captured.out and not (tmp_path / "out").exists()

    def test_broken_yaml(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("{[")
        with pytest.raises(UsageError):
            load_config(path)

    @pytest.mark.parametrize(
        "text,key",
        [
            ("application: fswap\ncutoff: 2\ngrid: {points: 4}\ncutoff: 3\n"
             "grid: {points: 5}\n", "cutoff"),
            ("application: fswap\ngrid:\n  points: 4\n  points: 5\n", "points"),
        ],
        ids=["top-level", "in-a-section"],
    )
    def test_repeated_key_exits_2(self, tmp_path, capsys, text, key):
        """PyYAML keeps the last of two equal keys; a config refuses them."""
        path = tmp_path / "c.yaml"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"repeated key {key!r}" in err
        assert not (tmp_path / "out").exists()


class TestRegistry:
    def test_listing_covers_all(self):
        text = list_applications()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        assert len(lines) == len(APPS)
        for name in APPS:
            assert name in text

    @pytest.mark.parametrize("name", APPS)
    def test_describe_each(self, name):
        assert name in describe(name)

    def test_describe_names_flip_time(self):
        text = describe("state-prep-T")
        assert "pi/(2*sqrt(k!))" in text

    def test_describe_unknown(self):
        with pytest.raises(UsageError):
            describe("bogus")

    @pytest.mark.parametrize("name", APPS)
    def test_help_names_only_real_config_keys(self, name):
        """`describe` text names config locations that exist, and only the
        physical keys the entry reads."""
        entry = bench._REGISTRY[name]
        real = {".".join(f.metadata["at"]) for f in dataclasses.fields(ExperimentConfig)}
        real |= {f"physical.{key}" for key in ("delta", *entry.physical)}
        named = [item.split()[0] for item in re.split("[;,]", entry.params)]
        named += re.findall(r"\b[a-z]+\.[a-z_]+\b", entry.params + entry.detail)
        assert named and set(named) <= real - {"physical"}

    @pytest.mark.parametrize("bch", [1, 2])
    @pytest.mark.parametrize("name", APPS)
    def test_trees_repeat_only_to_repeat(self, name, bch):
        """A Suzuki formula is a product of its own: every Repeat in a built
        tree applies its child more than once."""
        cfg = ExperimentConfig(application=name, cutoff=2, bch_order=bch, points=4)
        pu = bench._REGISTRY[name].build(cfg).synthesis
        counts = [node.node.count for node in _topological(pu) if isinstance(node.node, Repeat)]
        assert all(count > 1 for count in counts)

    SUPPORTS = {
        "conditional-rotation": {
            "half-phase": (0,), "x*sx": (0, 1), "x*sy": (0, 1), "p*sx": (0, 1), "p*sy": (0, 1),
        },
        "state-prep-T": {"S1": (0, 1)},
        "hom-beam-splitter": {
            "x1*sx": (0, 1), "p1*sx": (0, 1), "x2*sy": (0, 2), "p2*sy": (0, 2),
        },
        "nonlinear-hamiltonian": {"S1": (0, 1)},
        "fswap": {"n1*sy": (0, 1), "n2*sx": (0, 2)},
    }

    @pytest.mark.parametrize("bch", [1, 2])
    @pytest.mark.parametrize("name", APPS)
    def test_every_primitive_acts_on_its_declared_factors(self, name, bch):
        """Each builder names the factors its pulses act on: the qubit and
        the one mode a pulse couples to it, or the qubit alone."""
        cfg = ExperimentConfig(application=name, cutoff=2, bch_order=bch, points=4)
        pu = bench._REGISTRY[name].build(cfg).synthesis
        supports = {}
        for node in _topological(pu):
            if isinstance(node.node, Leaf) and isinstance(node.node.gate, Primitive):
                supports.setdefault(node.node.gate.label, set()).add(node.node.gate.support)
        assert supports == {label: {at} for label, at in self.SUPPORTS[name].items()}


class TestRun:
    def test_artifacts_and_report(self, tmp_path):
        cfg = fast_config(out_csv="out.csv", out_json="out.json")
        report = run(cfg, out_dir=tmp_path)
        assert (tmp_path / "out.csv").exists()
        assert (tmp_path / "out.json").exists()
        assert report.gate_count_step == 4
        assert report.within_bound
        assert report.slices == 1
        assert len(report.times) == 4
        assert all(e >= 0 for e in report.op_norm_error)
        assert report.autocorr_error is not None
        assert sum(report.gate_counts.values()) == report.gate_count_total

    def test_csv_shape_and_precision(self, tmp_path):
        cfg = fast_config(points=12, out_csv="x.csv")
        report = run(cfg, out_dir=tmp_path)
        lines = (tmp_path / "x.csv").read_text().splitlines()
        assert lines[0] == "t,op_norm_error,autocorr_error,gate_count,slices"
        assert len(lines) == 13
        first = lines[1].split(",")
        assert float(first[0]) == report.times[0]
        assert float(first[1]) == report.op_norm_error[0]

    def test_empty_cell_for_missing_autocorr(self, tmp_path):
        cfg = fast_config(out_csv="y.csv")
        report = run(cfg, out_dir=tmp_path)
        bare = dataclasses.replace(report, autocorr_error=None)
        emit_csv(bare, tmp_path / "bare.csv")
        row = (tmp_path / "bare.csv").read_text().splitlines()[1]
        assert row.split(",")[2] == ""

    def test_json_round_trip(self, tmp_path):
        cfg = fast_config(out_json="r.json")
        report = run(cfg, out_dir=tmp_path)
        back = report_from_json(tmp_path / "r.json")
        assert back.config == report.config
        assert back.times == report.times
        assert back.op_norm_error == report.op_norm_error
        assert back.gate_counts == report.gate_counts
        assert back.exponent == report.exponent
        assert back.within_bound == report.within_bound

    def test_no_tmp_files_left(self, tmp_path):
        run(fast_config(), out_dir=tmp_path)
        assert not list(tmp_path.glob("*.tmp"))

    def test_creates_output_directory(self, tmp_path):
        nested = tmp_path / "a" / "b"
        run(fast_config(), out_dir=nested)
        assert (nested / "fswap.csv").exists()

    def test_deterministic_artifacts(self, tmp_path):
        cfg = fast_config(out_csv="d.csv")
        run(cfg, out_dir=tmp_path / "one")
        run(cfg, out_dir=tmp_path / "two")
        assert filecmp.cmp(tmp_path / "one/d.csv", tmp_path / "two/d.csv", shallow=False)

    def test_dimension_cap(self, tmp_path):
        cfg = fast_config(cutoff=2000)
        with pytest.raises(ResourceExhaustedError, match="dimension"):
            run(cfg, out_dir=tmp_path)

    def test_rejects_bad_thread_count(self, tmp_path):
        with pytest.raises(UsageError):
            run(fast_config(), out_dir=tmp_path, threads=0)

    def test_threaded_matches_sequential(self, tmp_path):
        cfg = fast_config(out_csv="t.csv")
        run(cfg, out_dir=tmp_path / "seq", threads=1)
        run(cfg, out_dir=tmp_path / "par", threads=4)
        assert filecmp.cmp(tmp_path / "seq/t.csv", tmp_path / "par/t.csv", shallow=False)

    def test_threaded_matches_sequential_local_primitives(self, tmp_path):
        cfg = ExperimentConfig(application="hom-beam-splitter", cutoff=3, points=4,
                               out_csv="h.csv", out_json="h.json")
        run(cfg, out_dir=tmp_path / "seq", threads=1)
        run(cfg, out_dir=tmp_path / "par", threads=2)
        for name in ("h.csv", "h.json"):
            assert filecmp.cmp(tmp_path / "seq" / name, tmp_path / "par" / name, shallow=False)

    def test_pool_is_no_larger_than_the_points_or_the_cpus(self, tmp_path, monkeypatch):
        sizes = []

        class Recording:
            """Maps in order on the calling thread; starts no thread."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        cfg = fast_config(out_csv="t.csv", out_json="t.json")
        run(cfg, out_dir=tmp_path / "seq", threads=1)
        assert sizes == []
        run(cfg, out_dir=tmp_path / "wide", threads=10**6)
        usable = getattr(os, "sched_getaffinity", None)
        cpus = len(usable(0)) if usable else os.cpu_count() or 1
        assert len(sizes) == 1 and 1 <= sizes[0] <= min(cfg.points, cpus)
        for name in ("t.csv", "t.json"):
            assert filecmp.cmp(tmp_path / "seq" / name, tmp_path / "wide" / name, shallow=False)

    def test_single_thread_run_loads_no_pool(self, tmp_path):
        code = (
            "import sys\n"
            "from bosonsynth.bench import ExperimentConfig, run\n"
            f"run(ExperimentConfig(**{FAST!r}), out_dir={str(tmp_path)!r}, threads=1)\n"
            "assert 'concurrent.futures' not in sys.modules, 'pool loaded'\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_heatmap_artifact_for_state_prep(self, tmp_path):
        cfg = ExperimentConfig(
            application="state-prep-T",
            cutoff=2,
            physical={"k": 2},
            points=4,
            out_csv="prep.csv",
        )
        run(cfg, out_dir=tmp_path)
        heat = tmp_path / "prep_heatmap.csv"
        assert heat.exists()
        lines = heat.read_text().splitlines()
        assert lines[0] == "row,col,exact_modulus,synth_modulus"
        assert len(lines) == 1 + 6 * 6

    def test_auto_slices(self, tmp_path):
        cfg = fast_config(slices="auto", physical={"delta": 0.5})
        report = run(cfg, out_dir=tmp_path)
        assert isinstance(report.slices, int) and report.slices >= 1

    @pytest.mark.filterwarnings("ignore:.*well-conditioned range.*:RuntimeWarning")
    def test_heatmap_is_the_gate_at_the_run_slice_count(self, tmp_path):
        """At slices: 4 the heatmap shows the four-slice gate the CSV
        measures, not the one-slice gate."""
        cfg = ExperimentConfig(application="state-prep-T", cutoff=2, physical={"k": 2},
                               bch_order=2, base="lean", slices=4, points=4, out_csv="prep.csv")
        run(cfg, out_dir=tmp_path)
        with open(tmp_path / "prep_heatmap.csv") as fh:
            heat = [float(row["synth_modulus"]) for row in csv.DictReader(fh)]
        spec = state_prep_T(2, p=2, cutoff=2, base="lean")
        four, one = (sliced(spec.synthesis, r).eval(spec.time).mat for r in (4, 1))
        assert heat == [abs(x) for x in four.ravel()]
        assert heat != [abs(x) for x in one.ravel()]

    @pytest.mark.filterwarnings("ignore:.*well-conditioned range.*:RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_auto_slices_reuse_the_searched_gate(self, tmp_path, monkeypatch, threads):
        """The slice search's measurement at grid.max stands in for that grid
        point: a run of the shipped nonlinear-timeslice config makes one eval
        fewer than the search and the grid add up to, and writes the same
        bytes as a run that evaluates every grid point."""
        calls, searched = [], []
        evaluate, search = ParamUnitary.eval_classes, bench.timeslice
        grid_errors = bench._grid_errors

        def counting_search(*args):
            before = len(calls)
            found = search(*args)
            searched.append(len(calls) - before)
            return found

        monkeypatch.setattr(
            ParamUnitary, "eval_classes", lambda pu, t: calls.append(t) or evaluate(pu, t)
        )
        monkeypatch.setattr(bench, "timeslice", counting_search)
        cfg = load_config(CONFIGS / "nonlinear-timeslice.yaml")
        run(cfg, out_dir=tmp_path / "reuse", threads=threads)
        assert searched[0] > 1 and len(calls) == searched[0] + cfg.points - 1
        assert sorted(calls[searched[0]:]) == cfg.grid()[:-1].tolist()
        monkeypatch.setattr(bench, "_grid_errors", lambda *a: grid_errors(*a[:4], {}))
        run(cfg, out_dir=tmp_path / "every", threads=threads)
        for name in (cfg.out_csv, cfg.out_json):
            assert filecmp.cmp(tmp_path / "reuse" / name, tmp_path / "every" / name, shallow=False)


class TestRunSweep:
    def test_cells_and_artifact(self, tmp_path):
        cfg = ExperimentConfig(
            application="state-prep-T",
            cutoff=2,
            physical={"k": 2},
            points=4,
            t_min=0.1,
            t_max=1.0,
            bch_order=2,
            out_csv="ladder.csv",
        )
        cells = run_sweep(cfg, out_dir=tmp_path)
        assert [(c.order, c.base) for c in cells] == [
            (1, "lean"),
            (1, "split"),
            (2, "lean"),
            (2, "split"),
        ]
        assert [c.gate_count_step for c in cells] == [16, 32, 480, 960]
        lines = (tmp_path / "ladder.csv").read_text().splitlines()
        assert lines[0] == "order,base,t,op_norm_error,gate_count,slices"
        assert len(lines) == 1 + 4 * 4


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in APPS:
            assert name in out

    def test_describe(self, capsys):
        assert cli.main(["describe", "state-prep-T"]) == 0
        assert "pi/(2*sqrt(k!))" in capsys.readouterr().out

    def test_describe_unknown_exits_2(self, capsys):
        assert cli.main(["describe", "bogus"]) == 2
        assert "error:" in capsys.readouterr().err

    def _write(self, tmp_path, mapping, name="c.yaml"):
        path = tmp_path / name
        path.write_text(yaml.safe_dump(mapping))
        return str(path)

    def test_run_happy_path(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            {
                "application": "fswap",
                "cutoff": 3,
                "grid": {"points": 4},
                "output": {"csv": "f.csv"},
            },
        )
        code = cli.main(["run", path, "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "f.csv").exists()
        assert "gates" in out and "fswap" in out

    def test_run_bad_config_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, {"application": "fswap", "bogus": 1})
        assert cli.main(["run", path, "--out-dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            {"cutoff": "abc"},
            {"cutoff": 8.5},
            {"cutoff": True},
            {"grid": {"points": [4]}},
            {"grid": {"min": "0.01"}},
            {"orders": {"symmetrized": "no"}},
            {"physical": {"kk": 3}},
            {"physical": {"k": 2.5}},
            {"physical": {"k": 5}},
            {"physical": {"k": 3}, "cutoff": 3, "orders": {"base": "lean"}},
            {"application": "nonlinear-hamiltonian", "physical": {"kappa": -1}},
            {"grid": {"points": 4, "log_spaced": True}},
            {"fit": {"residual_cap": 0.1}},
        ],
        ids=["cutoff-abc", "cutoff-8.5", "cutoff-true", "points-list", "min-str",
             "symmetrized-no", "physical-kk", "k-2.5", "k-over-cutoff", "k-3-with-base",
             "negative-kappa", "log-spaced", "residual-cap"],
    )
    def test_bad_input_exits_2(self, tmp_path, capsys, override):
        path = self._write(tmp_path, {"application": "state-prep-T", "cutoff": 2,
                                      "grid": {"points": 4}, **override})
        assert cli.main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "application,bound,key",
        [
            ("fswap", "max: .inf", "grid.max"),
            ("nonlinear-hamiltonian", "max: .inf", "grid.max"),
            ("fswap", "min: .nan", "grid.min"),
            ("fswap", "max: 1e400", "grid.max"),
        ],
        ids=["fswap-max-inf", "kerr-auto-max-inf", "min-nan", "max-overflows"],
    )
    def test_non_finite_grid_bound_exits_2(
        self, tmp_path, capsys, application, bound, key, command
    ):
        path = tmp_path / "c.yaml"
        path.write_text(
            f"application: {application}\ncutoff: 2\nslices: auto\n"
            f"grid:\n  points: 4\n  {bound}\n"
        )
        assert cli.main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be finite") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("key", ["min", "max"])
    def test_grid_bound_past_the_ceiling_exits_2_before_any_build(
        self, tmp_path, capsys, monkeypatch, command, key
    ):
        """A finite bound whose phases would overflow (1e308 at cutoff 2)."""
        def refuse(cfg):
            raise AssertionError("built a gate")

        entry = dataclasses.replace(bench._REGISTRY["fswap"], build=refuse)
        monkeypatch.setitem(bench._REGISTRY, "fswap", entry)
        grid = {"min": 1.0, "max": 1.0e308, "points": 4}
        if key == "min":
            grid.update(min=2.0e6, max=3.0e6)
        path = self._write(tmp_path, {"application": "fswap", "cutoff": 2, "grid": grid})
        assert cli.main([command, path, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: grid.{key} must be at most 1e+06") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:.*well-conditioned range.*:RuntimeWarning")
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("application", APPS)
    def test_symmetrized_only_where_the_build_reads_it(
        self, tmp_path, capsys, command, application
    ):
        """orders.symmetrized: true exits 2 where the build would ignore it,
        so no artifact claims a symmetrization that never ran."""
        path = self._write(tmp_path, {"application": application, "cutoff": 2,
                                      "grid": {"points": 4}, "orders": {"symmetrized": True}})
        code = cli.main([command, path, "--out-dir", str(tmp_path / "out")])
        if application in ("hom-beam-splitter", "state-prep-T"):
            assert code == 0
        else:
            assert code == 2
            assert capsys.readouterr().err == f"error: {application} takes no orders.symmetrized\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:.*well-conditioned range.*:RuntimeWarning")
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("application", APPS)
    def test_cutoff_1_only_where_the_build_takes_it(
        self, tmp_path, capsys, monkeypatch, command, application
    ):
        """Conditional rotation and the Kerr oscillator start from |g,2>, so
        they need cutoff 2: at cutoff 1 they exit 2 with one error line
        before any build. The others run at cutoff 1 (state-prep-T at
        k = 1)."""
        needs_2 = application in ("conditional-rotation", "nonlinear-hamiltonian")
        if needs_2:
            def refuse(cfg):
                raise AssertionError("built a gate")

            entry = dataclasses.replace(bench._REGISTRY[application], build=refuse)
            monkeypatch.setitem(bench._REGISTRY, application, entry)
        physical = {"k": 1} if application == "state-prep-T" else {}
        path = self._write(tmp_path, {"application": application, "cutoff": 1,
                                      "grid": {"points": 4}, "physical": physical})
        code = cli.main([command, path, "--out-dir", str(tmp_path / "out")])
        if needs_2:
            assert code == 2
            assert capsys.readouterr().err == f"error: {application} needs cutoff >= 2, got 1\n"
            assert not (tmp_path / "out").exists()
        else:
            assert code == 0

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_delta_only_with_auto_slices(self, tmp_path, capsys, command):
        """physical.delta with a fixed slice count exits 2 with one error
        line, so no artifact echoes a tolerance the run never applied."""
        path = self._write(tmp_path, {"application": "fswap", "cutoff": 2, "slices": 1,
                                      "grid": {"points": 4}, "physical": {"delta": 0.5}})
        assert cli.main([command, path, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: physical.delta applies only to slices: auto, not slices: 1\n"
        assert not (tmp_path / "out").exists()

    def test_yaml_12_floats_load(self, tmp_path):
        """1e-3 is a float, as in YAML 1.2, not the string YAML 1.1 makes it."""
        text = (CONFIGS / "hom-beam-splitter.yaml").read_text()
        assert "min: 1.0e-3" in text and "max: 1.0e-1" in text
        path = tmp_path / "hom.yaml"
        path.write_text(text.replace("1.0e-3", "1e-3").replace("1.0e-1", "1E-1"))
        assert load_config(path) == load_config(CONFIGS / "hom-beam-splitter.yaml")
        assert load_config(path).t_min == 1e-3

    def test_run_dim_cap_exits_3(self, tmp_path, capsys):
        path = self._write(tmp_path, {"application": "fswap", "cutoff": 3})
        code = cli.main(["run", path, "--out-dir", str(tmp_path), "--dim-cap", "8"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_sweep(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            {
                "application": "fswap",
                "cutoff": 3,
                "grid": {"points": 4},
                "orders": {"bch": 2},
                "output": {"csv": "s.csv"},
            },
        )
        assert cli.main(["sweep", path, "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "order 1 (lean)" in out and "order 2 (split)" in out
        assert (tmp_path / "s.csv").exists()

    def test_sweep_of_a_ladder_power_that_is_no_power_of_two_exits_2_before_any_build(
        self, tmp_path, capsys, monkeypatch
    ):
        """k = 3 runs (the inline golden config state-prep-t3), but a sweep
        sets orders.base per cell, which only a power-of-two k takes: the
        refusal names the sweep, not a key the config never set."""
        def refuse(cfg):
            raise AssertionError("built a gate")

        config = {"application": "state-prep-T", "cutoff": 6, "physical": {"k": 3},
                  "grid": {"points": 4}}
        path = self._write(tmp_path, config)
        entry = dataclasses.replace(bench._REGISTRY["state-prep-T"], build=refuse)
        monkeypatch.setitem(bench._REGISTRY, "state-prep-T", entry)
        assert cli.main(["sweep", path, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep compares orders.base") and err.count("\n") == 1
        assert "physical.k 3" in err
        assert not (tmp_path / "out").exists()

    def test_seed_rejected(self, tmp_path, capsys):
        path = self._write(tmp_path, {"application": "fswap", "cutoff": 3,
                                      "grid": {"points": 4}, "seed": 7})
        assert cli.main(["run", path, "--out-dir", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", path, "--seed", "9"])
        assert exc.value.code == 2

    def test_auto_slices_zero_delta_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, {"application": "nonlinear-hamiltonian", "cutoff": 3,
                                      "physical": {"delta": 0}, "orders": {"bch": 1},
                                      "slices": "auto"})
        assert cli.main(["run", path, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "delta" in err and "Traceback" not in err

    def test_unwritable_out_dir_exits_4(self, tmp_path, capsys):
        path = self._write(tmp_path, {"application": "fswap", "cutoff": 3,
                                      "grid": {"points": 4}})
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["run", path, "--out-dir", str(blocker / "sub")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: writing") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_zero_threads_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        def refuse(self, t):
            raise AssertionError("evaluated a gate")

        monkeypatch.setattr(ParamUnitary, "eval", refuse)
        path = CONFIGS / "nonlinear-timeslice.yaml"
        args = [command, str(path), "--out-dir", str(tmp_path), "--threads", "0"]
        assert cli.main(args) == 2
        assert "threads" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "application,bch",
        [("nonlinear-hamiltonian", 60), ("nonlinear-hamiltonian", 58), ("state-prep-T", 200)],
        ids=["nonlinear-bch60-raises", "nonlinear-bch58-inf", "state-prep-bch200-raises"],
    )
    def test_overflowing_cost_ceiling_exits_3_before_any_build(
        self, tmp_path, capsys, monkeypatch, application, bch, command
    ):
        def refuse(cfg):
            raise AssertionError("built a gate")

        entry = dataclasses.replace(bench._REGISTRY[application], build=refuse)
        monkeypatch.setitem(bench._REGISTRY, application, entry)
        path = self._write(tmp_path, {"application": application, "cutoff": 2,
                                      "grid": {"points": 4}, "orders": {"bch": bch}})
        assert cli.main([command, path, "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "float range" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_too_many_points_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def refuse(cfg):
            raise AssertionError("built a gate")

        entry = dataclasses.replace(bench._REGISTRY["fswap"], build=refuse)
        monkeypatch.setitem(bench._REGISTRY, "fswap", entry)
        path = self._write(tmp_path, {"application": "fswap", "cutoff": 3,
                                      "grid": {"points": 10**9}})
        assert cli.main([command, path, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "at most 10000" in err
        assert not (tmp_path / "out").exists()

    def test_one_dimension_cap(self):
        parser = cli.build_parser()
        defaults = {
            inspect.signature(run).parameters["dim_cap"].default,
            inspect.signature(run_sweep).parameters["dim_cap"].default,
            parser.parse_args(["run", "c.yaml"]).dim_cap,
            parser.parse_args(["sweep", "c.yaml"]).dim_cap,
        }
        assert defaults == {TOL.dim_cap}

    @pytest.mark.parametrize(
        "command,application,output",
        [
            ("run", "fswap", {"csv": "out.txt", "json": "out.txt"}),
            ("run", "fswap", {"csv": "out.csv", "json": "sub/../out.csv"}),
            ("run", "state-prep-T", {"csv": "a.csv", "json": "a_heatmap.csv"}),
            ("sweep", "fswap", {"csv": "out.txt", "json": "out.txt"}),
        ],
        ids=["run-csv-is-json", "run-json-via-parent", "heatmap-is-json", "sweep-csv-is-json"],
    )
    def test_colliding_artifacts_exit_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, application, output
    ):
        def refuse(self, t):
            raise AssertionError("evaluated a gate")

        monkeypatch.setattr(ParamUnitary, "eval", refuse)
        path = self._write(tmp_path, {"application": application, "cutoff": 2,
                                      "grid": {"points": 4}, "output": output})
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        assert cli.main([command, path, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: artifacts would overwrite each other")
        assert err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["sub"]

    @pytest.mark.parametrize(
        "command,output,existing",
        [
            ("run", {"csv": ".", "json": "x.json"}, True),
            ("run", {"csv": ".", "json": "x.json"}, False),
            ("run", {"csv": "a.csv", "json": "sub"}, True),
            ("sweep", {"csv": ".", "json": "x.json"}, True),
        ],
        ids=["csv-is-the-out-dir", "csv-is-the-new-out-dir", "json-is-a-dir", "sweep"],
    )
    def test_directory_artifact_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, output, existing
    ):
        """An artifact path that is a directory, already there or one that
        another artifact would be written into, exits 2 and leaves no
        file, instead of failing at the write after the whole grid."""
        def refuse(self, t):
            raise AssertionError("evaluated a gate")

        monkeypatch.setattr(ParamUnitary, "eval", refuse)
        path = self._write(tmp_path, {"application": "fswap", "cutoff": 2,
                                      "grid": {"points": 4}, "output": output})
        out = tmp_path / "out"
        if existing:
            (out / "sub").mkdir(parents=True)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert cli.main([command, path, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: artifact path ") and err.endswith(" is a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert not existing or [p.name for p in out.iterdir()] == ["sub"]

    @pytest.mark.parametrize("fails", ["write", "rename"])
    def test_failed_artifact_write_leaves_no_tmp_file(self, tmp_path, monkeypatch, fails):
        """The `.tmp` file beside an artifact is removed when its write or
        its rename fails, and the error names the artifact."""
        write = Path.write_text

        def half_written(self, text):
            write(self, text[:1])
            raise OSError("disk full")

        def broken(*args):
            raise OSError("disk full")

        if fails == "write":
            monkeypatch.setattr(Path, "write_text", half_written)
        else:
            monkeypatch.setattr(bench.os, "replace", broken)
        target = tmp_path / "r.csv"
        with pytest.raises(OSError, match="writing .*r.csv: disk full"):
            bench._atomic_write(target, "x\n")
        assert list(tmp_path.iterdir()) == []

    def test_slice_cap_exits_3(self, tmp_path, capsys):
        path = self._write(tmp_path, {"application": "fswap", "cutoff": 1,
                                      "grid": {"points": 4}, "physical": {"delta": 1e-12},
                                      "slices": "auto"})
        assert cli.main(["run", path, "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "slices exceed cap" in err and "Traceback" not in err
