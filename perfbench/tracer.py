"""Span tracing of the package's layer boundaries, installed from outside.

`Tracer.install` replaces each boundary in TARGETS with a wrapper that
records a span (name, start, end, parent, run id) in memory. A function is
replaced in every package module that imported it by name, so a call through
`bench.spectral_norm` is caught as well as one through
`tensor_core.spectral_norm`; a method is replaced on its class.
`Tracer.uninstall` puts every original back and `leftover_wrappers` proves it.
Importing this module patches nothing. Untraced workers import it only to
check that no wrapper is installed before they start timing.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import weakref
from collections import Counter

PACKAGE = "bosonsynth"
MARKER = "_perfbench_span"
ROOT_SPAN = "run"

# (module, attribute or Class.method, span name). Several entry points may
# share a span name; the layer is the span name up to its first dot.
TARGETS = (
    ("tensor_core", "spectral_norm", "tensor_core.spectral_norm"),
    ("tensor_core", "expm", "tensor_core.expm"),
    ("applications", "ApplicationSpec.exact", "applications.exact"),
    ("applications", "conditional_beam_splitter", "applications.build"),
    ("applications", "nonlinear_hamiltonian", "applications.build"),
    ("block_encodings", "s1", "block_encodings.compile"),
    ("block_encodings", "conjugate", "block_encodings.compile"),
    ("block_encodings", "add", "block_encodings.compile"),
    ("block_encodings", "mult", "block_encodings.compile"),
    ("block_encodings", "power", "block_encodings.compile"),
    ("product_formulas", "Primitive.__init__", "product_formulas.primitive_init"),
    ("product_formulas", "Primitive.unitary", "product_formulas.primitive_unitary"),
    ("product_formulas", "ParamUnitary.eval", "product_formulas.eval"),
    ("product_formulas", "timeslice", "product_formulas.timeslice"),
    ("bench", "emit_csv", "bench.artifacts"),
    ("bench", "emit_json", "bench.artifacts"),
    ("bench", "emit_heatmap", "bench.artifacts"),
)


def package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def leftover_wrappers() -> list[str]:
    """Names in the package that still hold a tracing wrapper."""
    found = []
    for mod in package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARKER):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if hasattr(fn, MARKER):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return sorted(found)


def _matrix_dim(obj) -> int:
    mat = getattr(obj, "mat", obj)
    return int(mat.shape[0])


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self._stack: list[int] = []
        self._run_id = -1
        self._patched: list[tuple[object, str, object]] = []
        self.dims: dict[str, Counter] = {}
        self.artifact_bytes = 0
        self.memo_bytes: dict[int, int] = {}
        self._memo_holders: weakref.WeakSet = weakref.WeakSet()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.starts)
        self.names.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self._run_id)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def run(self, fn, *args, **kwargs):
        """Call fn under a new root span and run id."""
        self._run_id += 1
        self._memo_holders = weakref.WeakSet()
        i = self._open(self._name_id(ROOT_SPAN))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def _wrap(self, fn, span: str):
        name_id = self._name_id(span)
        opened, close = self._open, self._close
        after = {
            "tensor_core.spectral_norm": self._after_norm,
            "product_formulas.primitive_unitary": self._after_unitary,
            "product_formulas.eval": self._after_eval,
            "bench.artifacts": self._after_artifact,
        }.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = opened(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if after is not None:
                after(i, args, result)
            return result

        setattr(wrapper, MARKER, span)
        return wrapper

    def _after_norm(self, i, args, result):
        self.dims.setdefault("tensor_core.spectral_norm", Counter())[_matrix_dim(args[0])] += 1

    def _after_unitary(self, i, args, result):
        self.dims.setdefault("product_formulas.primitive_unitary", Counter())[_matrix_dim(result)] += 1

    def _after_eval(self, i, args, result):
        # A memo miss evaluates its factors, so it opens child spans; a hit
        # opens none. The holder is kept weakly to size its memo later.
        if len(self.starts) > i + 1:
            self._memo_holders.add(args[0])

    def _after_artifact(self, i, args, result):
        self.artifact_bytes += os.path.getsize(args[-1])
        if self._run_id not in self.memo_bytes:
            # The runner writes artifacts last, while the compiled family
            # and its memos are still alive.
            self.memo_bytes[self._run_id] = sum(
                int(mat.nbytes)
                for pu in list(self._memo_holders)
                for mat in getattr(pu, "_cache", {}).values()
            )

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, span))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span)
            for mod in package_modules():
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, holder, attr: str, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def patched_count(self) -> int:
        return len(self._patched)

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, outer_s (time not nested in a span of the
        same name), self_s (time minus direct child spans), parent_calls
        (spans with at least one child); per layer: time covered by its
        outermost spans."""
        n = len(self.starts)
        names, parents = self.names, self.parents
        layer_of = [s.split(".")[0] for s in self.span_names]
        layer_ids = {layer: k for k, layer in enumerate(sorted(set(layer_of)))}
        name_bit = [1 << k for k in range(len(self.span_names))]
        layer_bit = [1 << (64 + layer_ids[layer]) for layer in layer_of]
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child_s = [0.0] * n
        has_child = [False] * n
        mask = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_s[p] += dur[i]
                has_child[p] = True
                mask[i] = mask[p] | name_bit[names[p]] | layer_bit[names[p]]
        per_name = {
            s: {"calls": 0, "outer_s": 0.0, "self_s": 0.0, "parent_calls": 0}
            for s in self.span_names
        }
        per_layer = {layer: 0.0 for layer in layer_ids}
        for i in range(n):
            k = names[i]
            row = per_name[self.span_names[k]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child_s[i]
            row["parent_calls"] += has_child[i]
            if not mask[i] & name_bit[k]:
                row["outer_s"] += dur[i]
            if not mask[i] & layer_bit[k]:
                per_layer[layer_of[k]] += dur[i]
        return {"names": per_name, "layers": per_layer, "spans": n}

    def write_spans(self, path) -> None:
        """Write every span as CSV, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,run\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i},{self.span_names[self.names[i]]},{self.starts[i] - t0:.9f},"
                    f"{self.ends[i] - t0:.9f},{self.parents[i]},{self.runs[i]}\n"
                )
