"""Parametrized gate products: group commutators, higher-order commutator
recursions, Suzuki splittings, symmetrization, timeslicing and order fits.

A compiled gate is a ParamUnitary: an immutable tree of Leaf, Product and
Repeat nodes, which the combinators below only build. A leaf is a counted
primitive or a fixed, uncounted frame gate; a frame conjugation is a
three-factor product whose outer factors are that frame at power 0. One
interpreter evaluates, expands and reverses trees; the exponential ledger is
summed once per node at build time. The first eval of a tree finds its
sectors: the connected components of the union of its leaves' nonzero
patterns, on which every node is exactly block-diagonal (one sector when a
frame or a primitive connects everything), with each primitive's placement
in them and the gathers of its monomial frame conjugations. They depend only
on the immutable tree, so they are kept on it, and a sliced tree shares
them. Every eval then makes a top-down pass over the distinct nodes of its
tree, in which every node collects the distinct parameters it is needed at
(deep recursions revisit a node at the same parameter many times), each
slot's in one list expression of Python floats; then, one class of sectors
at a time, a bottom-up pass in which every node builds all of them as one
stack of matrices per sector with batched products, a cache-sized tile of
rows at a time. A later primitive on a strict subset of the factors
multiplies in through its index groups in each sector, and a conjugation by
an X, S or parity-flip frame is a gather of entries times fixed phases. The
root's blocks come back class by class: eval scatters them into one
full-size matrix, and measure takes each class's error against a reference
on the same indices and drops it before the next class is built. No matrix
is kept between calls.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .fock_ops import embed
from .tensor_core import (
    TOL,
    HilbertLayout,
    LayoutMismatchError,
    Operator,
    ResourceExhaustedError,
    _hermitian_defect,
    _sectors,
    is_unitary,
    spectral_norm,
)

__all__ = [
    "Primitive",
    "FrameGate",
    "Invocation",
    "GateSequence",
    "ParamUnitary",
    "Leaf",
    "Factor",
    "Product",
    "Repeat",
    "compose",
    "primitive_unitary",
    "frame_conjugate",
    "rescale",
    "reverse_pu",
    "as_linear_term",
    "group_commutator",
    "bch",
    "bch_constants",
    "trotter",
    "suzuki_coefficient",
    "suzuki_index",
    "symmetrize",
    "sliced",
    "measure",
    "Measurement",
    "timeslice",
    "TimesliceResult",
    "fit_power_law",
    "PowerLawFit",
    "FitWindow",
    "sweep_errors",
]


class Primitive:
    """One directly exponentiable Hermitian generator.

    The generator acts on the factors of layout at the strictly increasing
    positions `at` (None: every factor), and its layout is theirs; on the
    other factors the primitive is the identity. The builder names those
    factors, so nothing is searched for: `support` is `at`. The generator
    splits into the sectors of its nonzero pattern (the quantum numbers it
    conserves), and each sector is eigendecomposed on its own. So
    exp(i t H) is unitary to rounding and exactly block-diagonal on the
    index groups: group k holds the full-size basis indices of sector k's
    support states, one row per state of the other factors, and every row
    carries the same block. The primitive keeps the groups and the sectors'
    eigendecompositions, not a full-size generator.
    """

    def __init__(self, label: str, layout: HilbertLayout, generator: Operator,
                 at: Sequence[int] | None = None):
        self.label = label
        self.layout = layout
        self.support = tuple(range(layout.nfactors)) if at is None else tuple(at)
        fits = (
            list(self.support) == sorted(set(self.support))
            and set(self.support) <= set(range(layout.nfactors))
            and generator.layout.factors == tuple(layout.factors[j] for j in self.support)
        )
        if not fits:
            raise LayoutMismatchError(
                f"primitive {label!r}: a generator on {generator.layout.factors} does not "
                f"fit factors {self.support} of {layout.factors}"
            )
        block = generator.mat
        sectors = _sectors(block != 0)
        subs = [block[np.ix_(sec, sec)] for sec in sectors]
        # Entries between sectors are zero both ways, so this gives the same
        # answer as the check on the whole generator, and the largest entry
        # of the sectors is the generator's.
        scale = max(1.0, max(float(np.max(np.abs(sub))) for sub in subs))
        if not all(_hermitian_defect(sub) <= TOL.hermiticity * scale for sub in subs):
            raise ValueError(f"primitive {label!r} needs a Hermitian generator")
        # True when the generator leaves at least one factor alone.
        self.local = len(self.support) < self.layout.nfactors
        dims = [d for _, d in self.layout.factors]
        rest = [j for j in range(len(dims)) if j not in self.support]
        # index[u, r]: the basis index of support state u and spectator state r.
        index = np.arange(self.layout.dim).reshape(dims).transpose(list(self.support) + rest)
        index = index.reshape(len(block), -1)
        self.groups = [index[sec].T for sec in sectors]
        self._eighs = [np.linalg.eigh(sub) for sub in subs]

    def block(self, ts: np.ndarray, g: int) -> np.ndarray:
        """exp(i t H) on the sector of group g, a block per parameter in ts."""
        return _exp_block(self._eighs[g], ts)

    def restricted(self, t: float, idx: np.ndarray) -> np.ndarray:
        """exp(i t H) on the sorted basis indices idx, which hold every row
        of a group that they touch: entry (a, b) is the unitary's entry
        (idx[a], idx[b])."""
        pos = np.full(self.layout.dim, -1)
        pos[idx] = np.arange(len(idx))
        out = np.zeros((len(idx),) * 2, dtype=np.complex128)
        ts = np.array([t], dtype=float)
        for rows, eigh in zip(self.groups, self._eighs):
            at = pos[rows]
            at = at[at[:, 0] >= 0]
            if len(at):
                out[at[:, :, None], at[:, None, :]] = _exp_block(eigh, ts)
        return out

    def unitary(self, t: float) -> np.ndarray:
        """exp(i t H) on the whole layout."""
        return self.restricted(t, np.arange(self.layout.dim))

    def __repr__(self):
        return f"Primitive({self.label!r})"


def _exp_block(eigh: tuple[np.ndarray, np.ndarray], ts: np.ndarray) -> np.ndarray:
    """exp(i t H) on one sector from its eigendecomposition, a block per
    parameter in ts."""
    evals, evecs = eigh
    phases = np.exp(1j * ts[:, None] * evals)
    return (evecs * phases[:, None, :]) @ evecs.conj().T


class FrameGate:
    """Fixed unitary (basis change) that is recorded but not counted as an
    exponential.

    factors maps a factor position to the one-factor unitary acting there, as
    in fock_ops.embed, with the identity elsewhere. Unitarity is checked on
    each factor, and mat is their embedding.

    The frame is monomial when every factor has one nonzero per row and per
    column, each exactly +-1 or +-i (X, S, Sdg and the vacuum parity flip,
    not H). Then so has mat: the nonzero of row a sits in column perm[a] and
    equals phase[a], and a conjugation by it is an exact gather.
    """

    def __init__(self, label: str, layout: HilbertLayout, factors: Mapping[int, Operator]):
        for op in factors.values():
            if not is_unitary(op):
                raise ValueError(f"frame gate {label!r} must be unitary")
        self.label = label
        self.layout = layout
        self.factors = dict(factors)
        self.mat = embed(self.factors, layout).mat
        self.monomial = all(_is_monomial(op.mat) for op in self.factors.values())
        if self.monomial:
            # One nonzero per row, so the row-major nonzeros come row by row.
            self.perm = np.flatnonzero(self.mat) % layout.dim
            self.phase = self.mat[np.arange(layout.dim), self.perm]
        self._dagger: FrameGate | None = None

    def dagger(self) -> "FrameGate":
        """The inverse gate; built once, and its own dagger is self, so
        reversed and inverted sequences compare equal gate by gate."""
        if self._dagger is None:
            label = self.label[:-1] if self.label.endswith("'") else self.label + "'"
            factors = {at: op.dag() for at, op in self.factors.items()}
            self._dagger = FrameGate(label, self.layout, factors)
            self._dagger._dagger = self
        return self._dagger

    def __repr__(self):
        return f"FrameGate({self.label!r})"


def _is_monomial(m: np.ndarray) -> bool:
    """Whether m has one nonzero per row and per column, each +-1 or +-i."""
    nz = m != 0
    return (
        bool(np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1))
        and bool(np.all(np.isin(m[nz], (1, -1, 1j, -1j))))
    )


@dataclass(frozen=True)
class Invocation:
    """One gate in a sequence: a primitive at a parameter, or a frame gate."""

    gate: Primitive | FrameGate
    param: float | None = None

    @property
    def label(self) -> str:
        return self.gate.label

    def matrix(self) -> np.ndarray:
        if isinstance(self.gate, Primitive):
            return self.gate.unitary(self.param)
        return self.gate.mat

    def inverted(self) -> "Invocation":
        if isinstance(self.gate, Primitive):
            return Invocation(self.gate, -self.param)
        return Invocation(self.gate.dagger(), None)


@dataclass
class GateSequence:
    """Fully expanded gate list in operator-product order: entry 0 is the
    leftmost factor and acts last."""

    layout: HilbertLayout
    invocations: list[Invocation] = field(default_factory=list)

    def __len__(self):
        return len(self.invocations)

    def __iter__(self):
        return iter(self.invocations)

    def to_operator(self) -> Operator:
        mat = np.eye(self.layout.dim, dtype=np.complex128)
        for inv in self.invocations:
            mat = mat @ inv.matrix()
        return Operator(self.layout, mat)


@dataclass(frozen=True)
class Leaf:
    """One gate: a primitive is a counted exponential at the node parameter;
    a frame gate is fixed, takes no parameter and is not counted."""

    gate: Primitive | FrameGate


@dataclass(frozen=True)
class Factor:
    """One constituent of a Product: pu at coeff * t**power, as its adjoint
    when invert is set. adjoint_if_negative takes coeff * |t|**power instead
    and flips the adjoint for t < 0."""

    pu: ParamUnitary
    coeff: float = 1.0
    power: float = 1
    invert: bool = False
    adjoint_if_negative: bool = False

    def at(self, t: float) -> tuple[float, bool]:
        """(parameter, adjoint) of this factor at node parameter t."""
        if self.adjoint_if_negative:
            return self.coeff * abs(t) ** self.power, self.invert != (t < 0)
        return self.coeff * t**self.power, self.invert


@dataclass(frozen=True)
class Product:
    """Factors in operator order: factors[0] is leftmost and acts last. A
    positive step_scale marks a Suzuki formula, which warns once when
    step_scale * |t| > 1."""

    factors: tuple[Factor, ...]
    step_scale: float = 0.0


@dataclass(frozen=True)
class Repeat:
    """child(t / count) applied count times."""

    child: ParamUnitary
    count: int


@dataclass(frozen=True)
class ParamUnitary:
    """A parametrized unitary family t -> U(t); equality ignores labels.

    target_power records the leading power of t in the generator the family
    approximates (1 for flows, k+1 for commutator targets); symmetrization
    dispatches on its parity. cost_counter is the per-label exponential ledger.
    """

    label: str = field(compare=False)
    layout: HilbertLayout
    node: Leaf | Product | Repeat
    target_power: int = 1
    cost_counter: Counter = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cost_counter", Counter(_ledger(self.node)))
        object.__setattr__(self, "_hash", hash((self.layout, self.node, self.target_power)))

    def __hash__(self):
        # Cached: subtrees are shared, so recomputing would walk every path.
        return self._hash

    def eval(self, t: float) -> Operator:
        out = np.zeros((self.layout.dim,) * 2, dtype=np.complex128)
        for cls, blocks in self.eval_classes(t):
            out[cls[:, :, None], cls[:, None, :]] = blocks
            del blocks  # before the next class is built
        return Operator(self.layout, out)

    def eval_classes(self, t: float):
        """U(t) one class of the tree's sectors at a time: yields (cls,
        blocks), blocks[j] being U(t) on the basis indices cls[j]; nothing of
        one class is kept while the next is built."""
        return _evaluate(self, float(t))

    def cost(self) -> int:
        return sum(self.cost_counter.values())

    def expand(self, t: float) -> GateSequence:
        length = _length(self)
        if length > TOL.sequence_cap:
            raise ResourceExhaustedError(
                f"{self.label}: expansion of {length} gates "
                f"exceeds cap {TOL.sequence_cap}"
            )
        return GateSequence(self.layout, _expand(self, float(t)))

    def __repr__(self):
        return f"ParamUnitary({self.label!r}, cost={self.cost()})"


# Suzuki nodes that have already warned about their step size.
_WARNED: weakref.WeakSet = weakref.WeakSet()


def _ledger(node) -> Counter:
    match node:
        case Leaf(gate):
            return Counter({gate.label: 1} if isinstance(gate, Primitive) else {})
        case Product(factors):
            return sum((f.pu.cost_counter for f in factors), Counter())
        case Repeat(child, count):
            return Counter({lbl: n * count for lbl, n in child.cost_counter.items()})
    raise TypeError(f"not a node: {node!r}")


def _length(root: ParamUnitary) -> int:
    """Number of invocations in root's expansion, frame gates included,
    counted over the distinct nodes without building the list."""
    length: dict[int, int] = {}
    for pu in reversed(_topological(root)):
        match pu.node:
            case Leaf():
                length[id(pu)] = 1
            case Product(factors):
                length[id(pu)] = sum(length[id(f.pu)] for f in factors)
            case Repeat(child, count):
                length[id(pu)] = length[id(child)] * count
    return length[id(root)]


def _topological(root: ParamUnitary) -> list[ParamUnitary]:
    """The distinct nodes under root (by id), every parent before its children."""
    order: list[ParamUnitary] = []
    seen: set[int] = set()

    def visit(pu: ParamUnitary) -> None:
        seen.add(id(pu))
        match pu.node:
            case Repeat(child):
                children = [child]
            case Product(factors):
                children = [f.pu for f in factors]
            case Leaf():
                children = []
        for child in children:
            if id(child) not in seen:
                visit(child)
        order.append(pu)

    visit(root)
    return order[::-1]


def _rows(need: dict, key, params: list[float]) -> slice | np.ndarray:
    """Rows of key's stack holding params, registering new parameters; a
    contiguous run is a slice, so reading it copies nothing."""
    rows = need.setdefault(key, {})
    idx = [rows.setdefault(p, len(rows)) for p in params]
    if idx == list(range(idx[0], idx[0] + len(idx))):
        return slice(idx[0], idx[0] + len(idx))
    return np.array(idx)


def _plan(pu: ParamUnitary, params: list[float], need: dict, gathers: dict) -> list[tuple]:
    """pu's slots at params: (stack key, rows, adjoint, local primitive).
    Every slot reads one row per parameter, so a constant factor reads the
    same row throughout. A product in gathers reads only its middle factor,
    as a plain slot. Each slot's parameters are one list expression of
    Factor.at's float operations (numpy's powers round some differently),
    and p ** 1 == p is left out."""
    match pu.node:
        case Repeat(child, count):
            return [(id(child), _rows(need, id(child), [p / count for p in params]), False, None)]
        case Product(factors, step_scale):
            step = max(map(abs, params))
            if step_scale and step_scale * step > 1.0 and pu not in _WARNED:
                _WARNED.add(pu)
                # The node's own parameter: under a Repeat, the step of one slice.
                warnings.warn(
                    f"{pu.label}: step size {step:g} outside the well-conditioned "
                    f"range |t| <= {1.0 / step_scale:g}",
                    RuntimeWarning,
                    stacklevel=4,
                )
            slots, seen = [], {}
            if id(pu) in gathers:
                factors = factors[1:2]
            for i, f in enumerate(factors):
                # A later leaf on a strict subset of the factors multiplies in
                # through its support; its adjoint is the primitive at -s.
                gate = f.pu.node.gate if isinstance(f.pu.node, Leaf) else None
                local = gate if i > 0 and isinstance(gate, Primitive) and gate.local else None
                key = (id(f.pu), f.coeff, f.power, f.invert, f.adjoint_if_negative, local)
                if key not in seen:
                    c, e, adjoint = f.coeff, f.power, f.invert
                    if f.adjoint_if_negative:
                        ss = [c * abs(p) ** e for p in params]
                        # One adjoint flag when every row agrees, else a mask.
                        flips = [(p < 0) != adjoint for p in params]
                        adjoint = flips[0] if len(set(flips)) == 1 else np.array(flips)
                    elif e == 1:
                        # 1.0 * p == p: a pass-through slot reads the parent's.
                        ss = params if c == 1 else [c * p for p in params]
                    else:
                        ss = [c * p**e for p in params]
                    if local is None:
                        seen[key] = (id(f.pu), _rows(need, id(f.pu), ss), adjoint, None)
                    else:
                        flip = np.broadcast_to(adjoint, len(ss)).tolist()
                        block = ("block", id(f.pu))
                        rows = _rows(need, block, [-s if a else s for s, a in zip(ss, flip)])
                        seen[key] = (block, rows, False, local)
                slots.append(seen[key])
            return slots


def _tree_sectors(order: list[ParamUnitary]) -> list[np.ndarray]:
    """The sectors of the union of the nonzero patterns of the leaves among
    order (a tree's distinct nodes): every node of the tree is exactly
    block-diagonal on them. A primitive's pattern joins each of its index
    groups; a frame that mixes sectors merges them."""
    dim = order[0].layout.dim
    pattern = np.zeros((dim, dim), dtype=bool)
    for pu in order:
        match pu.node:
            case Leaf(Primitive() as gate):
                for rows in gate.groups:
                    pattern[rows[:, :, None], rows[:, None, :]] = True
            case Leaf(gate):
                pattern |= gate.mat != 0
    return _sectors(pattern)


# Sectors smaller than this are stacked by size, so a tree with many small
# sectors costs a few numpy calls per node, not a few per sector: cross-Kerr
# at cutoff 16 (290 sectors of at most 2) evaluates 4-5x faster stacked. A
# larger sector is a class of its own: there the arithmetic outweighs the
# per-call overhead, and HOM at dim 450 (two sectors of 225) evaluates about
# 10% faster one sector at a time than stacked.
_STACK_BELOW = 32

# Bytes of a tile of a product's rows (see _build_class). A 16-slice Kerr eval
# at cutoff 6 (14 x 14 blocks; 2-vCPU Xeon) took 64 ms and 1,850 page faults at
# 128 KiB, against 79 ms and 5,120 untiled, 80 ms at 32 KiB, 73 ms at 512 KiB.
_TILE_BYTES = 1 << 17


def _classes(sectors: list[np.ndarray]) -> list[np.ndarray]:
    """The sectors in classes: one (m, k) index array per class, whose row j
    is one sector's indices. Sectors of fewer than _STACK_BELOW indices are
    classed by size; each larger one is a class of its own."""
    classes: dict[int, list] = {}
    for i, sec in enumerate(sectors):
        classes.setdefault(len(sec) if len(sec) < _STACK_BELOW else -1 - i, []).append(sec)
    return [np.array(secs) for secs in classes.values()]


def _place(groups: list[np.ndarray], classes: list[np.ndarray]) -> list[list[tuple]]:
    """Per class of sectors, (g, columns) for the rows of a primitive's
    group g that lie in it. Column j*k + p is position p of the class's
    sector j. Each row lies in one sector, and the rows in a sector cover it."""
    owner = np.empty(sum(cls.size for cls in classes), dtype=np.intp)
    column = np.empty_like(owner)
    for i, cls in enumerate(classes):
        owner[cls] = i
        column[cls] = np.arange(cls.size).reshape(cls.shape)
    placed: list[list[tuple]] = [[] for _ in classes]
    for g, rows in enumerate(groups):
        own = owner[rows[:, 0]]
        for i in set(own.tolist()):
            placed[i].append((g, column[rows[own == i]]))
    return placed


def _assemble(
    blocks: list[np.ndarray], placed: list[tuple], m: int, k: int, out=None
) -> np.ndarray:
    """A stack of m zero k x k blocks per parameter, with each of blocks
    scattered onto every row of the columns placed beside it, written into
    out when given. It is laid out as _apply_groups reads it: block
    j's row r at wide[:, r, j*k:(j+1)*k]."""
    if out is None:
        wide = np.zeros((len(blocks[0]), k, m * k), dtype=np.complex128)
    else:
        wide = out.transpose(0, 2, 1, 3).reshape(len(out), k, m * k)
        wide.fill(0)
    flat = wide.reshape(len(wide), -1)
    for block, (_, cols) in zip(blocks, placed):
        # Entry (r, q) of the block on a row c of columns is wide[:, c[r] % k, c[q]].
        flat[:, (cols % k * m * k)[:, :, None] + cols[:, None, :]] = block[:, None]
    return wide.reshape(len(wide), k, m, k).transpose(0, 2, 1, 3)


def _apply_groups(mat: np.ndarray, blocks: list, placed: list[tuple], out=None) -> np.ndarray:
    """mat @ a local primitive's unitaries on one class of equal sectors,
    for a stack of shape (batch, m, k, k): the columns at each row of the
    columns of each entry of placed multiply by the block beside it. Each
    group's product is written into its own columns of out (new when None;
    laid out as _assemble's stacks), which the groups cover. out may be mat
    itself: each group reads its columns before it writes them, and no
    other group reads them."""
    batch, m, k = mat.shape[:3]
    # The class's sectors side by side: wide[:, r, j*k + p] = mat[:, j, r, p].
    wide = mat.transpose(0, 2, 1, 3).reshape(batch, k, m * k)
    base = np.empty((batch, k, m, k), complex) if out is None else out.transpose(0, 2, 1, 3)
    flat = base.reshape(-1)
    # Row r of base starts at starts[r]. One flat index array scatters a
    # hom-450 group (k = 225) in 83 us, an index array per axis in 109 us.
    starts = np.arange(0, flat.size, m * k)[:, None]
    for block, (_, cols) in zip(blocks, placed):
        # take, unlike fancy indexing, returns the gathered columns contiguous,
        # so each group product is one batched matmul with no reshape copy.
        # No name holds the product, so it is freed before the next group's.
        flat[(starts + cols.ravel()).ravel()] = (
            np.take(wide, cols, axis=2).reshape(batch, -1, cols.shape[1]) @ block
        ).ravel()
    return base.transpose(0, 2, 1, 3)


def _sandwich(factors: tuple[Factor, ...]) -> tuple | None:
    """((F, invert), (G, invert)) when factors are F, any factor and G, with
    F and G leaves of monomial frames whose adjoint does not follow the
    parameter's sign; else None."""
    if len(factors) != 3:
        return None
    sides = []
    for f in (factors[0], factors[2]):
        gate = f.pu.node.gate if isinstance(f.pu.node, Leaf) else None
        if not isinstance(gate, FrameGate) or not gate.monomial or f.adjoint_if_negative:
            return None
        sides.append((gate, f.invert))
    return tuple(sides)


def _monomial_side(gate: FrameGate, invert: bool, left: bool) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) of gate, or of its adjoint when invert is set, as a
    factor on the left (F @ U reads row perm[a] of U into row a, times
    phase[a]) or on the right (U @ G reads column perm[b] into column b)."""
    # Row a of the gate holds phase[a] at column perm[a]; column b holds
    # phase[inv[b]] at row inv[b]. The adjoint swaps the two and conjugates.
    if left != invert:
        perm, phase = gate.perm, gate.phase
    else:
        perm = np.argsort(gate.perm)
        phase = gate.phase[perm]
    return perm, phase.conj() if invert else phase


def _gathers(sides: tuple, classes: list[np.ndarray]) -> list[tuple]:
    """F @ U @ G on each class for the monomial frames sides = ((F, invert),
    (G, invert)), as (first, second, phases): entry (a, b) of sector j is
    U's entry (perm_F[a], perm_G[b]) of that sector times phase_F[a] *
    phase_G[b]. first[j, a, 0] + second[j, 0, b] is that entry's flat index
    in a class block, split so that no k x k index array is kept; phases is
    None when every phase is 1. Each entry has one nonzero term, so this is
    exact."""
    (lperm, lphase), (rperm, rphase) = (
        _monomial_side(gate, invert, left) for (gate, invert), left in zip(sides, (True, False))
    )
    position = np.empty(len(lperm), dtype=np.intp)
    out = []
    for cls in classes:
        m, k = cls.shape
        position[cls] = np.arange(k)
        first = (np.arange(m)[:, None] * k + position[lperm[cls]]) * k
        lph, rph = lphase[cls][:, :, None], rphase[cls][:, None, :]
        phases = None if np.all(lph == 1) and np.all(rph == 1) else (lph, rph)
        out.append((first[:, :, None], position[rperm[cls]][:, None, :], phases))
    return out


@dataclass(frozen=True)
class _TreeSectors:
    """What every eval of one tree reads of its sectors: the classes, each
    primitive's placement in them and the last class each of its groups is
    placed in (by id of the primitive), and the gathers of each monomial
    frame sandwich (by id of the product)."""

    classes: list[np.ndarray]
    places: dict[int, list[list[tuple]]]
    last: dict[int, dict[int, int]]
    gathers: dict[int, list[tuple]]


def _sectors_of(root: ParamUnitary) -> _TreeSectors:
    """root's sectors, found on its first eval and kept on the immutable
    tree; a Repeat has its child's leaves, so it shares its child's."""
    cached = root.__dict__.get("_sector_cache")
    if cached is None:
        if isinstance(root.node, Repeat):
            cached = _sectors_of(root.node.child)
        else:
            order = _topological(root)
            classes = _classes(_tree_sectors(order))
            places, last, gathers = {}, {}, {}
            for pu in order:
                match pu.node:
                    case Leaf(Primitive() as gate):
                        places[id(gate)] = placed = _place(gate.groups, classes)
                        last[id(gate)] = {g: i for i, pl in enumerate(placed) for g, _ in pl}
                    case Product(factors) if (sides := _sandwich(factors)) is not None:
                        gathers[id(pu)] = _gathers(sides, classes)
            cached = _TreeSectors(classes, places, last, gathers)
        object.__setattr__(root, "_sector_cache", cached)
    return cached


def _tile(stack: np.ndarray, rows: slice | np.ndarray, lo: int, step: int) -> np.ndarray:
    """stack[rows][lo:lo+step], gathering only the tile's rows."""
    if isinstance(rows, np.ndarray):
        return stack[rows[lo : lo + step]]
    return stack[rows][lo : lo + step]


def _lands(slots: list[tuple], assembled: bool) -> list:
    """Where each slot's product lands along a tile of a product node: 0 in
    the output tile, 1 in the scratch tile. The last lands in the output. A
    local primitive multiplies in place when its input is already in one of
    the two, and any other product moves to the other one. The first slot
    is read as is (None), unless assembled into one of the two."""
    lands = [0]
    for j in range(len(slots) - 1, 0, -1):
        in_place = slots[j][3] is not None and (j > 1 or assembled)
        lands.append(lands[-1] if in_place else 1 - lands[-1])
    lands.reverse()
    if not assembled:
        lands[0] = None
    return lands


def _build_class(node, slots, stacks: dict, i: int, shape, places: dict, gather, size: int,
                 assembled=None) -> np.ndarray:
    """A Product or Repeat node's stack on class i of shape (m, k), with size
    rows, from the class-i stacks of its children (stacks[key]; a local
    primitive's entry holds its blocks(ts)), each slot reading size rows;
    gather is the node's entry in the tree's gathers, if any. assembled,
    when given, is the first slot's primitive as (blocks(ts), placement): a leaf
    read by no other slot, whose rows are assembled straight into this
    node's tiles. Nothing it reads outlives the call.

    A product is built a cache-sized tile (_TILE_BYTES) of rows at a time
    into one output stack, none for a lone slot read as is. Along a tile's
    slots, the products alternate between the output tile and one scratch
    tile (see _lands), so that the last lands in the output and no step
    allocates its own."""
    if isinstance(node, Repeat):
        key, rows, _, _ = slots[0]
        return np.linalg.matrix_power(stacks[key][rows], node.count)
    m, k = shape
    alone = len(slots) == 1 and gather is None
    step = size if alone else max(1, _TILE_BYTES // (16 * m * k * k))
    lands = _lands(slots, assembled is not None)

    def stack(n: int) -> np.ndarray:
        # Laid out as _apply_groups writes (C order when m == 1).
        return np.empty((n, k, m, k), complex).transpose(0, 2, 1, 3)

    out = None if alone else stack(size)
    spare = stack(min(step, size)) if 1 in lands else None
    for lo in range(0, size, step):
        tile = None if out is None else out[lo : lo + step]
        ends = (tile, None if spare is None else spare[: len(tile)])
        mat = None
        for j, (key, rows, adjoint, local) in enumerate(slots):
            dest = None if lands[j] is None else ends[lands[j]]
            if assembled is not None and j == 0:
                blocks, placed = assembled
                mat = _assemble([_tile(b, rows, lo, step) for b in blocks], placed, m, k, dest)
                continue
            if local is not None:
                blocks = [_tile(b, rows, lo, step) for b in stacks[key]]
                mat = _apply_groups(mat, blocks, places[id(local)][i], dest)
                continue
            sub = _tile(stacks[key], rows, lo, step)
            if isinstance(adjoint, np.ndarray):
                mask = adjoint[lo : lo + step, None, None, None]
                sub = np.where(mask, sub.conj().swapaxes(-1, -2), sub)
            elif adjoint:
                sub = sub.conj().swapaxes(-1, -2)
            mat = sub if mat is None else np.matmul(mat, sub, out=dest)
        if gather is not None:
            first, second, phases = gather[i]
            # Contiguous, unlike fancy indexing; clip mode writes into the tile.
            mat = np.take(mat.reshape(len(mat), -1), first + second, 1, tile, "clip")
            if phases is not None:
                mat *= phases[0] * phases[1]
    return mat if out is None else out


def _evaluate(root: ParamUnitary, t: float):
    """root at t, one class of its sectors at a time: yields (cls, blocks)
    for each class cls, blocks[j] being root's block on the indices cls[j].

    The tree's classes of sectors, its primitives' placements in them and
    its frame gathers are found on the first eval and reused (_sectors_of).
    Top-down, every node collects the distinct parameters it is needed at
    (float equality, first occurrence kept) and plans which child rows each
    of its slots reads. Then, class by class, a bottom-up pass builds every
    node's stack of its blocks on that class, with a row per parameter,
    from its children's stacks. A leaf's stack is built when the pass first
    reads it, or assembled straight into its reader's tiles when that is
    its only read, as the reader's first factor. A stack is dropped as soon
    as its last reader has built its own, so nothing of one class is alive
    while the next is built, and the caller can use and drop a class's root
    blocks before the next class starts. A product F·U·G of monomial frames
    gathers U's entries and multiplies them by a fixed phase mask instead
    of two products.
    """
    sectors = _sectors_of(root)
    classes, places, gathers = sectors.classes, sectors.places, sectors.gathers
    order = _topological(root)
    need: dict = {id(root): {t: 0}}
    plans: dict[int, list[tuple]] = {}
    readers: Counter = Counter()
    for pu in order:
        if id(pu) in need and not isinstance(pu.node, Leaf):
            plans[id(pu)] = _plan(pu, list(need[id(pu)]), need, gathers)
            readers.update(slot[0] for slot in plans[id(pu)])
    leaves = {id(pu): pu.node.gate for pu in order if isinstance(pu.node, Leaf)}
    nodes = [pu for pu in reversed(order) if id(pu) in plans]

    # A group of a local primitive can lie in several classes: its blocks
    # are exponentiated once per eval and kept until the last of them.
    kept: dict = {}

    def blocks(key, gate: Primitive, i: int) -> list[np.ndarray]:
        """Leaf key's primitive gate on class i: its blocks at key's
        parameters, one per group placed in the class."""
        ts = np.array(list(need[key]), dtype=float)
        out = []
        for g, _ in places[id(gate)][i]:
            block = kept.pop((key, g), None)
            if block is None:
                block = gate.block(ts, g)
            if i < sectors.last[id(gate)][g]:
                kept[(key, g)] = block
            out.append(block)
        return out

    def leaf(key, i: int):
        """Leaf key's stack on class i; a local primitive's ("block", id)
        entry is its blocks on the class instead, one per placed group."""
        gate = leaves[key[1] if isinstance(key, tuple) else key]
        if isinstance(gate, Primitive):
            exps = blocks(key, gate, i)
            if isinstance(key, tuple):
                return exps
            return _assemble(exps, places[id(gate)][i], *classes[i].shape)
        cls = classes[i]
        fixed = gate.mat[cls[:, :, None], cls[:, None, :]]
        return np.broadcast_to(fixed, (len(need[key]),) + fixed.shape)

    for i, cls in enumerate(classes):
        # stacks[key] has shape (rows, m, k, k): the node's blocks on the
        # sectors of cls. readers counts, per key, the slots still to read it.
        stacks: dict = {}
        left = readers.copy()
        for pu in nodes:
            slots, gather = plans[id(pu)], gathers.get(id(pu))
            key, _, adjoint, _ = slots[0]
            assembled = None
            if (
                isinstance(leaves.get(key), Primitive) and left[key] == 1
                and not isinstance(adjoint, np.ndarray) and not adjoint
                and len(slots) > 1 and gather is None
            ):
                gate = leaves[key]
                assembled = blocks(key, gate, i), places[id(gate)][i]
            for key, *_ in slots[0 if assembled is None else 1 :]:
                if key not in stacks:
                    stacks[key] = leaf(key, i)
            size = len(need[id(pu)])
            stacks[id(pu)] = _build_class(
                pu.node, slots, stacks, i, cls.shape, places, gather, size, assembled
            )
            for key, *_ in slots:
                left[key] -= 1
                if not left[key]:
                    stacks.pop(key, None)
        if id(root) not in stacks:
            stacks[id(root)] = leaf(id(root), i)
        # Held by nothing here while the caller uses it.
        yield cls, stacks.pop(id(root))[0]


@dataclass(frozen=True)
class Measurement:
    """A gate U(t) against a reference E(t) (see measure): the operator-norm
    error ||U - E||, and with an initial state psi0, U psi0 and E psi0."""

    error: float
    state: np.ndarray | None = field(default=None, repr=False, compare=False)
    exact_state: np.ndarray | None = field(default=None, repr=False, compare=False)


def _measured_together(classes: list[np.ndarray], reference: Primitive) -> list[list[int]]:
    """The tree's classes of sectors, joined where one sector of the
    reference (a row of one of its groups) straddles several."""
    owner = np.empty(reference.layout.dim, dtype=np.intp)
    for i, cls in enumerate(classes):
        owner[cls] = i
    parent = list(range(len(classes)))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for rows in reference.groups:
        own = owner[rows]
        for row in own[np.any(own != own[:, :1], axis=1)].tolist():
            for i in row[1:]:
                parent[find(i)] = find(row[0])
    joined: dict[int, list[int]] = {}
    for i in range(len(classes)):
        joined.setdefault(find(i), []).append(i)
    return list(joined.values())


def measure(
    pu: ParamUnitary, t: float, reference: Primitive, psi0: np.ndarray | None = None
) -> Measurement:
    """pu's U(t) against the reference E(t), the primitive's exp(i t H).

    It is measured one class of pu's sectors at a time: the class's blocks
    of U, the reference on the same indices, their difference and its norm
    are formed and dropped before the next class is built. Classes that one
    sector of the reference straddles are measured together. Each
    difference's norm is spectral_norm's (one SVD per sector of its nonzero
    pattern), and every SVD sees the entries, in the order, that
    spectral_norm of the full-size U - E gives it, so the error is the same
    to the bit. U psi0 and E psi0 are taken one class at a time too; for a
    basis state psi0 they equal the full-size products to the bit.
    """
    dim = pu.layout.dim
    if reference.layout.dim != dim:
        raise LayoutMismatchError(
            f"{pu.label}: a reference of dim {reference.layout.dim} for dim {dim}"
        )
    classes = _sectors_of(pu).classes
    together = _measured_together(classes, reference)
    # pos[a]: basis index a's position among the sorted indices idx of its
    # measured class, which its blocks are scattered onto.
    pos = np.empty(dim, dtype=np.intp)
    which, indices, waiting = {}, [], []
    for c, members in enumerate(together):
        idx = np.sort(np.concatenate([classes[i].ravel() for i in members]))
        pos[idx] = np.arange(len(idx))
        indices.append(idx)
        waiting.append(len(members))
        which.update(dict.fromkeys(members, c))
    states = None if psi0 is None else (np.zeros(dim, complex), np.zeros(dim, complex))
    held, errors, i = {}, [], -1
    # Counted by hand: enumerate would keep a class's blocks, in the tuple it
    # reuses, while the next class is built.
    for cls, blocks in pu.eval_classes(t):
        i += 1
        c, idx = which[i], indices[which[i]]
        diff = held.pop(c) if c in held else np.zeros((len(idx),) * 2, dtype=np.complex128)
        at = pos[cls]
        diff[at[:, :, None], at[:, None, :]] = blocks
        del blocks
        waiting[c] -= 1
        if waiting[c]:
            held[c] = diff
            continue
        if not np.all(np.isfinite(diff)):
            raise ValueError("operator entries must be finite")
        exact = reference.restricted(t, idx)
        if states is not None and np.any(psi0[idx]):
            states[0][idx] = diff @ psi0[idx]
            states[1][idx] = exact @ psi0[idx]
        diff -= exact
        del exact
        errors.append(spectral_norm(diff))
        del diff
    return Measurement(max(errors), *(states or ()))


def _expand(pu: ParamUnitary, t: float) -> list[Invocation]:
    match pu.node:
        case Leaf(gate):
            return [Invocation(gate, t if isinstance(gate, Primitive) else None)]
        case Product(factors):
            out: list[Invocation] = []
            for f in factors:
                s, adjoint = f.at(t)
                seq = _expand(f.pu, s)
                out.extend([inv.inverted() for inv in reversed(seq)] if adjoint else seq)
            return out
        case Repeat(child, count):
            return _expand(child, t / count) * count


def _reverse(pu: ParamUnitary, done: dict) -> ParamUnitary:
    if id(pu) in done:
        return done[id(pu)]
    match pu.node:
        case Leaf():
            return pu
        case Product(factors):
            backwards = [dataclasses.replace(f, pu=_reverse(f.pu, done)) for f in factors[::-1]]
            node = dataclasses.replace(pu.node, factors=tuple(backwards))
        case Repeat(child):
            node = dataclasses.replace(pu.node, child=_reverse(child, done))
    done[id(pu)] = out = ParamUnitary(f"rev[{pu.label}]", pu.layout, node, pu.target_power)
    return out


def primitive_unitary(prim: Primitive) -> ParamUnitary:
    return ParamUnitary(prim.label, prim.layout, Leaf(prim))


def compose(
    label: str,
    factors: Sequence[Factor],
    target_power: int = 1,
) -> ParamUnitary:
    """Product of factors in operator order: factors[0] is leftmost and acts
    last. Cost is the arithmetic sum of the factor budgets."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("compose needs at least one factor")
    layout = factors[0].pu.layout
    for f in factors:
        if f.pu.layout != layout:
            raise LayoutMismatchError("all factors must share one layout")
    return ParamUnitary(label, layout, Product(factors), target_power)


def frame_conjugate(pu: ParamUnitary, frame: FrameGate) -> ParamUnitary:
    """F U(t) F^dag: a product whose outer factors are the frame leaf at
    power 0, so reversal and inversion follow the product rules and the
    frame is recorded but not counted."""
    if frame.layout != pu.layout:
        raise LayoutMismatchError("frame and unitary layouts differ")
    leaf = ParamUnitary(frame.label, frame.layout, Leaf(frame))
    factors = [Factor(leaf, power=0), Factor(pu), Factor(leaf, power=0, invert=True)]
    return compose(f"{frame.label}[{pu.label}]", factors, pu.target_power)


def rescale(pu: ParamUnitary, c: float, label: str | None = None) -> ParamUnitary:
    """U(c t): a pure reparametrization, same budget."""
    return compose(label or f"{pu.label}@{c:g}t", [Factor(pu, c)], pu.target_power)


def reverse_pu(pu: ParamUnitary) -> ParamUnitary:
    """Same invocations in reversed order, built by reversing the tree: each
    product lists its factors backwards, so a frame conjugation swaps F and
    F^dag."""
    return _reverse(pu, {})


def as_linear_term(pu: ParamUnitary, label: str | None = None) -> ParamUnitary:
    """Reparametrize a power-m family into a flow: T(s) = U(s^(1/m)).

    Negative s is realized as the adjoint of the positive-s evaluation, which
    is what a splitting formula with negative coefficients needs.
    """
    m = pu.target_power
    if m < 2:
        raise ValueError("as_linear_term expects target_power >= 2")
    factor = Factor(pu, power=1.0 / m, adjoint_if_negative=True)
    return compose(label or f"lin[{pu.label}]", [factor])


def group_commutator(u_a: ParamUnitary, u_b: ParamUnitary, k: int = 1) -> ParamUnitary:
    """Q(t) = A(t) B(t^k) A(-t) B(-t^k), the bare four-exponential block.

    Approximates exp([K_A, K_B] t^(k+1)) to leading order, where K are the
    anti-Hermitian generators of the operands near t = 0.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("inner power k must be odd and positive")
    factors = [Factor(u_a), Factor(u_b, power=k), Factor(u_a, -1.0), Factor(u_b, -1.0, k)]
    return compose(
        f"Q[{u_a.label},{u_b.label}]", factors, target_power=k + 1
    )


def bch_constants(p: int, k: int) -> tuple[float, float, float]:
    """(r, beta, gamma) for lifting a level-p commutator block by two orders."""
    e = (k + 1) / (2 * p + k + 1)
    rp = 2.0**e / (4.0 * (2.0 - 2.0**e))
    beta = (2.0 * rp) ** (1.0 / (k + 1))
    gamma = (0.25 + rp) ** (1.0 / (k + 1))
    return rp, beta, gamma


def bch(
    p: int,
    k: int,
    u_a: ParamUnitary,
    u_b: ParamUnitary,
    base: str | None = None,
) -> ParamUnitary:
    """Order-p commutator block: approximates exp([K_A, K_B] t^(k+1)) with
    error O(t^(2p+k)).

    base selects the level-1 block. "split" squares the bare block at
    t / 2^(1/(k+1)) (8 exponentials for k = 1, first-order accurate in the
    block sense); "lean" is the bare four-exponential block. The default is
    "split" for k = 1 and "lean" otherwise.
    """
    if p < 1:
        raise ValueError("order p must be >= 1")
    if k < 1 or k % 2 == 0:
        raise ValueError("inner power k must be odd and positive")
    if u_a.layout != u_b.layout:
        raise LayoutMismatchError("operand layouts differ")
    if base is None:
        base = "split" if k == 1 else "lean"
    if base not in ("split", "lean"):
        raise ValueError(f"unknown base {base!r}")

    q = group_commutator(u_a, u_b, k)
    if base == "split":
        half = 2.0 ** (-1.0 / (k + 1))
        level = compose(
            f"Q2[{u_a.label},{u_b.label}]", [Factor(q, half)] * 2, target_power=k + 1
        )
    else:
        level = q

    for pp in range(1, p):
        _, beta, gamma = bch_constants(pp, k)
        factors = [
            Factor(level, gamma),
            Factor(level, -gamma),
            Factor(level, beta, invert=True),
            Factor(level, -beta, invert=True),
            Factor(level, gamma),
            Factor(level, -gamma),
        ]
        level = compose(
            f"bch{pp + 1}[{u_a.label},{u_b.label}]", factors, target_power=k + 1
        )
    return level


def suzuki_coefficient(k: int) -> float:
    """p_k in the order-2k recursion; 1 - 4 p_k is the negative middle step."""
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))


def suzuki_index(p: int) -> int:
    """Index s = max(1, ceil(p/2 - 1/4)) of the order-2s Suzuki splitting
    that joins order-p commutator blocks."""
    return (p + 1) // 2


def trotter(order: int, terms: Sequence[ParamUnitary]) -> ParamUnitary:
    """Suzuki product formula of even order for a list of term flows.

    Each term is a flow s -> exp(s G_j); the result approximates
    exp(t sum_j G_j) with error O(t^(order+1)) per application. sliced
    applies it several times at a shorter step.
    """
    if order < 2 or order % 2:
        raise ValueError("order must be even and >= 2")
    if not terms:
        raise ValueError("need at least one term")
    layout = terms[0].layout
    for term in terms:
        if term.layout != layout:
            raise LayoutMismatchError("all terms must share one layout")

    halves = [Factor(term, 0.5) for term in terms]
    factors = halves + halves[::-1]
    for k in range(2, order // 2 + 1):
        level = compose(f"trotter{2 * k - 2}", factors)
        outer = Factor(level, suzuki_coefficient(k))
        factors = [outer, outer, Factor(level, 1.0 - 4.0 * outer.coeff), outer, outer]
    label = f"trotter{order}[" + ",".join(t.label for t in terms) + "]"
    step_scale = 4.0 * len(terms) * 5.0 ** (order // 2 - 1)
    return ParamUnitary(label, layout, Product(tuple(factors), step_scale))


def symmetrize(pu: ParamUnitary) -> ParamUnitary:
    """Order-raising two-copy product, dispatching on the target parity.

    Flows and odd-power targets take U(t/2) * reverse(U)(t/2); even-power
    (commutator) targets take U(tau) U(-tau) with tau = t 2^(-1/m), since
    literal reversal would flip the commutator's sign instead of echoing it.
    """
    m = pu.target_power
    if m % 2 == 1:
        factors = [Factor(pu, 0.5), Factor(reverse_pu(pu), 0.5)]
    else:
        tau = 2.0 ** (-1.0 / m)
        factors = [Factor(pu, tau), Factor(pu, -tau)]
    return compose(f"sym[{pu.label}]", factors, target_power=m)


def sliced(pu: ParamUnitary, r: int) -> ParamUnitary:
    """U(t/r)^r without re-expanding: one evaluation plus a matrix power."""
    if r < 1:
        raise ValueError("slice count must be >= 1")
    if r == 1:
        return pu
    return ParamUnitary(f"{pu.label}^r{r}", pu.layout, Repeat(pu, r), pu.target_power)


@dataclass
class TimesliceResult:
    slices: int
    error: float
    unitary: ParamUnitary
    measured: Measurement = field(repr=False, compare=False)  # at slices


def timeslice(
    pu: ParamUnitary,
    target: Primitive,
    t: float,
    eps: float,
    psi0: np.ndarray | None = None,
    max_slices: int = 1 << 20,
) -> TimesliceResult:
    """Smallest r with ||U(t/r)^r - E(t)|| <= eps, for E(t) the target's
    exp(i t H), the reference the gate approximates at t.

    Doubling search bracket, then bisection to the minimal count, each
    count measured once (with psi0, as in measure). The measurement at the
    count found is returned, so a caller need not evaluate the gate at t
    again.
    """
    best = None

    def err(r: int) -> float:
        nonlocal best
        measured = measure(sliced(pu, r), t, target, psi0)
        if measured.error <= eps:
            best = (r, measured)
        return measured.error

    r = 1
    e = err(r)
    while e > eps:
        r *= 2
        if r > max_slices:
            raise ResourceExhaustedError(
                f"timeslice: {r} slices exceed cap {max_slices} (error {e:.3g})"
            )
        e = err(r)
    lo, hi = r // 2, r
    while hi - lo > 1 and lo >= 1:
        mid = (lo + hi) // 2
        if err(mid) <= eps:
            hi = mid
        else:
            lo = mid
    r, measured = best
    return TimesliceResult(r, measured.error, sliced(pu, r), measured)


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    prefactor: float
    residual: float
    n_used: int


def fit_power_law(
    ts: Sequence[float], errs: Sequence[float], floor: float = TOL.noise_floor
) -> PowerLawFit:
    """Least-squares slope of log10(err) against log10(t).

    Points at or below the noise floor are dropped; at least four must
    survive. The residual is the RMS deviation in log10.
    """
    ts = np.asarray(ts, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if ts.shape != errs.shape:
        raise ValueError("ts and errs must have equal length")
    if np.any(ts <= 0):
        raise ValueError("sample times must be positive")
    keep = errs > floor
    if int(keep.sum()) < 4:
        raise ValueError(
            f"only {int(keep.sum())} samples above the noise floor, need >= 4"
        )
    lt = np.log10(ts[keep])
    le = np.log10(errs[keep])
    slope, intercept = np.polyfit(lt, le, 1)
    resid = float(np.sqrt(np.mean((le - (slope * lt + intercept)) ** 2)))
    return PowerLawFit(float(slope), float(10.0**intercept), resid, int(keep.sum()))


@dataclass(frozen=True)
class FitWindow:
    """Log-spaced sampling window for order fits."""

    lo: float = 1e-3
    hi: float = 1e-1
    points: int = 12

    def times(self) -> np.ndarray:
        return np.logspace(math.log10(self.lo), math.log10(self.hi), self.points)


def sweep_errors(
    approx: Callable[[float], Operator],
    target: Callable[[float], Operator],
    window: FitWindow = FitWindow(),
) -> tuple[np.ndarray, np.ndarray]:
    """Operator-norm error of approx against target over the window."""
    ts = window.times()
    errs = np.array(
        [spectral_norm(approx(t).mat - target(t).mat) for t in ts]
    )
    return ts, errs
