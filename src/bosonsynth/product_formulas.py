"""Parametrized gate products: group commutators, higher-order commutator
recursions, Suzuki splittings, symmetrization, timeslicing and order fits.

A compiled gate is a ParamUnitary: an immutable tree of Leaf, Product and
Repeat nodes, which the combinators below only build. A leaf is a counted
primitive or a fixed, uncounted frame gate, each declared on the factors it
acts on and kept as index groups and sector blocks, never at full size; a
frame conjugation is a three-factor product whose outer factors are that
frame at power 0. One interpreter evaluates and expands trees; the
exponential ledger is summed once per node at build time. An eval works on
the tree's sectors (the connected components of the union of its leaves'
index groups, on which every node is exactly block-diagonal), found on the
first eval and kept on the tree, which a sliced tree shares. A top-down pass
collects the distinct parameters every node is needed at; then, one class
of sectors at a time, a bottom-up pass builds every product and repeat at
all of them as one stack with batched products, a cache-sized tile of rows
at a time. No leaf has a stack: its readers scatter its sector entries into
their tiles. Nor has a conjugation by an X, S or parity-flip frame: it moves
and phases its child's entries, a leaf's or a product stack's, which its
readers scatter the same way. A later primitive on a strict subset of the
factors multiplies in through its index groups. The root's
blocks come back class by class: eval scatters them into one full-size
matrix, and measure takes each class's error against a reference on the
same indices and drops it before the next class is built. No matrix is
kept between calls.
"""
from __future__ import annotations

import warnings
import weakref
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fock_ops import KronSum, kron_sum_entries
from .tensor_core import (
    TOL,
    HilbertLayout,
    LayoutMismatchError,
    Operator,
    ResourceExhaustedError,
    _hermitian_defect,
    _sectors,
    _unitary_defect,
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
]


def _declare(gate, label: str, layout: HilbertLayout, terms: KronSum) -> list[np.ndarray]:
    """Set gate's label, layout, support, local and groups for the
    Kronecker sum terms on layout, and return its block on each sector of
    its nonzero entries. The support is the sorted set of factors the terms
    name; the sum, renumbered onto them, is read as its nonzero entries
    (kron_sum_entries), never as a full-size array. local: the sum leaves a
    factor alone. Group k holds the full-size basis indices of sector k's
    support states, one row per state of the other factors, each row
    carrying block k. An empty sum, a term that names no factor or a factor
    outside layout, and an operator that does not fit its factor raise
    LayoutMismatchError."""
    support = tuple(sorted({j for _, ops in terms for j in ops}))
    named = support and all(ops for _, ops in terms)
    if not (named and set(support) <= set(range(layout.nfactors))):
        raise LayoutMismatchError(
            f"{type(gate).__name__} {label!r}: a Kronecker sum on factors {support} "
            f"does not fit {layout.factors}"
        )
    on = HilbertLayout(tuple(layout.factors[j] for j in support))
    renumber = {j: k for k, j in enumerate(support)}
    rows, cols, vals = kron_sum_entries(
        [(coeff, {renumber[j]: op for j, op in ops.items()}) for coeff, ops in terms], on
    )
    n = on.dim
    sectors = _sectors(n, rows, cols)
    # Each index's sector and its position there; the blocks are views of
    # one buffer that the entries are scattered into.
    owner, pos = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    for k, sec in enumerate(sectors):
        owner[sec], pos[sec] = k, np.arange(len(sec))
    sizes = np.array([len(sec) for sec in sectors])
    start = np.concatenate(([0], np.cumsum(sizes**2)))
    flat = np.zeros(start[-1], dtype=np.complex128)
    k = owner[rows]
    flat[start[k] + pos[rows] * sizes[k] + pos[cols]] = vals
    dims = [d for _, d in layout.factors]
    rest = [j for j in range(len(dims)) if j not in support]
    # index[u, r]: the basis index of support state u and spectator state r.
    index = np.arange(layout.dim).reshape(dims).transpose(list(support) + rest)
    index = index.reshape(n, -1)
    gate.label, gate.layout, gate.support = label, layout, support
    gate.local = len(support) < layout.nfactors
    gate.groups = [index[sec].T for sec in sectors]
    return [flat[a:b].reshape(m, m) for a, b, m in zip(start, start[1:], sizes)]


def _full_size(gate: Primitive | FrameGate, ts: np.ndarray) -> np.ndarray:
    """gate on the whole layout at the one parameter in ts: each group's
    block scattered onto its rows, zero elsewhere."""
    out = np.zeros((gate.layout.dim,) * 2, dtype=np.complex128)
    for rows, block in zip(gate.groups, gate.blocks(ts)):
        out[rows[:, :, None], rows[:, None, :]] = block
    return out


class Primitive:
    """One directly exponentiable Hermitian generator.

    The generator is a Kronecker sum whose terms name the factors it acts
    on (the identity elsewhere; see _declare), so nothing is searched for:
    `support` is those factors. It splits into the sectors
    of its nonzero entries (the quantum numbers it conserves), each
    eigendecomposed on its own. So exp(i t H) is unitary to rounding and
    exactly block-diagonal on the index groups. The primitive keeps the
    groups and the sectors' eigendecompositions, not a full-size generator.
    """

    def __init__(self, label: str, layout: HilbertLayout, generator: KronSum):
        subs = _declare(self, label, layout, generator)
        # Entries between sectors are zero both ways, so this gives the same
        # answer as the check on the whole generator, and the largest entry
        # of the sectors is the generator's.
        scale = max(1.0, max(float(np.max(np.abs(sub))) for sub in subs))
        if not all(_hermitian_defect(sub) <= TOL.hermiticity * scale for sub in subs):
            raise ValueError(f"primitive {label!r} needs a Hermitian generator")
        sizes = [len(sub) for sub in subs]
        # One eigh per sector size, of its sectors stacked: the bits of one each.
        self._eighs = [(gs, np.linalg.eigh(np.stack([subs[g] for g in gs])))
                       for gs in ([g for g, n in enumerate(sizes) if n == m] for m in set(sizes))]

    def blocks(self, ts: np.ndarray) -> list[np.ndarray]:
        """exp(i t H) on each group's sector, a block per parameter in ts."""
        made = {g: b for gs, eigh in self._eighs for g, b in zip(gs, _exp_blocks(eigh, ts))}
        return [made[g] for g in range(len(self.groups))]

    def unitary(self, t: float) -> np.ndarray:
        """exp(i t H) on the whole layout."""
        return _full_size(self, np.array([t], dtype=float))

    def __repr__(self):
        return f"Primitive({self.label!r})"


def _exp_blocks(eigh: tuple[np.ndarray, np.ndarray], ts: np.ndarray) -> np.ndarray:
    """exp(i t H) on equal-size sectors from their stacked eigendecompositions,
    out[g] a block per parameter in ts: one stacked product of each sector's
    left factors as a tall matrix, with the bits of one product per sector."""
    evals, evecs = eigh
    left = evecs[:, None] * np.exp(1j * ts[:, None] * evals[:, None, :])[:, :, None, :]
    tall = left.reshape(len(evals), -1, evals.shape[1])
    return (tall @ evecs.conj().swapaxes(1, 2)).reshape(left.shape)


class FrameGate:
    """Fixed unitary (basis change) that is recorded but not counted as an
    exponential.

    Declared like a Primitive: the unitary is a Kronecker sum whose terms
    name the factors it acts on, the identity elsewhere, and splits into the
    same support and index groups (see _declare). It is unitary exactly when
    each of its sector blocks is. The frame keeps its terms and each
    sector's constant block, not a full-size matrix.

    The frame is monomial when every block has one nonzero per row and per
    column, each exactly +-1 or +-i (X, S and the vacuum parity flip, not
    H). Then so has the frame on the whole layout: the nonzero of row a
    sits in column perm[a] and equals phase[a], and a conjugation by it
    moves and phases entries exactly.
    """

    def __init__(self, label: str, layout: HilbertLayout, unitary: KronSum):
        self._blocks = _declare(self, label, layout, unitary)
        if not all(_unitary_defect(b) <= TOL.unitarity for b in self._blocks):
            raise ValueError(f"frame gate {label!r} must be unitary")
        self._terms = list(unitary)
        # A unitary block with as many nonzeros as rows has one per row and column.
        self.monomial = all(
            np.count_nonzero(b) == len(b) and np.all(np.isin(b[b != 0], (1, -1, 1j, -1j)))
            for b in self._blocks
        )
        if self.monomial:
            self.perm = np.empty(layout.dim, dtype=np.intp)
            self.phase = np.empty(layout.dim, dtype=np.complex128)
            for rows, block in zip(self.groups, self._blocks):
                # Row-major, the nonzeros come one per row.
                self.perm[rows] = rows[:, np.nonzero(block)[1]]
                self.phase[rows] = block[block != 0]
        self._dagger: FrameGate | None = None

    def blocks(self, ts: np.ndarray) -> list[np.ndarray]:
        """The frame on each group's sector, on one row per parameter in ts."""
        return [np.broadcast_to(b, (len(ts),) + b.shape) for b in self._blocks]

    def unitary(self, t: float | None = None) -> np.ndarray:
        """The frame on the whole layout; it takes no parameter."""
        return _full_size(self, np.zeros(1))

    def dagger(self) -> "FrameGate":
        """The inverse gate; built once, and its own dagger is self, so
        reversed and inverted sequences compare equal gate by gate."""
        if self._dagger is None:
            label = self.label[:-1] if self.label.endswith("'") else self.label + "'"
            # The adjoint term by term: sum of conj(c) times the factors' adjoints.
            adjoint = [(np.conj(c), {j: op.dag() for j, op in ops.items()})
                       for c, ops in self._terms]
            self._dagger = FrameGate(label, self.layout, adjoint)
            self._dagger._dagger = self
        return self._dagger

    def __repr__(self):
        return f"FrameGate({self.label!r})"


@dataclass(frozen=True)
class Invocation:
    """One gate in a sequence: a primitive at a parameter, or a frame gate."""

    gate: Primitive | FrameGate
    param: float | None = None

    @property
    def label(self) -> str:
        return self.gate.label

    def matrix(self) -> np.ndarray:
        return self.gate.unitary(self.param)

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
    approximates (1 for flows, 2 for commutator targets); symmetrization
    takes only even powers. cost_counter is the per-label exponential ledger.
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


def _plan(pu: ParamUnitary, params: list[float], need: dict, moves: dict) -> list[tuple]:
    """pu's slots at params: (stack key, rows, adjoint, local primitive).
    Every slot reads one row per parameter, so a constant factor reads the
    same row throughout. A product in moves reads only its middle factor,
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
            if id(pu) in moves:
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


def _joined(n: int, groups: list[np.ndarray]) -> list[np.ndarray]:
    """The sectors of range(n) in which each row of each group is joined."""
    firsts = [np.broadcast_to(g[:, :1], g.shape).ravel() for g in groups]
    return _sectors(n, np.concatenate(firsts), np.concatenate([g.ravel() for g in groups]))


def _tree_sectors(order: list[ParamUnitary]) -> list[np.ndarray]:
    """The sectors of the union of the nonzero patterns of the leaves among
    order (a tree's distinct nodes): every node of the tree is exactly
    block-diagonal on them. Each row of a leaf's index groups is joined, so
    a leaf that mixes sectors merges them."""
    leaves = [pu.node.gate for pu in order if isinstance(pu.node, Leaf)]
    return _joined(order[0].layout.dim, [g for gate in leaves for g in gate.groups])


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
    """Per class of sectors, (g, (sector, position)) for the rows of a
    gate's group g that lie in it: the group's r-th such row holds the
    positions position[r] of the class's sector sector[r, 0]. Each row lies
    in one sector, and the rows in a sector cover it; a row spread over
    several sectors, where the gate is not block-diagonal on them, raises
    ValueError."""
    owner = np.empty(sum(cls.size for cls in classes), dtype=np.intp)
    sector, position, first = (np.empty_like(owner) for _ in range(3))
    for i, cls in enumerate(classes):
        owner[cls] = i
        sector[cls] = np.arange(len(cls))[:, None]
        position[cls] = np.arange(cls.shape[1])
        first[cls] = cls[:, :1]  # names the sector
    placed: list[list[tuple]] = [[] for _ in classes]
    for g, rows in enumerate(groups):
        if np.any(first[rows] != first[rows[:, :1]]):
            raise ValueError(f"a sector holds a row of group {g} only in part")
        own = owner[rows[:, 0]]
        for i in set(own.tolist()):
            mine = rows[own == i]
            placed[i].append((g, (sector[mine[:, :1]], position[mine])))
    return placed


# A leaf's stack on one class, or a monomial frame sandwich's, as entries:
# row r is zero but at the flat C-order positions dest of its (m, k, k)
# blocks, which hold values[rows[r]] (rows None: r), entry e repeated
# repeats[e] times, times phases. A leaf's values are each group's block
# once; a product's are its stack's raw rows, each entry once.
_Entries = namedtuple("_Entries", "values rows repeats dest phases shape")


def _apply_groups(
    mat: np.ndarray, blocks: list, placed: list[tuple], out: np.ndarray
) -> np.ndarray:
    """mat @ a local primitive's unitaries on one class of equal sectors,
    for stacks of shape (batch, m, k, k) in any layout: the columns at each
    row of each group placed multiply by the group's block, into out (may
    be mat), whose columns the groups cover. Column-major stacks are
    gathered and written a whole contiguous column at a time. Each row's
    k x s columns, read column-major, times the block is a matmul with a
    C-order output: the same bits as one C-order product of all the group's
    gathered columns."""
    columns = mat.swapaxes(2, 3)
    written = out.swapaxes(2, 3)
    for block, (_, (sector, position)) in zip(blocks, placed):
        # No name holds the product, so it is freed before the next group's.
        written[:, sector, position] = (
            columns[:, sector, position].swapaxes(2, 3) @ block[:, None]
        ).swapaxes(2, 3)
    return out


def _sandwich(factors: tuple[Factor, ...]) -> FrameGate | None:
    """F when factors are F, a factor read as is and F^dag, for F one leaf
    of a monomial frame, none of whose adjoints follows the parameter's sign
    (the product frame_conjugate builds); else None."""
    if len(factors) != 3:
        return None
    first, middle, third = factors
    gate = first.pu.node.gate if isinstance(first.pu.node, Leaf) else None
    if (
        not isinstance(gate, FrameGate) or not gate.monomial
        or third.pu is not first.pu or first.invert or not third.invert or middle.invert
        or any(f.adjoint_if_negative for f in factors)
    ):
        return None
    return gate


def _moves(frame: FrameGate, classes: list[np.ndarray]) -> list[tuple]:
    """F @ U @ F^dag on each class for the monomial frame F, as (back,
    phases): entry (a, b) of sector j is U's entry (perm[a], perm[b]) of
    that sector times phase[a] * conj(phase[b]), since F @ U reads row
    perm[a] of U into row a and U @ F^dag reads column perm[b] into column
    b. back[j] inverts perm's positions in sector j, so U's entry (c, d)
    moves to (back[j, c], back[j, d]); phases is None when every phase is 1.
    Each entry has one nonzero term, so this is exact."""
    perm, phase = frame.perm, frame.phase
    position = np.empty(len(perm), dtype=np.intp)
    out = []
    for cls in classes:
        position[cls] = np.arange(cls.shape[1])
        lph, rph = phase[cls], phase[cls].conj()
        phases = None if np.all(lph == 1) else (lph, rph)
        out.append((np.argsort(position[perm[cls]], axis=1), phases))
    return out


def _framed(child, rows: np.ndarray, move: tuple) -> _Entries:
    """F @ U @ F^dag from U's stack or entries at U's rows, for F's move on
    their class (see _moves): U's entries, with entry (c, d) of a block
    moved to (a, b), perm[a] = c and perm[b] = d, times phase[a] *
    conj(phase[b]), so a reader scatters them like a leaf's. A stack's
    entries are its raw rows, each at its position in C order (a
    column-major stack's, swapped back)."""
    back, phases = move
    if isinstance(child, np.ndarray):
        n, m, k = child.shape[:3]
        column_major = not child.flags.c_contiguous
        raw = child.swapaxes(2, 3) if column_major else child
        dest = np.arange(m * k * k).reshape(m, k, k)
        dest = (dest.swapaxes(1, 2) if column_major else dest).ravel()
        child = _Entries(raw.reshape(n, -1), None, 1, dest, None, (m, k))
    k = child.shape[1]
    sector, c, d = child.dest // (k * k), child.dest // k % k, child.dest % k
    a, b = back[sector, c], back[sector, d]
    frame = None if phases is None else phases[0][sector, a] * phases[1][sector, b]
    if child.phases is not None:
        frame = child.phases if frame is None else child.phases * frame
    rows = rows if child.rows is None else child.rows[rows]
    return child._replace(rows=rows, dest=(sector * k + a) * k + b, phases=frame)


@dataclass(frozen=True)
class _TreeSectors:
    """What every eval of one tree reads of its sectors: the classes, each
    leaf gate's placement in them (by gate id), each monomial frame
    sandwich's moves (by product id), and, made on first use, each leaf's
    entry index (by gate id and class) and what _measured finds per reference."""

    classes: list[np.ndarray]
    places: dict[int, list[list[tuple]]]
    moves: dict[int, list[tuple]]
    index: dict[tuple[int, int], tuple] = field(default_factory=dict)
    measured: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary)


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
            places, moves = {}, {}
            for pu in order:
                match pu.node:
                    case Leaf(gate):
                        places[id(gate)] = _place(gate.groups, classes)
                    case Product(factors) if (frame := _sandwich(factors)) is not None:
                        moves[id(pu)] = _moves(frame, classes)
            cached = _TreeSectors(classes, places, moves)
        object.__setattr__(root, "_sector_cache", cached)
    return cached


def _tile(stack, rows, lo: int, step: int, into=None, column_major=False) -> np.ndarray:
    """stack[rows][lo:lo+step], gathering only the tile's rows. Of entries,
    their values repeated, one zero-fill and one scatter into into (raw
    rows, read column-major when column_major) or a new C-order stack."""
    rows = rows[lo : lo + step] if isinstance(rows, np.ndarray) else slice(
        rows.start + lo, min(rows.start + lo + step, rows.stop))
    if isinstance(stack, np.ndarray):
        return stack[rows]
    values = stack.values[rows if stack.rows is None else stack.rows[rows]]
    values = np.repeat(values, stack.repeats, axis=1)
    (m, k), d = stack.shape, stack.dest
    # Column-major, entry (a, b) of a block sits at (b, a) of its memory.
    dest = d - d % (k * k) + d % k * k + d // k % k if column_major else d
    into = np.empty((len(values), m * k * k), complex) if into is None else into
    into.fill(0)
    into[:, dest] = values if stack.phases is None else values * stack.phases
    blocks = into.reshape(len(into), m, k, k)
    return blocks.swapaxes(2, 3) if column_major else blocks


def _lands(slots: list[tuple], scattered: bool) -> list:
    """Where each slot's product lands along a tile of a product node: 0 in
    the output tile, 1 in the scratch tile. The last lands in the output. A
    local primitive multiplies in place after another or after a scattered
    first slot (both column-major), and any other product moves to the
    other one. The first slot is read as is (None), unless scattered."""
    lands = [0]
    for j in range(len(slots) - 1, 0, -1):
        in_place = slots[j][3] is not None and (
            slots[j - 1][3] is not None or (j == 1 and scattered)
        )
        lands.append(lands[-1] if in_place else 1 - lands[-1])
    return lands[::-1] if scattered else [None] + lands[-2::-1]


def _build_class(node, slots, stacks: dict, i: int, shape, places: dict, size: int) -> np.ndarray:
    """A Product or Repeat node's stack on class i of shape (m, k), with size
    rows, from the class-i stacks of its children (stacks[key], read by
    _tile; a local primitive's entry holds its blocks(ts)), each slot
    reading size rows. Nothing it reads outlives the call.

    A product is built a cache-sized tile (_TILE_BYTES) of rows at a time
    into one output stack, none for a lone slot read as is. Along a tile's
    slots, the products alternate between the output tile and one scratch
    tile (see _lands), so that the last lands in the output and no step
    allocates its own; a first slot of entries is scattered straight into
    its tile. Tiles are raw rows, laid out per product: column-major for a
    local primitive's and the first slot's before one (see _apply_groups),
    else C order, where a matmul gives the bits of a plain product."""
    if isinstance(node, Repeat):
        key, rows, _, _ = slots[0]
        return np.linalg.matrix_power(_tile(stacks[key], rows, 0, size), node.count)
    m, k = shape
    alone = len(slots) == 1
    step = size if alone else max(1, _TILE_BYTES // (16 * m * k * k))
    scattered = not alone and isinstance(stacks[slots[0][0]], _Entries) and not np.any(slots[0][2])
    lands = _lands(slots, scattered)

    def laid_out(raw: np.ndarray, column_major: bool) -> np.ndarray:
        blocks = raw.reshape(len(raw), m, k, k)
        return blocks.swapaxes(2, 3) if column_major else blocks

    out = None if alone else np.empty((size, m * k * k), complex)
    spare = np.empty((min(step, size), m * k * k), complex) if 1 in lands else None
    for lo in range(0, size, step):
        tile = None if out is None else out[lo : lo + step]
        ends = (tile, None if spare is None else spare[: len(tile)])
        mat = None
        for j, (key, rows, adjoint, local) in enumerate(slots):
            column_major = local is not None or (j == 0 and scattered and slots[1][3] is not None)
            if j == 0 and scattered:
                mat = _tile(stacks[key], rows, lo, step, ends[lands[0]], column_major)
                continue
            dest = None if lands[j] is None else laid_out(ends[lands[j]], column_major)
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
    if out is None:
        return mat
    return laid_out(out, slots[-1][3] is not None)


def _evaluate(root: ParamUnitary, t: float):
    """root at t, one class of its sectors at a time: yields (cls, blocks)
    for each class cls, blocks[j] being root's block on the indices cls[j].

    Top-down, every node collects the distinct parameters it is needed at
    (float equality, first occurrence kept) and plans which child rows each
    of its slots reads. Then, class by class, a bottom-up pass builds every
    product's and repeat's stack of its blocks on that class, with a row per
    parameter, from its children's (_sectors_of keeps what they read of the
    sectors). A leaf has no stack: its readers scatter its entries, its
    sector blocks at its rows, through one index pair per class (_Entries).
    A stack is dropped as soon as its last reader has built its own, so
    nothing of one class is alive while the next is built, and the caller
    can use and drop a class's root blocks before the next class starts. A
    product F·U·F† of a monomial frame has no stack either (_framed): it is
    U's entries, a leaf's or a stack's raw rows, moved and phased, which
    its readers scatter as they do a leaf's.
    """
    sectors = _sectors_of(root)
    classes, places, moves = sectors.classes, sectors.places, sectors.moves
    order = _topological(root)
    need: dict = {id(root): {t: 0}}
    plans: dict[int, list[tuple]] = {}
    readers: Counter = Counter()
    for pu in order:
        if id(pu) in need and not isinstance(pu.node, Leaf):
            plans[id(pu)] = _plan(pu, list(need[id(pu)]), need, moves)
            readers.update(slot[0] for slot in plans[id(pu)])
    leaves = {id(pu): pu.node.gate for pu in order if isinstance(pu.node, Leaf)}
    nodes = [pu for pu in reversed(order) if id(pu) in plans]

    # Each leaf's blocks, made once per eval and kept until the last class
    # (a primitive's of one size share one array, freed only all at once).
    exps: dict = {}

    def leaf(key, i: int):
        """Leaf key's entries on class i, or its placed blocks for ("block", id)."""
        gate = leaves[key[1] if isinstance(key, tuple) else key]
        if key not in exps:
            exps[key] = gate.blocks(np.array(list(need[key]), dtype=float))
        every = exps.pop(key) if i == len(classes) - 1 else exps[key]
        placed = places[id(gate)][i]
        blocks = [every[g] for g, _ in placed]
        if isinstance(key, tuple):
            return blocks
        if (id(gate), i) not in sectors.index:
            # Entry (a, b) of each group's block goes to (sector, pos[a], pos[b])
            # on each of the group's rows in the class: repeated once per row.
            k = classes[i].shape[1]
            sectors.index[id(gate), i] = (
                np.concatenate([np.full(pos.shape[1] ** 2, len(pos)) for _, (_, pos) in placed]),
                np.concatenate([
                    ((sector[:, :, None] * k + pos[:, :, None]) * k + pos[:, None, :])
                    .transpose(1, 2, 0).ravel() for _, (sector, pos) in placed]))
        values = np.concatenate([b.reshape(len(b), -1) for b in blocks], axis=1)
        return _Entries(values, None, *sectors.index[id(gate), i], None, classes[i].shape)

    for i, cls in enumerate(classes):
        # stacks[key]: the node's blocks on the sectors of cls, one row per
        # parameter, as a stack of shape (rows, m, k, k) or as entries (_tile).
        # readers counts, per key, the slots still to read it.
        stacks: dict = {}
        left = readers.copy()
        for pu in nodes:
            slots, move = plans[id(pu)], moves.get(id(pu))
            for key, *_ in slots:
                if key not in stacks:
                    stacks[key] = leaf(key, i)
            if move is not None:
                stacks[id(pu)] = _framed(stacks[slots[0][0]], np.r_[slots[0][1]], move[i])
            else:
                stacks[id(pu)] = _build_class(
                    pu.node, slots, stacks, i, cls.shape, places, len(need[id(pu)])
                )
            for key, *_ in slots:
                left[key] -= 1
                if not left[key]:
                    stacks.pop(key, None)
        if id(root) not in stacks:
            stacks[id(root)] = leaf(id(root), i)
        # Held by nothing here while the caller uses it.
        yield cls, _tile(stacks.pop(id(root)), slice(0, 1), 0, 1)[0]


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
    return [sec.tolist() for sec in _joined(len(classes), [owner[g] for g in reference.groups])]


def _measured(pu: ParamUnitary, reference: Primitive) -> tuple[list, list]:
    """How measure takes pu's classes against reference, made once and kept
    beside pu's sectors: per class, (c, at), its measured group c and the
    positions of its blocks' indices among the group's sorted indices (None
    for a class of one sector measured alone, already in that order); per
    group, (indices, its number of classes, (g, at) per group g of the
    reference with rows in it, at[r] the positions of its r-th such row)."""
    sectors = _sectors_of(pu)
    if reference not in sectors.measured:
        classes = sectors.classes
        together = _measured_together(classes, reference)
        idxs = [np.sort(np.concatenate([classes[i].ravel() for i in m])) for m in together]
        # Each measured group holds whole rows of the reference (see
        # _measured_together), so it is placed in them as a leaf; else _place refuses.
        placed = _place(reference.groups, [idx[None] for idx in idxs])
        per_class, groups = [None] * len(classes), []
        pos = np.empty(reference.layout.dim, dtype=np.intp)
        for c, (members, idx) in enumerate(zip(together, idxs)):
            pos[idx] = np.arange(len(idx))
            for i in members:
                alone = len(members) == 1 and len(classes[i]) == 1
                per_class[i] = c, None if alone else pos[classes[i]]
            groups.append((idx, len(members), [(g, at) for g, (_, at) in placed[c]]))
        sectors.measured[reference] = per_class, groups
    return sectors.measured[reference]


def measure(
    pu: ParamUnitary, t: float, reference: Primitive, psi0: np.ndarray | None = None
) -> Measurement:
    """pu's U(t) against the reference E(t), the primitive's exp(i t H).

    It is measured one class of pu's sectors at a time, each dropped before
    the next is built. The class's blocks of U are the difference (a class
    of one sector measured alone is its own, with no copy), from which E's
    blocks on the reference's rows among its indices are subtracted in
    place; E is zero elsewhere. Classes that one sector of the reference
    straddles are measured together. Each difference's norm is
    spectral_norm's, and every SVD sees the entries, in the order, that
    spectral_norm of the full-size U - E gives it, so the error is the same
    to the bit. U psi0 and E psi0 are taken one class at a time too; for a
    basis state psi0 they equal the full-size products to the bit.
    """
    dim = pu.layout.dim
    if reference.layout.dim != dim:
        raise LayoutMismatchError(
            f"{pu.label}: a reference of dim {reference.layout.dim} for dim {dim}"
        )
    per_class, groups = _measured(pu, reference)
    waiting = [count for _, count, _ in groups]
    states = None if psi0 is None else (np.zeros(dim, complex), np.zeros(dim, complex))
    exact = reference.blocks(np.array([t], dtype=float))
    held, errors, i = {}, [], -1
    # Counted by hand: enumerate would keep a class's blocks, in the tuple it
    # reuses, while the next class is built.
    for _, blocks in pu.eval_classes(t):
        i += 1
        c, at = per_class[i]
        idx, _, rows = groups[c]
        if at is None:
            diff = blocks[0]
        else:
            diff = held.pop(c) if c in held else np.zeros((len(idx),) * 2, dtype=np.complex128)
            diff[at[:, :, None], at[:, None, :]] = blocks
        del blocks
        waiting[c] -= 1
        if waiting[c]:
            held[c] = diff
            continue
        if not np.all(np.isfinite(diff)):
            raise ValueError("operator entries must be finite")
        live = states is not None and np.any(psi0[idx])
        if live:
            states[0][idx] = diff @ psi0[idx]
        for g, row in rows:
            block = exact[g][0]
            if live:
                states[1][idx[row]] = psi0[idx[row]] @ block.T
            diff[row[:, :, None], row[:, None, :]] -= block
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
    power 0, so inversion follows the product rules and the frame is
    recorded but not counted."""
    if frame.layout != pu.layout:
        raise LayoutMismatchError("frame and unitary layouts differ")
    leaf = ParamUnitary(frame.label, frame.layout, Leaf(frame))
    factors = [Factor(leaf, power=0), Factor(pu), Factor(leaf, power=0, invert=True)]
    return compose(f"{frame.label}[{pu.label}]", factors, pu.target_power)


def rescale(pu: ParamUnitary, c: float, label: str | None = None) -> ParamUnitary:
    """U(c t): a pure reparametrization, same budget."""
    return compose(label or f"{pu.label}@{c:g}t", [Factor(pu, c)], pu.target_power)


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


def group_commutator(u_a: ParamUnitary, u_b: ParamUnitary) -> ParamUnitary:
    """Q(t) = A(t) B(t) A(-t) B(-t), the bare four-exponential block.

    Approximates exp([K_A, K_B] t^2) to leading order, where K are the
    anti-Hermitian generators of the operands near t = 0.
    """
    factors = [Factor(u_a), Factor(u_b), Factor(u_a, -1.0), Factor(u_b, -1.0)]
    return compose(f"Q[{u_a.label},{u_b.label}]", factors, target_power=2)


def bch_constants(p: int) -> tuple[float, float, float]:
    """(r, beta, gamma) for lifting a level-p commutator block by two orders."""
    e = 2 / (2 * p + 2)
    rp = 2.0**e / (4.0 * (2.0 - 2.0**e))
    beta = (2.0 * rp) ** (1.0 / 2)
    gamma = (0.25 + rp) ** (1.0 / 2)
    return rp, beta, gamma


def bch(
    p: int,
    u_a: ParamUnitary,
    u_b: ParamUnitary,
    base: str | None = None,
) -> ParamUnitary:
    """Order-p commutator block: approximates exp([K_A, K_B] t^2) with error
    O(t^(2p+1)), by the recursion of Childs and Wiebe (J. Math. Phys. 54,
    062202, 2013) at inner power 1.

    base selects the level-1 block: "split" (the default) squares the bare
    block at t / sqrt(2), 8 exponentials; "lean" is the bare
    four-exponential block. Each further level is six copies of the one
    below at +-gamma t, +-beta t and +-gamma t (bch_constants), the middle
    pair inverted.
    """
    if p < 1:
        raise ValueError("order p must be >= 1")
    if u_a.layout != u_b.layout:
        raise LayoutMismatchError("operand layouts differ")
    if base is None:
        base = "split"
    if base not in ("split", "lean"):
        raise ValueError(f"unknown base {base!r}")

    q = group_commutator(u_a, u_b)
    if base == "split":
        half = 2.0 ** (-1.0 / 2)
        level = compose(f"Q2[{u_a.label},{u_b.label}]", [Factor(q, half)] * 2, target_power=2)
    else:
        level = q

    for pp in range(1, p):
        _, beta, gamma = bch_constants(pp)
        factors = [
            Factor(level, gamma),
            Factor(level, -gamma),
            Factor(level, beta, invert=True),
            Factor(level, -beta, invert=True),
            Factor(level, gamma),
            Factor(level, -gamma),
        ]
        level = compose(f"bch{pp + 1}[{u_a.label},{u_b.label}]", factors, target_power=2)
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
    """Order-raising echo of a commutator block: U(tau) U(-tau) with
    tau = t 2^(-1/m), for U of even target power m.

    The two copies share the leading t^m term of the block's generator,
    2 tau^m = t^m, and their next, odd-power terms cancel to leading order.
    An odd target power (a flow) raises ValueError.
    """
    m = pu.target_power
    if m % 2 == 1:
        raise ValueError("symmetrize expects an even target_power")
    tau = 2.0 ** (-1.0 / m)
    return compose(f"sym[{pu.label}]", [Factor(pu, tau), Factor(pu, -tau)], target_power=m)


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
) -> TimesliceResult:
    """Smallest r with ||U(t/r)^r - E(t)|| <= eps, for E(t) the target's
    exp(i t H), the reference the gate approximates at t.

    Doubling search bracket, then bisection to the minimal count, each
    count measured once (with psi0, as in measure). The measurement at the
    count found is returned, so a caller need not evaluate the gate at t
    again. A search past TOL.slice_cap slices raises ResourceExhaustedError.
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
        if r > TOL.slice_cap:
            raise ResourceExhaustedError(
                f"timeslice: {r} slices exceed cap {TOL.slice_cap} (error {e:.3g})"
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


def fit_power_law(ts: Sequence[float], errs: Sequence[float]) -> PowerLawFit:
    """Least-squares slope of log10(err) against log10(t).

    Points at or below the noise floor (TOL.noise_floor) are dropped; at
    least four must survive. The residual is the RMS deviation in log10.
    """
    ts = np.asarray(ts, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if ts.shape != errs.shape:
        raise ValueError("ts and errs must have equal length")
    if np.any(ts <= 0):
        raise ValueError("sample times must be positive")
    keep = errs > TOL.noise_floor
    if int(keep.sum()) < 4:
        raise ValueError(
            f"only {int(keep.sum())} samples above the noise floor, need >= 4"
        )
    lt = np.log10(ts[keep])
    le = np.log10(errs[keep])
    slope, intercept = np.polyfit(lt, le, 1)
    resid = float(np.sqrt(np.mean((le - (slope * lt + intercept)) ** 2)))
    return PowerLawFit(float(slope), float(10.0**intercept), resid, int(keep.sum()))
