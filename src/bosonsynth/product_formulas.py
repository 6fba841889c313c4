"""Parametrized gate products: group commutators, higher-order commutator
recursions, Suzuki splittings, symmetrization, timeslicing and order fits.

A compiled gate is a ParamUnitary: an immutable tree of Leaf, Frame, Product
and Repeat nodes, which the combinators below only build. One interpreter
evaluates, expands and reverses trees; the exponential ledger is summed once
per node at build time. An eval makes two passes over the distinct nodes of
its tree: top-down, every node collects the distinct parameters it is needed
at (deep recursions revisit a node at the same parameter many times);
bottom-up, every node builds all of them as one stack of matrices with
batched products. Nothing is kept between calls.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tensor_core import (
    TOL,
    HilbertLayout,
    Operator,
    ResourceExhaustedError,
    is_hermitian,
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
    "Frame",
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
    "timeslice",
    "TimesliceResult",
    "fit_power_law",
    "PowerLawFit",
    "FitWindow",
    "sweep_errors",
]


class Primitive:
    """One directly exponentiable Hermitian generator.

    The support is the set of tensor factors the generator acts on: off it,
    the generator must equal its block on the support times the identity,
    entry for entry. Only that block is eigendecomposed, so unitary(t) =
    exp(i t H) is exactly unitary, and a primitive on a strict subset of the
    factors can multiply a matrix through its support alone (blocks).
    """

    def __init__(self, label: str, generator: Operator):
        if not is_hermitian(generator, 1e-12):
            raise ValueError(f"primitive {label!r} needs a Hermitian generator")
        self.label = label
        self.layout = generator.layout
        self.generator = generator
        self.support, block = _support_block(generator)
        # True when the generator leaves at least one factor alone.
        self.local = len(self.support) < self.layout.nfactors
        self._evals, self._evecs = np.linalg.eigh(block)
        dims = tuple(d for _, d in self.layout.factors)
        rest = [j for j in range(len(dims)) if j not in self.support]
        order = list(self.support) + rest
        perm = list(np.argsort(order))
        self._dims = dims
        self._rest_dim = math.prod(dims[j] for j in rest)
        self._kron_shape = tuple(dims[j] for j in order) * 2
        # Axis 0 of a stack indexes its parameters.
        self._kron_perm = [0] + [1 + p for p in perm] + [1 + len(dims) + p for p in perm]

    def blocks(self, ts: np.ndarray) -> np.ndarray:
        """exp(i t H) on the support, one block per parameter in ts."""
        phases = np.exp(1j * ts[:, None] * self._evals)
        return (self._evecs * phases[:, None, :]) @ self._evecs.conj().T

    def unitaries(self, ts: np.ndarray) -> np.ndarray:
        """exp(i t H) on the whole layout, one matrix per parameter in ts."""
        u = self.blocks(ts)
        if not self.local:
            return u
        full = np.kron(u, np.eye(self._rest_dim)).reshape((len(ts),) + self._kron_shape)
        dim = self.layout.dim
        return full.transpose(self._kron_perm).reshape(len(ts), dim, dim)

    def unitary(self, t: float) -> np.ndarray:
        return self.unitaries(np.array([t], dtype=float))[0]

    def __repr__(self):
        return f"Primitive({self.label!r})"


def _support_block(op: Operator) -> tuple[tuple[int, ...], np.ndarray]:
    """(support, block): the factors op acts on and its matrix there.

    A factor is off the support when op equals its slice at that factor's
    (0, 0) entry times the identity there, compared exactly. Each factor is
    tested on the slice left by the factors dropped before it, so op is
    exactly the block times the identity on every dropped factor.
    """
    dims = [d for _, d in op.layout.factors]
    tensor = op.mat.reshape(dims * 2)
    support: list[int] = []
    for j, d in enumerate(dims):
        pos, m = len(support), tensor.ndim // 2
        moved = np.moveaxis(tensor, (pos, m + pos), (-2, -1))
        if np.array_equal(moved, moved[..., :1, :1] * np.eye(d)):
            tensor = moved[..., 0, 0]
        else:
            support.append(j)
    block_dim = math.prod(dims[j] for j in support)
    return tuple(support), tensor.reshape(block_dim, block_dim)


class FrameGate:
    """Fixed unitary (basis change) that is recorded but not counted as an
    exponential."""

    def __init__(self, label: str, layout: HilbertLayout, mat: np.ndarray):
        op = Operator(layout, mat)
        if not is_unitary(op, 1e-10):
            raise ValueError(f"frame gate {label!r} must be unitary")
        self.label = label
        self.layout = layout
        self.mat = op.mat
        self._dagger: FrameGate | None = None

    def dagger(self) -> "FrameGate":
        """The inverse gate; built once, and its own dagger is self, so
        reversed and inverted sequences compare equal gate by gate."""
        if self._dagger is None:
            label = self.label[:-1] if self.label.endswith("'") else self.label + "'"
            self._dagger = FrameGate(label, self.layout, self.mat.conj().T)
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
    def counted(self) -> bool:
        return isinstance(self.gate, Primitive)

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

    @property
    def total_cost(self) -> int:
        return sum(1 for inv in self.invocations if inv.counted)

    def cost_by_label(self) -> Counter:
        return Counter(inv.label for inv in self.invocations if inv.counted)

    def to_operator(self) -> Operator:
        mat = np.eye(self.layout.dim, dtype=np.complex128)
        for inv in self.invocations:
            mat = mat @ inv.matrix()
        return Operator(self.layout, mat)

    def inverted(self) -> "GateSequence":
        inverted = [inv.inverted() for inv in reversed(self.invocations)]
        return GateSequence(self.layout, inverted)

    def reversed_order(self) -> "GateSequence":
        return GateSequence(self.layout, list(reversed(self.invocations)))


@dataclass(frozen=True)
class Leaf:
    """One counted exponential: the primitive at the node parameter."""

    prim: Primitive


@dataclass(frozen=True)
class Frame:
    """F U(t) F^dag, with F recorded but not counted."""

    gate: FrameGate
    child: ParamUnitary


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
    """Factors in operator order: factors[0] is leftmost and acts last."""

    factors: tuple[Factor, ...]


@dataclass(frozen=True)
class Repeat:
    """child(t / count) applied count times. A positive step_scale marks a
    one-slice Suzuki formula, which warns once when step_scale * |t| > 1."""

    child: ParamUnitary
    count: int
    step_scale: float = 0.0


@dataclass(frozen=True)
class ParamUnitary:
    """A parametrized unitary family t -> U(t); equality ignores labels.

    target_power records the leading power of t in the generator the family
    approximates (1 for flows, k+1 for commutator targets); symmetrization
    dispatches on its parity. cost_counter is the per-label exponential ledger.
    """

    label: str = field(compare=False)
    layout: HilbertLayout
    node: Leaf | Frame | Product | Repeat
    target_power: int = 1
    cost_counter: Counter = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cost_counter", Counter(_ledger(self.node)))
        object.__setattr__(self, "_hash", hash((self.layout, self.node, self.target_power)))

    def __hash__(self):
        # Cached: subtrees are shared, so recomputing would walk every path.
        return self._hash

    def eval(self, t: float) -> Operator:
        return Operator(self.layout, _evaluate(self, float(t)))

    def cost(self) -> int:
        return sum(self.cost_counter.values())

    def expand(self, t: float) -> GateSequence:
        if self.cost() > TOL.sequence_cap:
            raise ResourceExhaustedError(
                f"{self.label}: expansion of {self.cost()} exponentials "
                f"exceeds cap {TOL.sequence_cap}"
            )
        return GateSequence(self.layout, _expand(self, float(t)))

    def __repr__(self):
        return f"ParamUnitary({self.label!r}, cost={self.cost()})"


# One-slice Suzuki nodes that have already warned about their step size.
_WARNED: weakref.WeakSet = weakref.WeakSet()


def _ledger(node) -> Counter:
    match node:
        case Leaf(prim):
            return Counter({prim.label: 1})
        case Frame(_, child):
            return child.cost_counter
        case Product(factors):
            return sum((f.pu.cost_counter for f in factors), Counter())
        case Repeat(child, count):
            return Counter({lbl: n * count for lbl, n in child.cost_counter.items()})
    raise TypeError(f"not a node: {node!r}")


def _topological(root: ParamUnitary) -> list[ParamUnitary]:
    """The distinct nodes under root (by id), every parent before its children."""
    order: list[ParamUnitary] = []
    seen: set[int] = set()

    def visit(pu: ParamUnitary) -> None:
        seen.add(id(pu))
        match pu.node:
            case Frame(_, child) | Repeat(child):
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


def _plan(pu: ParamUnitary, params: list[float], need: dict) -> list[tuple]:
    """pu's slots at params: (stack key, rows, adjoint, local primitive)."""
    match pu.node:
        case Frame(_, child):
            return [(id(child), _rows(need, id(child), params), False, None)]
        case Repeat(child, count, step_scale):
            if step_scale * max(map(abs, params)) > 1.0 and pu not in _WARNED:
                _WARNED.add(pu)
                warnings.warn(
                    f"{child.label}: step size outside the well-conditioned "
                    "range at one slice",
                    RuntimeWarning,
                    stacklevel=4,
                )
            return [(id(child), _rows(need, id(child), [p / count for p in params]), False, None)]
        case Product(factors):
            slots, seen = [], {}
            for i, f in enumerate(factors):
                # A later leaf on a strict subset of the factors multiplies in
                # through its support; its adjoint is the primitive at -s.
                prim = f.pu.node.prim if isinstance(f.pu.node, Leaf) else None
                local = prim if i > 0 and prim is not None and prim.local else None
                key = (id(f.pu), f.coeff, f.power, f.invert, f.adjoint_if_negative, local)
                if key not in seen:
                    at = [f.at(p) for p in params]
                    if local is None:
                        rows = _rows(need, id(f.pu), [s for s, _ in at])
                        # One adjoint flag when every row agrees, else a mask.
                        adjoint = [adj for _, adj in at]
                        mask = adjoint[0] if len(set(adjoint)) == 1 else np.array(adjoint)
                        seen[key] = (id(f.pu), rows, mask, None)
                    else:
                        block = ("block", id(f.pu))
                        rows = _rows(need, block, [-s if adj else s for s, adj in at])
                        seen[key] = (block, rows, False, local)
                slots.append(seen[key])
            return slots


def _apply_local(mat: np.ndarray, prim: Primitive, u: np.ndarray) -> np.ndarray:
    """mat @ prim's unitaries for a stack, contracting the support factors of
    mat's columns with the stacked blocks u."""
    batch, n = mat.shape[:2]
    cols = [2 + j for j in prim.support]
    moved = range(-len(cols), 0)
    tensor = np.moveaxis(mat.reshape((batch, n) + prim._dims), cols, moved)
    out = tensor.reshape(batch, -1, u.shape[-1]) @ u
    return np.moveaxis(out.reshape(tensor.shape), moved, cols).reshape(mat.shape)


def _evaluate(root: ParamUnitary, t: float) -> np.ndarray:
    """root at t from two passes over its distinct nodes.

    Top-down, every node collects the distinct parameters it is needed at
    (float equality, first occurrence kept) and plans which child rows each
    of its slots reads. Bottom-up, every node builds one stack with a row per
    parameter from its children's stacks, which are freed as soon as their
    last reader is done.
    """
    order = _topological(root)
    need: dict = {id(root): {t: 0}}
    plans: dict[int, list[tuple]] = {}
    readers: Counter = Counter()
    for pu in order:
        if id(pu) in need and not isinstance(pu.node, Leaf):
            plans[id(pu)] = _plan(pu, list(need[id(pu)]), need)
            readers.update({slot[0] for slot in plans[id(pu)]})

    stacks: dict = {}
    for pu in reversed(order):
        node = pu.node
        if isinstance(node, Leaf):
            for key, local in ((id(pu), False), (("block", id(pu)), True)):
                if key in need:
                    ts = np.array(list(need[key]), dtype=float)
                    stacks[key] = node.prim.blocks(ts) if local else node.prim.unitaries(ts)
            continue
        slots = plans[id(pu)]
        match node:
            case Frame(gate, _):
                key, rows, _, _ = slots[0]
                mat = gate.mat @ stacks[key][rows] @ gate.mat.conj().T
            case Repeat(_, count):
                key, rows, _, _ = slots[0]
                mat = np.linalg.matrix_power(stacks[key][rows], count)
            case Product():
                mat = None
                for key, rows, adjoint, local in slots:
                    sub = stacks[key][rows]
                    if local is not None:
                        mat = _apply_local(mat, local, sub)
                        continue
                    if isinstance(adjoint, np.ndarray):
                        sub = np.where(adjoint[:, None, None], sub.conj().swapaxes(-1, -2), sub)
                    elif adjoint:
                        sub = sub.conj().swapaxes(-1, -2)
                    mat = sub if mat is None else mat @ sub
        for key in {slot[0] for slot in slots}:
            readers[key] -= 1
            if not readers[key]:
                del stacks[key]
        stacks[id(pu)] = mat
    return stacks[id(root)][0]


def _expand(pu: ParamUnitary, t: float) -> list[Invocation]:
    match pu.node:
        case Leaf(prim):
            return [Invocation(prim, t)]
        case Frame(gate, child):
            return [Invocation(gate), *_expand(child, t), Invocation(gate.dagger())]
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
        case Frame(gate, child):
            node = Frame(gate.dagger(), _reverse(child, done))
        case Product(factors):
            node = Product(
                tuple(dataclasses.replace(f, pu=_reverse(f.pu, done)) for f in reversed(factors))
            )
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
            raise ValueError("all factors must share one layout")
    return ParamUnitary(label, layout, Product(factors), target_power)


def frame_conjugate(pu: ParamUnitary, frame: FrameGate) -> ParamUnitary:
    """F U(t) F^dag with the frame recorded but not counted."""
    if frame.layout != pu.layout:
        raise ValueError("frame and unitary layouts differ")
    return ParamUnitary(
        f"{frame.label}[{pu.label}]", pu.layout, Frame(frame, pu), pu.target_power
    )


def rescale(pu: ParamUnitary, c: float, label: str | None = None) -> ParamUnitary:
    """U(c t): a pure reparametrization, same budget."""
    return compose(label or f"{pu.label}@{c:g}t", [Factor(pu, c)], pu.target_power)


def reverse_pu(pu: ParamUnitary) -> ParamUnitary:
    """Same invocations in reversed order, built by reversing the tree: each
    product lists its factors backwards and each frame swaps F and F^dag."""
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
        raise ValueError("operand layouts differ")
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


def trotter(order: int, terms: Sequence[ParamUnitary], slices: int = 1) -> ParamUnitary:
    """Suzuki product formula of even order for a list of term flows.

    Each term is a flow s -> exp(s G_j); the result approximates
    exp(t sum_j G_j) with error O(t^(order+1)) per application. slices > 1
    applies the formula slices times at t/slices each.
    """
    if order < 2 or order % 2:
        raise ValueError("order must be even and >= 2")
    if not terms:
        raise ValueError("need at least one term")
    layout = terms[0].layout
    for term in terms:
        if term.layout != layout:
            raise ValueError("all terms must share one layout")
    if slices < 1:
        raise ValueError("slices must be >= 1")

    halves = [Factor(term, 0.5) for term in terms]
    factors = halves + halves[::-1]
    for k in range(2, order // 2 + 1):
        level = compose(f"trotter{2 * k - 2}", factors)
        outer = Factor(level, suzuki_coefficient(k))
        factors = [outer, outer, Factor(level, 1.0 - 4.0 * outer.coeff), outer, outer]
    label = f"trotter{order}[" + ",".join(t.label for t in terms) + "]"
    level = compose(label, factors)

    step_scale = 4.0 * len(terms) * 5.0 ** (order // 2 - 1) if slices == 1 else 0.0
    if slices > 1:
        label = f"{label}/r{slices}"
    return ParamUnitary(label, layout, Repeat(level, slices, step_scale))


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
    theoretical_slices: int | None
    error: float
    unitary: ParamUnitary


def timeslice(
    pu: ParamUnitary,
    target: Callable[[float], Operator],
    t: float,
    eps: float,
    p: float,
    generator_norm: float | None = None,
    max_slices: int = 1 << 20,
) -> TimesliceResult:
    """Smallest r with ||U(t/r)^r - target(t)|| <= eps.

    Doubling search bracket, then bisection to the minimal count. The
    theoretical count r ~ (C t)^(1 + 1/(p-1)) / eps^(1/(p-1)) is recorded
    alongside when a generator norm C is supplied.
    """
    target_mat = target(t).mat
    errors: dict[int, float] = {}

    def err(r: int) -> float:
        if r not in errors:
            errors[r] = spectral_norm(sliced(pu, r).eval(t).mat - target_mat)
        return errors[r]

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
    r = hi
    e = err(r)

    theo = None
    if generator_norm is not None and p > 1:
        ct = generator_norm * abs(t)
        theo = max(1, math.ceil(ct ** (1.0 + 1.0 / (p - 1.0)) / eps ** (1.0 / (p - 1.0))))
    return TimesliceResult(r, theo, e, sliced(pu, r))


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
