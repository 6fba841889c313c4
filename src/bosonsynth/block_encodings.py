"""Block-encoded operator arithmetic on a qubit-mode register.

An off-diagonal encoding of a mode operator A is a unitary close to
exp(it [[0, A], [A^dag, 0]]) in the qubit block basis; the upper-right block
divided by it recovers A as t -> 0. Sums and products of encoded operators
are assembled from commutator blocks and splitting formulas, with Clifford
frames steering which block combination survives.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock_ops import KronSum, creation, mode_identity, pauli, qubit_gate
from .product_formulas import (
    Factor,
    FrameGate,
    ParamUnitary,
    Primitive,
    as_linear_term,
    bch,
    compose,
    frame_conjugate,
    primitive_unitary,
    symmetrize,
    trotter,
)
from .tensor_core import HilbertLayout, LayoutMismatchError, Operator, spectral_norm

__all__ = [
    "BlockEncoding",
    "SynthesisBudget",
    "block_generator",
    "s1",
    "identity_encoding",
    "conjugate",
    "add",
    "mult",
    "power",
    "arb_power",
]


def _qubit(row: int, col: int) -> Operator:
    """|row><col| on a qubit."""
    return Operator(HilbertLayout.single_qubit(), np.outer(np.eye(2)[row], np.eye(2)[col]))


def block_generator(target: Operator) -> KronSum:
    """The Hermitian [[0, A], [A^dag, 0]] on qubit (x) mode from a mode
    target A, as the Kronecker sum sigma+ (x) A + sigma- (x) A^dag."""
    return [(1.0, {0: _qubit(0, 1), 1: target}), (1.0, {0: _qubit(1, 0), 1: target.dag()})]


def _herm(x: Operator) -> Operator:
    """(x + x^dag)/2, in one array: (x^dag + x) * 0.5 is the same floats."""
    mat = x.mat.conj().T
    mat += x.mat
    mat *= 0.5
    return Operator(x.layout, mat)


@dataclass(frozen=True)
class SynthesisBudget:
    """Commutator order q and Suzuki index s charged to one ADD/MULT level."""

    bch_order: int
    trotter_index: int

    @staticmethod
    def from_order(p: int) -> "SynthesisBudget":
        """The budget of a level whose operands are accurate to order p."""
        q = max(math.ceil((p - 1) / 2), 1)
        return SynthesisBudget(q, q)


@dataclass
class BlockEncoding:
    """A compiled gate together with the mode operator it encodes:
    unitary ~ exp(it [[0, A], [A^dag, 0]]), block target A in the
    upper-right block. The encoding keeps the gate and the d x d target,
    not the generator: a builder that needs an exact reference forms
    block_generator(A), a Kronecker sum its primitive reads entry by entry.
    """

    unitary: ParamUnitary
    block_target: Operator

    @property
    def layout(self) -> HilbertLayout:
        return self.unitary.layout


def s1(cutoff: int) -> BlockEncoding:
    """The seed encoding of the creation operator: one native exponential."""
    target = creation(cutoff)
    gen = block_generator(target)
    pu = primitive_unitary(Primitive("S1", HilbertLayout.qubit_modes(cutoff), gen))
    return BlockEncoding(pu, target)


def identity_encoding(cutoff: int) -> BlockEncoding:
    """Encodes the mode identity: exp(it X (x) I), a qubit rotation."""
    layout = HilbertLayout.qubit_modes(cutoff)
    pu = primitive_unitary(Primitive("RX", layout, [(1.0, {0: pauli("X")})]))
    return BlockEncoding(pu, mode_identity(cutoff))


@functools.cache
def _frame(name: str, layout: HilbertLayout) -> FrameGate:
    """The qubit frame X, S, H or SH (S times H) on layout, declared once."""
    gate = qubit_gate("S") @ qubit_gate("H") if name == "SH" else qubit_gate(name)
    return FrameGate(name, layout, [(1.0, {0: gate})])


def conjugate(enc: BlockEncoding) -> BlockEncoding:
    """The block swap: X U X on the qubit encodes the target's adjoint, at
    no exponential."""
    pu = frame_conjugate(enc.unitary, _frame("X", enc.layout))
    return BlockEncoding(pu, enc.block_target.dag())


def _commutation_check(a: Operator, b: Operator):
    # The commutator on the interior span: every state but the top one.
    core = (a @ b - b @ a).mat[:-1, :-1]
    scale = spectral_norm(a) * spectral_norm(b)
    if scale > 0 and spectral_norm(core) > 1e-8 * scale:
        warnings.warn(
            "operands do not commute on the interior span; the assembled sum "
            "carries an extra cross term",
            RuntimeWarning,
            stacklevel=3,
        )


def add(
    left: BlockEncoding,
    right: BlockEncoding,
    p: int,
    budget: SynthesisBudget | None = None,
    base: str | None = None,
    symmetrized: bool = False,
) -> BlockEncoding:
    """Encode the product A B of two encoded operators as a fresh
    off-diagonal block, assuming [A, B] = 0 on the interior span.

    Two frame-steered commutator blocks produce the anti-Hermitian and
    Hermitian halves of A B; a Suzuki splitting recombines them. p is the
    order both operands are accurate to (SynthesisBudget.from_order); budget,
    base and symmetrized override the defaults for cost/accuracy studies.
    """
    if left.layout != right.layout:
        raise LayoutMismatchError("operand layouts differ")
    _commutation_check(left.block_target, right.block_target)
    if budget is None:
        budget = SynthesisBudget.from_order(p)
    q, s = budget.bch_order, budget.trotter_index
    layout = left.layout

    frame_x, frame_s, frame_h, frame_sh = (_frame(g, layout) for g in ("X", "S", "H", "SH"))

    b_right_x = frame_conjugate(right.unitary, frame_x)
    b_left_s = frame_conjugate(left.unitary, frame_s)

    block_l = bch(q, b_right_x, left.unitary, base=base)
    block_r = bch(q, b_left_s, b_right_x, base=base)
    if symmetrized:
        block_l = symmetrize(block_l)
        block_r = symmetrize(block_r)
    term_l = as_linear_term(frame_conjugate(block_l, frame_sh))
    term_r = as_linear_term(frame_conjugate(block_r, frame_h))

    split = trotter(2 * s, [term_l, term_r])
    inner = frame_conjugate(
        compose(f"add[{left.unitary.label},{right.unitary.label}]", [Factor(split, 0.5)]),
        frame_x,
    )

    return BlockEncoding(inner, left.block_target @ right.block_target)


def mult(
    left: BlockEncoding,
    right: BlockEncoding,
    p: int,
    base: str | None = None,
) -> tuple[ParamUnitary, KronSum]:
    """Compile a Hermitian product A B into the upper-left block: the gate
    and the generator it approximates.

    A single commutator block of the frame-steered operands lands
    exp(it G), G = [[herm(AB), 0], [0, -herm(BA)]] with herm(X) = (X +
    X^dag)/2, so the upper-left block is A B when A B is Hermitian. G is
    returned as the Kronecker sum |0><0| (x) herm(AB) - |1><1| (x)
    herm(BA) of two d x d products. p is the order both operands are
    accurate to (SynthesisBudget.from_order).
    """
    if left.layout != right.layout:
        raise LayoutMismatchError("operand layouts differ")
    a_t, b_t = left.block_target, right.block_target
    ab = a_t @ b_t
    herm_defect = spectral_norm(ab - ab.dag())
    scale = max(spectral_norm(ab), 1e-300)
    if herm_defect > 1e-8 * scale:
        warnings.warn(
            "encoded product is not Hermitian; the upper-left block will "
            "carry only its Hermitian part",
            RuntimeWarning,
            stacklevel=2,
        )
    upper = _herm(ab)
    del ab  # before B A is formed, which keeps the Kerr build below two full-size matrices
    gen = [(1.0, {0: _qubit(0, 0), 1: upper}), (-1.0, {0: _qubit(1, 1), 1: _herm(b_t @ a_t)})]
    q = SynthesisBudget.from_order(p).bch_order
    layout = left.layout
    frame_x, frame_s = _frame("X", layout), _frame("S", layout)

    b_left_s = frame_conjugate(left.unitary, frame_s)
    b_right_x = frame_conjugate(right.unitary, frame_x)
    block = bch(q, b_left_s, b_right_x, base=base)
    inner_lin = as_linear_term(block)
    inner = compose(
        f"mult[{left.unitary.label},{right.unitary.label}]",
        [Factor(inner_lin, 0.5)],
    )
    return inner, gen


def power(
    k: int,
    p: int,
    cutoff: int,
    budget: SynthesisBudget | None = None,
    base: str | None = None,
    symmetrized: bool = False,
) -> BlockEncoding:
    """Encoding of (a^dag)^k for k a power of two, by halving and adding.

    Each halving level doubles the order charged to its operands, so the
    leaf accuracy supports the full tree. budget/base/symmetrized override
    the per-level defaults uniformly, for cost/accuracy studies.
    """
    if k < 1 or (k & (k - 1)) != 0:
        raise ValueError("k must be a positive power of two")
    if p < 1:
        raise ValueError("order p must be >= 1")
    if k == 1:
        return s1(cutoff)
    half = power(k // 2, 2 * p, cutoff, budget, base, symmetrized)
    return add(half, half, 2 * p, budget, base, symmetrized)


def arb_power(k: int, p: int, cutoff: int) -> BlockEncoding:
    """Encoding of (a^dag)^k for arbitrary k >= 1 from its binary digits.

    Single-bit k needs no adder and collapses to the power-of-two route.
    Otherwise the digit range splits in half, the halves recurse at doubled
    order, and one ADD joins them; zero digits contribute the identity
    encoding.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if p < 1:
        raise ValueError("order p must be >= 1")
    bits = [int(c) for c in bin(k)[2:]][::-1]

    def leaf(idx: int, order: int) -> BlockEncoding:
        if bits[idx]:
            return power(2**idx, order, cutoff)
        return identity_encoding(cutoff)

    def build(lo: int, hi: int, order: int) -> BlockEncoding:
        if lo == hi:
            return leaf(lo, order)
        mid = lo + (hi - lo) // 2
        lower = build(lo, mid, 2 * order)
        upper = build(mid + 1, hi, 2 * order)
        return add(lower, upper, 2 * order)

    if sum(bits) == 1:
        return power(k, p, cutoff)
    return build(0, len(bits) - 1, p)
